import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import decimal_digits
from ratform import (
    Mat,
    Poly,
    PrimeField,
    Rationals,
    complete_to_basis,
    eval_poly_vec,
    format_matrix,
    inverse,
    is_similar,
    kernel_basis,
    local_min_poly,
    parse_matrix,
    poly_gcd,
    rnf,
    solve,
)
from ratform.field import PRIME_BOUND


def test_rational_addition_example():
    K = Rationals()
    assert K.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_gf7_multiplication_example():
    K = PrimeField(7)
    assert K.mul(3, 5) == 1


@pytest.mark.parametrize("K", [Rationals(), PrimeField(7)])
def test_inverse_of_zero_raises(K):
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero)


def _scalars(x):
    """Every scalar in a result made of matrices, polynomials, lists and tuples."""
    if isinstance(x, Mat):
        return [a for row in x.data for a in row]
    if isinstance(x, Poly):
        return list(x.coeffs)
    if isinstance(x, (list, tuple)):
        return [a for y in x for a in _scalars(y)]
    return [x]


def test_int_entries_over_q_give_exact_results():
    """Plain ints are exact rationals: an int pivot is inverted to a Fraction, never a float."""
    Q = Rationals()

    def results(s):
        a = Mat(Q, [[s(3), s(1), s(0)], [s(1), s(1), s(2)], [s(0), s(2), s(5)]])
        swap = Mat(Q, [[s(0), s(1)], [s(1), s(0)]])
        return [
            inverse(Mat(Q, [[s(2), s(0)], [s(0), s(3)]])),
            inverse(a),
            solve(Mat(Q, [[s(3), s(1)], [s(1), s(1)]]), [s(1), s(0)]),
            kernel_basis(Mat(Q, [[s(2), s(4)], [s(1), s(2)]])),
            local_min_poly(swap, [s(3), s(1)])[:3],
            poly_gcd(Poly(Q, [s(2), s(3)]), Poly(Q, [s(4), s(6)])),
            eval_poly_vec(Poly(Q, [s(1), s(2)]), a, [s(1), s(2), s(3)]),
            complete_to_basis(Q, [[s(2), s(0), s(1)]], 3),
            rnf(a),
            is_similar(a, a, witness=True),
        ]

    got = results(int)
    assert not [x for x in _scalars(got) if isinstance(x, float)]
    assert got == results(Fraction)


def test_inexact_scalars_are_refused_where_they_enter():
    """A float (or a Decimal, or a Fraction over GF(p)) has no exact value
    in the field: building a matrix, polynomial or vector from it, or
    applying a matrix or polynomial to it, raises TypeError naming it,
    where it once gave a float result or failed deep in the elimination.
    An int, a bool included, is the field element it stands for."""
    Q, G = Rationals(), PrimeField(7)
    refused = [
        (lambda: Mat(Q, [[0.1, 0.2], [0.3, 0.4]]), "0.1"),
        (lambda: Mat(G, [[2.0, 0], [0, 1]]), "float"),
        (lambda: Poly(G, [2.5, 1]), "float"),
        (lambda: Poly(Q, [Decimal("0.5"), 1]), "Decimal"),
        (lambda: Mat(G, [[1, Fraction(1, 2)]]), "Fraction"),
        (lambda: local_min_poly(Mat.identity(Q, 2), [1, 0.5]), "0.5"),
        (lambda: complete_to_basis(G, [[1, 2, 3.0]], 3), "float"),
        (lambda: Mat.from_ints(Q, [[0.1]]), "float"),
        (lambda: Poly.from_ints(Q, [0.5, 1]), "float"),
        (lambda: Mat.identity(G, 2) * [2.0, 1], "float"),
        (lambda: Mat.identity(Q, 2) * [0.5, 1], "0.5"),
        (lambda: eval_poly_vec(Poly(G, [1, 1]), Mat.identity(G, 2), [2.5, 1]), "float"),
    ]
    for build, name in refused:
        with pytest.raises(TypeError, match=name):
            build()
    assert Mat(G, [[True, -8]]).data == [[1, 6]]
    assert Mat(Q, [[1, Fraction(1, 2)]]).data == [[1, Fraction(1, 2)]]
    assert Mat.identity(G, 2) * [9, -1] == [2, 6]
    assert eval_poly_vec(Poly(G, [1, 1]), Mat.identity(G, 2), [9, -1]) == [4, 5]
    # over Q every int, a bool included, is held as the Fraction it stands for
    eye = Mat(Q, [[True, False], [False, True]])
    assert format_matrix(eye) == "field rational\n2\n1 0\n0 1\n"
    assert parse_matrix(format_matrix(eye)) == eye == Mat.identity(Q, 2)
    assert str(Poly(Q, [True, True])) == "X + 1"
    held = eye.data + [Poly(Q, [True, 2]).coeffs, Mat.identity(Q, 2) * [True, 3]]
    assert all(type(x) is Fraction for r in held for x in r)


def test_modulus_must_be_prime():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for good in (2, 3, 7, 101):
        PrimeField(good)


def test_primality_of_large_moduli_is_proven_quickly():
    # Miller-Rabin takes well under a millisecond for all three; trial
    # division on 2**61 - 1 ran for minutes, so the bound is a wide margin.
    start = time.perf_counter()
    for good in (2**61 - 1, 998244353, 1000000007):
        PrimeField(good)
    assert time.perf_counter() - start < 1.0
    # Two Carmichael numbers, a strong pseudoprime to bases 2, 3, 5, 7, and
    # psi_12, the least strong pseudoprime to every prime base up to 37.
    for bad in (561, 41041, 3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(bad)
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        PrimeField(2**89 - 1)


@pytest.mark.parametrize("K", [Rationals(), PrimeField(7)])
def test_field_axioms_on_random_triples(K):
    rng = random.Random(101)

    def scalar():
        if K.kind == "gf":
            return rng.randrange(K.p)
        return Fraction(rng.randint(-20, 20), rng.randint(1, 20))

    for _ in range(1000):
        a, b, c = scalar(), scalar(), scalar()
        assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(a, b) == K.mul(b, a)
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        assert K.add(a, K.neg(a)) == K.zero
        if a != K.zero:
            assert K.mul(a, K.inv(a)) == K.one


def test_rational_string_round_trip():
    K = Rationals()
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(1, 50)
        value = Fraction(a, b)
        assert K.parse(K.format(value)) == value
    assert K.parse("-4/6") == Fraction(-2, 3)
    assert K.format(Fraction(-2, 3)) == "-2/3"
    assert K.format(Fraction(4, 2)) == "2"


def test_rational_format_is_exact_past_the_int_to_str_limit():
    K = Rationals()
    for value in (10**5000, -(3**20000), Fraction(10**5000 + 1, 3), Fraction(-7, 2**20000)):
        value = Fraction(value)
        num, den = decimal_digits(value.numerator), decimal_digits(value.denominator)
        assert K.format(value) == (num if den == "1" else f"{num}/{den}")
    assert K.format(Fraction(-10**5000, 7)) == "-1" + "0" * 5000 + "/7"


def test_rational_parse_rejects_tokens_past_the_int_to_str_limit():
    with pytest.raises(ValueError, match="100000"):
        Rationals().parse("7" * 100_001)


def test_parse_reads_integers_up_to_the_digit_cap():
    nines, value = "9" * 100_000, 10**100_000 - 1
    assert Rationals().parse("-" + nines) == -value
    assert Rationals().parse("1/" + nines) == Fraction(1, value)
    assert PrimeField(101).parse(nines) == value % 101
    with pytest.raises(ValueError, match="100001 digits"):
        PrimeField(101).parse("9" * 100_001)


def test_parse_refuses_digits_outside_ascii():
    # Arabic-Indic three, 1 over Arabic-Indic seven, fullwidth one: int() reads each
    for K in (Rationals(), PrimeField(7)):
        for text in ("\u0663", "1/\u0667", "\uff11"):
            with pytest.raises(ValueError, match="scalar"):
                K.parse(text)


def test_parse_takes_the_whole_token():
    # a regex ending in `$` would also match before a final newline
    for K in (Rationals(), PrimeField(7)):
        for text in ("5\n", "1/2\n", " 5", "5 "):
            with pytest.raises(ValueError, match="scalar"):
                K.parse(text)


@pytest.mark.parametrize("p", [2, 3, 7, 101])
def test_gf_inverses_exhaustive(p):
    K = PrimeField(p)
    for a in range(1, p):
        assert K.mul(K.inv(a), a) == 1


def test_gf_parse_reduces_mod_p():
    K = PrimeField(7)
    assert K.parse("10") == 3
    assert K.parse("-3") == 4
    with pytest.raises(ValueError):
        K.parse("1/2")


def test_rational_parse_rejects_garbage():
    K = Rationals()
    for bad in ("x", "1.5", "1/2/3", ""):
        with pytest.raises(ValueError):
            K.parse(bad)
    with pytest.raises(ZeroDivisionError):
        K.parse("1/0")


def test_op_count_tallies_arithmetic():
    K = PrimeField(7)
    K.reset_op_count()
    K.add(1, 2)
    K.mul(3, 4)
    K.matvec([[1, 2, 3], [0, 1, 0]], [4, 5, 6])
    assert K.op_count == 2 + 2 * 5


def test_field_equality_ignores_counters():
    a, b = PrimeField(7), PrimeField(7)
    a.add(1, 1)
    assert a == b
    assert PrimeField(7) != PrimeField(101)
    assert Rationals() == Rationals()
    assert Rationals() != PrimeField(7)
