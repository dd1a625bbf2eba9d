import hashlib
import random
import sys

import pytest

from conftest import rand_invertible, rand_matrix, rand_monic, rand_nilpotent, rand_scalar, unit
from ratform import (
    Mat,
    Poly,
    PrimeField,
    Rationals,
    block_diag,
    canonical,
    char_poly,
    char_poly_oracle,
    companion,
    eval_poly,
    eval_poly_vec,
    format_matrix,
    invariant_factors,
    inverse,
    is_similar,
    linalg,
    local_min_poly,
    min_poly,
    minpoly,
    nilpotent_jnf,
    rank,
    rnf,
)
from ratform.errors import (
    DimensionError,
    InternalInvariantError,
    MixedFieldError,
    NotNilpotentError,
)


def P(K, *ints):
    return Poly.from_ints(K, ints)


def assert_rnf_contract(a, result):
    n = a.nrows
    assert sum(f.degree for f in result.factors) == n
    for f in result.factors:
        assert f.is_monic and f.degree >= 1
    for earlier, later in zip(result.factors, result.factors[1:]):
        assert later.divides(earlier)
    assert result.rnf == block_diag([companion(f) for f in result.factors])
    assert inverse(result.transform) * a * result.transform == result.rnf


def test_rnf_zero_matrix():
    K = Rationals()
    z = Mat.zeros(K, 2, 2)
    got = rnf(z)
    assert got.factors == [P(K, 0, 1), P(K, 0, 1)]
    assert got.rnf == z
    assert got.transform == Mat.identity(K, 2)


def test_rnf_single_nilpotent_block():
    K = Rationals()
    got = rnf(Mat.from_ints(K, [[0, 1], [0, 0]]))
    assert got.factors == [P(K, 0, 0, 1)]
    assert got.rnf == Mat.from_ints(K, [[0, 0], [1, 0]])


def test_rnf_diagonal_example_with_transform():
    K = Rationals()
    a = Mat.from_ints(K, [[1, 0], [0, 2]])
    got = rnf(a)
    assert got.factors == [P(K, 2, -3, 1)]
    assert got.rnf == Mat.from_ints(K, [[0, -2], [1, 3]])
    assert got.transform == Mat.from_ints(K, [[1, 1], [1, 2]])
    assert_rnf_contract(a, got)


def test_rnf_identity():
    K = Rationals()
    got = rnf(Mat.identity(K, 3))
    assert got.factors == [P(K, -1, 1)] * 3
    assert got.rnf == Mat.identity(K, 3)


def test_rnf_rejects_empty_matrix():
    K = Rationals()
    with pytest.raises(ValueError):
        rnf(Mat(K, []))


def test_rnf_round_trip_random():
    K = PrimeField(7)
    rng = random.Random(73)
    for _ in range(60):
        a = rand_matrix(K, rng, rng.randint(1, 8))
        assert_rnf_contract(a, rnf(a))
    Q = Rationals()
    rng = random.Random(79)
    for _ in range(15):
        a = rand_matrix(Q, rng, rng.randint(1, 5))
        assert_rnf_contract(a, rnf(a))


def test_rnf_first_factor_is_minimal_polynomial():
    K = PrimeField(7)
    rng = random.Random(83)
    for _ in range(30):
        a = rand_matrix(K, rng, rng.randint(1, 7))
        assert rnf(a).factors[0] == min_poly(a)


def test_rnf_idempotent_on_its_own_output():
    K = PrimeField(7)
    rng = random.Random(89)
    for _ in range(20):
        a = rand_matrix(K, rng, rng.randint(1, 7))
        got = rnf(a)
        assert invariant_factors(got.rnf) == got.factors


def _random_divisibility_chain(K, rng, max_total=8):
    """P_1, ..., P_r monic with P_{i+1} | P_i, degrees summing to <= max_total."""
    from conftest import rand_monic

    chain = [rand_monic(K, rng, rng.randint(1, 2))]
    while rng.random() < 0.6:
        step = rand_monic(K, rng, rng.randint(0, 1))
        bigger = chain[0] * step if step.degree >= 1 else chain[0]
        total = bigger.degree + sum(f.degree for f in chain)
        if total > max_total:
            break
        chain.insert(0, bigger)
    return chain


def test_rnf_recovers_prescribed_factors():
    """Known-answer oracle: conjugating a hand-built form must not change it."""
    for K, seed, count in ((PrimeField(7), 127, 50), (Rationals(), 131, 10)):
        rng = random.Random(seed)
        for _ in range(count):
            chain = _random_divisibility_chain(K, rng)
            form = block_diag([companion(f) for f in chain])
            s = rand_invertible(K, rng, form.nrows)
            scrambled = inverse(s) * form * s
            got = rnf(scrambled)
            assert got.factors == chain
            assert got.rnf == form
            assert_rnf_contract(scrambled, got)


def test_invariant_factors_examples():
    K = Rationals()
    assert invariant_factors(Mat.identity(K, 2)) == [P(K, -1, 1)] * 2
    p = P(K, 2, -3, 1)
    assert invariant_factors(companion(p)) == [p]
    assert invariant_factors(Mat.from_ints(K, [[1, 0], [0, 2]])) == [p]


def test_invariant_factors_conjugation_invariant():
    K = PrimeField(7)
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randint(1, 8)
        a = rand_matrix(K, rng, n)
        s = rand_invertible(K, rng, n)
        assert invariant_factors(inverse(s) * a * s) == invariant_factors(a)


def test_char_poly_examples_and_oracle_agreement():
    K = Rationals()
    assert char_poly(Mat.identity(K, 2)) == P(K, 1, -2, 1)
    p = P(K, 1, 1, 0, 1)
    assert char_poly(companion(p)) == p
    assert char_poly(Mat.zeros(K, 3, 3)) == P(K, 0, 0, 0, 1)

    G = PrimeField(7)
    rng = random.Random(101)
    for _ in range(30):
        a = rand_matrix(G, rng, rng.randint(1, 6))
        assert char_poly(a) == char_poly_oracle(a)


def test_is_similar_examples():
    K = Rationals()
    rng = random.Random(103)
    a = rand_matrix(K, rng, 3)
    s = rand_invertible(K, rng, 3)
    same, witness = is_similar(a, inverse(s) * a * s, witness=True)
    assert same and a * witness == witness * (inverse(s) * a * s)

    assert not is_similar(Mat.identity(K, 2), Mat.zeros(K, 2, 2))
    # equal characteristic polynomials, different invariant factors
    shift = Mat.from_ints(K, [[0, 1], [0, 0]])
    zero = Mat.zeros(K, 2, 2)
    assert char_poly(shift) == char_poly(zero)
    assert not is_similar(shift, zero)


def test_a_singular_similarity_witness_is_refused(monkeypatch):
    """A zero S satisfies A*S == S*B on its own; S*Tb == Ta refuses it."""
    K = Rationals()
    a = rand_matrix(K, random.Random(104), 3)
    monkeypatch.setattr(canonical, "over_rows", lambda x, t: Mat.zeros(K, 3, 3))
    with pytest.raises(InternalInvariantError, match="witness"):
        is_similar(a, a, witness=True)


def test_similarity_witness_costs_one_product():
    """The witness is checked by S*Tb == Ta alone.

    A*S == S*B plus rank(S), the check it replaces, took this call to
    1,006,766 ops.  S = Ta * Ta^-1 is the identity.
    """
    K = PrimeField(101)
    a = rand_matrix(K, random.Random(227), 40)
    K.reset_op_count()
    same, s = is_similar(a, a, witness=True)
    assert K.op_count == 879_546
    assert same and s == Mat.identity(K, 40)


def test_is_similar_input_checks():
    K, G = Rationals(), PrimeField(7)
    with pytest.raises(DimensionError):
        is_similar(Mat.identity(K, 2), Mat.identity(K, 3))
    with pytest.raises(MixedFieldError):
        is_similar(Mat.identity(K, 2), Mat.identity(G, 2))


def test_is_similar_is_an_equivalence_on_samples():
    K = PrimeField(7)
    rng = random.Random(107)
    mats = [rand_matrix(K, rng, 3) for _ in range(6)]
    for a in mats:
        assert is_similar(a, a)
        for b in mats:
            assert is_similar(a, b) == is_similar(b, a)
            for c in mats:
                if is_similar(a, b) and is_similar(b, c):
                    assert is_similar(a, c)


def test_nilpotent_jnf_examples():
    K = Rationals()
    got = nilpotent_jnf(Mat.zeros(K, 2, 2))
    assert got.partition == [1, 1]
    assert got.jnf == Mat.zeros(K, 2, 2)
    assert got.transform == Mat.identity(K, 2)

    got = nilpotent_jnf(Mat.from_ints(K, [[0, 1], [0, 0]]))
    assert got.partition == [2]

    got = nilpotent_jnf(Mat.from_ints(K, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert got.partition == [2, 1]


def test_nilpotent_jnf_rejects_non_nilpotent():
    K = Rationals()
    with pytest.raises(NotNilpotentError):
        nilpotent_jnf(Mat.identity(K, 2))
    # Inputs with a nilpotent part: the minimal polynomial has X as a
    # factor but is not a monomial.
    with pytest.raises(NotNilpotentError):
        nilpotent_jnf(block_diag([companion(P(K, 0, 0, 1)), Mat.identity(K, 1)]))
    F = PrimeField(7)
    rng = random.Random(211)
    strict = [[rand_scalar(F, rng) if j > i else 0 for j in range(4)] for i in range(4)]
    unipotent = [[1 if i == j else x for j, x in enumerate(r)] for i, r in enumerate(strict)]
    with pytest.raises(NotNilpotentError):
        nilpotent_jnf(Mat(F, unipotent))
    s = rand_invertible(F, rng, 4)
    mixed = inverse(s) * block_diag([companion(P(F, 0, 0, -3, 1)), companion(P(F, 0, 1))]) * s
    assert min_poly(mixed) == P(F, 0, 0, -3, 1)
    with pytest.raises(NotNilpotentError):
        nilpotent_jnf(mixed)


def test_nilpotent_jnf_is_rnf_on_a_conjugated_nilpotent():
    K = PrimeField(101)
    a = rand_nilpotent(K, random.Random(223), 40)
    K.reset_op_count()
    got = nilpotent_jnf(a)
    jnf_ops = K.op_count
    K.reset_op_count()
    expected = rnf(a)
    assert K.op_count == jnf_ops
    assert got.partition == [f.degree for f in expected.factors]
    assert got.jnf == expected.rnf
    assert got.transform == expected.transform


def _rank_partition(a):
    """Block sizes from rank differences: #(blocks >= s) = rk A^(s-1) - rk A^s."""
    n = a.nrows
    sizes = []
    power = Mat.identity(a.field, n)
    ranks = [n]
    for _ in range(n):
        power = power * a
        ranks.append(rank(power))
    partition = []
    for s in range(1, n + 1):
        count_ge = ranks[s - 1] - ranks[s]
        sizes.append(count_ge)
    for s in range(n, 0, -1):
        exactly = sizes[s - 1] - (sizes[s] if s < n else 0)
        partition.extend([s] * exactly)
    return partition


def test_full_pipeline_across_fields():
    from fractions import Fraction

    rng = random.Random(137)
    for K in (PrimeField(2), PrimeField(3), PrimeField(101)):
        for _ in range(15):
            n = rng.randint(1, 6)
            a = rand_matrix(K, rng, n)
            got = rnf(a)
            assert_rnf_contract(a, got)
            assert got.factors[0] == min_poly(a)
    Q = Rationals()
    for _ in range(10):
        n = rng.randint(1, 4)
        a = Mat(
            Q,
            [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ],
        )
        got = rnf(a)
        assert_rnf_contract(a, got)
        assert char_poly(a) == char_poly_oracle(a)


def test_nilpotent_jnf_random_contract():
    K = PrimeField(7)
    rng = random.Random(109)
    for _ in range(40):
        n = rng.randint(1, 8)
        a = rand_nilpotent(K, rng, n)
        got = nilpotent_jnf(a)
        assert inverse(got.transform) * a * got.transform == got.jnf
        assert got.partition == sorted(got.partition, reverse=True)
        assert got.partition == _rank_partition(a)
        assert got.partition == [f.degree for f in invariant_factors(a)]


def _scrambled_chain(K, rng, n, blocks):
    """S^-1 * block_diag(companion(P_i)) * S for a random divisibility chain.

    The degrees are a random partition of n into `blocks` parts; each
    factor is the next smaller one times a random monic cofactor.  S is
    a product of random unit lower and upper triangular matrices, with
    entries in {-1, 0, 1} over Q so the input stays integral.
    """
    cuts = sorted(rng.sample(range(1, n), blocks - 1))
    degrees = sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True)
    chain = [rand_monic(K, rng, degrees[-1])]
    for hi, lo in zip(degrees[-2::-1], degrees[:0:-1]):
        chain.insert(0, chain[0] * rand_monic(K, rng, hi - lo))
    form = block_diag([companion(f) for f in chain])
    small = K.kind == "rational"

    def draw():
        return K.from_int(rng.randint(-1, 1)) if small else rand_scalar(K, rng)

    def unit(i, j):
        return K.one if i == j else K.zero

    lower = Mat(K, [[draw() if j < i else unit(i, j) for j in range(n)] for i in range(n)])
    upper = Mat(K, [[draw() if j > i else unit(i, j) for j in range(n)] for i in range(n)])
    s = lower * upper
    return chain, inverse(s) * form * s


def _pinned_input(field, n, kind, blocks, seed):
    K = Rationals() if field == "Q" else PrimeField(int(field[2:]))
    rng = random.Random(seed)
    if kind == "uniform":
        return rand_matrix(K, rng, n)
    if kind == "scalar":
        c = rand_scalar(K, rng)
        return Mat(K, [[c if i == j else K.zero for j in range(n)] for i in range(n)])
    return _scrambled_chain(K, rng, n, blocks)[1]


def test_rnf_op_counts_with_many_blocks_and_on_criterion_8_inputs():
    K = PrimeField(101)
    n = 40
    two = Mat(K, [[2 if i == j else 0 for j in range(n)] for i in range(n)])
    K.reset_op_count()
    assert rnf(two).factors == [P(K, -2, 1)] * n
    # 40 blocks; a full conjugation per block took 34,403,426, a
    # matrix-vector product for the first step of each escape candidate
    # took 1,711,849, coupling updates for blocks with no couplings took
    # 432,649, an index scan plus an rref per split took 347,291, and
    # eliminating each Krylov chain three times (for its polynomial, for
    # the escape scan's known span and for the split) took 292,392, and
    # a matrix-vector product for each unit column of T in the
    # certificate took 270,214, and scanning every unit vector of each
    # block, where the certificate proves what a dense probe suggests,
    # took 143,814
    assert K.op_count <= 116_841
    # the escape scan stops early only where a dense probe is annihilated
    # too, so inputs whose blocks are found with no escape only pay for
    # the probe: the full scan of every block took 2,611,146 for the
    # diagonal with each value twice, 152,036 for I + E_nn and 1,799,086
    # for diag(1, ..., 1, 20, ..., 39) with twenty 1s
    for values, degrees, count in (
        ([v for v in range(1, 21) for _ in (0, 1)], [20, 20], 2_614_426),
        ([1] * (n - 1) + [2], [2] + [1] * 38, 132_426),
        ([1] * 20 + list(range(20, 40)), [21] + [1] * 19, 1_800_110),
    ):
        diagonal = Mat(K, [[values[i] if i == j else 0 for j in range(n)] for i in range(n)])
        K.reset_op_count()
        assert [f.degree for f in rnf(diagonal).factors] == degrees
        assert K.op_count <= count, count
    # one Jordan block, far from cyclic on e_1: adding the chain of an
    # absorbed candidate to the known span twice took 6,957,257, and
    # re-eliminating the chains took 6,367,915
    ones = Mat(K, [[1 if j > i else 0 for j in range(n)] for i in range(n)])
    K.reset_op_count()
    assert rnf(ones).factors == [Poly.monomial(K, n)]
    assert K.op_count <= 5_357_995
    # random upper triangular: e_1 is an eigenvector, so the scan combines
    # one escape after another; spinning h(A)x and k(A)y afresh for each
    # lcm vector took 496,135, reading them off the cached Krylov vectors
    # takes 461,035 and leaves T as it was
    rng = random.Random(7)
    upper = Mat(K, [[rng.randrange(101) if j >= i else 0 for j in range(20)] for i in range(20)])
    K.reset_op_count()
    got = rnf(upper)
    assert K.op_count <= 461_035
    assert len(got.factors) == 1
    digest = hashlib.sha256(format_matrix(got.transform).encode()).hexdigest()
    assert digest == "c0a3d348a63b0eaa8cc91a1ddd4af65c5cbb03f5cde930ccc0f9b9c3a5ec4ef6"
    # criterion 8's matrices and a generic n=48, at the counts of one
    # forward elimination per Krylov chain, by last entries, and a
    # forward-only rank for the certificate; re-solving the chain and a
    # full rref of T took 9,520 / 77,430 / 627,158 / 1,087,440, and
    # reducing the chain by first entries, then again for the split,
    # took 5,460 / 43,053 / 342,069 / 590,761, and a matrix-vector
    # product for T's first column, e_1, in the certificate took
    # 5,370 / 42,527 / 340,707 / 588,523.  Pinned exactly: the
    # row-level field kernels count what the scalar calls they replace
    # counted.
    rng = random.Random(20240809)
    for n, count in ((10, 5_180), (20, 41_747), (40, 337_547), (48, 583_963)):
        K = PrimeField(101)
        a = Mat(K, [[rng.randrange(101) for _ in range(n)] for _ in range(n)])
        K.reset_op_count()
        assert len(rnf(a).factors) == 1
        assert K.op_count == count, n


def test_each_krylov_chain_is_eliminated_once(monkeypatch):
    """The elimination that finds a block's polynomial also seeds the escape scan and splits it.

    On scrambled chains whose blocks never escape (e_1 of each quotient
    realizes its minimal polynomial), every vector of a block's Krylov
    chain after e_1 reaches `SpanTracker.try_add` once, forward or
    reversed, while rnf peels the blocks: finding the polynomial,
    seeding the known span of the escape scan and splitting the block
    off used to feed it three times.  The certificate's rank of T is
    not counted; e_1 is left out, as the scan's unit vectors read the
    same reversed.
    """
    fed, blocks, spins, certified = [], [], [], []
    try_add, peel = linalg.SpanTracker.try_add, canonical.min_poly_vector
    spin = minpoly.local_min_poly
    certifying = False

    def feeding(tracker, entries):
        if not certifying:
            fed.append(list(entries))
        return try_add(tracker, entries)

    def peeling(sub, trusted):
        blocks.append(peel(sub, trusted))
        return blocks[-1]

    def spinning(a, x):
        spins.append(x)
        return spin(a, x)

    def certifying_rank(t):
        nonlocal certifying
        certifying = True
        certified.append(linalg.pivot_columns(t))
        certifying = False
        return certified[-1]

    monkeypatch.setattr(linalg.SpanTracker, "try_add", feeding)
    monkeypatch.setattr(canonical, "min_poly_vector", peeling)
    monkeypatch.setattr(minpoly, "local_min_poly", spinning)
    monkeypatch.setattr(canonical, "pivot_columns", certifying_rank)
    checked = 0
    cases = [(PrimeField(101), 12), (PrimeField(101), 3), (Rationals(), 12), (Rationals(), 9)]
    for K, seed in cases:
        factors, a = _scrambled_chain(K, random.Random(seed), 14, 4)
        del fed[:], blocks[:], spins[:]
        assert rnf(a).factors == factors
        assert len(spins) == len(blocks) == 4  # no block escapes
        for ann in blocks:
            for v in ann.krylov[1:]:
                assert sum(f in (v, v[::-1]) for f in fed) == 1
                checked += 1
    assert checked == 40 and len(certified) == len(cases)


def test_eval_poly_vec_starts_horner_at_the_leading_term():
    """A constant costs n ops and a zero polynomial none; rnf's T is unchanged."""
    K = PrimeField(101)
    rng = random.Random(111)
    a = rand_matrix(K, rng, 8)
    v = [rng.randrange(101) for _ in range(8)]
    for p in (P(K, 5), P(K, 1), P(K, 3, 0, 1), rand_monic(K, rng, 4)):
        K.reset_op_count()
        got = eval_poly_vec(p, a, v)
        if p.degree == 0:
            assert K.op_count == 8
        assert got == eval_poly(p, a) * v
    K.reset_op_count()
    assert eval_poly_vec(Poly.zero(K), a, v) == [K.zero] * 8
    assert K.op_count == 0
    # distinct eigenvalues make every lcm combination coprime (h = k = 1);
    # Horner from the zero vector took 14,064, eliminating each Krylov
    # chain three times took 13,952, and checking each combination
    # against a recomputed lcm took 12,811
    d = Mat(K, [[i + 1 if i == j else 0 for j in range(8)] for i in range(8)])
    K.reset_op_count()
    got = rnf(d)
    assert K.op_count == 12_345
    digest = hashlib.sha256(format_matrix(got.transform).encode()).hexdigest()
    assert digest == "39d456c11a85e19e88b1063d9aed2b03d63d501f5db7a0f810e952d1d024ebb5"


def test_cyclic_rnf_needs_neither_solve_nor_rref(monkeypatch):
    """A cyclic input goes through one Krylov elimination and the certificate only."""
    K = PrimeField(101)
    a = rand_matrix(K, random.Random(89), 12)
    expected = rnf(a)
    assert len(expected.factors) == 1

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the cyclic path")

    patched = 0
    for name in ("solve", "rref"):
        original = getattr(linalg, name)
        for key, module in list(sys.modules.items()):
            if key == "ratform" or key.startswith("ratform."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, forbidden)
                        patched += 1
    assert patched >= 4  # linalg's own names and canonical's imports
    got = rnf(a)
    assert got.factors == expected.factors
    assert got.transform == expected.transform


def test_derogatory_rnf_needs_neither_solve_nor_rref(monkeypatch):
    """Each block splits off through the tracker that reduced its Krylov chain."""
    inputs = []
    for K, seed in ((PrimeField(101), 97), (Rationals(), 98)):
        two = [[K.from_int(2) if i == j else K.zero for j in range(9)] for i in range(9)]
        inputs += [Mat(K, two), _scrambled_chain(K, random.Random(seed), 12, 4)[1]]
    expected = [rnf(a) for a in inputs]
    assert all(len(e.factors) > 1 for e in expected)

    def forbidden(*args, **kwargs):
        raise AssertionError("called while splitting a block")

    for name in ("solve", "rref"):
        original = getattr(linalg, name)
        for key, module in list(sys.modules.items()):
            if key == "ratform" or key.startswith("ratform."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, forbidden)
    for a, e in zip(inputs, expected):
        got = rnf(a)
        assert got.factors == e.factors
        assert got.transform == e.transform


def _first_escape(a):
    """0-based index of the first e_i that the minimal polynomial of e_1 leaves nonzero."""
    K = a.field
    mu = local_min_poly(a, unit(K, a.nrows, 0)).mu
    for i in range(a.nrows):
        if any(eval_poly_vec(mu, a, unit(K, a.nrows, i))):
            return i
    return None


def test_min_poly_and_invariant_factors_match_generated_chains():
    """An oracle beyond the 8x8 cofactor cap, on derogatory inputs.

    On a scrambled chain e_1 usually realizes the minimal polynomial at
    once.  The same companion blocks unscrambled and smallest first keep
    e_1 .. e_(deg P_r) inside the first block, so the escape scan passes
    them, and often equal later blocks, before the first escape.
    """
    late = 0
    for K, seed in ((PrimeField(7), 139), (Rationals(), 149)):
        rng = random.Random(seed)
        for n in range(9, 17):
            blocks = rng.randint(2, 5)
            chain, a = _scrambled_chain(K, rng, n, blocks)
            assert min_poly(a) == chain[0]
            assert invariant_factors(a) == chain
            ascending = block_diag([companion(f) for f in reversed(chain)])
            assert min_poly(ascending) == chain[0]
            assert invariant_factors(ascending) == chain
            escape = _first_escape(ascending)
            late += escape is not None and escape >= 2  # past e_2
    assert late >= 8


# (field, n, kind, blocks, seed), the invariant factors, and the sha256 of
# format_matrix(transform).  Recorded with the per-block full conjugation
# that preceded the quotient-coordinate peel: rnf's transform is part of
# its output, so every change of algorithm must reproduce it bit for bit.
PINNED_RNF = [
    (
        ("GF7", 1, "uniform", 1, 1),
        ["X + 6"],
        "11f7d045294fc439831b89bb0796e5db9ae7ade094252b65bde1b7f8b043ed50",
    ),
    (
        ("GF7", 3, "uniform", 1, 2),
        ["X^3 + 3*X^2 + 3"],
        "29e73c37a50220f272cfb60bd269c64e69f7c8fa4d15226f80f78d48cfd5a2e0",
    ),
    (
        ("GF7", 6, "uniform", 1, 3),
        ["X^6 + 6*X^5 + 2*X^4 + 4*X^3 + 3*X^2 + 2*X + 4"],
        "bd7220f382445f9dc785ff5e6111e9409ef0a643db8d0c065ff1762db1a1f5ff",
    ),
    (
        ("GF7", 9, "uniform", 1, 4),
        ["X^9 + 5*X^8 + 2*X^7 + 6*X^6 + 6*X^5 + 2*X^4 + 5*X^3 + 3*X^2 + 5*X + 2"],
        "c942ccc67d24ea1b674459f50f356eb8d0c24cd90721e704531785b093d43d0f",
    ),
    (
        ("GF7", 12, "uniform", 1, 5),
        ["X^12 + 3*X^10 + 6*X^9 + 6*X^8 + 3*X^7 + 2*X^6 + X^5 + X^4 + 5*X^3 + 2*X^2 + 3*X + 3"],
        "47301d5d021db38174f6d7f326d797e1bc7c4901954975e7d70d7f199af86dfb",
    ),
    (
        ("GF7", 5, "chain", 2, 6),
        ["X^4 + 3*X^3 + 2*X^2 + 5*X + 4", "X + 3"],
        "7827b20b9e111c28c2e66f48471819eb22c4de850f868cc6a72b575960739244",
    ),
    (
        ("GF7", 8, "chain", 3, 7),
        ["X^5 + 6*X^2", "X^2 + X + 1", "X + 3"],
        "f7ee834313ce02c8a842a24e5374bd5871bb1e9f02fd0082f6a3c9d35c378143",
    ),
    (
        ("GF7", 10, "chain", 4, 8),
        ["X^4 + 4*X^2 + 5*X", "X^3 + 4*X + 5", "X^2 + 2*X + 1", "X + 1"],
        "1b932481bb4b294bf4c9f58db83d348465e8eb08ec1d3a914bec20f8daf70acf",
    ),
    (
        ("GF7", 14, "chain", 5, 9),
        ["X^5 + 3*X^3 + 3*X^2 + 6*X", "X^4 + 3*X^2 + 3*X + 6", "X^2 + 2*X + 1", "X^2 + 2*X + 1", "X + 1"],
        "c35db1368be06605598c0fbfb6b2aac42452f5b559f669819134bde0846ef39f",
    ),
    (
        ("GF7", 11, "chain", 8, 10),
        ["X^2 + 2*X + 4", "X^2 + 2*X + 4", "X^2 + 2*X + 4", "X + 3", "X + 3", "X + 3", "X + 3", "X + 3"],
        "86aed39945834fd4f8a0391c7436f5e9ca09bcb5300d9685acc01c72e1ca550e",
    ),
    (
        ("GF7", 4, "scalar", 4, 11),
        ["X + 4", "X + 4", "X + 4", "X + 4"],
        "5eeee74fa7a68900b10db169b978824f450643a5bd51494a34e92625be2ab3c3",
    ),
    (
        ("GF7", 7, "chain", 7, 12),
        ["X + 2", "X + 2", "X + 2", "X + 2", "X + 2", "X + 2", "X + 2"],
        "b0dafd05ac7bbf163bbc61a246780ef81c52edf856430250ba364c3b1b50bc6b",
    ),
    (
        ("GF101", 2, "uniform", 1, 13),
        ["X^2 + 82*X + 56"],
        "7a74c1584644e59eedda62e3153cd895b188ef2f7af1314642da0c5437e37224",
    ),
    (
        ("GF101", 7, "uniform", 1, 14),
        ["X^7 + 21*X^6 + 73*X^5 + 12*X^4 + 7*X^3 + 27*X^2 + 77*X + 62"],
        "53fbac821f9d5cbb41265189f17e55493b77b812534ef61f4ecb0c9ca322a3b8",
    ),
    (
        ("GF101", 11, "uniform", 1, 15),
        ["X^11 + 58*X^10 + 52*X^9 + 36*X^8 + 51*X^7 + 76*X^6 + 30*X^5 + 39*X^4 + 15*X^3 + 46*X^2 + 50*X + 17"],
        "8430b987ff3b386c09fba226f21b2e79d748c9ee10100defc81e492f40de546d",
    ),
    (
        ("GF101", 14, "uniform", 1, 16),
        ["X^14 + 36*X^13 + 67*X^12 + 94*X^11 + 63*X^10 + 53*X^9 + 6*X^8 + 29*X^7 + 45*X^6 + 51*X^5 + 93*X^4 + 65*X^3 + 29*X^2 + 64*X + 32"],
        "5394868d55521d1dc29d7078ff8138a1887b01bc288674f077c68da6f39d9aa2",
    ),
    (
        ("GF101", 6, "chain", 3, 17),
        ["X^4 + 60*X^3 + 65*X^2 + 38*X + 31", "X + 38", "X + 38"],
        "348b443f664754441a5b51e9223a2c1acdea9b6bf06cfffddb2a12a3cd019a60",
    ),
    (
        ("GF101", 9, "chain", 2, 18),
        ["X^6 + 82*X^5 + 24*X^4 + 29*X^3 + 37*X^2 + 39*X + 24", "X^3 + 57*X^2 + 84*X + 15"],
        "5ecf748fab55987389fcc59df0dd6c9f715db6e620ea16d959fc27a05320ee83",
    ),
    (
        ("GF101", 12, "chain", 6, 19),
        ["X^4 + 85*X^3 + 100*X^2 + 88*X + 15", "X^3 + 18*X^2 + 5*X + 56", "X^2 + 75*X + 38", "X + 25", "X + 25", "X + 25"],
        "6ef66dddb1fd93a5294d4900c44347279071d8e0d3161c3f7aafbdd615118dc2",
    ),
    (
        ("GF101", 14, "chain", 3, 20),
        ["X^11 + 100*X^10 + 12*X^9 + 99*X^8 + 14*X^7 + 67*X^6 + 55*X^5 + 33*X^3 + 44*X^2 + 23*X + 57", "X^2 + 97*X + 3", "X + 100"],
        "1bff2ecbfed3c660956b0194e6c6bfb13f43fd23ed94e080bf2756a5ca10ea68",
    ),
    (
        ("GF101", 13, "chain", 10, 21),
        ["X^2 + 30*X + 46", "X^2 + 30*X + 46", "X^2 + 30*X + 46", "X + 64", "X + 64", "X + 64", "X + 64", "X + 64", "X + 64", "X + 64"],
        "7ede6c703fc8eba1c54b4b34ea2c22a9b05a156703f8137aa8416843464fdd26",
    ),
    (
        ("GF101", 10, "scalar", 10, 22),
        ["X + 84", "X + 84", "X + 84", "X + 84", "X + 84", "X + 84", "X + 84", "X + 84", "X + 84", "X + 84"],
        "e058a756f499db5206736b2750ea514480ed0d215609dfb3a988fad8e094fac1",
    ),
    (
        ("Q", 1, "uniform", 1, 23),
        ["X - 3"],
        "0aa9d32045f4f05e1d560f24f234ca33ad685a69e2e7ce25c55f34470a7f36b0",
    ),
    (
        ("Q", 4, "uniform", 1, 24),
        ["X^4 - 5*X^3 + 10*X^2 - 24*X + 30"],
        "98527b6e94d21ed333eb6ecc435cd5f9c9f0aa0f4e32f6c0af825dd7f9d9b68a",
    ),
    (
        ("Q", 8, "uniform", 1, 25),
        ["X^8 + 5*X^7 - 21*X^6 - 101*X^5 - 453*X^4 - 2628*X^3 - 6047*X^2 + 22484*X + 63958"],
        "9e992c6563a4fe863220d10450c65280c95fb668ff9f85da1c8ab7d6f804aa76",
    ),
    (
        ("Q", 10, "uniform", 1, 26),
        ["X^10 - 5*X^9 + 28*X^8 - 225*X^7 + 467*X^6 - 5583*X^5 + 10743*X^4 - 40648*X^3 + 369736*X^2 - 61134*X + 554660"],
        "cfff1358e4076c803512063ce173fb3b799979fdfdf470c60fa5d0f33398c9b9",
    ),
    (
        ("Q", 4, "chain", 2, 27),
        ["X^3 - X^2 + 2*X", "X"],
        "db4e0527a01c33ade4000754c56e0e914d663fd6c6c6d25591c17ab2cb3305ed",
    ),
    (
        ("Q", 7, "chain", 3, 28),
        ["X^5 - X^4 - 4*X^3 + 3*X + 1", "X + 1", "X + 1"],
        "1a63cd34547f6e885f49f20ff42d260e5de7fa03f991ae14155a8016013c79e2",
    ),
    (
        ("Q", 9, "chain", 4, 29),
        ["X^4 + X^3 - 10*X^2 - 13*X - 3", "X^2 + 4*X + 3", "X^2 + 4*X + 3", "X + 3"],
        "747737dffa6c83254eabb891339081c3cce36378f9a2bd2195aaccc5bb3a0dde",
    ),
    (
        ("Q", 12, "chain", 5, 30),
        ["X^4 - X^3 - 3*X^2 + 3*X", "X^3 - X^2 - 3*X + 3", "X^3 - X^2 - 3*X + 3", "X - 1", "X - 1"],
        "8bbf4f9d0096e42f1709f264869db2a775fde5e683b22be3887db314d62bf722",
    ),
    (
        ("Q", 10, "chain", 7, 31),
        ["X^3 - 4*X^2 + X + 6", "X^2 - 5*X + 6", "X - 2", "X - 2", "X - 2", "X - 2", "X - 2"],
        "dd388f81eb2fbc173beffbb03a62b5802a60bce857d7c8a95ff02fd3caec8247",
    ),
    (
        ("Q", 5, "scalar", 5, 32),
        ["X + 3", "X + 3", "X + 3", "X + 3", "X + 3"],
        "2ea0a0456448f256e0a7fac94a1787a4a97cde6cef1a1a285c23b2e569311a36",
    ),
    (
        ("Q", 14, "scalar", 14, 33),
        ["X - 1", "X - 1", "X - 1", "X - 1", "X - 1", "X - 1", "X - 1", "X - 1", "X - 1", "X - 1", "X - 1", "X - 1", "X - 1", "X - 1"],
        "a31c2e01fe8e55350512e2e3608811c5d45a9c581f85239ecd7f2f768736315a",
    ),
]


@pytest.mark.parametrize(
    "case, factors, digest",
    PINNED_RNF,
    ids=["{}-n{}-{}{}-s{}".format(*case) for case, _, _ in PINNED_RNF],
)
def test_rnf_transform_is_pinned(case, factors, digest):
    got = rnf(_pinned_input(*case))
    assert [str(f) for f in got.factors] == factors
    assert got.rnf == block_diag([companion(f) for f in got.factors])
    assert hashlib.sha256(format_matrix(got.transform).encode()).hexdigest() == digest
