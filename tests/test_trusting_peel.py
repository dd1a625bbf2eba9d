"""rnf's trusting peel changes nothing.

Inside rnf's peel, `min_poly_vector` may stop a block's escape scan
early: when its first candidate is annihilated, at least two more
chains are left to spin and a fixed dense probe is annihilated too, it
trusts the e_1 chain.  The certificate then proves the factors, and an
attempt that trusted a block and fails a check is peeled once more with
the full scan.  These tests compare rnf against a run forced onto the
full scan, on inputs whose blocks mostly find no escape: factors, T
and the CLI's bytes must agree.  `peel_sweep_large.py` runs the same
comparison on 2,000 larger inputs.
"""

import itertools
import random

import pytest

from conftest import rand_monic, rand_scalar
from ratform import Mat, PrimeField, Rationals, block_diag, canonical, companion, format_matrix, rnf
from ratform.cli import main
from ratform.errors import InternalInvariantError
from test_rank_oracle import scramble

FIELDS = [PrimeField(2), PrimeField(7), PrimeField(101), Rationals()]
IDS = ["GF2", "GF7", "GF101", "Q"]


def _diag(K, values):
    n = len(values)
    return Mat(K, [[K.from_int(values[i]) if i == j else K.zero for j in range(n)] for i in range(n)])


def _parts(rng, n):
    """A random partition of n, descending, with mostly small parts."""
    parts = []
    while sum(parts) < n:
        parts.append(min(n - sum(parts), rng.choice((1, 1, 2, 3, 5))))
    return sorted(parts, reverse=True)


def peel_families(K, rng, n):
    """(name, A) for the structured families, each n x n: c*I, c*I + E_nn,
    a diagonal with each value twice, an axis-aligned block_diag of
    companions with shared factors, random upper triangular with a
    repeated diagonal, and a scrambled divisibility chain."""
    c = rng.randint(1, 4)
    yield "c*I", _diag(K, [c] * n)
    yield "c*I + E_nn", _diag(K, [c] * (n - 1) + [c + 1])
    yield "pairs", _diag(K, [rng.randint(0, 9) for _ in range(n // 2) for _ in (0, 1)] + [c] * (n % 2))
    shared = [rand_monic(K, rng, d) for d in (1, 1, 2)]
    blocks, left = [], n
    while left:
        f = rng.choice(shared)
        for g in rng.sample(shared, rng.randint(0, 2)):
            f = f * g
        f = f if f.degree <= left else rand_monic(K, rng, left)
        blocks.append(companion(f))
        left -= f.degree
    yield "shared companions", block_diag(blocks)
    values = [rng.randint(0, 2) for _ in range(n)]
    upper = [[K.zero] * i + [K.from_int(values[i])] for i in range(n)]
    for row in upper:
        row += [rand_scalar(K, rng) if rng.random() < 0.3 else K.zero for _ in range(n - len(row))]
    yield "upper triangular", Mat(K, upper)
    degrees = _parts(rng, n)  # descending; each factor is the next one times a cofactor
    chain = [rand_monic(K, rng, degrees[-1])]
    for hi, lo in zip(degrees[-2::-1], degrees[:0:-1]):
        chain.insert(0, chain[0] * rand_monic(K, rng, hi - lo))
    yield "scrambled chain", scramble(K, block_diag([companion(f) for f in chain]), rng, 2 * n)


def full_scan(monkeypatch):
    """Route rnf's peel through `min_poly_vector` with no trust."""
    peel = canonical.min_poly_vector
    monkeypatch.setattr(canonical, "min_poly_vector", lambda sub, trusted: peel(sub))


def attempts(monkeypatch):
    """The `trusted` argument of every call of `canonical._peel`, in order."""
    seen, peel = [], canonical._peel

    def recording(a, trusted):
        seen.append(trusted)
        return peel(a, trusted)

    monkeypatch.setattr(canonical, "_peel", recording)
    return seen


def _cli_bytes(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_the_trusting_peel_matches_the_full_scan(K, monkeypatch, tmp_path, capsys):
    rng = random.Random(2026)
    sizes = (8, 14) if K.kind == "gf" else (6, 10)  # Fraction arithmetic: keep Q small
    inputs = [a for _ in range(3) for _, a in peel_families(K, rng, rng.randint(*sizes))]
    paths = [tmp_path / f"{k}.mat" for k in range(len(inputs))]
    for path, a in zip(paths, inputs):
        path.write_text(format_matrix(a))
    seen = attempts(monkeypatch)
    got, trusting = [], 0
    for a in inputs:
        del seen[:]
        got.append(rnf(a))
        trusting += bool(seen[0])
    shown = [_cli_bytes(["rnf", "--show-transform", str(path)], capsys) for path in paths]
    full_scan(monkeypatch)
    for a, path, result, cli in zip(inputs, paths, got, shown):
        del seen[:]
        want = rnf(a)
        assert seen == [[]]  # the forced run trusts no block
        assert result.factors == want.factors
        assert result.transform == want.transform
        assert cli == _cli_bytes(["rnf", "--show-transform", str(path)], capsys)
    assert trusting >= len(inputs) // 3, trusting  # the early stop is exercised


def test_a_wrong_trust_is_peeled_again_exactly_once(monkeypatch):
    """A seeded diagonal over GF(7) whose first block trusts a chain that is
    not maximal: the first attempt fails a check, the second scans fully."""
    K = PrimeField(7)
    a = dict(peel_families(K, random.Random(16), 12))["pairs"]
    with monkeypatch.context() as m:
        full_scan(m)
        want = rnf(a)
    seen = attempts(monkeypatch)
    got = rnf(a)
    assert len(seen) == 2 and seen[0] and seen[1] is None
    assert (got.factors, got.transform) == (want.factors, want.transform)


def _fault_once(monkeypatch):
    """Zero T's first column in the first call of `_certify` only."""
    certify, calls = canonical._certify, itertools.count()

    def faulty(a, cols, factors, offsets):
        if next(calls) == 0:
            cols = [[a.field.zero] * a.nrows] + cols[1:]
        return certify(a, cols, factors, offsets)

    monkeypatch.setattr(canonical, "_certify", faulty)


def test_a_fault_in_a_trusting_attempt_gives_the_clean_result(monkeypatch):
    K = PrimeField(101)
    a = _diag(K, [3] * 10)
    want = rnf(a)
    seen = attempts(monkeypatch)
    _fault_once(monkeypatch)
    got = rnf(a)
    assert len(seen) == 2 and seen[0] and seen[1] is None
    assert (got.factors, got.transform) == (want.factors, want.transform)


def test_a_fault_in_an_attempt_that_trusted_nothing_is_raised(monkeypatch):
    K = PrimeField(101)
    a = _diag(K, [v for v in range(1, 6) for _ in (0, 1)])  # the probe escapes: full scan
    seen = attempts(monkeypatch)
    _fault_once(monkeypatch)
    with pytest.raises(InternalInvariantError, match=r"^rnf certify, block 0: "):
        rnf(a)
    assert seen == [[]]
