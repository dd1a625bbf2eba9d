"""Defensive checks: they survive `python -O` and say where they fired."""

import ast
import collections
import itertools
import random
import re
from pathlib import Path

import pytest

from conftest import rand_matrix, rand_monic, rand_scalar, unit
from ratform import (
    Mat,
    Poly,
    PrimeField,
    Rationals,
    block_diag,
    canonical,
    companion,
    minpoly,
    rnf,
)
from ratform.errors import InternalInvariantError
from test_kernels import matmul_ref
from test_rank_oracle import gauss_rank, scramble

SRC = Path(__file__).resolve().parent.parent / "src" / "ratform"


def test_no_assert_statements_in_the_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


def _patch_nth_call(monkeypatch, name, nth, replace):
    """Route call number `nth` (from 0) of canonical.<name> through `replace`."""
    original = getattr(canonical, name)
    calls = []

    def patched(*args):
        calls.append(args)
        result = original(*args)
        return replace(*args, result) if len(calls) - 1 == nth else result

    monkeypatch.setattr(canonical, name, patched)


def test_rnf_peel_failure_names_phase_and_block(monkeypatch):
    K = PrimeField(7)

    def broken_chain(sub, trusted, ann):
        return ann._replace(mu=Poly(K, [K.zero, K.one]))

    _patch_nth_call(monkeypatch, "min_poly_vector", 1, broken_chain)
    with pytest.raises(InternalInvariantError, match=r"^rnf peel, block 1: .*chain broken"):
        rnf(Mat.from_ints(K, [[2, 0], [0, 2]]))


def test_rnf_peel_wraps_min_poly_failures(monkeypatch):
    def fails(sub, trusted):
        raise InternalInvariantError("combination failed to grow the degree")

    monkeypatch.setattr(canonical, "min_poly_vector", fails)
    with pytest.raises(InternalInvariantError, match=r"^rnf peel, block 0: combination"):
        rnf(Mat.identity(Rationals(), 2))


def test_rnf_couple_failure_names_phase_and_block(monkeypatch):
    K = PrimeField(7)

    def nudged(sub, tracker, result):
        keep, coupling, rest = result
        coupling[0][0] = K.add(coupling[0][0], K.one)
        return keep, coupling, rest

    _patch_nth_call(monkeypatch, "_split_quotient", 0, nudged)
    with pytest.raises(InternalInvariantError, match=r"^rnf couple, block 0: .*not divisible"):
        rnf(Mat.from_ints(K, [[2, 0], [0, 2]]))


def test_rnf_certify_failure_names_phase_and_block(monkeypatch):
    Q = Rationals()

    def wrong_basis(sub, trusted, ann):
        n = sub.nrows
        return ann._replace(krylov=[unit(Q, n, i) for i in range(n)])

    _patch_nth_call(monkeypatch, "min_poly_vector", 0, wrong_basis)
    with pytest.raises(InternalInvariantError, match=r"^rnf certify, block 0: A\*T and T\*R"):
        rnf(Mat.from_ints(Q, [[1, 0], [0, 2]]))


def test_rnf_certify_catches_a_singular_transform(monkeypatch):
    Q = Rationals()

    def zero_chain(sub, trusted, ann):
        return ann._replace(krylov=[[Q.zero] * sub.nrows])

    _patch_nth_call(monkeypatch, "min_poly_vector", 1, zero_chain)
    with pytest.raises(InternalInvariantError, match=r"^rnf certify, block 1: column 1 of T"):
        rnf(Mat.zeros(Q, 2, 2))


# -- fault injection: the certificate is the one correctness gate --

_PHASE_ERROR = re.compile(r"^rnf (peel|couple|certify), block \d+: ")


def _fault_inputs():
    """Seeded 6x6 inputs over GF(7), GF(101) and Q: generic, a scrambled
    chain of companions, c*I plus a scrambled nilpotent, and sparse upper
    triangular with a repeated diagonal (the family that reaches the lcm
    combination's split branch)."""
    inputs = []
    # the triangular seeds are ones whose lcm combinations split a gcd
    for K, seed, tri_seed in ((PrimeField(7), 1, 13), (PrimeField(101), 2, 24), (Rationals(), 3, 34)):
        rng, tri_rng = random.Random(seed), random.Random(tri_seed)
        n = 6
        f, g = rand_monic(K, rng, 1), rand_monic(K, rng, 2)
        chain = block_diag([companion(f * f * g), companion(f), companion(f)])
        jordan = block_diag([companion(Poly.monomial(K, d)) for d in (3, 2, 1)])
        nilpotent = scramble(K, jordan, rng, 4 * n)
        c = K.from_int(rng.randrange(1, 7))
        shifted = [
            [K.add(x, c) if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(nilpotent.data)
        ]
        diagonal = (1, 1, 2, 2, 1, 2)
        triangular = [
            [
                diagonal[i] if i == j else rand_scalar(K, tri_rng) * (tri_rng.random() < 0.4) if j > i else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
        inputs += [
            rand_matrix(K, rng, n),
            scramble(K, chain, rng, 4 * n),
            Mat(K, shifted),
            Mat(K, triangular),
        ]
    return inputs


def _bump(K, rows, rng):
    """A copy of a list of rows with one entry, chosen by rng, plus one."""
    rows = [list(r) for r in rows]
    i = rng.choice([i for i, r in enumerate(rows) if r])
    j = rng.randrange(len(rows[i]))
    rows[i][j] = K.add(rows[i][j], K.one)
    return rows


def _krylov(call, args, rng, hits):
    ann = call(*args)
    hits.append(True)
    return ann._replace(krylov=_bump(ann.mu.field, ann.krylov, rng))


def _lcm(edit):
    def perturb(call, args, rng, hits):
        h, k, p_red, q_red = call(*args)
        h2, k2 = edit(h, k)
        hits.append((h2, k2) != (h, k))
        return h2, k2, p_red, q_red

    return perturb


def _couplings(call, args, rng, hits):
    keep, coupling, rest = call(*args)
    hits.append(bool(keep))
    return keep, _bump(rest.field, coupling, rng) if keep else coupling, rest


def _quotient(call, args, rng, hits):
    keep, coupling, rest = call(*args)
    hits.append(bool(keep))
    return keep, coupling, Mat(rest.field, _bump(rest.field, rest.data, rng)) if keep else rest


def _clear_x(call, args, rng, hits):
    hits.append(True)
    return _bump(args[0].field, call(*args), rng)


def _t_columns(call, args, rng, hits):
    a, cols, factors, offsets = args
    hits.append(True)
    return call(a, _bump(a.field, cols, rng), factors, offsets)


_INJECTIONS = {
    "Krylov spin": (minpoly, "local_min_poly", _krylov),
    "lcm h/k swapped": (minpoly, "split_gcd", _lcm(lambda h, k: (k, h))),
    "lcm h = k = 1": (minpoly, "split_gcd", _lcm(lambda h, k: (Poly.one(h.field),) * 2)),
    "lcm k -> k*k": (minpoly, "split_gcd", _lcm(lambda h, k: (h, k * k))),
    "split couplings": (canonical, "_split_quotient", _couplings),
    "split quotient": (canonical, "_split_quotient", _quotient),
    "clearing X": (canonical, "_clear_couplings", _clear_x),
    "T columns": (canonical, "_certify", _t_columns),
}


def _conjugates_onto_the_form(a, factors, t):
    """A*T == T*R and rank(T) == n, with R the companion blocks of `factors`,
    by the scalar reference product and rank that share no code with rnf."""
    K, n = a.field, a.nrows
    r = [[K.zero] * n for _ in range(n)]
    off = 0
    for f in factors:
        d = f.degree
        for j in range(d - 1):
            r[off + j + 1][off + j] = K.one
        for i in range(d):
            r[off + i][off + d - 1] = K.neg(f.coeffs[i])
        off += d
    return off == n and matmul_ref(K, a, t) == matmul_ref(K, t, Mat(K, r)) and gauss_rank(K, t) == n


def _route(m, module, name, through):
    """Send call number k (from 0) of module.<name> to through(original, k, args)."""
    original, calls = getattr(module, name), itertools.count()
    m.setattr(module, name, lambda *args: through(original, next(calls), args))


def test_a_fault_in_any_phase_is_flagged_or_harmless(monkeypatch):
    """One value of one phase's output, plus one: rnf raises an error that
    names a phase, or returns the clean factors with a T that conjugates A
    onto their companion blocks.  Every call of every phase is tried, and
    every injection changes a value somewhere."""
    rng = random.Random(2022)
    fired = dict.fromkeys(_INJECTIONS, 0)
    for a in _fault_inputs():
        counts = collections.Counter()
        with monkeypatch.context() as m:
            for module, name in {(module, name) for module, name, _ in _INJECTIONS.values()}:
                _route(m, module, name, lambda f, k, args, name=name: counts.update([name]) or f(*args))
            clean = rnf(a).factors
        for kind, (module, name, perturb) in _INJECTIONS.items():
            for nth in range(counts[name]):
                hits = []
                with monkeypatch.context() as m:
                    _route(m, module, name, lambda f, k, args: perturb(f, args, rng, hits) if k == nth else f(*args))
                    try:
                        got = rnf(a)
                    except InternalInvariantError as exc:
                        assert _PHASE_ERROR.match(str(exc)), (kind, str(exc))
                    else:
                        assert got.factors == clean, kind
                        assert _conjugates_onto_the_form(a, got.factors, got.transform), kind
                fired[kind] += any(hits)
    assert all(fired.values()), fired
