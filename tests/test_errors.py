"""Defensive checks: they survive `python -O` and say where they fired."""

import ast
from pathlib import Path

import pytest

from conftest import unit
from ratform import Mat, Poly, PrimeField, Rationals, canonical, rnf
from ratform.errors import InternalInvariantError

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

    def broken_chain(sub, ann):
        return ann._replace(mu=Poly(K, [K.zero, K.one]))

    _patch_nth_call(monkeypatch, "min_poly_vector", 1, broken_chain)
    with pytest.raises(InternalInvariantError, match=r"^rnf peel, block 1: .*chain broken"):
        rnf(Mat.from_ints(K, [[2, 0], [0, 2]]))


def test_rnf_peel_wraps_min_poly_failures(monkeypatch):
    def fails(sub):
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

    def wrong_basis(sub, ann):
        n = sub.nrows
        return ann._replace(krylov=[unit(Q, n, i) for i in range(n)])

    _patch_nth_call(monkeypatch, "min_poly_vector", 0, wrong_basis)
    with pytest.raises(InternalInvariantError, match=r"^rnf certify, block 0: A\*T and T\*R"):
        rnf(Mat.from_ints(Q, [[1, 0], [0, 2]]))


def test_rnf_certify_catches_a_singular_transform(monkeypatch):
    Q = Rationals()

    def zero_chain(sub, ann):
        return ann._replace(krylov=[[Q.zero] * sub.nrows])

    _patch_nth_call(monkeypatch, "min_poly_vector", 1, zero_chain)
    with pytest.raises(InternalInvariantError, match=r"^rnf certify, block 1: column 1 of T"):
        rnf(Mat.zeros(Q, 2, 2))

