"""Command-line front end.

    ratform rnf [--check] [--show-transform] [--json] A.mat
    ratform factors A.mat
    ratform minpoly A.mat
    ratform charpoly A.mat
    ratform similar A.mat B.mat          (exit 0 similar, 1 not, 2 error)
    ratform jnf-nilpotent N.mat

`-` reads the matrix from stdin.  Text output prints polynomials in
descending powers and matrices in the parseable text format; --json
emits one JSON document with scalars as strings (rationals do not fit
in JSON numbers) and polynomial coefficient arrays in ascending order.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canonical import char_poly, is_similar, nilpotent_jnf, rnf
from .errors import RatformError
from .field import Field, PrimeField, Rationals
from .linalg import Mat, rank
from .matio import format_matrix, parse_matrix
from .minpoly import min_poly
from .poly import Poly

__all__ = ["main"]


def _field_override(text: str) -> Field:
    if text == "rational":
        return Rationals()
    if text.startswith("gf:"):
        return PrimeField(int(text.split(":", 1)[1]))
    raise ValueError(f"bad field {text!r}; use rational or gf:<p>")


def _read_matrix(path: str, field: Field | None) -> Mat:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return parse_matrix(text, field)
    except RatformError as exc:
        raise RatformError(f"{path}: {exc}") from None


def _poly_json(p: Poly) -> list[str]:
    return [p.field.format(c) for c in p.coeffs]


def _mat_json(a: Mat) -> list[list[str]]:
    return [[a.field.format(x) for x in row] for row in a.data]


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc))


def _verify_conjugation(a: Mat, transform: Mat, form: Mat) -> None:
    if a * transform != transform * form or rank(transform) != a.nrows:
        raise RatformError("check failed: transform does not conjugate onto the form")


def _run_rnf(ns, field: Field | None, factors_only: bool) -> int:
    a = _read_matrix(ns.matrix, field)
    result = rnf(a)
    if ns.check:
        _verify_conjugation(a, result.transform, result.rnf)
    if ns.json:
        doc = {
            "field": a.field.describe(),
            "factors": [_poly_json(f) for f in result.factors],
        }
        if not factors_only:
            doc["rnf"] = _mat_json(result.rnf)
            if ns.show_transform:
                doc["transform"] = _mat_json(result.transform)
        _emit_json(doc)
        return 0
    print("factors: [" + ", ".join(str(f) for f in result.factors) + "]")
    if not factors_only:
        print("rnf:")
        print(format_matrix(result.rnf), end="")
        if ns.show_transform:
            print("transform:")
            print(format_matrix(result.transform), end="")
    return 0


def _run_poly(ns, field: Field | None, which: str) -> int:
    a = _read_matrix(ns.matrix, field)
    p = min_poly(a) if which == "minpoly" else char_poly(a)
    if ns.json:
        _emit_json({"field": a.field.describe(), which: _poly_json(p)})
    else:
        print(f"{which}: {p}")
    return 0


def _run_similar(ns, field: Field | None) -> int:
    a = _read_matrix(ns.first, field)
    b = _read_matrix(ns.second, field)
    witness = None
    if ns.show_transform:
        same, witness = is_similar(a, b, witness=True)
    else:
        same = is_similar(a, b)
    if ns.json:
        doc = {"field": a.field.describe(), "similar": same}
        if ns.show_transform and same:
            doc["witness"] = _mat_json(witness)
        _emit_json(doc)
    else:
        print("similar" if same else "not similar")
        if ns.show_transform and same:
            print("witness:")
            print(format_matrix(witness), end="")
    return 0 if same else 1


def _run_jnf(ns, field: Field | None) -> int:
    a = _read_matrix(ns.matrix, field)
    result = nilpotent_jnf(a)
    if ns.check:
        _verify_conjugation(a, result.transform, result.jnf)
    if ns.json:
        doc = {
            "field": a.field.describe(),
            "partition": result.partition,
            "jnf": _mat_json(result.jnf),
        }
        if ns.show_transform:
            doc["transform"] = _mat_json(result.transform)
        _emit_json(doc)
        return 0
    print("partition: " + str(result.partition))
    print("jnf:")
    print(format_matrix(result.jnf), end="")
    if ns.show_transform:
        print("transform:")
        print(format_matrix(result.transform), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        metavar="rational|gf:<p>",
        help="override the field declared in the input header",
    )
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument(
        "--show-transform",
        action="store_true",
        help="include the transformation (or similarity witness) in the output",
    )
    common.add_argument(
        "--check",
        action="store_true",
        help="re-verify the conjugation identity before printing",
    )

    parser = argparse.ArgumentParser(
        prog="ratform",
        description="Exact canonical forms of matrices over Q and GF(p).",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, doc in [
        ("rnf", "rational normal form with its transformation"),
        ("factors", "invariant factors only"),
        ("minpoly", "minimal polynomial"),
        ("charpoly", "characteristic polynomial (product of invariant factors)"),
        ("jnf-nilpotent", "Jordan form of a nilpotent matrix"),
    ]:
        sp = subs.add_parser(verb, parents=[common], help=doc)
        sp.add_argument("matrix", help="matrix file, or - for stdin")
    sp = subs.add_parser(
        "similar",
        parents=[common],
        help="decide similarity; exit 0 similar, 1 not similar, 2 error",
    )
    sp.add_argument("first", help="matrix file, or - for stdin")
    sp.add_argument("second", help="matrix file")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        field = _field_override(ns.field) if ns.field else None
        if ns.verb == "rnf":
            return _run_rnf(ns, field, factors_only=False)
        if ns.verb == "factors":
            return _run_rnf(ns, field, factors_only=True)
        if ns.verb in ("minpoly", "charpoly"):
            return _run_poly(ns, field, ns.verb)
        if ns.verb == "similar":
            return _run_similar(ns, field)
        if ns.verb == "jnf-nilpotent":
            return _run_jnf(ns, field)
        raise AssertionError(f"unhandled verb {ns.verb}")
    except (RatformError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
