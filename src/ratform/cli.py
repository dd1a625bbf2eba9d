"""Command-line front end: `ratform <verb> [flags] <matrix files>`.

The verbs (rnf, factors, minpoly, charpoly, similar, jnf-nilpotent) and
the flags each one honours are declared once, in `_VERBS`; `ratform
<verb> --help` lists them.  Every verb takes --field rational|gf:<p> and
--json; a flag a verb does not declare exits 2.  `-` reads a matrix
from stdin.  `similar` exits 0 when similar, 1 when not, 2 on error.

Each verb returns ordered (key, value) sections, and `_emit` prints
them: as text, polynomials in descending powers and matrices in the
parseable text format; with --json, one document {"field": ..., key:
value, ...} with scalars as strings (rationals do not fit in JSON
numbers) and polynomial coefficient arrays in ascending order.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, NamedTuple

from .canonical import char_poly, is_similar, nilpotent_jnf, rnf
from .errors import RatformError
from .field import Field, PrimeField, Rationals, ascii_int
from .linalg import Mat, conjugates
from .matio import format_matrix, parse_matrix
from .minpoly import min_poly
from .poly import Poly

__all__ = ["main"]


def _field_override(text: str) -> Field:
    if text == "rational":
        return Rationals()
    if text.startswith("gf:"):
        return PrimeField(ascii_int(text.split(":", 1)[1]))
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


def _conjugated(a: Mat, transform: Mat, sections: list, check: bool, show_transform: bool) -> list:
    """`sections` end in the form that `transform` conjugates `a` onto."""
    if check and not conjugates(a, transform, sections[-1][1]):
        raise RatformError("check failed: transform does not conjugate onto the form")
    return sections + [("transform", transform)] if show_transform else sections


def _rnf(a: Mat, check: bool, show_transform=False) -> list:
    r = rnf(a)
    sections = [("factors", r.factors), ("rnf", r.rnf)]
    return _conjugated(a, r.transform, sections, check, show_transform)


def _jnf(a: Mat, check: bool, show_transform: bool) -> list:
    r = nilpotent_jnf(a)
    sections = [("partition", r.partition), ("jnf", r.jnf)]
    return _conjugated(a, r.transform, sections, check, show_transform)


def _similar(a: Mat, b: Mat, show_transform: bool) -> list:
    if not show_transform:
        return [("similar", is_similar(a, b))]
    same, witness = is_similar(a, b, witness=True)
    return [("similar", same)] + ([("witness", witness)] if same else [])


class _Verb(NamedTuple):
    run: Callable[..., list]
    help: str
    flags: tuple[str, ...] = ()  # keyword arguments of run, beyond --field and --json
    inputs: tuple[str, ...] = ("matrix",)  # positional arguments, one matrix each


_FLAGS = {
    "show_transform": "include the transformation (or similarity witness) in the output",
    "check": "re-verify the conjugation identity before printing",
}

_VERBS = {
    "rnf": _Verb(_rnf, "rational normal form with its transformation", ("show_transform", "check")),
    "factors": _Verb(lambda a, check: _rnf(a, check)[:1], "invariant factors only", ("check",)),
    "minpoly": _Verb(lambda a: [("minpoly", min_poly(a))], "minimal polynomial"),
    "charpoly": _Verb(
        lambda a: [("charpoly", char_poly(a))],
        "characteristic polynomial (product of invariant factors)",
    ),
    "jnf-nilpotent": _Verb(_jnf, "Jordan form of a nilpotent matrix", ("show_transform", "check")),
    "similar": _Verb(
        _similar,
        "decide similarity; exit 0 similar, 1 not similar, 2 error",
        ("show_transform",),
        ("first", "second"),
    ),
}


def _json_value(value):
    """Matrices and polynomials as arrays of scalar strings, lists element-wise."""
    if isinstance(value, Mat):
        return [[value.field.format(x) for x in row] for row in value.data]
    if isinstance(value, Poly):
        return [value.field.format(c) for c in value.coeffs]
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return value


def _text(key: str, value) -> str:
    """A section as text: verdict `key` or `not key`, a matrix below `key:`, else `key: value`."""
    if isinstance(value, bool):
        return f"{key}\n" if value else f"not {key}\n"
    if isinstance(value, Mat):
        return f"{key}:\n{format_matrix(value)}"
    if isinstance(value, list):
        value = "[" + ", ".join(str(v) for v in value) + "]"
    return f"{key}: {value}\n"


def _emit(field: Field, sections: list, as_json: bool) -> None:
    if as_json:
        import json  # imported here so that a run without --json never loads it

        print(json.dumps({"field": field.describe(), **{k: _json_value(v) for k, v in sections}}))
    else:
        print("".join(_text(key, value) for key, value in sections), end="")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratform",
        description="Exact canonical forms of matrices over Q and GF(p).",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        sp = subs.add_parser(name, help=verb.help)
        sp.add_argument(
            "--field",
            metavar="rational|gf:<p>",
            help="override the field declared in the input header",
        )
        sp.add_argument("--json", action="store_true", help="emit one JSON document")
        for flag in verb.flags:
            sp.add_argument("--" + flag.replace("_", "-"), action="store_true", help=_FLAGS[flag])
        for arg in verb.inputs:
            sp.add_argument(arg, help="matrix file, or - for stdin")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    verb = _VERBS[ns.verb]
    try:
        field = _field_override(ns.field) if ns.field else None
        mats = [_read_matrix(getattr(ns, arg), field) for arg in verb.inputs]
        sections = verb.run(*mats, **{flag: getattr(ns, flag) for flag in verb.flags})
        _emit(mats[0].field, sections, ns.json)
    except (RatformError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a negative similarity verdict exits 1
    return 1 if any(value is False for _, value in sections) else 0


if __name__ == "__main__":
    sys.exit(main())
