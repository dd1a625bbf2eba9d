"""Plain-text matrix format shared by the CLI and the test tooling.

    # comments run to end of line, blank lines are ignored
    field rational          (or: field gf 7)
    2 3                     (or a single n for square matrices)
    1/2 0 -3
    0 1 7

Rational scalars are written `a` or `a/b`; GF(p) scalars are decimal
integers, reduced mod p on parse.  Formatting emits exactly this shape,
so format(parse(text)) round-trips byte for byte on library output.
"""

from __future__ import annotations

from .errors import MatrixParseError
from .field import Field, PrimeField, Rationals, ascii_int
from .linalg import Mat

__all__ = ["parse_matrix", "format_matrix"]


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _parse_field_header(lineno: int, tokens: list[str]) -> Field:
    if tokens[0] != "field":
        raise MatrixParseError(lineno, f"expected a field header, got {' '.join(tokens)!r}")
    if tokens[1:] == ["rational"]:
        return Rationals()
    if len(tokens) == 3 and tokens[1] == "gf":
        try:
            return PrimeField(ascii_int(tokens[2]))
        except ValueError as exc:
            raise MatrixParseError(lineno, str(exc)) from None
    raise MatrixParseError(lineno, f"unknown field {' '.join(tokens[1:])!r}")


def parse_matrix(text: str, field: Field | None = None) -> Mat:
    """Parse matrix text; `field` overrides the declared header if given."""
    lines = list(_meaningful_lines(text))
    if not lines:
        raise MatrixParseError(1, "empty input")
    declared = _parse_field_header(*lines[0])
    K = field if field is not None else declared

    if len(lines) < 2:
        raise MatrixParseError(lines[0][0], "missing size line")
    size_lineno, size_tokens = lines[1]
    try:
        dims = [ascii_int(t) for t in size_tokens]
    except ValueError:
        raise MatrixParseError(size_lineno, f"bad size line {' '.join(size_tokens)!r}") from None
    if len(dims) == 1:
        nrows = ncols = dims[0]
    elif len(dims) == 2:
        nrows, ncols = dims
    else:
        raise MatrixParseError(size_lineno, "size line needs one or two integers")
    if nrows < 1 or ncols < 1:
        raise MatrixParseError(size_lineno, "matrix dimensions must be positive")

    body = lines[2:]
    if len(body) < nrows:
        raise MatrixParseError(
            size_lineno, f"expected {nrows} rows, found {len(body)}"
        )
    if len(body) > nrows:
        raise MatrixParseError(body[nrows][0], "unexpected extra content")
    rows = []
    for lineno, tokens in body:
        if len(tokens) != ncols:
            raise MatrixParseError(
                lineno, f"expected {ncols} entries, found {len(tokens)}"
            )
        row = []
        for tok in tokens:
            try:
                row.append(K.parse(tok))
            except (ValueError, ZeroDivisionError) as exc:
                raise MatrixParseError(lineno, str(exc)) from None
        rows.append(row)
    return Mat(K, rows)


def format_matrix(a: Mat) -> str:
    """Emit the text form; square matrices get the single-integer size."""
    K = a.field
    lines = [f"field {K.describe()}"]
    lines.append(str(a.nrows) if a.is_square else f"{a.nrows} {a.ncols}")
    for row in a.data:
        lines.append(" ".join(K.format(x) for x in row))
    return "\n".join(lines) + "\n"
