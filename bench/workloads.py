"""Seeded benchmark workloads: their inputs, calls and output checks.

Each workload builds a fixed pool of items from the seed.  An item is
one call into the public API (or one in-process CLI invocation) plus an
oracle from `exact` that says why its output is wrong, run by the
caller outside the timed region.  Item i of a workload is generated
from its own `random.Random`, seeded by (workload, seed, i), so a pool
is the same whatever else the run does.

Import this module only after `src` is on `sys.path`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import exact
from ratform import canonical, cli
from ratform.field import Field, PrimeField, Rationals
from ratform.linalg import Mat

# The derogatory chains: degree shapes fixed per block count r, so that
# seeds change the polynomials and the conjugation but not how much
# per-block work an item needs.  r=40 is the scalar matrix c*I.
DEROGATORY_SHAPES = (
    (16, 12, 8, 4),
    (12, 8, 6, 4, 4, 2, 2, 2),
    (10, 6, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1),
    (1,) * 40,
)

CLI_PRIMES = (None, 101, 1000000007)  # None is the rational field
CLI_VERBS = ("rnf", "factors", "minpoly", "charpoly", "similar", "not-similar", "jnf")


@dataclass
class Item:
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # why the output is wrong; None if right
    bits: Callable[[Any], int]  # largest entry bit size of a returned transform


@dataclass
class Workload:
    name: str
    primes: tuple  # the Field contexts the workload needs; None is Q
    min_calls: int  # a run makes at least this many timed calls
    build: Callable[[int, Path], list]  # (seed, work dir) -> items


class OpCounter:
    """Sums `Field.op_count` over every field context built while installed.

    Fields a call builds for itself (the CLI parses its own) are counted
    and then dropped by `release`, so the list stays short.
    """

    def __init__(self):
        self.fields: list[Field] = []
        self._init = None

    def install(self) -> None:
        self._init = init = Field.__init__
        fields = self.fields

        def recording_init(field, *args, **kwargs):
            init(field, *args, **kwargs)
            fields.append(field)

        Field.__init__ = recording_init

    def uninstall(self) -> None:
        Field.__init__ = self._init

    def total(self) -> int:
        return sum(f.op_count for f in self.fields)

    def mark(self) -> int:
        return len(self.fields)

    def release(self, mark: int) -> None:
        del self.fields[mark:]


def item_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def rand_matrix(rng, n, p, lo=-3, hi=3):
    """Uniform over GF(p), or integers in [lo, hi] over Q."""
    if p:
        return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def rand_monic(rng, degree, p):
    draw = (lambda: rng.randrange(p)) if p else (lambda: Fraction(rng.randint(-2, 2)))
    return [draw() for _ in range(degree)] + [exact.norm(1, p)]


def rand_chain(rng, degrees, p):
    """Monic factors of the given non-increasing degrees, each dividing the last."""
    chain = [rand_monic(rng, degrees[-1], p)]
    for hi, lo in zip(degrees[-2::-1], degrees[:0:-1]):
        chain.append(exact.poly_mul(chain[-1], rand_monic(rng, hi - lo, p), p))
    return chain[::-1]


def rand_conjugate(rng, m, p):
    """S^-1 * M * S for S = L*U with random unit triangular L and U.

    Over Q the entries of L and U are in {-1, 0, 1}, so S^-1 stays
    integral and the input has integer entries.
    """
    n = len(m)
    draw = (lambda: rng.randrange(p)) if p else (lambda: Fraction(rng.randint(-1, 1)))
    one, zero = exact.norm(1, p), exact.norm(0, p)
    lower = [[draw() if j < i else (one if i == j else zero) for j in range(n)] for i in range(n)]
    upper = [[draw() if j > i else (one if i == j else zero) for j in range(n)] for i in range(n)]
    s = exact.matmul(lower, upper, p)
    return exact.matmul(exact.matmul(exact.inverse(s, p), m, p), s, p)


def chain_matrix(rng, chain, p):
    return rand_conjugate(rng, exact.block_diag([exact.companion(f, p) for f in chain], p), p)


def rnf_item(rows, field, p, expected=None) -> Item:
    a = Mat(field, rows)

    def check(result):
        return exact.check_rnf(
            rows,
            [f.coeffs for f in result.factors],
            result.rnf.data,
            result.transform.data,
            p,
            expected,
        )

    return Item(
        call=lambda: canonical.rnf(a),
        check=check,
        bits=lambda result: max(exact.bits(x) for row in result.transform.data for x in row),
    )


def cyclic_on_e1(rows, p) -> bool:
    """True when e_1, A e_1, ..., A^(n-1) e_1 span the whole space."""
    v = [exact.norm(int(i == 0), p) for i in range(len(rows))]
    krylov = []
    for _ in rows:
        krylov.append(v)
        v = [exact.norm(sum(a * x for a, x in zip(row, v)), p) for row in rows]
    return exact.rank(krylov, p) == len(rows)


def dense_items(name, seed, field, pool, n, p):
    """Uniformly random matrices on which e_1 is cyclic (about 98% of draws).

    These workloads stand for the generic path, one Krylov chain and one
    block; the rare derogatory draw would add per-block work that
    gf-derogatory measures, and moved the pool mean by up to 25%.
    """
    items = []
    for i in range(pool):
        rng = item_rng(name, seed, i)
        rows = rand_matrix(rng, n, p)
        while not cyclic_on_e1(rows, p):
            rows = rand_matrix(rng, n, p)
        items.append(rnf_item(rows, field, p))
    return items


def build_gf_dense(seed, workdir, pool=4, n=48, p=101):
    return dense_items("gf-dense", seed, PrimeField(p), pool, n, p)


def build_q_dense(seed, workdir, pool=6, n=16):
    return dense_items("q-dense", seed, Rationals(), pool, n, None)


def build_gf_derogatory(seed, workdir, p=101):
    field = PrimeField(p)
    items = []
    for i, shape in enumerate(DEROGATORY_SHAPES):
        rng = item_rng("gf-derogatory", seed, i)
        chain = rand_chain(rng, shape, p)
        items.append(rnf_item(chain_matrix(rng, chain, p), field, p, expected=chain))
    return items


# -- cli-batch -----------------------------------------------------------


def field_header(p) -> str:
    return "rational" if p is None else f"gf {p}"


def format_matrix_file(rows, p) -> str:
    lines = [f"field {field_header(p)}", str(len(rows))]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_scalar(text, p):
    return int(text) % p if p else Fraction(text)


def parse_matrix_text(lines, p):
    """Rows of a matrix printed in the file format, header included."""
    if lines[0] != f"field {field_header(p)}":
        raise ValueError(f"unexpected header {lines[0]!r}")
    n = int(lines[1])
    return [[parse_scalar(t, p) for t in line.split()] for line in lines[2 : 2 + n]]


def parse_poly(text, p):
    """Ascending coefficients of a polynomial printed as 'X^3 - 2*X + 1/2'."""
    coeffs = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "X" in term:
            scalar, _, power = term.rpartition("*")
            degree = int(power[2:]) if power.startswith("X^") else 1
        else:
            scalar, degree = term, 0
        coeffs[degree] = exact.norm(sign * parse_scalar(scalar or "1", p), p)
    return [coeffs.get(d, exact.norm(0, p)) for d in range(max(coeffs) + 1)]


def halving_partition(n):
    """Descending Jordan block sizes: half of what is left, rounded up."""
    parts = []
    while n:
        parts.append((n + 1) // 2)
        n -= parts[-1]
    return parts


def cli_item(workdir: Path, index: int, rng, p, verb: str, n: int) -> Item:
    """One CLI invocation on freshly generated files with a known answer."""
    zero, one = exact.norm(0, p), exact.norm(1, p)

    def write(suffix, rows):
        name = workdir / f"{index}-{suffix}.mat"
        name.write_text(format_matrix_file(rows, p), encoding="utf-8")
        return str(name)

    if verb == "jnf":
        partition = halving_partition(n)
        chain = None
        form = exact.block_diag([exact.companion([zero] * s + [one], p) for s in partition], p)
        a_rows = rand_conjugate(rng, form, p)
    elif verb == "not-similar":
        # [P, Q] against [P*Q] with Q | P: same charpoly, different factors.
        q = rand_monic(rng, n // 3, p)
        chain = [exact.poly_mul(q, rand_monic(rng, n - 2 * (n // 3), p), p), q]
        a_rows = chain_matrix(rng, chain, p)
        b_rows = chain_matrix(rng, [exact.poly_mul(chain[0], q, p)], p)
    else:
        # One to three invariant factors, the later ones of degree 2.
        chain = rand_chain(rng, [n - 2 * (index % 3)] + [2] * (index % 3), p)
        a_rows = chain_matrix(rng, chain, p)
        b_rows = chain_matrix(rng, chain, p)

    if verb in ("similar", "not-similar"):
        argv = ["similar", "--show-transform", write("a", a_rows), write("b", b_rows)]
    elif verb == "jnf":
        argv = ["jnf-nilpotent", "--show-transform", write("a", a_rows)]
    elif verb == "rnf":
        argv = ["rnf", "--json", "--show-transform", "--check", write("a", a_rows)]
    else:
        argv = [verb, write("a", a_rows)]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != (1 if verb == "not-similar" else 0) or err:
            return f"{verb}: exit {code}, stderr {err.strip()!r}"
        lines = out.splitlines()
        if verb == "rnf":
            doc = json.loads(out)
            if doc["field"] != field_header(p):
                return f"JSON field {doc['field']!r}"
            factors = [[parse_scalar(c, p) for c in f] for f in doc["factors"]]
            rnf_rows = [[parse_scalar(x, p) for x in row] for row in doc["rnf"]]
            transform = [[parse_scalar(x, p) for x in row] for row in doc["transform"]]
            return exact.check_rnf(a_rows, factors, rnf_rows, transform, p, chain)
        if verb == "factors":
            text = lines[0].removeprefix("factors: [").removesuffix("]")
            if [parse_poly(f, p) for f in text.split(", ")] != chain:
                return "factors differ from the generated chain"
            return None
        if verb in ("minpoly", "charpoly"):
            want = chain[0]
            if verb == "charpoly":
                for f in chain[1:]:
                    want = exact.poly_mul(want, f, p)
            if parse_poly(lines[0].removeprefix(f"{verb}: "), p) != want:
                return f"{verb} differs from the generated chain"
            return None
        if verb == "not-similar":
            return None if lines == ["not similar"] else f"output {out!r}"
        if verb == "similar":
            if lines[:2] != ["similar", "witness:"]:
                return f"output starts {lines[:2]!r}"
            return exact.check_similarity(a_rows, b_rows, parse_matrix_text(lines[2:], p), p)
        # jnf-nilpotent: partition, then the Jordan matrix, then the transform.
        if lines[:2] != [f"partition: {partition}", "jnf:"]:
            return f"output starts {lines[:2]!r}"
        if parse_matrix_text(lines[2:], p) != form or lines[4 + n] != "transform:":
            return "Jordan form differs from the generated partition"
        return exact.check_similarity(a_rows, form, parse_matrix_text(lines[5 + n :], p), p)

    def bits(result):
        # Similarity witnesses are left out: over Q their size is
        # heavy-tailed in the seed (25-84 bits at n=10 over 20 seeds).
        out = result[1]
        if verb == "rnf":
            entries = [x for row in json.loads(out)["transform"] for x in row]
        elif verb == "jnf":
            lines = out.splitlines()
            entries = [x for line in lines[lines.index("transform:") + 3 :] for x in line.split()]
        else:
            return 0
        return max(exact.bits(parse_scalar(x, p)) for x in entries)

    return Item(call=call, check=check, bits=bits)


def build_cli_batch(seed, workdir):
    """Every verb on every field header, n running over 6..12."""
    items = []
    for i, (p, verb) in enumerate((p, v) for p in CLI_PRIMES for v in CLI_VERBS):
        items.append(cli_item(workdir, i, item_rng("cli-batch", seed, i), p, verb, 6 + i % 7))
    return items


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gf-dense", (101,), 40, build_gf_dense),
        Workload("gf-derogatory", (101,), 40, build_gf_derogatory),
        Workload("q-dense", (None,), 40, build_q_dense),
        Workload("cli-batch", CLI_PRIMES, 200, build_cli_batch),
    )
}
