"""Spans around the library's layer boundaries, patched in from outside.

`Tracer.installed()` rebinds every name under which a boundary function
is looked up: `ratform.canonical.inverse` and `ratform.linalg.inverse`
are separate bindings of one function, so each module namespace that
holds the function gets the wrapper.  Methods (`Mat.__mul__`,
`SpanTracker.try_add`, `Poly.__divmod__`, the field constructors) are
patched on their class.  Leaving the block restores every binding.

A span records its boundary name, its parent (the innermost open span,
"" at the top), wall time and the `op_count` delta.  Spans are folded
into per-(parent, name) totals as they close; self time and self ops
subtract what the span's direct children took.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter

from ratform import canonical, cli, linalg, matio, minpoly, poly
from ratform.field import PrimeField, Rationals

# (module, function name, boundary name)
FUNCTIONS = (
    (canonical, "rnf", "canonical.rnf"),
    (canonical, "is_similar", "canonical.is_similar"),
    (canonical, "nilpotent_jnf", "canonical.nilpotent_jnf"),
    (minpoly, "min_poly_vector", "minpoly.min_poly_vector"),
    (minpoly, "local_min_poly", "minpoly.local_min_poly"),
    (minpoly, "combine_lcm_vector", "minpoly.combine_lcm_vector"),
    (linalg, "inverse", "linalg.inverse"),
    (linalg, "rref", "linalg.rref"),
    (linalg, "solve", "linalg.solve"),
    (linalg, "complete_to_basis", "linalg.complete_to_basis"),
    (linalg, "eval_poly_vec", "linalg.eval_poly_vec"),
    (linalg, "kernel_basis", "linalg.kernel_basis"),
    (poly, "poly_gcd", "poly.gcd"),
    (poly, "split_gcd", "poly.split_gcd"),
    (poly, "poly_lcm", "poly.lcm"),
    (matio, "parse_matrix", "matio.parse_matrix"),
    (matio, "format_matrix", "matio.format_matrix"),
    (cli, "main", "cli.main"),
)

# (class, method name, boundary name); Mat.__mul__ is split by operand.
METHODS = (
    (linalg.SpanTracker, "try_add", "linalg.span_try_add"),
    (poly.Poly, "__divmod__", "poly.divmod"),
    (PrimeField, "__init__", "field.construct"),
    (Rationals, "__init__", "field.construct"),
)

BOUNDARIES = tuple(b for _, _, b in FUNCTIONS) + (
    "linalg.matmul",
    "linalg.matvec",
    "linalg.span_try_add",
    "poly.divmod",
    "field.construct",
)


class Tracer:
    def __init__(self, ops):
        self.ops = ops  # () -> running op count
        self.stack: list[list] = []  # open spans: [name, child seconds, child ops]
        # (parent, name) -> [calls, total_s, self_s, ops, self_ops]
        self.stats: dict[tuple[str, str], list] = {}

    def span(self, name, fn):
        stack, stats, ops = self.stack, self.stats, self.ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0, 0]
            stack.append(frame)
            ops0 = ops()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                dops = ops() - ops0
                stack.pop()
                row = stats.get((parent, name))
                if row is None:
                    row = stats[(parent, name)] = [0, 0.0, 0.0, 0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
                row[3] += dops
                row[4] += dops - frame[2]
                if stack:
                    stack[-1][1] += dt
                    stack[-1][2] += dops

        wrapper.bench_span = name
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        undo = []  # (owner, attribute, previous value or None if inherited)
        try:
            modules = [m for k, m in sys.modules.items() if k == "ratform" or k.startswith("ratform.")]
            for module, attr, name in FUNCTIONS:
                original = getattr(module, attr)
                wrapped = self.span(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, value))
                            setattr(m, key, wrapped)
            for cls, attr, name in METHODS:
                undo.append((cls, attr, cls.__dict__.get(attr)))
                setattr(cls, attr, self.span(name, getattr(cls, attr)))
            mul = linalg.Mat.__mul__
            matmul = self.span("linalg.matmul", mul)
            matvec = self.span("linalg.matvec", mul)
            undo.append((linalg.Mat, "__mul__", mul))

            def split_mul(a, b):
                return (matmul if isinstance(b, linalg.Mat) else matvec)(a, b)

            split_mul.bench_span = "linalg.matmul|linalg.matvec"
            linalg.Mat.__mul__ = split_mul
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if value is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, value)

    def by_boundary(self) -> dict[str, list]:
        """Totals per boundary over all parents: [calls, total_s, self_s, ops, self_ops]."""
        out = {b: [0, 0.0, 0.0, 0, 0] for b in BOUNDARIES}
        for (_, name), row in self.stats.items():
            out[name] = [x + y for x, y in zip(out[name], row)]
        return out


def leftover_wrappers() -> list[str]:
    """Names in ratform still bound to a span wrapper (should be none)."""
    found = []
    for key, m in list(sys.modules.items()):
        if key == "ratform" or key.startswith("ratform."):
            for attr, value in vars(m).items():
                owners = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
                if any(hasattr(v, "bench_span") for v in owners):
                    found.append(f"{key}.{attr}")
    return found
