"""ratform benchmark: seeded workloads driven through the public API.

    python3 bench/run.py --workload gf-dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client in one process calls the library in a closed loop: each call
starts when the previous one has returned.  The workload's pool of
inputs is built from `--seed` (see `workloads.py`), run once untimed to
warm up, then in full passes until `--seconds` of timed calls and the
workload's minimum call count are reached.  Every output is checked by
an independent oracle (`exact.py`) outside the timed region.  Call and
setup times are normalised by a reference kernel run next to each one
(see `untraced_run`).

With `--trace 0` the last line of stdout is the JSON result with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics
named in BENCHMARK.json, from a run that alternates untraced and traced
calls on the same items (`spans.py`).  The line before it holds details:
sample counts, the tail percentile, failures and, when traced, the full
per-boundary and per-caller span table.  `--workload all` runs each
workload in its own interpreter and prints every metric by name.

Exits with 2, printing no result, when the library sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import exact

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

# Tail percentiles are taken from this ladder; a workload's is the
# highest one that its minimum call count leaves ten samples beyond.
LADDER = (50, 75, 90, 95, 99)
SETUP_RUNS = 9  # fewest fresh interpreters timed for setup_s
MIN_PASSES = 3  # fewest passes, so each item has a median over passes
# Timings are reported as if the reference kernel took this long; it
# takes 13-26 ms on the 2-vCPU VM the baseline was measured on.
REFERENCE_MS = 15.0
_rng = random.Random(0)
REFERENCE_MATRIX = [[_rng.randrange(101) for _ in range(48)] for _ in range(48)]
WALL_LIMIT_S = 120  # no new pass starts after this, to end inside 180 s
COVERAGE_MIN = 0.95  # span self times must cover this share of traced wall

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ratform.cli
from ratform.field import PrimeField, Rationals
fields = [Rationals() if p == "rational" else PrimeField(int(p)) for p in sys.argv[2:]]
print(time.perf_counter() - t0, ratform.cli.__file__)
"""


def tail_percentile(min_calls: int) -> int:
    """Highest ladder percentile with at least ten of min_calls samples beyond it."""
    fits = [p for p in LADDER if min_calls * (100 - p) >= 1000]
    if not fits:
        raise ValueError(f"{min_calls} calls leave no percentile ten samples")
    return max(fits)


def nearest_rank(values, pct: float) -> float:
    """The value at rank ceil(pct% of n): n*(1 - pct/100) samples lie beyond it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def timed_call(item, counter, failures, around=contextlib.nullcontext):
    """Time one call, then check its output; (seconds, ops, bits), ops None if failed."""
    mark, before = counter.mark(), counter.total()
    with around():
        t0 = perf_counter()
        try:
            out = item.call()
        except Exception as exc:  # a raising call counts as failed; keep measuring
            dt = perf_counter() - t0
            failures.append(f"raised {type(exc).__name__}: {exc}")
            counter.release(mark)
            return dt, None, 0
        dt = perf_counter() - t0
    ops = counter.total() - before
    counter.release(mark)
    try:
        why = item.check(out)
        bits = 0 if why else item.bits(out)
    except Exception as exc:  # an output the oracle cannot read is wrong
        why, bits = f"unreadable output: {type(exc).__name__}: {exc}", 0
    if why:
        failures.append(why)
        return dt, None, 0
    return dt, ops, bits


def setup_sample(argv) -> float:
    """Seconds a fresh interpreter takes to import ratform.cli and build the fields."""
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    seconds, path = done.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup imported ratform from {path}, not {SRC}")
    return float(seconds)


def reference_seconds() -> float:
    """Wall time of one fixed exact elimination: the yardstick for host speed."""
    t0 = perf_counter()
    exact.rank(REFERENCE_MATRIX, 101)
    return perf_counter() - t0


def untraced_run(workload, items, counter, seconds, failures):
    """Full passes over the pool, each timed call followed by the reference kernel.

    Wall time on a shared host drifts by a third or more over seconds
    and minutes, for the library and for any other Python code alike.
    Each call's time is therefore divided by the mean of the reference
    kernel times measured just before and just after it, then scaled by
    REFERENCE_MS: the result is the call's time on a host where the
    kernel takes REFERENCE_MS.  Setup samples, one after each pass, are
    normalised the same way.  The raw times are in the detail line.
    """
    setup_argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    setup_argv += ["rational" if p is None else str(p) for p in workload.primes]
    setup_sample(setup_argv)  # untimed: writes the bytecode caches
    timed_call(items[0], counter, failures)  # warm-up
    scaled = [[] for _ in items]  # per item, one normalised time per pass
    raw, refs, setup = [], [reference_seconds()], []
    item_ops, bits, ok = {}, 0, 0

    def normalised(seconds):
        refs.append(reference_seconds())
        return seconds / (refs[-2] + refs[-1]) * 2 * REFERENCE_MS / 1e3

    start = perf_counter()
    while (
        len(setup) < MIN_PASSES or sum(raw) < seconds or len(raw) < workload.min_calls
    ) and perf_counter() - start < WALL_LIMIT_S:
        for i, item in enumerate(items):
            dt, ops, b = timed_call(item, counter, failures)
            raw.append(dt)
            scaled[i].append(normalised(dt))
            bits = max(bits, b)
            if ops is None:
                continue
            if item_ops.setdefault(i, ops) == ops:
                ok += 1
            else:
                failures.append(f"item {i}: {ops} field ops, {item_ops[i]} before")
        setup.append(normalised(setup_sample(setup_argv)))
    while len(setup) < SETUP_RUNS:
        setup.append(normalised(setup_sample(setup_argv)))
    # Each call counts at its item's median over the passes: percentiles
    # of single calls would sit on the edge between two items' costs.
    medians = [statistics.median(times) for times in scaled]
    samples = [m for m, times in zip(medians, scaled) for _ in times]
    pct = tail_percentile(workload.min_calls)
    attempted = len(raw) + 1
    metrics = {
        "calls_per_s": (ok / len(raw) * len(items) / sum(medians), "1/s"),
        "latency_p50_ms": (nearest_rank(samples, 50) * 1e3, "ms"),
        "latency_tail_ms": (nearest_rank(samples, pct) * 1e3, "ms"),
        "field_ops_per_call": (statistics.fmean(item_ops.values() or [0]), "count"),
        "transform_bits_max": (bits, "bits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_share": ((attempted - len(failures)) / attempted, "ratio"),
    }
    detail = {
        "latency_samples": len(samples),
        "passes": len(scaled[0]),
        "tail_percentile": pct,
        "timed_s": sum(raw),
        "reference_ms": [min(refs) * 1e3, statistics.median(refs) * 1e3, max(refs) * 1e3],
        "raw_calls_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": nearest_rank(raw, 50) * 1e3,
        "raw_latency_tail_ms": nearest_rank(raw, pct) * 1e3,
        "item_median_ms": [m * 1e3 for m in medians],
        "setup_samples_s": setup,
    }
    return attempted, metrics, detail


def traced_run(items, counter, seconds, failures):
    """Untraced and traced calls alternate on each item until seconds/2 untraced."""
    import spans

    tracer = spans.Tracer(counter.total)
    timed_call(items[0], counter, failures)  # warm-up
    plain = traced = 0.0
    calls = 0
    start = perf_counter()
    while plain < seconds / 2 and perf_counter() - start < WALL_LIMIT_S:
        for item in items:
            for with_trace in (False, True) if calls % 2 == 0 else (True, False):
                around = tracer.installed if with_trace else contextlib.nullcontext
                dt = timed_call(item, counter, failures, around)[0]
                if with_trace:
                    traced += dt
                else:
                    plain += dt
            calls += 1
    leftover = spans.leftover_wrappers()
    if leftover:
        failures.append(f"span wrappers left installed: {leftover}")

    values = {}
    kernel_ops = kernel_s = 0.0
    for name, (n, total, own, ops, own_ops) in tracer.by_boundary().items():
        values[f"{name}.calls"] = (n / calls, "count")
        values[f"{name}.total_s"] = (total / calls, "s")
        values[f"{name}.self_s"] = (own / calls, "s")
        values[f"{name}.ops"] = (ops / calls, "count")
        values[f"{name}.self_ops"] = (own_ops / calls, "count")
        values[f"{name}.ops_per_s"] = (own_ops / own if own else 0.0, "1/s")
        if name.startswith(("linalg.", "poly.")):
            kernel_ops += own_ops
            kernel_s += own
    splits = {}
    for (parent, name), (n, total, own, ops, _) in sorted(tracer.stats.items()):
        key = f"{parent or 'top'}--{name}"
        splits[key] = {"calls": n / calls, "total_s": total / calls, "self_s": own / calls,
                       "ops": ops / calls}
        values[f"{key}.self_s"] = (own / calls, "s")
    coverage = sum(row[2] for row in tracer.stats.values()) / traced
    if not COVERAGE_MIN <= coverage <= 1.0:
        failures.append(f"span self times cover {coverage:.3f} of traced wall")
    values["field.ops_per_s"] = (kernel_ops / kernel_s, "1/s")
    values["trace.overhead_ratio"] = (traced / plain, "ratio")
    values["trace.self_coverage"] = (coverage, "ratio")
    detail = {
        "traced_calls": calls,
        "untraced_s": plain,
        "traced_s": traced,
        "layers": {k: v[0] for k, v in sorted(values.items()) if "--" not in k},
        "splits": splits,
    }
    return 2 * calls + 1, values, detail


def run_workload(workload, seed, seconds, trace):
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    from workloads import OpCounter

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    counter = OpCounter()
    counter.install()
    failures = []
    try:
        items = workload.build(seed, workdir)
        if trace:
            attempted, values, detail = traced_run(items, counter, seconds, failures)
        else:
            attempted, values, detail = untraced_run(workload, items, counter, seconds, failures)
    finally:
        counter.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if "--" in m["name"]:  # a caller split the workload never reached
            values.setdefault(m["name"], (0.0, m["unit"]))
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    detail.update(workload=workload.name, seed=seed, pool=len(items), failures=failures[:10])
    print(json.dumps({"detail": detail}))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))


def run_all(names, args):
    """Each workload in a fresh interpreter; every metric printed by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=180)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] &= result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:14} {metric:36} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ratform" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no ratform sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ratform
    from workloads import WORKLOADS

    if not Path(ratform.__file__).resolve().is_relative_to(SRC):
        print(f"error: ratform imported from {ratform.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
