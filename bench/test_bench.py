"""Tests of the benchmark harness itself: python -m pytest bench"""

import random
from fractions import Fraction

import pytest

import exact
import run
import spans
import workloads
from ratform import Mat, Poly, PrimeField, Rationals, canonical, rnf


def test_tail_percentile_is_highest_ladder_step_with_ten_beyond():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(39) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    with pytest.raises(ValueError):
        run.tail_percentile(19)


@pytest.mark.parametrize("min_calls", [20, 40, 200, 1000])
def test_nearest_rank_leaves_ten_samples_beyond(min_calls):
    pct = run.tail_percentile(min_calls)
    for n in range(min_calls, min_calls + 50):
        values = list(range(n))
        assert sum(v > run.nearest_rank(values, pct) for v in values) >= 10


def test_generators_are_deterministic_in_the_seed(tmp_path):
    def inputs(seed, shape):
        rng = workloads.item_rng("gf-derogatory", seed, 0)
        chain = workloads.rand_chain(rng, shape, 101)
        return chain, workloads.chain_matrix(rng, chain, 101)

    assert inputs(1, (4, 2, 2)) == inputs(1, (4, 2, 2))
    assert inputs(1, (4, 2, 2)) != inputs(2, (4, 2, 2))
    for p in (101, None):
        draw = lambda seed: workloads.rand_matrix(workloads.item_rng("w", seed, 3), 6, p)
        assert draw(5) == draw(5) != draw(6)
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    workloads.build_cli_batch(7, first)
    workloads.build_cli_batch(7, second)
    files = sorted(f.name for f in first.iterdir())
    assert files and files == sorted(f.name for f in second.iterdir())
    assert all((first / f).read_bytes() == (second / f).read_bytes() for f in files)


@pytest.mark.parametrize("p", [101, None])
def test_chain_generator_gives_the_invariant_factors(p):
    rng = random.Random(3)
    shape = (4, 2, 2, 1)
    chain = workloads.rand_chain(rng, shape, p)
    assert [len(f) - 1 for f in chain] == list(shape)
    assert all(f[-1] == 1 for f in chain)
    assert all(not exact.poly_rem(a, b, p) for a, b in zip(chain, chain[1:]))
    rows = workloads.chain_matrix(rng, chain, p)
    assert not workloads.cyclic_on_e1(rows, p)
    assert workloads.cyclic_on_e1(exact.companion(chain[0], p), p)
    result = rnf(Mat(Rationals() if p is None else PrimeField(p), rows))
    args = ([f.coeffs for f in result.factors], result.rnf.data, result.transform.data)
    assert exact.check_rnf(rows, *args, p, expected=chain) is None
    broken = [list(r) for r in result.transform.data]
    broken[0][0] = exact.norm(broken[0][0] + 1, p)
    assert exact.check_rnf(rows, args[0], args[1], broken, p) is not None


def test_poly_text_parser_reads_library_output():
    K = Rationals()
    for coeffs in ([1], [0, 1], [-1, 0, 1], ["1/2", -2, 0, 1], [3, 1]):
        poly = Poly(K, [Fraction(c) for c in coeffs])
        assert workloads.parse_poly(str(poly), None) == poly.coeffs
    assert workloads.halving_partition(12) == [6, 3, 2, 1]


def test_tracer_restores_bindings_and_accounts_for_time():
    counter = workloads.OpCounter()
    counter.install()
    try:
        K = PrimeField(101)
        a = Mat(K, workloads.rand_matrix(random.Random(1), 8, 101))
        tracer = spans.Tracer(counter.total)
        with tracer.installed():
            canonical.rnf(a)  # looked up at call time, so the wrapper runs
    finally:
        counter.uninstall()
    assert spans.leftover_wrappers() == []
    table = tracer.by_boundary()
    assert table["canonical.rnf"][0] == 1
    assert table["linalg.matmul"][0] > 0 and table["linalg.matvec"][0] > 0
    assert ("canonical.rnf", "linalg.inverse") in tracer.stats
    total_self = sum(row[2] for row in tracer.stats.values())
    top_total = sum(row[1] for (parent, _), row in tracer.stats.items() if parent == "")
    assert total_self == pytest.approx(top_total)
    assert table["canonical.rnf"][3] == K.op_count
