"""Tests of the benchmark itself: its input generators, its tracer, and a
minimal run of every workload."""

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.use_sources()

import spans  # noqa: E402
import workloads  # noqa: E402
from rentdiv import matching, pricing  # noqa: E402
from rentdiv.model import PriceVector  # noqa: E402


@pytest.mark.parametrize("name", ["contested", "uncontested"])
def test_generated_rows_are_nonnegative_integers_summing_to_rent(name):
    for seed in range(3):
        cycles = workloads.WORKLOADS[name](seed).cycles()
        for _ in range(2):
            for inp in next(cycles):
                total = inp.instance.total_rent
                assert total == 100 * inp.instance.n
                for row in inp.rows:
                    assert all(type(v) is int and v >= 0 for v in row)
                    assert sum(row) == total


def _equal_split_prices(inst, mat, assignment):
    sigma = assignment.to_indices(inst)
    welfare = sum(mat.value(i, sigma[i]) for i in range(inst.n))
    share = (welfare - inst.total_rent) / inst.n
    prices = [Fraction(0)] * inst.n
    for i in range(inst.n):
        prices[sigma[i]] = mat.value(i, sigma[i]) - share
    return PriceVector.from_list(inst, prices)


def test_uncontested_generator_has_unique_optimum_and_envy_free_equal_split():
    rng = random.Random(5)
    for n in (3, 4, 5, 6, 7):
        for _ in range(5):
            rows, owners = workloads.uncontested_rows(rng, n, 100 * n)
            inst, mat = workloads.make_instance(rows, 100 * n)
            optima = matching.all_optimal_assignments(inst, mat)
            assert len(optima) == 1
            assert optima[0].to_indices(inst) == owners
            prices = _equal_split_prices(inst, mat, optima[0])
            assert pricing.is_envy_free(inst, mat, optima[0], prices) == []


def test_contested_generator_defeats_equal_split():
    for inp in next(workloads.Contested(3).cycles()):
        best = matching.brute_force_assignment(inp.instance, inp.matrix)
        prices = _equal_split_prices(inp.instance, inp.matrix, best.assignment)
        assert pricing.is_envy_free(inp.instance, inp.matrix, best.assignment, prices)


def test_top_bidder_assignment_exists():
    assert workloads.top_bidder_assignment_exists([(5, 1), (1, 5)])
    # Agent 1 alone tops both rooms.
    assert not workloads.top_bidder_assignment_exists([(5, 0), (6, 1)])
    # Tied top bids: agent 0 must yield room 0 to agent 1 so that every
    # room still goes to one of its top bidders.
    assert workloads.top_bidder_assignment_exists([(4, 3, 0), (4, 0, 3), (0, 3, 3)])
    # Agents 0 and 1 top-bid every room; agent 2 tops none.
    assert not workloads.top_bidder_assignment_exists([(5, 5, 5), (5, 5, 5), (0, 0, 0)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_minimal_run_passes_all_checks(name):
    workload = workloads.WORKLOADS[name](seed=1)
    records = run.run_loop(workload, seconds=0)
    run.check_all(workload, records)
    assert records
    assert [r.failure for r in records] == [None] * len(records)


def test_check_catches_a_wrong_output():
    workload = workloads.Verify(seed=1)
    records = run.run_loop(workload, seconds=0)
    records[0].output = (0, records[1].output[1])
    run.check_all(workload, records)
    assert records[0].failure is not None
    # The failed op counts in the timed time but not among completed ops.
    ops_per_s = run.end_to_end(records, 0.5, 1024)["ops_per_s"][0]
    passed = len(records) - 1
    assert ops_per_s == pytest.approx(passed / sum(r.seconds for r in records))


def test_result_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workload = workloads.Verify(seed=2)
    records = run.run_loop(workload, seconds=0)
    summary = run.traced_replay(workload, records)
    layer = run.per_layer(summary, 0, 1.0)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert layer[m["name"]][1] == m["unit"]
    e2e = run.end_to_end(records, 0.5, 1024)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"]
    assert [r.failure for r in records] == [None] * len(records)


def test_self_time_subtracts_child_spans():
    rec = spans.Recorder()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        traced_child()
        traced_child()

    traced_child = rec.wrap("c", child)
    rec.op(rec.wrap("p", parent))
    s = spans.Summary(rec)
    assert s.count == {"op": 1, "p": 1, "c": 2}
    assert s.total["p"] >= 0.05
    assert s.self_time["c"] == pytest.approx(s.total["c"])
    assert s.self_time["p"] == pytest.approx(s.total["p"] - s.total["c"])
    assert s.self_time["p"] >= 0.01
    assert s.share_with_descendant("p", "c") == 1.0
    assert s.share_with_descendant("op", "missing") == 0.0


def test_installed_swaps_every_reference_and_restores():
    import rentdiv
    from rentdiv import model

    original = model.validate_instance
    rec = spans.Recorder()
    with rec.installed(targets=("model.validate_instance", "pricing.no_such_function")):
        assert matching.validate_instance is not original
        assert rentdiv.validate_instance is matching.validate_instance
    assert matching.validate_instance is original
    assert rentdiv.validate_instance is original


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
