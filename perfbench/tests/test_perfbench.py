"""Tests of the benchmark itself: helpers, output checks and tiny smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from jrsp import cli, protocol, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert stats.percentile([0.0, 10.0], 0.9) == pytest.approx(9.0)
    assert stats.percentile([5.0], 0.9) == 5.0
    assert stats.percentile([4.0, 1.0], 0.0) == 1.0
    assert stats.percentile([4.0, 1.0], 1.0) == 4.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_spread_uses_statistics_quartiles():
    values = [1.0, 2.0, 4.0, 8.0, 16.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    got = stats.spread(values)
    assert (got["q1"], got["median"], got["q3"]) == (q1, med, q3)
    assert got["iqr_over_median"] == pytest.approx((q3 - q1) / med)


def _span(id, start, end, parent=None):
    return tracing.Span(id, f"s{id}", start, parent, 0, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, 0),
        _span(2, 2.0, 5.0, 0),   # overlaps its sibling: covered once
        _span(3, 8.0, 12.0, 0),  # clipped to the parent's end
        _span(4, 2.5, 2.75, 2),  # grandchild: only its parent loses it
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 0.25)
    assert own[4] == pytest.approx(0.25)
    assert tracing.uncovered(spans, -1.0, 11.0) == pytest.approx(2.0)


def test_tracer_nests_spans_and_aggregates_layers():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner", branches=4)
    tracer.end(inner)
    tracer.end(outer)
    spans = tracer.spans
    assert (spans[inner].parent, spans[outer].parent) == (outer, None)
    table = tracing.layer_table(spans)
    assert table["outer"] == {"calls": 1, "self_s": 2.0}
    assert table["inner"] == {"calls": 1, "self_s": 1.0, "branches": 4}
    first = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError, match="out of order"):
        tracer.end(first)


def test_installed_wraps_and_restores_every_binding():
    original = protocol.run_exact
    tracer = tracing.Tracer()
    with tracer.installed():
        assert protocol.run_exact is not original
        assert verify.run_exact is not original
    assert protocol.run_exact is original and verify.run_exact is original
    assert not hasattr(cli.main, "__wrapped__")


def test_missing_binding_fails_loudly_and_wraps_nothing():
    original = protocol.run_exact
    bindings = tracing.LAYER_BINDINGS + (("gone", "jrsp.protocol", "no_such_function", None),)
    with pytest.raises(RuntimeError, match="no_such_function"):
        with tracing.Tracer().installed(bindings):
            pass
    assert protocol.run_exact is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untampered_tiny_blocks_pass_their_checks(name):
    workload = workloads.WORKLOADS[name]("tiny")
    loop, once, _ = worker.run_blocks(workload, seed=3, seconds=0.0, blocks=2)
    assert loop.attempted == len(workload.block(3, 0)) * 2
    assert (loop.failed, once.failed) == (0, 0), loop.problems + once.problems


def test_tampered_oracle_raises_fail_ratio(monkeypatch):
    real = verify.oracle_branches

    def weakened(report):
        return tuple(None if r is None else (r[0], r[1] - 0.5, r[2]) for r in real(report))

    monkeypatch.setattr(verify, "oracle_branches", weakened)
    loop, _, _ = worker.run_blocks(workloads.AuditSweep("tiny"), seed=3, seconds=0.0, blocks=1)
    assert loop.attempted > 0 and loop.failed == loop.attempted


def test_tampered_cli_output_raises_fail_ratio(monkeypatch):
    real = cli._render_report_csv
    monkeypatch.setattr(cli, "_render_report_csv", lambda *a: real(*a).rsplit("\n", 2)[0] + "\n")
    loop, _, _ = worker.run_blocks(workloads.WideExact("tiny"), seed=3, seconds=0.0, blocks=2)
    assert loop.failed == 2 and all("csv" in p for p in loop.problems)


def test_digest_mismatch_and_changed_counts_fail():
    workload = workloads.Sampling("tiny")
    op = workload.block(3, 0)[0]
    tally = worker.Tally()
    worker.run_op(op, tally, expected_digest="0" * 64)
    assert tally.failed == 1 and "digest" in tally.problems[0]
    repeat = workload.epilogue(3, ["0" * 64] * 3)
    tally = worker.Tally()
    for op in repeat:
        worker.run_op(op, tally)
    assert tally.failed == len(repeat) == 3


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def _run(args, cwd=ROOT, runner=None):
    runner = runner or [sys.executable, str(BENCH / "run.py")]
    return subprocess.run(runner + args, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_prints_a_complete_result(name, trace):
    proc = _run(["--workload", name, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(["--workload", "sampling", "--seconds", "0.2"], cwd=tmp_path,
                runner=[sys.executable, "perfbench/run.py"])
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
