"""One workload run in its own process; started by run.py.

The worker imports the package, warms it with one small call per layer the
workload uses, and prints ``ready``: that line marks the end of set-up.
Unless ``--setup-only`` is given it then measures and prints one JSON line
of results.  With ``--trace 0`` it runs the closed loop for ``--seconds``;
with ``--trace 1`` it runs a fixed number of blocks untraced, the same
blocks again with every layer wrapped in spans, and one memory probe.

run.py puts the checkout's ``src`` on PYTHONPATH; the worker refuses to run
against a jrsp imported from anywhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import jrsp
import numpy as np
from stats import percentile
from tracing import Tracer, layer_table, uncovered, write_spans
from workloads import WARM_BLOCK, WORKLOADS, CheckFailed, exact_probe

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 0

# The shared host's speed drifts by up to a half between fast and slow
# spells lasting seconds to minutes, which no run length averages out.  A
# fixed reference kernel is timed right before every call, and each call's
# duration is scaled by REF_NOMINAL_S over the mean of the kernel times
# before and after it: "nominal seconds", the seconds of a host on which
# the kernel takes exactly REF_NOMINAL_S.  On a two-core host this cut the
# interquartile spread of 10-second throughput windows from 24% to 3-8%.
REF_NOMINAL_S = 0.003


def reference_kernel() -> float:
    """Time a fixed mix of the work the package does: dict and tuple churn,
    small complex matrix products and counter-based generator set-up."""
    start = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    for i in range(600):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0.0) + i * 0.5
    eye = np.eye(2, dtype=np.complex128)
    ones = np.ones(4)
    for i in range(60):
        np.kron(eye, eye) @ ones
        np.random.Generator(np.random.Philox(key=[i, 1])).random()
    return time.perf_counter() - start


class Tally:
    """Attempted and failed operations, and what the completed calls did."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.kinds: list[str] = []
        self.durations: list[float] = []
        self.refs: list[float] = []
        self.tail_ref = 0.0
        self.units = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @staticmethod
    def outcome(*tallies: "Tally") -> dict:
        """Attempted and failed operations, and the first problems, of tallies."""
        return {
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "problems": [p for t in tallies for p in t.problems][:20],
        }

    def scaled(self) -> list[float]:
        """Durations in nominal seconds (see REF_NOMINAL_S)."""
        after = self.refs[1:] + [self.tail_ref]
        return [d * 2.0 * REF_NOMINAL_S / (r0 + r1)
                for d, r0, r1 in zip(self.durations, self.refs, after)]


def run_op(op, tally: Tally, expected_digest: str | None = None,
           tracer: Tracer | None = None, index: int = 0) -> str | None:
    """Time one call, check its output, and return its digest.

    Collection runs before the clock starts and the checks after it stops.
    A call that raises, or an output that fails a check, counts as one
    failed operation and the loop goes on.  Only calls that returned count
    towards durations and work units.
    """
    gc.collect()
    ref = reference_kernel()
    tally.attempted += 1
    span = None
    try:
        if tracer is not None:
            tracer.run = index
            span = tracer.begin("bench.op", kind=op.kind)
        start = time.perf_counter()
        out = op.call()
        elapsed = time.perf_counter() - start
    except Exception:
        tally.fail(f"{op.kind}: raised\n{traceback.format_exc()}")
        return None
    finally:
        if span is not None:
            tracer.end(span)
    tally.kinds.append(op.kind)
    tally.durations.append(elapsed)
    tally.refs.append(ref)
    tally.units += op.units
    if span is not None and op.out_bytes is not None:
        tracer.annotate(span, stdout_bytes=op.out_bytes(out))
    digest = None
    try:
        op.check(out)
        if op.digest is not None:
            digest = op.digest(out)
            if expected_digest is not None and digest != expected_digest:
                raise CheckFailed(f"output digest {digest} differs from the recorded one")
    except CheckFailed as exc:
        tally.fail(f"{op.kind}: {exc}")
    except Exception:
        tally.fail(f"{op.kind}: check raised\n{traceback.format_exc()}")
    return digest


def expected_digests(workload, seed: int) -> list[str]:
    """Digests recorded for the default seed at full scale, else none."""
    if seed != DEFAULT_SEED or workload.scale != "full" or not EXPECTED.exists():
        return []
    return json.loads(EXPECTED.read_text()).get(workload.name, [])


def run_blocks(workload, seed: int, seconds: float, blocks: int | None = None,
               tracer: Tracer | None = None) -> tuple[Tally, Tally, float]:
    """Run the loop, then the workload's once-per-run calls.

    With blocks None the loop runs whole blocks until seconds have passed,
    otherwise exactly that many.  Returns the loop's tally, the once-per-run
    calls' tally and the loop's wall time.
    """
    expected = expected_digests(workload, seed)
    loop, once = Tally(), Tally()
    first_digests: list[str | None] = []
    index = k = 0
    start = time.perf_counter()
    while blocks is None or k < blocks:
        for op in workload.block(seed, k):
            want = expected[index] if index < len(expected) else None
            digest = run_op(op, loop, want, tracer, index)
            if k == 0:
                first_digests.append(digest)
            index += 1
        k += 1
        if blocks is None and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    gc.collect()
    loop.tail_ref = reference_kernel()
    for op in workload.epilogue(seed, first_digests):
        run_op(op, once, None, tracer, index)
        index += 1
    gc.collect()
    once.tail_ref = reference_kernel()
    return loop, once, wall


def warm_up(workload, seed: int) -> None:
    """Untimed calls, so that caches fill and memory is mapped before timing.

    Covers the loop's call shapes and the once-per-run calls that do not
    depend on the loop's results.
    """
    for op in workload.block(seed, WARM_BLOCK)[: workload.warm_ops]:
        op.call()
    for op in workload.epilogue(seed, []):
        op.call()
    gc.collect()


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None for another BLAS."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced closed loop: the end-to-end numbers."""
    warm_up(workload, seed)
    loop, once, wall = run_blocks(workload, seed, seconds)
    scaled = loop.scaled()
    ms = [d * 1000.0 for d in scaled]
    return {
        **Tally.outcome(loop, once),
        "metrics": {
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": loop.units / sum(scaled) if scaled else 0.0,
            "op_p50_ms": percentile(ms, 0.5) if ms else 0.0,
            "op_p90_ms": percentile(ms, 0.9) if ms else 0.0,
        },
        "info": {
            "unit": workload.unit,
            "units": loop.units,
            "calls": len(scaled),
            "loop_wall_s": wall,
            "raw_ops_per_s": loop.units / sum(loop.durations) if scaled else 0.0,
            "ref_median_s": percentile(loop.refs, 0.5) if scaled else 0.0,
            "once_s": dict(zip(once.kinds, once.scaled())),
        },
    }


LAYERS = ("qcore.projective_measure", "bases.alice_basis", "bases.helper_basis",
          "protocol.build_channel", "protocol.run_exact", "protocol.run_sampled",
          "verify.oracle_branches", "verify.detect_errata", "verify.compare_rules",
          "cli.main")


def layer_metrics(table: dict) -> dict[str, float]:
    """Flatten the per-name span table into the per-layer metric names."""

    def row(name: str) -> dict:
        return table.get(name, {"calls": 0, "self_s": 0.0})

    metrics: dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = row(name)["calls"]
        metrics[f"{name}.self_s"] = row(name)["self_s"]
    exact = row("protocol.run_exact")
    branches = exact.get("branches", 0)
    metrics["protocol.run_exact.branches"] = branches
    metrics["protocol.run_exact.live_ratio"] = exact.get("live", 0) / branches if branches else 0.0
    sampled = row("protocol.run_sampled")
    trials = sampled.get("trials", 0)
    metrics["protocol.run_sampled.trials"] = trials
    metrics["protocol.run_sampled.us_per_trial"] = (
        sampled["self_s"] / trials * 1e6 if trials else 0.0
    )
    metrics["verify.oracle_branches.branches"] = row("verify.oracle_branches").get("branches", 0)
    stdout_bytes = row("bench.op").get("stdout_bytes", 0)
    cli_self = row("cli.main")["self_s"]
    metrics["cli.stdout_bytes"] = stdout_bytes
    metrics["cli.render_bytes_per_s"] = stdout_bytes / cli_self if cli_self else 0.0
    metrics["bench.op.self_s"] = row("bench.op")["self_s"]
    return metrics


def probe_bytes_per_branch(workload, seed: int) -> float:
    """Peak traced allocation of one exact run, per branch it enumerates."""
    probe = exact_probe(workload.probe_n, seed)
    gc.collect()
    tracemalloc.start()
    try:
        report = probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(report.branches)


def trace(workload, seed: int, seconds: float, spans_path: Path) -> dict:
    """Fixed blocks untraced, the same blocks traced, then the memory probe."""
    warm_up(workload, seed)
    blocks = workload.trace_blocks(seconds)
    base_loop, base_once, _ = run_blocks(workload, seed, seconds, blocks)
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        loop, once, _ = run_blocks(workload, seed, seconds, blocks, tracer)
        end = time.perf_counter()
    base_s = sum(base_loop.scaled()) + sum(base_once.scaled())
    traced_s = sum(loop.scaled()) + sum(once.scaled())

    spans = tracer.spans
    metrics = layer_metrics(layer_table(spans))
    metrics["protocol.run_exact.bytes_per_branch"] = probe_bytes_per_branch(workload, seed)
    metrics["trace.uncovered_s"] = uncovered(spans, start, end)
    metrics["trace.overhead_s"] = traced_s - base_s
    metrics["trace.overhead_ratio"] = (traced_s - base_s) / base_s
    write_spans(spans, spans_path)
    return {
        **Tally.outcome(base_loop, base_once, loop, once),
        "metrics": metrics,
        "info": {
            "blocks": blocks,
            "untraced_s": base_s,
            "traced_s": traced_s,
            "traced_wall_s": end - start,
            "spans": len(spans),
            "spans_file": os.path.relpath(spans_path, ROOT),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if Path(jrsp.__file__).resolve().parent != src / "jrsp":
        sys.stderr.write(f"jrsp was imported from {jrsp.__file__}, not from {src}\n")
        return 2
    workload = WORKLOADS[args.workload](args.scale)
    workload.setup()
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        spans = Path(__file__).with_name("out") / f"spans-{args.workload}-{args.seed}.jsonl"
        result = trace(workload, args.seed, args.seconds, spans)
    else:
        result = measure(workload, args.seed, args.seconds)
    result["info"]["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
