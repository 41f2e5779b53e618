"""Benchmark of the jrsp package.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (or, without --workload, all of them in turn) from the
root of a checkout, against the package source under ``src/``.  Each
workload runs in a fresh worker process, a single-threaded closed loop
with one caller.  Set-up time is measured on separate worker processes
that stop once set up, and reported as their median.

Prints a readable summary and, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  Exits 2 without a result when the checkout holds no package
source, and 1 when a worker fails or a metric is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("worker.py")
SPEC = ROOT / "BENCHMARK.json"
SETUP_RUNS = 5
# Every run of one workload ends well inside the three minutes allowed.
DEADLINE_S = 170.0

# Names the README uses for each workload's reading of the
# generic end-to-end metrics.
ALIASES = {
    "audit-sweep": {"ops_per_s": "sweep_runs_per_s", "op_p50_ms": "sweep_run_p50_ms",
                    "op_p90_ms": "sweep_run_p90_ms"},
    "wide-exact": {"ops_per_s": "exact_branches_per_s", "op_p50_ms": "simulate_p50_ms",
                   "op_p90_ms": "simulate_p90_ms"},
    "sampling": {"ops_per_s": "sample_trials_per_s", "op_p50_ms": "sampled_call_p50_ms",
                 "op_p90_ms": "sampled_call_p90_ms"},
}


class BenchError(Exception):
    """A worker failed, timed out, or returned an incomplete result."""


def worker_env() -> dict[str, str]:
    """The worker sees only the checkout's source and runs BLAS on one thread."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker to completion; return its set-up time and its stdout."""
    cmd = [sys.executable, str(WORKER), *args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    lines = out.splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise BenchError(f"worker printed no ready line: {' '.join(args)}")
    return float(lines[0].split()[1]) - start, out


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: str,
                 metric_units: dict[str, str]) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
              "--trace", str(trace), "--scale", scale]
    setups = [spawn(common + ["--setup-only"], deadline)[0] for _ in range(SETUP_RUNS)]
    _, out = spawn(common, deadline)
    result = json.loads(out.splitlines()[-1])
    metrics = dict(result["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(metric_units):
        raise BenchError(
            f"{name}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(metric_units) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(metric_units))}"
        )
    result["metrics"] = {k: {"value": metrics[k], "unit": metric_units[k]} for k in metric_units}
    result["info"]["setup_samples_s"] = setups
    return result


def summary(name: str, seed: int, trace: int, result: dict) -> list[str]:
    info = result["info"]
    env = info["env"]
    lines = [
        f"== {name}  seed={seed}  trace={trace}",
        f"   python {env['python']}  numpy {env['numpy']}  cpus {env['cpus_usable']}/"
        f"{env['cpu_count']}  blas_threads {env['blas_threads']}  {env['machine']}",
    ]
    aliases = ALIASES[name]
    for key, metric in result["metrics"].items():
        alias = f"  ({aliases[key]})" if key in aliases else ""
        lines.append(f"   {key:<40} {metric['value']:>16.6g} {metric['unit']}{alias}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"   {'fail_ratio':<40} {failed / attempted:>16.6g} ({failed}/{attempted})")
    if trace:
        lines.append(f"   {info['blocks']} blocks, untraced {info['untraced_s']:.4g} s, traced "
                     f"{info['traced_s']:.4g} s, {info['spans']} spans in {info['spans_file']}")
    else:
        lines.append(f"   {info['calls']} timed calls, {info['units']} {info['unit']}, "
                     f"loop wall {info['loop_wall_s']:.4g} s, unscaled ops_per_s "
                     f"{info['raw_ops_per_s']:.6g}, reference kernel median "
                     f"{info['ref_median_s'] * 1e3:.4g} ms")
        once = info["once_s"]
        if "detect_errata" in once:
            errata_s = once["detect_errata"] + once.get("compare_rules", 0.0)
            lines.append(f"   {'errata_s':<40} {errata_s:>16.6g} s")
    return lines


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names,
                        help="run one workload; without it, run all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="loop length per workload; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every call, for smoke tests")
    args = parser.parse_args(argv)
    # Turn termination into an exit, so that spawn() still stops its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "jrsp" / "__init__.py").is_file():
        sys.stderr.write(f"no jrsp package source under {ROOT / 'src'}\n")
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    names = [args.workload] if args.workload else workload_names
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, args.trace, args.scale, units)
            results[name] = result
            print("\n".join(summary(name, args.seed, args.trace, result)), flush=True)
            for problem in result["problems"]:
                sys.stderr.write(f"{name}: FAILED {problem}\n")
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
