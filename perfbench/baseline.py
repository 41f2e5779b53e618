"""Record the benchmark's baseline and the default-seed output digests.

    python3 perfbench/baseline.py runs [--seeds 10] [--workload NAME ...] [--out FILE]
    python3 perfbench/baseline.py digests

``runs`` runs run.py once per seed for every workload, then once traced per
workload, and writes each end-to-end metric's values, median, quartiles and
interquartile spread, plus the traced per-layer tables, to baseline.json
(or --out).  ``digests`` recomputes the SHA-256 digests of the first
outputs of the digest-checked workloads at the default seed and writes
them to expected.json; run it only when the package's output is meant to
change.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from run import worker_env
from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Blocks recorded per workload: more than a run at the default length
# reaches at this commit.
DIGEST_BLOCKS = {"wide-exact": 8, "sampling": 40}

# Which end-to-end metric each per-layer metric should move, and on which
# workload; bench.* and trace.* describe the measurement itself.
MOVES = {
    "qcore.projective_measure": ("op_p50_ms", "audit-sweep; negligible on wide-exact"),
    "bases.alice_basis": ("op_p90_ms, ops_per_s", "audit-sweep; flat on sampling"),
    "bases.helper_basis": ("op_p90_ms, ops_per_s", "audit-sweep; flat on sampling"),
    "protocol.build_channel": ("op_p50_ms", "audit-sweep"),
    "protocol.run_exact": ("ops_per_s on wide-exact, op_p90_ms on audit-sweep",
                           "wide-exact, audit-sweep"),
    "protocol.run_exact.bytes_per_branch": ("peak_rss_mib", "wide-exact"),
    "protocol.run_sampled": ("ops_per_s", "sampling; no change on the other two"),
    "verify.oracle_branches": ("ops_per_s", "audit-sweep; bypassed by wide-exact"),
    "verify.detect_errata": ("errata_s (printed, not gated)", "audit-sweep"),
    "verify.compare_rules": ("errata_s (printed, not gated)", "audit-sweep"),
    "cli": ("ops_per_s", "wide-exact; bypassed by audit-sweep"),
}


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                         timeout=300).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def record_runs(workloads: list[str], seeds: list[int], out: Path) -> None:
    doc: dict = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result = run_once(workload, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced = run_once(workload, seeds[0], 1)
        doc["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {name: {"values": v, **spread(v)} for name, v in values.items()},
            "traced_seed": seeds[0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    doc["moves"] = {layer: {"end_to_end": m, "workload": w} for layer, (m, w) in MOVES.items()}
    doc["claim"] = None
    out.write_text(json.dumps(doc, indent=2) + "\n")


def record_digests() -> None:
    # The workers' environment, set before numpy loads its BLAS.
    os.environ.update(worker_env())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    from worker import DEFAULT_SEED, EXPECTED

    doc = {}
    for name, blocks in DIGEST_BLOCKS.items():
        workload = WORKLOADS[name]("full")
        doc[name] = [op.digest(op.call()) for k in range(blocks)
                     for op in workload.block(DEFAULT_SEED, k)]
    EXPECTED.write_text(json.dumps(doc, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runs = sub.add_parser("runs")
    runs.add_argument("--seeds", type=int, default=10)
    runs.add_argument("--first-seed", type=int, default=1)
    runs.add_argument("--workload", action="append",
                      choices=[w["name"] for w in SPEC["workloads"]])
    runs.add_argument("--out", type=Path, default=HERE / "baseline.json")
    sub.add_parser("digests")
    args = parser.parse_args()
    if args.command == "digests":
        record_digests()
    else:
        workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        record_runs(workloads, seeds, args.out)


if __name__ == "__main__":
    main()
