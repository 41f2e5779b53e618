"""The three benchmark workloads: seeded inputs, timed calls, output checks.

Every workload is a closed loop with one caller: a call starts only after
the previous one has returned and been checked.  Inputs depend only on the
benchmark seed and the block number, so a seed reproduces a run's inputs;
the package sees nothing but the generated arguments.  Calls go through the
module attributes (``protocol.run_exact``, ``cli.main``, ...) so that the
traced run's wrappers see them.

A block is the unit the loop repeats.  Its composition is fixed and the
seed only shuffles the order, so the mix of call shapes, and with it the
latency percentiles, does not drift from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from jrsp import bases, cli, protocol, verify

TWO_PI = 2.0 * math.pi
TOL = 1e-9

# Block indices of the untimed warm-up and of the once-per-run calls, far
# from any timed block.
WARM_BLOCK = 2**40
EPILOGUE_BLOCK = 2**40 + 1


class CheckFailed(Exception):
    """An output of the package violates an invariant the benchmark checks."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed call of the closed loop.

    call does the package work and is the only timed part; check raises
    CheckFailed on a wrong output; digest fingerprints the output for the
    recorded default-seed values and the repeated-seed comparison.  units
    counts the work the call completes (runs, branches or trials), and
    out_bytes measures the command-line output of calls that have one.
    """

    kind: str
    units: int
    call: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], str] | None = None
    out_bytes: Callable[[object], int] | None = None


def _rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, block])


def _interior_target(rng: np.random.Generator, phi: float) -> bases.TargetState:
    theta = rng.uniform(0.05, math.pi / 2.0 - 0.05)
    return bases.TargetState(math.cos(theta), math.sin(theta), phi % TWO_PI)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _branch_count(n: int) -> int:
    return 1 << (2 * n - 1)


def check_exact(report, oracle, n: int, p_strict: float) -> None:
    """Invariants of one exact run and its oracle grading."""
    expect(len(report.branches) == _branch_count(n),
           f"n={n}: {len(report.branches)} branches")
    total = math.fsum(br.probability for br in report.branches)
    expect(abs(total - 1.0) <= TOL, f"n={n}: branch probabilities sum to {total!r}")
    expect(abs(report.p_strict - p_strict) <= TOL,
           f"n={n} {report.rule}: p_strict={report.p_strict!r}, expected {p_strict}")
    expect(len(oracle) == len(report.branches), "oracle is not aligned with branches")
    for br, best in zip(report.branches, oracle):
        if best is None:
            expect(br.pre_recovery is None, f"{br.transcript}: oracle skipped a live branch")
        else:
            expect(best[1] >= br.fidelity - TOL,
                   f"{br.transcript}: rule fidelity {br.fidelity!r} beats the oracle")


class AuditSweep:
    """Acceptance-suite shape: many small exact runs, each oracle-checked.

    A block holds one improved/derived run for every n of the sweep and two
    bich3/table1 runs, the suite's 5:2 ratio of sizes to three-party runs
    rounded so that the median falls inside the three-party cluster and the
    90th percentile inside the largest-n cluster, never on a boundary.
    """

    name = "audit-sweep"
    unit = "runs"

    def __init__(self, scale: str = "full") -> None:
        self.scale = scale
        self.ns = range(2, 7) if scale == "full" else range(2, 4)

    @property
    def warm_ops(self) -> int:
        return len(self.ns) + 2

    def setup(self) -> None:
        t = bases.TargetState(0.6, 0.8, 1.1)
        report = protocol.run_exact("improved", t, (1.1,), "derived")
        verify.oracle_branches(report)
        protocol.run_exact("bich3", t, (0.55, 0.55), "table1")

    def _op(self, variant: str, n: int, rng: np.random.Generator) -> Op:
        shares = protocol.generic_shares(n - 1, rng)
        t = _interior_target(rng, sum(shares))
        rule, p_strict = ("derived", 1.0) if variant == "improved" else ("table1", 0.25)

        def call():
            report = protocol.run_exact(variant, t, shares, rule)
            return report, verify.oracle_branches(report)

        return Op(f"{variant}-n{n}", 1, call,
                  lambda out: check_exact(out[0], out[1], n, p_strict))

    def block(self, seed: int, k: int) -> list[Op]:
        rng = _rng(seed, k)
        shapes = [("improved", n) for n in self.ns] + [("bich3", 3)] * 2
        return [self._op(*shapes[i], rng) for i in rng.permutation(len(shapes))]

    def epilogue(self, seed: int, first_digests: list[str | None]) -> list[Op]:
        """One errata report and one rule comparison per workload run."""
        rng = _rng(seed, EPILOGUE_BLOCK)
        errata_seed = int(rng.integers(0, 2**31))
        shares = protocol.generic_shares(2, rng)
        t = _interior_target(rng, sum(shares))

        def check_errata(findings) -> None:
            expect([f.id for f in findings] == ["i", "ii", "iii", "iv", "v"],
                   "errata findings are not i..v")
            ev = {f.id: f.evidence for f in findings}
            expect((ev["ii"]["printed_op"], ev["ii"]["required_op"]) == ("X", "I"),
                   "erratum ii evidence changed")
            expect(ev["iii"]["disagreement_count"] == 16, "erratum iii evidence changed")
            expect(abs(ev["v"]["p_strict_min"] - 0.25) <= TOL
                   and abs(ev["v"]["p_strict_max"] - 0.25) <= TOL
                   and abs(ev["v"]["p_fidelity_min"] - 1.0) <= TOL,
                   "erratum v verdict changed")

        def check_compare(cmp) -> None:
            expect(len(cmp.disagreements) == 16,
                   f"{len(cmp.disagreements)} derived/table2 disagreements, expected 16")
            expect(abs(cmp.p_strict["derived"] - 1.0) <= TOL
                   and abs(cmp.p_strict["table2"] - 0.5) <= TOL,
                   f"compare-rules p_strict {cmp.p_strict}")

        return [
            Op("detect_errata", 1, lambda: verify.detect_errata(errata_seed), check_errata),
            Op("compare_rules", 1,
               lambda: verify.compare_rules(t, shares, 3, ["derived", "table2"]),
               check_compare),
        ]

    def trace_blocks(self, seconds: float) -> int:
        return max(1, round(seconds * 3))

    @property
    def probe_n(self) -> int:
        return max(self.ns)


def check_cli_output(fmt: str, n: int, out: str) -> None:
    """Invariants of one exact simulate report in the given format."""
    if fmt == "json":
        doc = json.loads(out)
        rows = doc["branches"]
        probs = [row["prob"] for row in rows]
        strict = all(row["strict"] for row in rows)
        p_strict = doc["p_strict"]
    else:
        lines = out.splitlines()
        if fmt == "csv":
            head = lines.index("l,m,prob,recovery,fidelity,strict,"
                               "residual_phase_re,residual_phase_im")
            rows = [line.split(",") for line in lines[head + 1:]]
            probs = [float(row[2]) for row in rows]
            strict = all(row[5] == "true" for row in rows)
            p_strict = float(next(x for x in lines if x.startswith("# p_strict="))[11:])
        else:
            head = next(i for i, x in enumerate(lines) if x.startswith("l "))
            rows = [line.split() for line in lines[head + 1:lines.index("", head)]]
            probs = [float(row[2]) for row in rows]
            strict = all(row[5] == "yes" for row in rows)
            p_strict = float(next(x for x in lines if x.startswith("p_strict: "))[10:])
    expect(len(rows) == _branch_count(n), f"{fmt}: {len(rows)} branch rows")
    expect(abs(math.fsum(probs) - 1.0) <= TOL, f"{fmt}: probabilities sum to {math.fsum(probs)!r}")
    expect(strict and p_strict == 1.0, f"{fmt}: derived rule not strict everywhere")


class WideExact:
    """One large party count through the command line, in every format.

    Each call gets its own target and shares, as separate invocations of
    the command would; a block renders the three formats once.
    """

    name = "wide-exact"
    unit = "branches"
    formats = ("text", "json", "csv")

    # One large call maps the memory a call needs; a whole block would add
    # seconds of warm-up for no further effect.
    warm_ops = 1

    def __init__(self, scale: str = "full") -> None:
        self.scale = scale
        self.n = 8 if scale == "full" else 3

    @staticmethod
    def _simulate(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def setup(self) -> None:
        self._simulate(["simulate", "--n", "2", "--format", "text"])

    def _op(self, fmt: str, rng: np.random.Generator) -> Op:
        theta = rng.uniform(0.05, math.pi / 2.0 - 0.05)
        phi = rng.uniform(0.0, TWO_PI)
        share_seed = int(rng.integers(0, 2**31))
        argv = ["simulate", "--n", str(self.n), "--theta", repr(theta), "--phi", repr(phi),
                "--shares-mode", "random", "--seed", str(share_seed), "--format", fmt]

        def check(out) -> None:
            expect(out[0] == 0, f"simulate exited with {out[0]}")
            check_cli_output(fmt, self.n, out[1])

        return Op(f"simulate-{fmt}", _branch_count(self.n), lambda: self._simulate(argv),
                  check, lambda out: _sha(out[1]), lambda out: len(out[1].encode()))

    def block(self, seed: int, k: int) -> list[Op]:
        rng = _rng(seed, k)
        return [self._op(self.formats[i], rng) for i in rng.permutation(len(self.formats))]

    def epilogue(self, seed: int, first_digests: list[str | None]) -> list[Op]:
        return []

    def trace_blocks(self, seconds: float) -> int:
        return max(1, round(seconds / 10))

    @property
    def probe_n(self) -> int:
        return self.n


class Sampling:
    """Seeded Monte Carlo: per-trial generator cost and sampler set-up cost.

    A block holds one bich3 call with many trials, where building one
    counter-based generator per trial dominates, and two improved calls at
    a large n with few trials, where building the conditional tables
    dominates.  The 1:2 mix puts the median inside the improved cluster and
    the 90th percentile inside the bich3 cluster.
    """

    name = "sampling"
    unit = "trials"
    warm_ops = 3

    def __init__(self, scale: str = "full") -> None:
        self.scale = scale
        if scale == "full":
            self.bich3_trials, self.improved_n, self.improved_trials = 20_000, 6, 200
        else:
            self.bich3_trials, self.improved_n, self.improved_trials = 200, 3, 20

    def setup(self) -> None:
        t = bases.TargetState(0.6, 0.8, 1.1)
        protocol.run_sampled("bich3", t, (0.55, 0.55), "table1", 10, 0)
        protocol.run_sampled("improved", t, (0.55, 0.55), "derived", 10, 0)

    def _op(self, variant: str, rng: np.random.Generator) -> Op:
        if variant == "bich3":
            n, rule, trials = 3, "table1", self.bich3_trials
        else:
            n, rule, trials = self.improved_n, "derived", self.improved_trials
        shares = protocol.generic_shares(n - 1, rng)
        t = _interior_target(rng, sum(shares))
        sample_seed = int(rng.integers(0, 2**63))

        def check(report) -> None:
            counts = report.counts
            expect(sum(counts) == trials, f"{variant}: counts sum to {sum(counts)}, not {trials}")
            expect(len(counts) == _branch_count(n), f"{variant}: {len(counts)} count cells")
            for count, br in zip(counts, report.branches):
                expect(count == 0 or br.pre_recovery is not None,
                       f"{variant}: sampled the empty branch {br.transcript}")
            if variant == "bich3":
                sigma = math.sqrt(0.25 * 0.75 / trials)
                expect(abs(report.p_strict - 0.25) <= 6 * sigma,
                       f"bich3: sampled p_strict {report.p_strict} far from 1/4")
            else:
                expect(report.p_strict == 1.0, f"improved: sampled p_strict {report.p_strict}")

        return Op(f"{variant}-sampled", trials,
                  lambda: protocol.run_sampled(variant, t, shares, rule, trials, sample_seed),
                  check, lambda report: _sha(json.dumps(report.counts)))

    def block(self, seed: int, k: int) -> list[Op]:
        rng = _rng(seed, k)
        kinds = ["bich3", "improved", "improved"]
        return [self._op(kinds[i], rng) for i in rng.permutation(len(kinds))]

    def epilogue(self, seed: int, first_digests: list[str | None]) -> list[Op]:
        """Rerun the first block: a repeated seed must give identical counts."""
        ops = []
        for op, first in zip(self.block(seed, 0), first_digests):
            def check(report, op=op, first=first) -> None:
                op.check(report)
                expect(op.digest(report) == first, f"{op.kind}: repeated seed changed the counts")

            ops.append(Op(f"repeat-{op.kind}", op.units, op.call, check))
        return ops

    def trace_blocks(self, seconds: float) -> int:
        return max(1, round(seconds / 2))

    @property
    def probe_n(self) -> int:
        return self.improved_n


def exact_probe(n: int, seed: int) -> Callable[[], object]:
    """One improved exact run at n parties, for the traced run's memory probe."""
    rng = _rng(seed, EPILOGUE_BLOCK)
    shares = protocol.generic_shares(n - 1, rng)
    t = _interior_target(rng, sum(shares))
    return lambda: protocol.run_exact("improved", t, shares, "derived")


WORKLOADS = {w.name: w for w in (AuditSweep, WideExact, Sampling)}
