"""Acceptance criteria for the whole package, one test per criterion.

Each test funnels through _verdict, which appends a labelled PASS or FAIL
line to VERDICTS; the conftest terminal hook prints those lines after the
run so the adjudication is visible in plain pytest output.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np
import pytest

from jrsp import (
    TargetState,
    bich_alice_basis3,
    bich_bob_basis,
    detect_errata,
    generic_shares,
    improved_alice_basis,
    improved_bob_basis,
    oracle_branches,
    printed_improved_matrix3,
    run_exact,
    run_sampled,
)
from jrsp.cli import main as cli_main

TWO_PI = 2.0 * np.pi
VERDICTS: list[str] = []


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def _interior_target(rng: np.random.Generator, phi: float) -> TargetState:
    theta = rng.uniform(0.05, np.pi / 2.0 - 0.05)
    return TargetState(np.cos(theta), np.sin(theta), phi)


@pytest.fixture(scope="module")
def improved_sweep():
    """100 random targets with generic shares for every N in 2..6.

    Only scalar aggregates are kept; the full reports would hold half a
    million branch states across the sweep.
    """
    rng = np.random.default_rng(20260823)
    agg = {
        "runs": 0,
        "elapsed": 0.0,
        "max_p_strict_dev": 0.0,
        "all_strict": True,
        "max_phase_dev": 0.0,
        "max_alice_prob_dev": 0.0,
        "max_joint_prob_dev": 0.0,
        "oracle_min_margin": np.inf,
        "oracle_ops_match": True,
        "oracle_max_phase_dev": 0.0,
    }
    for n in range(2, 7):
        joint_expected = 2.0 ** (1 - 2 * n)
        alice_expected = 2.0 ** (-n)
        for _ in range(100):
            shares = generic_shares(n - 1, rng)
            t = _interior_target(rng, sum(shares) % TWO_PI)
            start = time.perf_counter()
            report = run_exact("improved", t, shares, "derived")
            agg["elapsed"] += time.perf_counter() - start
            agg["runs"] += 1
            agg["max_p_strict_dev"] = max(
                agg["max_p_strict_dev"], abs(report.p_strict - 1.0)
            )
            alice_mass = Counter()
            for br in report.branches:
                agg["all_strict"] &= br.strict_match
                agg["max_phase_dev"] = max(
                    agg["max_phase_dev"], abs(br.residual_phase - 1.0)
                )
                agg["max_joint_prob_dev"] = max(
                    agg["max_joint_prob_dev"], abs(br.probability - joint_expected)
                )
                alice_mass[br.alice_bits] += br.probability
            agg["max_alice_prob_dev"] = max(
                agg["max_alice_prob_dev"],
                max(abs(p - alice_expected) for p in alice_mass.values()),
            )
            oracle = oracle_branches(report)
            agg["oracle_min_margin"] = min(
                agg["oracle_min_margin"], float((oracle.fidelity - report.fidelity).min())
            )
            agg["oracle_ops_match"] &= bool((oracle.ops == report.ops).all())
            # |phase - 1| as abs() takes it of a complex; phase is 0, a
            # deviation of 1, off faithful branches.
            agg["oracle_max_phase_dev"] = max(
                agg["oracle_max_phase_dev"],
                float(np.hypot(oracle.phase.real - 1.0, oracle.phase.imag).max()),
            )
    return agg


@pytest.fixture(scope="module")
def bich3_sweep():
    """100 random targets with generic shares through the three-party scheme."""
    rng = np.random.default_rng(77)
    agg = {
        "runs": 0,
        "max_p_strict_dev": 0.0,
        "max_p_fidelity_dev": 0.0,
        "one_strict_per_outcome": True,
        "min_fidelity": np.inf,
        "max_unit_phase_dev": 0.0,
        "max_alice_prob_dev": 0.0,
        "max_joint_prob_dev": 0.0,
        "oracle_min_margin": np.inf,
    }
    for _ in range(100):
        shares = generic_shares(2, rng)
        t = _interior_target(rng, sum(shares) % TWO_PI)
        report = run_exact("bich3", t, shares, "table1")
        agg["runs"] += 1
        agg["max_p_strict_dev"] = max(
            agg["max_p_strict_dev"], abs(report.p_strict - 0.25)
        )
        agg["max_p_fidelity_dev"] = max(
            agg["max_p_fidelity_dev"], abs(report.p_fidelity - 1.0)
        )
        strict_per_outcome = Counter(
            br.alice_bits for br in report.branches if br.strict_match
        )
        agg["one_strict_per_outcome"] &= len(strict_per_outcome) == 8 and all(
            v == 1 for v in strict_per_outcome.values()
        )
        alice_mass = Counter()
        for br in report.branches:
            agg["min_fidelity"] = min(agg["min_fidelity"], br.fidelity)
            agg["max_unit_phase_dev"] = max(
                agg["max_unit_phase_dev"], abs(abs(br.residual_phase) - 1.0)
            )
            agg["max_joint_prob_dev"] = max(
                agg["max_joint_prob_dev"], abs(br.probability - 1.0 / 32.0)
            )
            alice_mass[br.alice_bits] += br.probability
        agg["max_alice_prob_dev"] = max(
            agg["max_alice_prob_dev"],
            max(abs(p - 0.125) for p in alice_mass.values()),
        )
        agg["oracle_min_margin"] = min(
            agg["oracle_min_margin"],
            float((oracle_branches(report).fidelity - report.fidelity).min()),
        )
    return agg


@pytest.fixture(scope="module")
def monte_carlo_pair():
    t = TargetState(0.6, 0.8, 1.1)
    shares = (0.55, 0.55)
    exact = run_exact("bich3", t, shares, "table1")
    first = run_sampled("bich3", t, shares, "table1", 100_000, 123)
    second = run_sampled("bich3", t, shares, "table1", 100_000, 123)
    return exact, first, second


def test_criterion_1_improved_determinism(improved_sweep):
    agg = improved_sweep
    ok = (
        agg["runs"] == 500
        and agg["max_p_strict_dev"] <= 1e-9
        and agg["all_strict"]
        and agg["elapsed"] < 10.0
    )
    _verdict(
        1, "improved-determinism", ok,
        f"500 runs over N=2..6, max |p_strict - 1| = {agg['max_p_strict_dev']:.2e}, "
        f"all branches strict = {agg['all_strict']}, "
        f"enumeration time {agg['elapsed']:.2f}s of 10s",
    )


def test_criterion_2_bich3_quarter_rate(bich3_sweep):
    agg = bich3_sweep
    ok = (
        agg["runs"] == 100
        and agg["max_p_strict_dev"] <= 1e-9
        and agg["one_strict_per_outcome"]
    )
    _verdict(
        2, "bich3-strict-rate", ok,
        f"100 runs, max |p_strict - 1/4| = {agg['max_p_strict_dev']:.2e}, "
        f"exactly one strict branch per sender outcome = {agg['one_strict_per_outcome']}",
    )


def test_criterion_3_bich3_fidelity_rate(bich3_sweep):
    agg = bich3_sweep
    errata = {f.id: f for f in detect_errata(0)}
    finding = errata["v"]
    mentions = (
        finding.location == "section 2.2"
        and "no any appropriate unitary operator" in finding.description
    )
    ok = (
        agg["max_p_fidelity_dev"] <= 1e-9
        and agg["min_fidelity"] >= 1.0 - 1e-9
        and agg["max_unit_phase_dev"] <= 1e-9
        and mentions
    )
    _verdict(
        3, "bich3-fidelity-rate", ok,
        f"max |p_fidelity - 1| = {agg['max_p_fidelity_dev']:.2e}, "
        f"max phase modulus deviation = {agg['max_unit_phase_dev']:.2e}, "
        f"finding v cites the unrecoverability claim = {mentions}",
    )


def test_criterion_4_table_adjudication(capsys):
    def table_doc(rule: str) -> dict:
        code = cli_main(["table", "--rule", rule, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)

    derived = table_doc("derived")
    table2 = table_doc("table2")
    step3 = table_doc("paper-step3")
    derived_ok = derived["matches"] == 32
    table2_ok = all(
        row["match"] == (row["l"][0] == "0") for row in table2["rows"]
    ) and table2["matches"] == 16
    flagship = next(
        row for row in step3["rows"] if row["l"] == "010" and row["m"] == "00"
    )
    step3_ok = not flagship["match"] and step3["mismatches"] > 0
    ok = derived_ok and table2_ok and step3_ok
    _verdict(
        4, "table-oracle-column", ok,
        f"derived {derived['matches']}/32, table2 split on leading bit = {table2_ok}, "
        f"paper-step3 flags l=010 m=00 = {not flagship['match']}",
    )


def test_criterion_5_basis_health():
    rng = np.random.default_rng(5150)
    thetas = rng.uniform(0.0, np.pi / 2.0, size=1000)
    targets = [TargetState(np.cos(x), np.sin(x)) for x in thetas]
    targets += [TargetState(1.0, 0.0), TargetState(0.0, 1.0)]
    worst = 0.0
    for i, t in enumerate(targets):
        n = 2 + i % 5
        mat = improved_alice_basis(t, n).matrix
        dim = 1 << n
        worst = max(worst, float(np.abs(mat @ mat.conj().T - np.eye(dim)).max()))
        worst = max(worst, float(np.abs(mat.T @ mat.conj() - np.eye(dim)).max()))
        small = bich_alice_basis3(t).matrix
        worst = max(worst, float(np.abs(small @ small.conj().T - np.eye(8)).max()))
    inv_worst = 0.0
    for phi in rng.uniform(0.0, TWO_PI, size=1000):
        for r in (0, 1):
            v = bich_bob_basis(r, phi).matrix
            worst = max(worst, float(np.abs(v @ v.conj().T - np.eye(2)).max()))
            inv_worst = max(inv_worst, float(np.abs(v @ v - np.eye(2)).max()))
        for l_j in (0, 1):
            w = improved_bob_basis(l_j, phi).matrix
            worst = max(worst, float(np.abs(w @ w.conj().T - np.eye(2)).max()))
    printed = printed_improved_matrix3(TargetState(0.6, 0.8))
    norm_dev = float(np.abs(np.linalg.norm(printed, axis=1) - 1.0).max())
    fixture_fails = norm_dev > 1e-10
    ok = worst <= 1e-10 and inv_worst <= 1e-10 and fixture_fails
    _verdict(
        5, "basis-health", ok,
        f"1002 targets and 1000 phases, worst orthonormality deviation {worst:.2e}, "
        f"worst involution deviation {inv_worst:.2e}, printed fixture row-norm "
        f"deviation {norm_dev:.3f}",
    )


def test_criterion_6_distributions(improved_sweep, bich3_sweep, monte_carlo_pair):
    exact, first, second = monte_carlo_pair
    tv = 0.5 * sum(
        abs(c / first.trials - br.probability)
        for c, br in zip(first.counts, exact.branches)
    )
    emp_gap = abs(first.p_strict - exact.p_strict)
    prob_dev = max(
        improved_sweep["max_alice_prob_dev"],
        improved_sweep["max_joint_prob_dev"],
        bich3_sweep["max_alice_prob_dev"],
        bich3_sweep["max_joint_prob_dev"],
    )
    ok = (
        prob_dev <= 1e-12
        and tv <= 0.03
        and emp_gap <= 0.01
        and first.counts == second.counts
    )
    _verdict(
        6, "probability-distributions", ok,
        f"max exact probability deviation {prob_dev:.2e}, "
        f"MC total variation {tv:.4f} of 0.03, |empirical - exact| p_strict "
        f"{emp_gap:.4f} of 0.01, repeated seed identical = {first.counts == second.counts}",
    )


def test_criterion_7_rules_depend_only_on_transcripts():
    rng = np.random.default_rng(404)
    op_maps: dict[str, set[tuple]] = {name: set() for name in
                                      ("derived", "paper-step3", "table2", "table1")}
    for _ in range(20):
        shares = generic_shares(2, rng)
        t = _interior_target(rng, sum(shares) % TWO_PI)
        for name in ("derived", "paper-step3", "table2"):
            report = run_exact("improved", t, shares, name)
            op_maps[name].add(
                tuple((br.alice_bits, br.bob_bits, br.recovery.label)
                      for br in report.branches)
            )
        report = run_exact("bich3", t, shares, "table1")
        op_maps["table1"].add(
            tuple((br.alice_bits, br.bob_bits, br.recovery.label)
                  for br in report.branches)
        )
    stable = {name: len(maps) == 1 for name, maps in op_maps.items()}
    ok = all(stable.values())
    _verdict(
        7, "rule-transcript-determinism", ok,
        f"20 parameter sets per rule, distinct operator maps: "
        + ", ".join(f"{name}={len(op_maps[name])}" for name in op_maps),
    )


def test_criterion_8_oracle_dominance(improved_sweep, bich3_sweep):
    margin = min(
        improved_sweep["oracle_min_margin"], bich3_sweep["oracle_min_margin"]
    )
    ok = (
        margin >= -1e-12
        and improved_sweep["oracle_ops_match"]
        and improved_sweep["oracle_max_phase_dev"] <= 1e-9
    )
    _verdict(
        8, "pauli-oracle-dominance", ok,
        f"min oracle fidelity margin {margin:.2e}, improved oracle operator equals "
        f"the derived rule everywhere = {improved_sweep['oracle_ops_match']}, "
        f"max oracle phase deviation {improved_sweep['oracle_max_phase_dev']:.2e}",
    )
