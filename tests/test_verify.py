"""Unit tests for the Pauli oracle, rule comparison and erratum detection."""

from __future__ import annotations

import json
import tracemalloc
from collections import abc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import generic_run_args

from jrsp import (
    RecoveryOp,
    StateVector,
    TargetState,
    best_pauli,
    compare_rules,
    detect_errata,
    generic_shares,
    oracle_branches,
    run_exact,
    success_probability,
)

TWO_PI = 2.0 * np.pi


class TestSuccessProbability:
    def test_both_semantics(self, rng):
        t, shares = generic_run_args(rng, 3)
        report = run_exact("improved", t, shares, "table2")
        assert success_probability(report, "strict") == report.p_strict
        assert success_probability(report, "fidelity") == report.p_fidelity

    def test_unknown_semantics(self, rng):
        t, shares = generic_run_args(rng, 2)
        report = run_exact("improved", t, shares, "derived")
        with pytest.raises(ValueError):
            success_probability(report, "hope")


class TestBestPauli:
    @pytest.mark.parametrize("label", ["I", "X", "Z", "ZX"])
    def test_recovers_every_corruption(self, label, rng):
        t = TargetState(0.6, 0.8, float(rng.uniform(0.2, 3.0)))
        op = RecoveryOp.from_label(label)
        corrupted = StateVector(op.matrix @ t.state().amplitudes, ("C",))
        op, fid, phase = best_pauli(corrupted, t)
        assert fid == pytest.approx(1.0)
        # each Pauli word is self-inverse up to sign, so the oracle answers
        # with the corruption itself and any leftover phase is a clean sign
        assert op == RecoveryOp.from_label(label)
        assert phase is not None
        assert min(abs(phase - 1.0), abs(phase + 1.0)) < 1e-12

    def test_reports_sub_unit_fidelity_without_phase(self):
        t = TargetState(0.6, 0.8, 1.1)
        op, fid, phase = best_pauli(t.state(), TargetState(0.6, 0.8, 2.6))
        assert fid < 1.0 - 1e-9
        assert phase is None
        assert isinstance(op, RecoveryOp)

    def test_exact_tie_prefers_identity(self):
        inv = 1.0 / np.sqrt(2.0)
        state = StateVector(np.array([1.0, 0.0], dtype=complex), ("C",))
        op, fid, phase = best_pauli(state, TargetState(inv, inv))
        assert op == RecoveryOp(0, 0)
        assert fid == pytest.approx(0.5)
        assert phase is None

    def test_single_qubit_only(self):
        two = StateVector(np.array([1.0, 0, 0, 0], dtype=complex), ("A", "B"))
        with pytest.raises(ValueError):
            best_pauli(two, TargetState(0.6, 0.8))


class TestOracleBranches:
    def test_aligns_with_per_branch_oracle(self, rng):
        t, shares = generic_run_args(rng, 3)
        report = run_exact("improved", t, shares, "table2")
        bulk = oracle_branches(report)
        assert len(bulk) == len(report.branches)
        for triple, br in zip(bulk, report.branches):
            op, fid, phase = best_pauli(br.pre_recovery, t)
            assert triple[0] == op
            assert triple[1] == pytest.approx(fid)

    def test_reads_as_the_tuple_of_triples(self, rng):
        t, shares = generic_run_args(rng, 3)
        report = run_exact("improved", t, shares, "table2")
        # Random receiver states, so that some branches miss fidelity 1 under
        # every word and read a None phase.
        rows = rng.normal(size=(report.prob.size, 2)) + 1j * rng.normal(size=(report.prob.size, 2))
        rows[::3] = report.pre[::3]
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        oracle = oracle_branches(replace(report, pre=rows))
        triples = tuple(oracle)
        assert isinstance(oracle, abc.Sequence)
        assert len(oracle) == len(triples) == report.prob.size
        assert {p is None for _, _, p in triples} == {True, False}
        for i in range(-len(triples), len(triples)):
            assert oracle[i] == triples[i], i
            assert oracle[i] == best_pauli(StateVector(rows[i], ("C",)), t)
        for i in (len(triples), -len(triples) - 1):
            with pytest.raises(IndexError):
                oracle[i]
        assert oracle[3:20:4] == triples[3:20:4]
        assert tuple(reversed(oracle)) == triples[::-1]

    def test_columns_are_read_only(self, rng):
        t, shares = generic_run_args(rng, 4)
        oracle = oracle_branches(run_exact("improved", t, shares, "paper-step3"))
        for name, dtype in (("ops", np.int8), ("fidelity", np.float64),
                            ("phase", np.complex128), ("faithful", np.bool_)):
            column = getattr(oracle, name)
            assert (column.dtype, column.shape) == (dtype, (len(oracle),)), name
            with pytest.raises(ValueError):
                column[0] = column[1]
            with pytest.raises(FrozenInstanceError):
                setattr(oracle, name, column.copy())

    def test_keeps_no_per_branch_objects(self):
        shares = generic_shares(7, 3)
        report = run_exact("improved", TargetState(0.6, 0.8, sum(shares)), shares, "derived")
        oracle_branches(report)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            oracle = oracle_branches(report)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        per_branch = report.prob.size
        # The four columns take 26 bytes a branch and the grading temporaries
        # about 140 more; a Python triple per branch kept 124 bytes a branch
        # and peaked at 239.
        assert len(oracle) == per_branch
        assert (kept - start) / per_branch <= 32
        assert (peak - start) / per_branch <= 200

    def test_oracle_never_loses_to_the_rule(self, rng):
        t, shares = generic_run_args(rng, 3)
        report = run_exact("improved", t, shares, "paper-step3")
        for triple, br in zip(oracle_branches(report), report.branches):
            assert triple[1] >= br.fidelity - 1e-12


class TestCompareRules:
    def test_headline_numbers_and_disagreements(self, rng):
        t, shares = generic_run_args(rng, 3)
        cmp = compare_rules(t, shares, 3, ["derived", "paper-step3", "table2"])
        assert cmp.rules == ("derived", "paper-step3", "table2")
        assert cmp.p_strict["derived"] == pytest.approx(1.0)
        assert cmp.p_strict["paper-step3"] == pytest.approx(0.25)
        assert cmp.p_strict["table2"] == pytest.approx(0.5)
        derived_vs_table2 = [
            (l, m) for l, m, ops in cmp.disagreements if ops["derived"] != ops["table2"]
        ]
        assert len(derived_vs_table2) == 16
        assert all(l.startswith("1") for l, _ in derived_vs_table2)

    def test_rejects_inconsistent_party_count(self, rng):
        t, shares = generic_run_args(rng, 3)
        with pytest.raises(ValueError):
            compare_rules(t, shares, 4, ["derived"])

    def test_rejects_foreign_rules_and_empty_lists(self, rng):
        t, shares = generic_run_args(rng, 3)
        with pytest.raises(ValueError):
            compare_rules(t, shares, 3, ["table1"])
        with pytest.raises(ValueError):
            compare_rules(t, shares, 3, [])

    def test_duplicate_rules_collapse(self, rng):
        t, shares = generic_run_args(rng, 3)
        cmp = compare_rules(t, shares, 3, ["derived", "derived"])
        assert cmp.rules == ("derived", "derived")
        assert list(cmp.p_strict) == ["derived"]
        assert cmp.disagreements == ()


@pytest.fixture(scope="module")
def seed_zero_findings():
    return detect_errata(0)


class TestDetectErrata:
    @pytest.fixture
    def findings(self, seed_zero_findings):
        return seed_zero_findings

    def test_five_findings_in_order(self, findings):
        assert [f.id for f in findings] == ["i", "ii", "iii", "iv", "v"]

    def test_locations_name_manuscript_coordinates(self, findings):
        locations = {f.id: f.location for f in findings}
        assert locations["i"] == "equation (25)"
        assert "section 3.2" in locations["ii"]
        assert locations["iii"] == "table 2"
        assert locations["iv"] == "table 1"
        assert locations["v"] == "section 2.2"

    def test_printed_row_norm(self, findings):
        ev = findings[0].evidence
        assert ev["printed_row_norm"] == pytest.approx(np.sqrt(0.36 + 2 * 0.64))
        assert ev["norm_deviation"] > 0.25

    def test_final_step_misfire(self, findings):
        ev = findings[1].evidence
        assert (ev["branch_l"], ev["branch_m"]) == ("010", "00")
        assert (ev["printed_op"], ev["required_op"]) == ("X", "I")
        assert ev["printed_fidelity"] == pytest.approx(4 * 0.36 * 0.64 * np.cos(1.1) ** 2)
        assert ev["required_fidelity"] == pytest.approx(1.0)
        assert ev["printed_rule_p_strict"] == pytest.approx(0.25)
        assert ev["derived_rule_p_strict"] == pytest.approx(1.0)

    def test_dropped_sign_in_printed_table(self, findings):
        ev = findings[2].evidence
        assert (ev["printed_op"], ev["derived_op"]) == ("I", "Z")
        assert ev["printed_fidelity"] == pytest.approx((0.36 - 0.64) ** 2)
        assert ev["disagreement_count"] == 16
        assert len(ev["disagreeing_branches"]) == 16
        assert all(part.split()[0].startswith("1") for part in ev["disagreeing_branches"])
        assert ev["table2_p_strict"] == pytest.approx(0.5)

    def test_defective_table_entries(self, findings):
        ev = findings[3].evidence
        assert ev["garbled_token"] == "11001123"
        assert ev["garbled_read_as"] == "11001"
        assert ev["duplicated_entry"] == "11100"
        assert ev["missing_entry"] == "11110"
        assert ev["entries_per_operator"] == 8

    def test_unrecoverable_claim_fails_under_survey(self, findings):
        ev = findings[4].evidence
        assert ev["targets_checked"] == 100
        assert ev["min_branch_fidelity"] > 1.0 - 1e-9
        assert ev["p_strict_min"] == pytest.approx(0.25, abs=1e-9)
        assert ev["p_strict_max"] == pytest.approx(0.25, abs=1e-9)
        assert ev["p_fidelity_min"] == pytest.approx(1.0, abs=1e-9)
        assert "no any appropriate unitary operator" in findings[4].description

    def test_static_findings_are_seed_invariant(self, findings):
        other = detect_errata(11)
        for ours, theirs in zip(findings[:4], other[:4]):
            assert ours.location == theirs.location
            assert ours.description == theirs.description
            assert json.dumps(ours.evidence, sort_keys=True) == json.dumps(
                theirs.evidence, sort_keys=True
            )
        assert other[4].evidence["seed"] == 11

    def test_evidence_is_json_serializable(self, findings):
        for finding in findings:
            json.dumps(finding.evidence)
