"""Unit tests for the channel, phase sharing and the protocol engine."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import generic_run_args
from reference_engine import bob_branches, collapse_after_alice, reference_run_exact
from reference_sampler import reference_run_sampled

import jrsp.bases
from jrsp import (
    OrthonormalBasis,
    RecoveryRule,
    TargetState,
    bich_alice_basis3,
    bich_basis_selector,
    bich_bob_basis,
    generic_shares,
    improved_alice_basis,
    improved_bob_basis,
    run_exact,
    run_sampled,
    split_phase,
)
from jrsp.protocol import build_channel

TWO_PI = 2.0 * np.pi


class TestBuildChannel:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_amplitudes_and_labels(self, n):
        channel = build_channel(n)
        assert channel.labels == tuple(
            [f"A{j}" for j in range(1, n + 1)] + [f"B{j}" for j in range(1, n)] + ["C"]
        )
        amps = channel.amplitudes
        weight = 2.0 ** (-n / 2.0)
        for x in range(1 << n):
            assert amps[(x << n) | x] == pytest.approx(weight)
        assert np.count_nonzero(amps) == 1 << n

    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_rejects_out_of_range_sizes(self, n):
        with pytest.raises(ValueError):
            build_channel(n)


class TestSplitPhase:
    def test_equal_mode(self):
        assert split_phase(1.2, 3) == pytest.approx((0.4, 0.4, 0.4))
        assert split_phase(1.2, 1) == (1.2,)

    def test_random_mode_is_seeded_and_sums_to_phi(self):
        first = split_phase(2.2, 4, "random", 99)
        again = split_phase(2.2, 4, "random", 99)
        other = split_phase(2.2, 4, "random", 100)
        assert first == again
        assert first != other
        assert sum(first) == pytest.approx(2.2)

    def test_random_mode_stays_clear_of_pi_multiples(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            shares = split_phase(rng.uniform(0.2, TWO_PI - 0.2), 3, "random", rng)
            checks = list(shares) + list(np.cumsum(shares))[:-1]
            for value in checks:
                assert abs(value / np.pi - round(value / np.pi)) * np.pi > 0.049

    def test_validation(self):
        with pytest.raises(ValueError):
            split_phase(1.0, 0)
        with pytest.raises(ValueError):
            split_phase(1.0, 2, "weird")


def test_generic_shares_margins_and_reproducibility():
    rng = np.random.default_rng(17)
    for count in (1, 2, 4):
        shares = generic_shares(count, rng)
        assert len(shares) == count
        checks = list(shares) + list(np.cumsum(shares))
        checks += [x - y for i, x in enumerate(shares) for y in shares[i + 1 :]]
        for value in checks:
            assert abs(value / np.pi - round(value / np.pi)) * np.pi > 0.049
    assert generic_shares(3, 5) == generic_shares(3, 5)


class TestCollapseAfterAlice:
    def test_bich3_outcome_000(self):
        channel = build_channel(3)
        basis = bich_alice_basis3(TargetState(0.6, 0.8))
        prob, residual = collapse_after_alice(channel, basis, "000")
        assert prob == pytest.approx(1.0 / 8.0)
        assert residual.labels == ("B1", "B2", "C")
        assert residual.amplitude("000") == pytest.approx(0.6)
        assert residual.amplitude("111") == pytest.approx(0.8)

    def test_bich3_outcome_111_keeps_row_signs(self):
        channel = build_channel(3)
        basis = bich_alice_basis3(TargetState(0.6, 0.8))
        prob, residual = collapse_after_alice(channel, basis, 0b111)
        assert prob == pytest.approx(1.0 / 8.0)
        assert residual.amplitude("011") == pytest.approx(-0.8)
        assert residual.amplitude("100") == pytest.approx(0.6)

    @pytest.mark.parametrize("l", [0b000, 0b100, 0b101])
    def test_improved_outcome_leaves_signed_superposition(self, l):
        channel = build_channel(3)
        t = TargetState(0.6, 0.8)
        prob, residual = collapse_after_alice(channel, improved_alice_basis(t, 3), l)
        assert prob == pytest.approx(1.0 / 8.0)
        sign = -1.0 if (l >> 2) & 1 else 1.0
        assert residual.amplitudes[l] == pytest.approx(0.6)
        assert residual.amplitudes[(~l) & 7] == pytest.approx(sign * 0.8)

    def test_out_of_range_outcome(self):
        channel = build_channel(2)
        with pytest.raises(ValueError):
            collapse_after_alice(channel, improved_alice_basis(TargetState(0.6, 0.8), 2), 4)


class TestBobBranches:
    def test_uniform_branch_weights(self):
        channel = build_channel(3)
        t = TargetState(0.6, 0.8)
        _, residual = collapse_after_alice(channel, improved_alice_basis(t, 3), 0b010)
        bases = (improved_bob_basis(0, 0.4), improved_bob_basis(1, 0.3))
        branches = bob_branches(residual, bases)
        assert [bits for bits, _, _ in branches] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for _, prob, receiver in branches:
            assert prob == pytest.approx(0.25)
            assert receiver.labels == ("C",)
            assert np.linalg.norm(receiver.amplitudes) == pytest.approx(1.0)

    def test_base_count_must_match_helpers(self):
        channel = build_channel(3)
        _, residual = collapse_after_alice(
            channel, improved_alice_basis(TargetState(0.6, 0.8), 3), 0
        )
        with pytest.raises(ValueError):
            bob_branches(residual, (improved_bob_basis(0, 0.4),))


@pytest.fixture(scope="module")
def bich3_report():
    return run_exact("bich3", TargetState(0.6, 0.8, 1.1), (0.55, 0.55), "table1")


class TestRunExactBich3:
    @pytest.fixture
    def report(self, bich3_report):
        return bich3_report

    def test_branch_bookkeeping(self, report):
        assert report.variant == "bich3"
        assert report.n == 3
        assert len(report.branches) == 32
        for br in report.branches:
            assert br.probability == pytest.approx(1.0 / 32.0, abs=1e-15)
            assert br.fidelity == pytest.approx(1.0)
            assert abs(abs(br.residual_phase) - 1.0) < 1e-12

    def test_success_probabilities(self, report):
        assert report.p_strict == pytest.approx(0.25)
        assert report.p_fidelity == pytest.approx(1.0)

    def test_exactly_one_strict_branch_per_sender_outcome(self, report):
        strict = [br for br in report.branches if br.strict_match]
        assert len(strict) == 8
        assert len({br.alice_bits for br in strict}) == 8

    def test_strict_branches_carry_sign_phases(self, report):
        for br in report.branches:
            gap = min(abs(br.residual_phase - 1.0), abs(br.residual_phase + 1.0))
            assert br.strict_match == (gap <= 1e-9)

    def test_branch_lookup_and_transcript(self, report):
        br = report.branch("010", "01")
        assert br.alice_bits == (0, 1, 0)
        assert br.transcript == "l=010 m=01"
        with pytest.raises(KeyError):
            report.branch("010", "11111")


class TestRunExactImproved:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_derived_rule_is_deterministic(self, n, rng):
        t, shares = generic_run_args(rng, n)
        report = run_exact("improved", t, shares, "derived")
        assert report.p_strict == pytest.approx(1.0, abs=1e-12)
        assert report.p_fidelity == pytest.approx(1.0, abs=1e-12)
        assert len(report.branches) == 1 << (2 * n - 1)
        for br in report.branches:
            assert br.strict_match
            assert abs(br.residual_phase - 1.0) < 1e-12
            assert br.probability == pytest.approx(2.0 ** (1 - 2 * n), abs=1e-15)

    def test_uniform_probabilities_at_amplitude_extremes(self):
        for t in (TargetState(1.0, 0.0, 0.7), TargetState(0.0, 1.0, 0.7)):
            report = run_exact("improved", t, (0.3, 0.4), "derived")
            for br in report.branches:
                assert br.probability == pytest.approx(1.0 / 32.0, abs=1e-15)
            assert report.p_strict == pytest.approx(1.0)

    def test_post_recovery_states_match_target(self, rng):
        t, shares = generic_run_args(rng, 3)
        report = run_exact("improved", t, shares, "derived")
        target = t.state()
        for br in report.branches:
            overlap = np.vdot(br.post_recovery.amplitudes, target.amplitudes)
            assert abs(overlap) ** 2 == pytest.approx(1.0)

    def test_alternate_rules_lose_branches(self, rng):
        t, shares = generic_run_args(rng, 3)
        assert run_exact("improved", t, shares, "paper-step3").p_strict == pytest.approx(0.25)
        assert run_exact("improved", t, shares, "table2").p_strict == pytest.approx(0.5)

    def test_paper_step3_quarter_rate_holds_for_two_parties(self, rng):
        t, shares = generic_run_args(rng, 2)
        assert run_exact("improved", t, shares, "paper-step3").p_strict == pytest.approx(0.25)


class TestRunArgumentValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            run_exact("nonsense", TargetState(0.6, 0.8, 0.9), (0.9,), "derived")

    def test_share_sum_must_reach_the_target_phase(self):
        with pytest.raises(ValueError):
            run_exact("improved", TargetState(0.6, 0.8, 1.1), (0.5, 0.5), "derived")

    def test_share_sum_may_wrap_by_full_turns(self):
        t = TargetState(0.6, 0.8, 1.1)
        report = run_exact("improved", t, (TWO_PI / 2 + 0.55, TWO_PI / 2 + 0.55), "derived")
        assert report.p_strict == pytest.approx(1.0)

    def test_bich3_needs_exactly_two_shares(self):
        t = TargetState(0.6, 0.8, 1.2)
        with pytest.raises(ValueError):
            run_exact("bich3", t, (0.4, 0.4, 0.4), "table1")

    @pytest.mark.parametrize(
        "variant, rule", [("bich3", "derived"), ("improved", "table1")]
    )
    def test_rule_variant_pairing(self, variant, rule):
        t = TargetState(0.6, 0.8, 1.0)
        with pytest.raises(ValueError):
            run_exact(variant, t, (0.5, 0.5), rule)

    def test_table2_is_three_party_only(self):
        t = TargetState(0.6, 0.8, 1.2)
        with pytest.raises(ValueError):
            run_exact("improved", t, (0.3, 0.3, 0.3, 0.3), "table2")

    def test_unknown_rule_name(self):
        with pytest.raises(ValueError):
            run_exact("improved", TargetState(0.6, 0.8, 0.9), (0.9,), "mystery")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_shares_must_be_finite(self, bad):
        t = TargetState(0.6, 0.8, 1.1)
        with pytest.raises(ValueError, match="finite"):
            run_exact("improved", t, (bad, 0.55), "derived")
        with pytest.raises(ValueError, match="finite"):
            run_sampled("bich3", t, (0.55, bad), "table1", 10, 0)

    @pytest.mark.parametrize("helpers", [0, 12, 13])
    def test_party_count_is_bounded(self, helpers):
        # n = helpers + 1 outside 2..12 is refused before any basis is built.
        t = TargetState(0.6, 0.8, 0.0)
        with pytest.raises(ValueError, match="party count"):
            run_exact("improved", t, (0.0,) * helpers, "derived")
        with pytest.raises(ValueError, match="party count"):
            run_sampled("improved", t, (0.0,) * helpers, "derived", 10, 0)

    @pytest.mark.parametrize(
        "codes, match",
        [
            (lambda l, m, n: np.full(l.shape, 4), "outside 0..3"),
            (lambda l, m, n: np.full(l.shape, -1), "outside 0..3"),
            (lambda l, m, n: np.full(l.shape, 256), "outside 0..3"),
            (lambda l, m, n: 0, "one integer op code per branch"),
            (lambda l, m, n: np.zeros(l.size + 1, dtype=int), "one integer op code per branch"),
            (lambda l, m, n: np.zeros(l.shape), "one integer op code per branch"),
        ],
    )
    def test_rule_codes_are_checked(self, codes, match):
        rule = RecoveryRule(name="custom", variant="improved", codes=codes)
        with pytest.raises(ValueError, match=f"rule 'custom' .*{match}"):
            run_exact("improved", TargetState(0.6, 0.8, 1.1), (0.55, 0.55), rule)


class TestSequentialEquivalence:
    """The factored helper cascade must agree with one-by-one measurements."""

    def test_improved_matches_sequential_path(self, rng):
        n = 4
        t, shares = generic_run_args(rng, n)
        report = run_exact("improved", t, shares, "derived")
        channel = build_channel(n)
        alice = improved_alice_basis(t, n)
        for l_idx in (0, 5, 9, 15):
            p_alice, residual = collapse_after_alice(channel, alice, l_idx)
            l_bits = tuple((l_idx >> (n - 1 - j)) & 1 for j in range(n))
            bases = tuple(
                improved_bob_basis(l_bits[j], shares[j]) for j in range(n - 1)
            )
            for m_bits, p_cond, receiver in bob_branches(residual, bases):
                br = report.branch(l_bits, m_bits)
                assert br.probability == pytest.approx(p_alice * p_cond, abs=1e-14)
                overlap = np.vdot(receiver.amplitudes, br.pre_recovery.amplitudes)
                assert abs(overlap) ** 2 == pytest.approx(1.0)

    def test_bich3_matches_sequential_path(self, rng):
        shares = generic_shares(2, rng)
        t = TargetState(0.6, 0.8, sum(shares) % TWO_PI)
        report = run_exact("bich3", t, shares, "table1")
        channel = build_channel(3)
        alice = bich_alice_basis3(t)
        for l_idx in range(8):
            p_alice, residual = collapse_after_alice(channel, alice, l_idx)
            l_bits = tuple((l_idx >> (2 - j)) & 1 for j in range(3))
            r1, r2 = bich_basis_selector(l_bits)
            bases = (bich_bob_basis(r1, shares[0]), bich_bob_basis(r2, shares[1]))
            for m_bits, p_cond, receiver in bob_branches(residual, bases):
                br = report.branch(l_bits, m_bits)
                assert br.probability == pytest.approx(p_alice * p_cond, abs=1e-14)
                overlap = np.vdot(receiver.amplitudes, br.pre_recovery.amplitudes)
                assert abs(overlap) ** 2 == pytest.approx(1.0)


def _assert_reference_columns(report, ref):
    """The report's columns are the dense reference's records, bit for bit."""
    brs = ref.branches
    want = {
        "prob": np.array([br.probability for br in brs]),
        "pre": np.array([br.pre_recovery.amplitudes for br in brs]),
        "post": np.array([br.post_recovery.amplitudes for br in brs]),
        "fidelity": np.array([br.fidelity for br in brs]),
        "phase": np.array([0j if br.residual_phase is None else br.residual_phase
                           for br in brs]),
    }
    for name, column in want.items():
        assert getattr(report, name).tobytes() == column.tobytes(), name
    assert report.strict.tolist() == [br.strict_match for br in brs]
    assert report.ops.tolist() == [br.recovery.code for br in brs]


class TestPairedSenderStage:
    """run_exact reads the sender basis as complement pairs, never densely."""

    @pytest.mark.parametrize(
        "variant, rule, n",
        [("bich3", "table1", 3)] + [("improved", "derived", n) for n in range(2, 8)],
    )
    def test_no_dense_sender_basis_and_bitwise_reference_columns(
        self, monkeypatch, variant, rule, n
    ):
        rng = np.random.default_rng(40 + n)
        runs = [generic_run_args(rng, n)]
        pole_shares = generic_shares(n - 1, rng)
        runs += [(TargetState(a, b, sum(pole_shares) % TWO_PI), pole_shares)
                 for a, b in ((1.0, 0.0), (0.0, 1.0))]
        # The references build the dense sender basis, so they run first.
        refs = [reference_run_exact(variant, t, shares, rule) for t, shares in runs]
        sampled_ref = reference_run_sampled(variant, *runs[0], rule, 64, 7)
        check = OrthonormalBasis.__post_init__

        def two_by_two_only(basis):
            if np.shape(basis.matrix)[0] > 2:
                raise AssertionError(f"a {np.shape(basis.matrix)} basis was built")
            check(basis)

        monkeypatch.setattr(OrthonormalBasis, "__post_init__", two_by_two_only)
        with pytest.raises(AssertionError):
            improved_alice_basis(TargetState(0.6, 0.8), 2)
        for (t, shares), ref in zip(runs, refs):
            report = run_exact(variant, t, shares, rule)
            assert (report.p_strict, report.p_fidelity) == (ref.p_strict, ref.p_fidelity)
            _assert_reference_columns(report, ref)
            _assert_reference_columns(run_sampled(variant, t, shares, rule, 64, 7), ref)
        sampled = run_sampled(variant, *runs[0], rule, 64, 7)
        assert sampled.counts == sampled_ref.counts
        assert (sampled.p_strict, sampled.p_fidelity) == (
            sampled_ref.p_strict, sampled_ref.p_fidelity)

    @pytest.mark.parametrize("row, entry, message", [
        # Row 111 with its sign flipped is no longer orthogonal to row 110.
        (0b111, (0b100, "a", "b"), r"one per ket: deviation 9\.600e-01"),
        # Rows 010 and 011 both on ket 001: the pair {001, 110} is not shared
        # one row per ket, though the two rows are still orthonormal.
        (0b011, (0b001, "b", "-a"), r"one per ket: deviation 1\.000e\+00"),
    ])
    def test_broken_pair_table_is_refused(self, monkeypatch, row, entry, message):
        rows = list(jrsp.bases._BICH_ALICE_ROWS)
        rows[row] = entry
        monkeypatch.setattr(jrsp.bases, "_BICH_ALICE_ROWS", tuple(rows))
        t = TargetState(0.6, 0.8, 1.1)
        with pytest.raises(ValueError, match=message):
            run_exact("bich3", t, (0.55, 0.55), "table1")
        with pytest.raises(ValueError, match=message):
            bich_alice_basis3(t)


class TestRunSampled:
    def test_seeded_runs_are_identical(self):
        t = TargetState(0.6, 0.8, 1.1)
        first = run_sampled("bich3", t, (0.55, 0.55), "table1", 2000, 31)
        again = run_sampled("bich3", t, (0.55, 0.55), "table1", 2000, 31)
        assert first.counts == again.counts
        assert first.p_strict == again.p_strict

    def test_report_bookkeeping(self):
        t = TargetState(0.6, 0.8, 1.1)
        report = run_sampled("bich3", t, (0.55, 0.55), "table1", 2000, 31)
        assert report.mode == "sampled"
        assert report.trials == 2000
        assert report.seed == 31
        assert len(report.counts) == 32
        assert sum(report.counts) == 2000
        strict_freq = sum(
            c for c, br in zip(report.counts, report.branches) if br.strict_match
        ) / 2000.0
        assert report.p_strict == pytest.approx(strict_freq)

    def test_different_seeds_differ(self):
        t = TargetState(0.6, 0.8, 1.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed_a, seed_b in ((31, 32), (2**63, 2**63 + 1), (0, 2**64 - 1)):
                a = run_sampled("bich3", t, (0.55, 0.55), "table1", 2000, seed_a)
                b = run_sampled("bich3", t, (0.55, 0.55), "table1", 2000, seed_b)
                assert a.counts != b.counts

    def test_empirical_rate_tracks_exact_rate(self):
        t = TargetState(0.6, 0.8, 1.1)
        report = run_sampled("improved", t, (0.55, 0.55), "table2", 20000, 8)
        assert report.p_strict == pytest.approx(0.5, abs=0.02)

    def test_validation(self):
        t = TargetState(0.6, 0.8, 1.1)
        with pytest.raises(ValueError):
            run_sampled("bich3", t, (0.55, 0.55), "table1", 0, 1)
        with pytest.raises(ValueError):
            run_sampled("bich3", t, (0.55, 0.55), "table1", 10, -1)
        with pytest.raises(ValueError):
            run_sampled("bich3", t, (0.55, 0.55), "table1", 10, 1 << 64)
