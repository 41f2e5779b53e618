"""Differential tests of the columnar exact engine against the per-branch reference."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import generic_run_args
from reference_engine import reference_oracle_branches, reference_run_exact

from jrsp import (
    RULES,
    RecoveryOp,
    TargetState,
    Tolerances,
    generic_shares,
    oracle_branches,
    run_exact,
)
from jrsp.bases import _BICH_TABLE1
from jrsp.qcore import index_to_bits

TWO_PI = 2.0 * np.pi

CASES = [("bich3", "table1", 3), ("improved", "table2", 3)] + [
    ("improved", rule, n) for rule in ("derived", "paper-step3") for n in range(2, 8)
]


def _reference_columns(ref) -> dict[str, np.ndarray]:
    """The reference records as columns, zeros where a record holds None."""
    zero = np.zeros(2, dtype=np.complex128)
    brs = ref.branches
    return {
        "prob": np.array([br.probability for br in brs]),
        "pre": np.array([zero if br.pre_recovery is None else br.pre_recovery.amplitudes
                         for br in brs]),
        "post": np.array([zero if br.post_recovery is None else br.post_recovery.amplitudes
                          for br in brs]),
        "fidelity": np.array([0.0 if br.fidelity is None else br.fidelity for br in brs]),
        "phase": np.array([0j if br.residual_phase is None else br.residual_phase
                           for br in brs]),
        "strict": np.array([br.strict_match for br in brs]),
        "live": np.array([br.pre_recovery is not None for br in brs]),
        "ops": np.array([br.recovery.code for br in brs], dtype=np.int8),
    }


def _assert_bitwise(variant, t, shares, rule, tol=Tolerances()):
    report = run_exact(variant, t, shares, rule, tol)
    ref = reference_run_exact(variant, t, shares, rule, tol)
    want = _reference_columns(ref)
    for name in ("prob", "pre", "post", "fidelity", "phase"):
        assert getattr(report, name).tobytes() == want[name].tobytes(), name
    for name in ("strict", "live", "ops"):
        assert np.array_equal(getattr(report, name), want[name]), name
    assert report.p_strict == ref.p_strict
    assert report.p_fidelity == ref.p_fidelity
    return report, ref


def _targets(rng, n):
    """Interior targets with generic shares, both poles, and phase zero."""
    t, shares = generic_run_args(rng, n)
    yield t, shares
    pole_shares = generic_shares(n - 1, rng)
    for a, b in ((1.0, 0.0), (0.0, 1.0)):
        yield TargetState(a, b, sum(pole_shares) % TWO_PI), pole_shares
    yield TargetState(0.6, 0.8, 0.0), (0.0,) * (n - 1)
    yield TargetState(1.0, 0.0, 0.0), (0.0,) * (n - 1)


@pytest.mark.parametrize("variant, rule, n", CASES)
def test_columns_match_reference_bitwise(variant, rule, n):
    rng = np.random.default_rng(10 * n + len(rule))
    for t, shares in _targets(rng, n):
        _assert_bitwise(variant, t, shares, rule)


@pytest.mark.parametrize("variant, rule", [("bich3", "table1"), ("improved", "paper-step3")])
def test_floor_above_every_branch_kills_them_all(variant, rule):
    t = TargetState(0.6, 0.8, 1.1)
    report, _ = _assert_bitwise(variant, t, (0.55, 0.55), rule, Tolerances(probability_floor=1.0))
    assert not report.live.any()
    assert report.p_strict == 0.0 and report.p_fidelity == 0.0
    assert all(br.pre_recovery is None and br.fidelity is None for br in report.branches)


@pytest.mark.parametrize("variant, rule, n", [("bich3", "table1", 3), ("improved", "table2", 3),
                                              ("improved", "paper-step3", 4)])
def test_branch_view_matches_reference_records(variant, rule, n):
    t, shares = generic_run_args(np.random.default_rng(3), n)
    report, ref = _assert_bitwise(variant, t, shares, rule)
    assert len(report.branches) == len(ref.branches)
    for br, want in zip(report.branches, ref.branches):
        assert (br.alice_bits, br.bob_bits) == (want.alice_bits, want.bob_bits)
        assert br.probability == want.probability
        assert br.recovery == want.recovery
        assert br.strict_match == want.strict_match
        assert br.fidelity == want.fidelity
        assert br.residual_phase == want.residual_phase
        assert br.pre_recovery.labels == br.post_recovery.labels == ("C",)
        assert report.branch(br.alice_bits, br.bob_bits).probability == br.probability


def test_columns_are_read_only():
    report = run_exact("improved", TargetState(0.6, 0.8, 1.1), (0.55, 0.55), "derived")
    with pytest.raises(ValueError):
        report.prob[0] = 1.0


@pytest.mark.parametrize("variant, rule, n", [("bich3", "table1", 3), ("improved", "table2", 3),
                                              ("improved", "paper-step3", 5)])
def test_oracle_matches_per_branch_oracle(variant, rule, n):
    rng = np.random.default_rng(n)
    for t, shares in _targets(rng, n):
        report = run_exact(variant, t, shares, rule)
        got = oracle_branches(report)
        want = reference_oracle_branches(report)
        assert len(got) == len(want)
        for (op, fid, phase), (want_op, want_fid, want_phase) in zip(got, want):
            assert op == want_op
            assert np.float64(fid).tobytes() == np.float64(want_fid).tobytes()
            if want_phase is None:
                assert phase is None
            else:
                assert np.complex128(phase).tobytes() == np.complex128(want_phase).tobytes()


# The rules as transcribed from the manuscript and its corrections, over bits.
def _textbook(rule, l_bits, m_bits):
    if rule == "derived":
        return l_bits[-1], (l_bits[0] + sum(m_bits)) % 2
    if rule == "paper-step3":
        return sum(l_bits) % 2, (l_bits[-1] + sum(m_bits)) % 2
    if rule == "table2":
        return l_bits[-1], sum(m_bits) % 2
    op = RecoveryOp.from_label(_BICH_TABLE1["".join(map(str, l_bits + m_bits))])
    return op.x_exp, op.z_exp


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_arrays_match_per_branch_functions(rule):
    spec = RULES[rule]
    for n in ([spec.requires_n] if spec.requires_n else range(2, 8)):
        l_idx, m_idx = np.divmod(np.arange(1 << (2 * n - 1)), 1 << (n - 1))
        codes = spec.codes(l_idx, m_idx, n)
        for l, m, code in zip(l_idx.tolist(), m_idx.tolist(), codes.tolist()):
            l_bits, m_bits = index_to_bits(l, n), index_to_bits(m, n - 1)
            op = spec(l_bits, m_bits)
            assert op.code == code
            assert (op.x_exp, op.z_exp) == _textbook(rule, l_bits, m_bits)
