"""Property tests over targets (poles included), phases, shares and party count."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jrsp import RULES, TargetState, generic_shares, oracle_branches, run_exact, split_phase

TWO_PI = 2.0 * math.pi

# Every run lies on a fixed example list, so a failure reproduces anywhere.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

thetas = st.one_of(
    st.sampled_from([0.0, math.pi / 2.0]),
    st.floats(0.0, math.pi / 2.0, allow_nan=False),
)
phis = st.floats(0.0, TWO_PI, allow_nan=False, exclude_max=True)


@st.composite
def runs(draw):
    """(variant, target, shares): improved at n = 2..5, or bich3 at n = 3.

    The shares either split a drawn phase (equally or at random) or come
    from generic_shares, with the target phase set to their sum.
    """
    variant = draw(st.sampled_from(["improved", "improved", "bich3"]))
    n = 3 if variant == "bich3" else draw(st.integers(2, 5))
    theta = draw(thetas)
    seed = draw(st.integers(0, 2**32 - 1))
    how = draw(st.sampled_from(["equal", "random", "generic"]))
    if how == "generic":
        shares = generic_shares(n - 1, seed)
        phi = sum(shares) % TWO_PI
    else:
        phi = draw(phis)
        shares = split_phase(phi, n - 1, how, seed)
    return variant, TargetState(math.cos(theta), math.sin(theta), phi), shares


def applicable_rules(variant: str, n: int) -> list[str]:
    return [
        name for name, rule in RULES.items()
        if rule.variant == variant and rule.requires_n in (None, n)
    ]


@PROPERTY
@given(runs())
def test_branch_probabilities_sum_to_one(run):
    variant, t, shares = run
    n = len(shares) + 1
    weight = 2.0 ** -(2 * n - 1)
    for rule in applicable_rules(variant, n):
        report = run_exact(variant, t, shares, rule)
        assert abs(float(np.sum(report.prob)) - 1.0) <= 1e-12
        # Every branch weighs the same, so no branch is ever too unlikely
        # to carry a receiver state.
        assert np.abs(report.prob / weight - 1.0).max() <= 1e-14


@PROPERTY
@given(runs())
def test_oracle_dominates_every_rule_on_every_live_branch(run):
    variant, t, shares = run
    for rule in applicable_rules(variant, len(shares) + 1):
        report = run_exact(variant, t, shares, rule)
        oracle = oracle_branches(report)
        assert len(oracle) == report.prob.size
        for pos, (_, fid, _) in enumerate(oracle):
            assert fid >= report.fidelity[pos], (rule, pos)


@PROPERTY
@given(runs())
def test_improved_derived_is_strict_on_every_live_branch(run):
    _, t, shares = run
    report = run_exact("improved", t, shares, "derived")
    assert report.strict.all()
    assert abs(report.p_strict - 1.0) <= 1e-12
