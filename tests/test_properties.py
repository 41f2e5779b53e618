"""Property tests over targets (poles included), phases, shares and party count.

The last group checks the simulate json report against json.dumps of the
documented schema on reports with drawn columns.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrsp import (
    RULES,
    RecoveryOp,
    TargetState,
    generic_shares,
    oracle_branches,
    run_exact,
    run_sampled,
    split_phase,
)
from jrsp.cli import _jnum, _report_doc, _write_report_json

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


# Floats whose printed form is easy to get wrong: signed zeros, subnormals,
# the extremes, and values whose 12-digit rounding switches repr between
# fixed and exponent notation.
awkward_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1e-05, 9.99999999999999e-05, 0.0001, 123456789012.5,
    -123456789012.5, 0.1, 1.0 / 3.0, 2.0 ** -53, 1.0,
])
finite_floats = st.one_of(awkward_floats, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def spread(draw, palette: list, size: int) -> np.ndarray:
    """size entries picked from palette by a generator seeded from one drawn
    integer, so shrinking a failure works on the palette and one seed, and
    every shrink step, which reruns the engine, stays cheap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(palette)[rng.integers(len(palette), size=size)]


@st.composite
def column(draw, size: int) -> np.ndarray:
    """A float column spread from a small drawn palette, so bit patterns repeat.

    Half the palettes hold both zeros, which print differently but compare
    equal.
    """
    palette = draw(st.lists(finite_floats, min_size=1, max_size=5))
    palette += draw(st.sampled_from([[], [0.0, -0.0]]))
    return draw(spread(palette, size))


@st.composite
def drawn_reports(draw):
    """A real report, at a pole or not, exact or sampled, with drawn columns."""
    variant = draw(st.sampled_from(["improved", "improved", "bich3"]))
    n = 3 if variant == "bich3" else draw(st.integers(2, 4))
    theta = draw(st.sampled_from([0.0, math.pi / 2.0, 0.7]))
    t = TargetState(math.cos(theta), math.sin(theta), draw(phis))
    shares = split_phase(t.phi, n - 1, "equal", None)
    rule = "table1" if variant == "bich3" else "derived"
    if draw(st.booleans()):
        report = run_sampled(variant, t, shares, rule, 50, draw(st.integers(0, 2**32)))
        trials = draw(st.integers(1, 10**6))
        palette = draw(st.lists(st.integers(0, trials), min_size=1, max_size=5))
        counts = draw(spread(palette, report.prob.size)).tolist()
        report = replace(report, trials=trials, counts=tuple(counts))
    else:
        report = replace(run_exact(variant, t, shares, rule), seed=draw(st.integers(0, 2**64 - 1)))
    size = report.prob.size
    flags = st.sampled_from([[False], [True], [False, True]])
    return replace(
        report,
        prob=draw(column(size)),
        ops=draw(spread(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)), size)),
        fidelity=draw(column(size)),
        phase=draw(column(size)) + 1j * draw(column(size)),
        faithful=draw(spread(draw(flags), size)),
        strict=draw(spread(draw(flags), size)),
        p_strict=draw(finite_floats),
        p_fidelity=draw(finite_floats),
    )


# The one config field the json report reads.
CONFIG = SimpleNamespace(semantics="strict")


def schema_doc(report) -> dict:
    """The simulate json document as the documented schema spells it."""
    helpers = report.n - 1
    if report.mode == "sampled":
        prob = np.array(report.counts) / report.trials
    else:
        prob = report.prob
    branches = []
    for pos in range(prob.size):
        phase = complex(report.phase[pos])
        branches.append({
            "l": format(pos >> helpers, f"0{report.n}b"),
            "m": format(pos & ((1 << helpers) - 1), f"0{helpers}b"),
            "prob": _jnum(float(prob[pos])),
            "recovery": RecoveryOp.from_code(report.ops[pos]).label,
            "fidelity": _jnum(float(report.fidelity[pos])),
            "strict": bool(report.strict[pos]),
            "residual_phase": (
                {"re": _jnum(phase.real), "im": _jnum(phase.imag)}
                if report.faithful[pos] else None
            ),
        })
    doc = _report_doc(CONFIG, report)
    doc["branches"] = branches
    return doc


def first_difference(got: str, want: str) -> str | None:
    """The first line where two documents differ, or None when they are equal.

    Asserting on this keeps each failure cheap: on a failed string equality
    pytest diffs both whole documents, at every failing shrink step.
    """
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for number, (line, wanted) in enumerate(zip(got_lines, want_lines), 1):
        if line != wanted:
            return f"line {number}: {line!r} != {wanted!r}"
    return None if got == want else f"{len(got_lines)} lines != {len(want_lines)} lines"


@PROPERTY
@given(drawn_reports())
def test_json_report_is_json_dumps_byte_for_byte(report):
    doc = schema_doc(report)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_report_json(CONFIG, report)
    out = buf.getvalue()
    assert first_difference(out, json.dumps(doc, indent=2) + "\n") is None
    assert json.loads(out) == doc


@PROPERTY
@given(drawn_reports(), st.sampled_from(["prob", "fidelity", "re", "im", "p_strict"]),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_json_report_refuses_non_finite_numbers(report, where, bad, data):
    if where == "p_strict":
        report = replace(report, p_strict=bad)
    elif where == "prob":
        # A sampled report prints counts / trials, not the prob column.
        report = (replace(report, trials=0) if report.mode == "sampled"
                  else replace(report, prob=np.full(report.prob.size, bad)))
    else:
        pos = data.draw(st.integers(0, report.prob.size - 1))
        fidelity, phase = report.fidelity.copy(), report.phase.copy()
        faithful = report.faithful.copy()
        if where == "fidelity":
            fidelity[pos] = bad
        else:
            faithful[pos] = True
            phase[pos] = complex(bad, 0.0) if where == "re" else complex(0.0, bad)
        report = replace(report, fidelity=fidelity, phase=phase, faithful=faithful)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            _write_report_json(CONFIG, report)
    assert buf.getvalue() == ""
