"""Property tests over targets (poles included), phases, shares and party count.

The last group checks the simulate reports on reports with drawn columns:
json against json.dumps of the documented schema, text and csv against the
per-row reference renderer.
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
from jrsp.cli import (
    _CHUNK_ROWS,
    _g,
    _jnum,
    _render_report_csv,
    _render_report_text,
    _report_doc,
    _table_rows,
    _write_report_json,
)
from jrsp.protocol import _modulus, _sign_gap
from reference_render import reference_render_csv, reference_render_text

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
        assert oracle.fidelity.shape == report.fidelity.shape
        losing = np.flatnonzero(~(oracle.fidelity >= report.fidelity))
        assert losing.size == 0, (rule, losing.tolist())


@PROPERTY
@given(runs())
def test_improved_derived_is_strict_on_every_live_branch(run):
    _, t, shares = run
    report = run_exact("improved", t, shares, "derived")
    assert report.strict.all()
    assert abs(report.p_strict - 1.0) <= 1e-12


# Real and imaginary parts of phases: the signed zeros and signs, so that
# +-1, +-i and both zero real parts occur, points on the unit circle, where
# every phase lies, and points around it.
signs_and_zeros = st.sampled_from([0.0, -0.0, 1.0, -1.0])
phase_points = st.one_of(
    st.tuples(signs_and_zeros, signs_and_zeros),
    st.floats(-math.pi, math.pi).map(lambda a: (math.cos(a), math.sin(a))),
    st.tuples(signs_and_zeros, st.floats(-1.0, 1.0)),
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.lists(phase_points, min_size=1, max_size=16))
def test_sign_gap_is_the_distance_to_the_nearer_sign(points):
    phase = np.array([complex(re, im) for re, im in points])
    nearer = np.minimum(_modulus(phase - 1.0), _modulus(phase + 1.0))
    assert _sign_gap(phase).tobytes() == nearer.tobytes()


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


def reference_differences(report) -> list[str | None]:
    """first_difference of the text, csv and json reports from their references."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_report_json(CONFIG, report)
    return [
        first_difference("".join(_render_report_text(CONFIG, report)),
                         reference_render_text(CONFIG, report)),
        first_difference("".join(_render_report_csv(CONFIG, report)),
                         reference_render_csv(CONFIG, report)),
        first_difference(buf.getvalue(), json.dumps(schema_doc(report), indent=2) + "\n"),
    ]


@PROPERTY
@given(drawn_reports())
def test_reports_match_the_per_row_references(report):
    assert reference_differences(report) == [None, None, None]


def test_reports_print_the_awkward_cells_as_the_reference_does():
    """Signed zeros, cells wider than the 16-character text column, and rows
    off faithful, in exact and sampled reports."""
    t = TargetState(0.6, 0.8, 1.1)
    shares = split_phase(t.phi, 2, "equal", None)
    exact = run_exact("improved", t, shares, "derived")
    sampled = run_sampled("improved", t, shares, "derived", 50, 7)
    size = exact.prob.size
    wide = [-0.0, 0.0, 5e-324, -5e-324, -1.7976931348623157e308, -123456789012.5]
    for report in (exact, replace(sampled, trials=3, counts=tuple(range(size)))):
        report = replace(
            report,
            prob=np.resize(wide[::-1], size),
            fidelity=np.resize(wide, size),
            phase=np.resize(wide, size) - 1j * np.resize(wide[1:], size),
            faithful=np.arange(size) % 3 != 0,
        )
        assert max(len(f"{x:.12g}") for x in wide) > 16
        assert reference_differences(report) == [None, None, None]


def test_eight_party_reports_match_the_references_across_chunks():
    """n = 8 spans several row chunks; the columns vary from row to row and
    the last row is off faithful, so every chunk and its seams are checked."""
    shares = generic_shares(7, 8)
    t = TargetState(math.cos(0.7), math.sin(0.7), sum(shares) % TWO_PI)
    report = run_exact("improved", t, shares, "derived")
    size = report.prob.size
    assert size > 4 * _CHUNK_ROWS
    rng = np.random.default_rng(8)
    faithful = rng.random(size) < 0.8
    faithful[-1] = False
    report = replace(
        report,
        fidelity=np.where(rng.random(size) < 0.5, report.fidelity, rng.random(size)),
        phase=report.phase * np.exp(1j * rng.normal(0.0, 1e-3, size)),
        ops=rng.integers(0, 4, size),
        faithful=faithful,
        strict=rng.random(size) < 0.5,
    )
    assert reference_differences(report) == [None, None, None]


def test_pieces_of_empty_and_one_byte_cells_gather_as_joined_strings():
    """A piece whose only cell is empty and pieces of 1-byte cells, beside
    constants and wider cells, over several chunks."""
    rows = 2 * _CHUNK_ROWS + 3
    rng = np.random.default_rng(5)
    pieces = [
        ([""], np.zeros(rows, np.intp)),
        (["a", "b", "c"], rng.integers(0, 3, rows)),
        ",",
        (["", "x"], rng.integers(0, 2, rows)),
        (["", "long cell", "-0"], rng.integers(0, 3, rows)),
        ([""], np.zeros(rows, np.intp)),
        "\n",
    ]
    want = "".join(
        "".join(p if isinstance(p, str) else p[0][p[1][row]] for p in pieces)
        for row in range(rows)
    )
    assert "".join(_table_rows(rows, pieces)) == want


def test_reports_with_no_faithful_row_print_as_the_reference_does():
    """The phase columns hold only the absent cell: empty in csv, - in text,
    null in json."""
    t = TargetState(0.6, 0.8, 1.1)
    report = run_exact("improved", t, split_phase(t.phi, 2, "equal", None), "derived")
    size = report.prob.size
    report = replace(report, faithful=np.zeros(size, bool), strict=np.zeros(size, bool),
                     phase=np.zeros(size, complex))
    csv = "".join(_render_report_csv(CONFIG, report))
    assert csv.splitlines()[-1].endswith(",,")
    assert reference_differences(report) == [None, None, None]


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


# Any double: drawn by value, drawn by bit pattern (which reaches every
# subnormal, NaN payload and signed zero), and the edges themselves.
doubles = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     2.225073858507201e-308, 1.7976931348623157e308, 0.1, 1.0 - 2**-53]),
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)


@settings(derandomize=True, deadline=None, max_examples=2000)
@given(doubles)
def test_printing_the_rounded_value_prints_the_same_digits(x):
    # The text and csv reports print each cell from the raw value; the json
    # report rounds it first.  Both read the same 12 digits.
    assert _g(_jnum(x)) == _g(x)
