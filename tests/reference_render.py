"""Per-row reference renderers of the simulate report's text and csv forms.

``reference_render_text`` and ``reference_render_csv`` build the report one
Python row at a time: every float column is rounded and printed once per
distinct bit pattern, each branch becomes a tuple of its printed cells, and
each format lays those tuples out with a format string.  This was how the
command line rendered the report before it assembled the table
column-wise, so the renderers in :mod:`jrsp.cli` are tested against it.
"""

from __future__ import annotations

import numpy as np

from jrsp import RecoveryOp, success_probability
from jrsp.cli import _g, _jnum, _tol_txt


def graded(values: np.ndarray) -> list[str]:
    """_g(x) for x = _jnum(v), for every entry of a float column.

    Each distinct bit pattern is rounded and printed once; keying on the
    bits, not on the value, keeps -0.0 apart from 0.0.
    """
    keys, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.uint64),
        return_inverse=True,
    )
    cells = [_g(x) for x in map(_jnum, keys.view(np.float64).tolist())]
    return [cells[i] for i in inverse.ravel().tolist()]


def printed_prob(report) -> np.ndarray:
    if report.mode == "sampled":
        return np.array(report.counts) / report.trials
    return report.prob


def branch_rows(report) -> list[tuple]:
    """(l, m, prob, recovery, fidelity, strict, phase_re, phase_im) per branch.

    Numbers are printed by graded; the phase parts are None off faithful
    branches.
    """
    n, helpers = report.n, report.n - 1
    l_txt = [format(l, f"0{n}b") for l in range(1 << n)]
    m_txt = [format(m, f"0{helpers}b") for m in range(1 << helpers)]
    labels = [RecoveryOp.from_code(code).label for code in range(4)]
    rows = []
    for pos, (p, op, fid, strict, faithful, re, im) in enumerate(zip(
        graded(printed_prob(report)), report.ops.tolist(),
        graded(report.fidelity), report.strict.tolist(), report.faithful.tolist(),
        graded(report.phase.real), graded(report.phase.imag),
    )):
        rows.append((
            l_txt[pos >> helpers], m_txt[pos & ((1 << helpers) - 1)], p, labels[op],
            fid, strict, re if faithful else None, im if faithful else None,
        ))
    return rows


def reference_render_text(config, report) -> str:
    lines = [
        f"variant: {report.variant}",
        f"n: {report.n}",
        f"target: a={_g(report.target.a)} b={_g(report.target.b)} phi={_g(report.target.phi)}",
        "shares: " + " ".join(_g(v) for v in report.shares),
        f"rule: {report.rule}",
        f"semantics: {config.semantics}",
        f"mode: {report.mode}",
        f"trials: {report.trials if report.trials is not None else '-'}",
        f"seed: {report.seed if report.seed is not None else '-'}",
        f"tolerances: {_tol_txt(report.tolerances)}",
        "",
    ]
    l_width, m_width = max(1, report.n), max(1, report.n - 1)
    header = f"{'l':<{l_width}}  {'m':<{m_width}}  "
    header += f"{'prob':<16}  {'recovery':<8}  {'fidelity':<16}  {'strict':<6}  residual_phase"
    lines.append(header)
    for l, m, prob, op, fid, strict, re, im in branch_rows(report):
        if re is None:
            phase_txt = "-"
        else:
            sign = "" if im.startswith("-") else "+"
            phase_txt = f"{re}{sign}{im}j"
        lines.append(
            f"{l:<{l_width}}  {m:<{m_width}}  {prob:<16}  {op:<8}  {fid:<16}  "
            f"{'yes' if strict else 'no':<6}  {phase_txt}"
        )
    lines += [
        "",
        f"p_strict: {_g(report.p_strict)}",
        f"p_fidelity: {_g(report.p_fidelity)}",
        f"success_probability[{config.semantics}]: "
        f"{_g(success_probability(report, config.semantics))}",
    ]
    return "\n".join(lines) + "\n"


def reference_render_csv(config, report) -> str:
    lines = [
        f"# variant={report.variant}",
        f"# n={report.n}",
        f"# target_a={_g(report.target.a)}",
        f"# target_b={_g(report.target.b)}",
        f"# target_phi={_g(report.target.phi)}",
        "# shares=" + ";".join(_g(v) for v in report.shares),
        f"# rule={report.rule}",
        f"# semantics={config.semantics}",
        f"# mode={report.mode}",
        f"# trials={report.trials if report.trials is not None else ''}",
        f"# seed={report.seed if report.seed is not None else ''}",
        f"# p_strict={_g(report.p_strict)}",
        f"# p_fidelity={_g(report.p_fidelity)}",
        f"# tolerances={_tol_txt(report.tolerances)}",
        "l,m,prob,recovery,fidelity,strict,residual_phase_re,residual_phase_im",
    ]
    for l, m, prob, op, fid, strict, re, im in branch_rows(report):
        lines.append(
            f"{l},{m},{prob},{op},{fid},{'true' if strict else 'false'},"
            f"{'' if re is None else re},{'' if im is None else im}"
        )
    return "\n".join(lines) + "\n"
