"""Adjudication layer: headline numbers, oracle search, rule comparison,
basis health checks, and the errata report on the manuscript under audit.

The oracle here is deliberately independent of every recovery rule: it
exhaustively tries the four Pauli words on each pre-recovery receiver state
and reports the best achievable fidelity.  It grades each word with the
engine's own kernel, so on any branch the oracle's fidelity is at least the
rule's, bit for bit, whatever the CPU.  A rule is vindicated exactly when
it matches the oracle branch by branch.  The errata detector replays the
specific constructions whose printed form is internally inconsistent and
attaches machine-checkable numbers to each finding; manuscript coordinates
appear only in the finding records themselves, which exist to point a reader
at the defective passages.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bases import (
    RecoveryRule,
    TargetState,
    bich_alice_basis3,
    bich_bob_basis,
    improved_alice_basis,
    improved_bob_basis,
    printed_improved_matrix3,
)
from .protocol import (
    ProtocolReport,
    _check_party_count,
    _overlaps,
    _unit_phases,
    generic_shares,
    run_exact,
)
from .qcore import DEFAULT_TOL, RecoveryOp, StateVector, Tolerances, _gram_deviation

__all__ = [
    "SEMANTICS",
    "OracleBranches",
    "RuleComparison",
    "ErratumFinding",
    "success_probability",
    "best_pauli",
    "oracle_branches",
    "compare_rules",
    "check_bases",
    "detect_errata",
]

SEMANTICS = ("strict", "fidelity")

# Fixed generic target used by the reproducible findings: a^2 != b^2 and the
# phase avoids every multiple of pi/2, so no wrong operator can fake
# fidelity 1 and repeated runs are byte-identical.
_AUDIT_POINT = (0.6, 0.8, 1.1)


@dataclass(frozen=True, eq=False)
class RuleComparison:
    """Side-by-side adjudication of recovery rules on identical branches.

    p_strict and p_fidelity are keyed by rule name.  disagreements lists
    every branch where at least two rules emit different operators, as
    (sender bits, helper bits, operator by rule), in branch order.
    """

    rules: tuple[str, ...]
    p_strict: dict[str, float]
    p_fidelity: dict[str, float]
    disagreements: tuple[tuple[str, str, dict[str, str]], ...]


@dataclass(frozen=True, eq=False)
class ErratumFinding:
    """One internal inconsistency of the audited manuscript.

    location and description cite the manuscript passage under audit; the
    evidence mapping holds the numbers that reproduce the defect, all
    recomputable from the recorded seed where randomness is involved.
    """

    id: str
    location: str
    description: str
    evidence: dict[str, object]


def success_probability(report: ProtocolReport, semantics: str) -> float:
    """Headline success number of a run under the chosen notion of success.

    "strict" counts branches whose post-recovery vector equals the target
    up to at most a sign; "fidelity" counts branches with unit fidelity,
    ignoring the global phase entirely.  For sampled reports both numbers
    are empirical frequencies.
    """
    if semantics == "strict":
        return report.p_strict
    if semantics == "fidelity":
        return report.p_fidelity
    raise ValueError(f"unknown semantics {semantics!r}, expected one of {SEMANTICS}")


# The four Pauli words in op code order I, X, Z, ZX: as the column of codes
# that grades every row under each word, and as objects.
_WORDS = np.arange(4)[:, None]
_PAULI_OPS = tuple(RecoveryOp.from_code(code) for code in range(4))


@dataclass(frozen=True, eq=False)
class OracleBranches(abc.Sequence):
    """The Pauli oracle's verdict on every branch of a run, one column per field.

    The columns align with the report's and are named as its are: ops holds
    the op code (RecoveryOp.code) of the word with the best fidelity,
    fidelity that fidelity, phase the leftover unit scalar, and faithful
    marks the branches whose best fidelity passes the success budget; phase
    is zero off faithful branches.  The columns are read-only.

    As a sequence it holds one (operator, fidelity, residual phase) triple
    per branch, the phase None off faithful branches, built on access from
    the columns, as ProtocolReport.branches builds its records.
    """

    ops: np.ndarray
    fidelity: np.ndarray
    phase: np.ndarray
    faithful: np.ndarray

    def __len__(self) -> int:
        return self.ops.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return (
            _PAULI_OPS[self.ops[i]],
            float(self.fidelity[i]),
            complex(self.phase[i]) if self.faithful[i] else None,
        )

    def __iter__(self):
        phases = np.where(self.faithful, self.phase, None)
        return zip(
            map(_PAULI_OPS.__getitem__, self.ops.tolist()),
            self.fidelity.tolist(),
            phases.tolist(),
        )


def _oracle(rows: np.ndarray, t: TargetState, success: float) -> OracleBranches:
    """The Pauli oracle's verdict on each row.

    The four words go through the engine's grading kernel in one call, and
    one table of their fidelities gives both the best word and its
    fidelity, so on the word a rule picks the oracle's fidelity is the
    engine's bit for bit.  Exact ties resolve to the earliest word in op
    code order I, X, Z, ZX.  Only the best word's overlap is turned into a
    phase.
    """
    overlaps = _overlaps(rows, _WORDS, t._amplitudes())[1]
    table = np.abs(overlaps) ** 2
    best = np.argmax(table, axis=0)
    picked = (best, np.arange(rows.shape[0]))
    fidelity = table[picked]
    faithful = fidelity >= 1.0 - success
    phase = _unit_phases(overlaps[picked], faithful)
    columns = (best.astype(np.int8), fidelity, phase, faithful)
    for column in columns:
        column.setflags(write=False)
    return OracleBranches(*columns)


def best_pauli(
    state: StateVector, t: TargetState, tol: Tolerances = DEFAULT_TOL
) -> tuple[RecoveryOp, float, complex | None]:
    """Exhaustive oracle over the four Pauli words on one receiver state.

    Returns the word maximizing fidelity to the target, the fidelity it
    achieves, and the leftover unit phase when that fidelity reaches 1.
    Exact ties resolve to the earliest word in the order I, X, Z, ZX.
    """
    if state.num_qubits != 1:
        raise ValueError(f"the oracle works on one qubit, got {state.num_qubits}")
    return _oracle(state.amplitudes[None, :], t, tol.success)[0]


def oracle_branches(report: ProtocolReport) -> OracleBranches:
    """Run the Pauli oracle on every branch of a report at once.

    Returns the oracle's columns, aligned with the report's, with the phase
    zero where the best fidelity misses the report's success budget.  Read
    as a sequence, entry i is the (operator, fidelity, residual phase)
    triple best_pauli gives on branch i's pre-recovery state, with the
    phase None there instead.
    """
    return _oracle(report.pre, report.target, report.tolerances.success)


def compare_rules(
    t: TargetState,
    shares: Sequence[float],
    n: int,
    rules: Sequence[str | RecoveryRule],
) -> RuleComparison:
    """Run the improved protocol once per rule and diff the emitted operators.

    All rules are graded on the same branch set, so the disagreement list
    pinpoints exactly where two rules part ways.  Rules belonging to the
    other protocol family are rejected.
    """
    shares = tuple(float(v) for v in shares)
    if n != len(shares) + 1:
        raise ValueError(
            f"n={n} is inconsistent with {len(shares)} phase shares"
        )
    if not rules:
        raise ValueError("need at least one rule to compare")
    names: list[str] = []
    reports: dict[str, ProtocolReport] = {}
    for rule in rules:
        report = run_exact("improved", t, shares, rule)
        names.append(report.rule)
        reports.setdefault(report.rule, report)
    p_strict = {name: reports[name].p_strict for name in reports}
    p_fidelity = {name: reports[name].p_fidelity for name in reports}
    ordered = list(reports)
    n_helpers = n - 1
    ops = np.stack([reports[name].ops for name in ordered])
    disagreements: list[tuple[str, str, dict[str, str]]] = []
    for pos in np.flatnonzero((ops != ops[0]).any(axis=0)).tolist():
        labels = {
            name: RecoveryOp.from_code(code).label
            for name, code in zip(ordered, ops[:, pos].tolist())
        }
        l_txt = format(pos >> n_helpers, f"0{n}b")
        m_txt = format(pos & ((1 << n_helpers) - 1), f"0{n_helpers}b")
        disagreements.append((l_txt, m_txt, labels))
    return RuleComparison(
        rules=tuple(names),
        p_strict=p_strict,
        p_fidelity=p_fidelity,
        disagreements=tuple(disagreements),
    )


def _audit_target() -> tuple[TargetState, tuple[float, float]]:
    a, b, phi = _AUDIT_POINT
    return TargetState(a, b, phi), (phi / 2.0, phi / 2.0)


def _phase_json(phase: complex | None) -> dict[str, float] | None:
    if phase is None:
        return None
    return {"re": float(phase.real), "im": float(phase.imag)}


def _finding_printed_row() -> ErratumFinding:
    t, _ = _audit_target()
    printed = printed_improved_matrix3(t)
    row = printed[0b100]
    norm = float(np.linalg.norm(row))
    gram_dev = _gram_deviation(printed)
    return ErratumFinding(
        id="i",
        location="equation (25)",
        description=(
            "The printed row of the senders' basis for outcome 100 carries a "
            "stray extra amplitude-b entry, so its squared norm is a^2 + 2b^2 "
            "instead of 1 and the printed matrix is not a measurement basis. "
            "The closed-form row a|100> - b|011> restores orthonormality."
        ),
        evidence={
            "a": t.a,
            "b": t.b,
            "printed_row_re": [float(v.real) for v in row],
            "printed_row_norm": norm,
            "norm_deviation": abs(norm - 1.0),
            "printed_gram_deviation": gram_dev,
        },
    )


def _finding_step3() -> ErratumFinding:
    t, shares = _audit_target()
    printed = run_exact("improved", t, shares, "paper-step3")
    required = run_exact("improved", t, shares, "derived")
    bad = printed.branch("010", "00")
    good = required.branch("010", "00")
    return ErratumFinding(
        id="ii",
        location="section 3.2, step 3",
        description=(
            "The final-step recovery formula, read as printed (Z on the parity "
            "of l3 with the helper bits, X on the parity of all sender bits), "
            "contradicts the worked three-party example: on branch l=010, m=00 "
            "it emits X where the example requires I, leaving the receiver "
            "short of the target."
        ),
        evidence={
            "branch_l": "010",
            "branch_m": "00",
            "printed_op": bad.recovery.label,
            "required_op": good.recovery.label,
            "printed_fidelity": bad.fidelity,
            "required_fidelity": good.fidelity,
            "printed_rule_p_strict": printed.p_strict,
            "derived_rule_p_strict": required.p_strict,
        },
    )


def _finding_table2() -> ErratumFinding:
    t, shares = _audit_target()
    comparison = compare_rules(t, shares, 3, ["derived", "table2"])
    table2 = run_exact("improved", t, shares, "table2")
    derived = run_exact("improved", t, shares, "derived")
    bad = table2.branch("100", "00")
    good = derived.branch("100", "00")
    return ErratumFinding(
        id="iii",
        location="table 2",
        description=(
            "The tabulated recovery operators drop the (-1)^{l1} sign of the "
            "collapsed states: they match the derived rule only on the 16 "
            "branches with l1 = 0 and leave fidelity below 1 on the 16 "
            "branches with l1 = 1. On branch l=100, m=00 the table prints I "
            "where recovery needs Z. The table's collapsed-state column "
            "omits the same sign on those rows."
        ),
        evidence={
            "example_l": "100",
            "example_m": "00",
            "printed_op": bad.recovery.label,
            "derived_op": good.recovery.label,
            "printed_fidelity": bad.fidelity,
            "derived_fidelity": good.fidelity,
            "disagreement_count": len(comparison.disagreements),
            "disagreeing_branches": [
                f"{l} {m}" for l, m, _ in comparison.disagreements
            ],
            "table2_p_strict": table2.p_strict,
        },
    )


def _finding_table1_text() -> ErratumFinding:
    return ErratumFinding(
        id="iv",
        location="table 1",
        description=(
            "Two entries of the reconstruction-operator table are defective as "
            "printed: one outcome string is garbled ('11001123', read here as "
            "11001), and the identity row repeats 11100, an entry that also "
            "appears in the Z row, while 11110 appears nowhere. Replacing the "
            "identity-row duplicate with 11110 is the unique single-entry "
            "repair under which the table partitions all 32 outcome strings "
            "and every operator row recovers its branches."
        ),
        evidence={
            "garbled_token": "11001123",
            "garbled_read_as": "11001",
            "duplicated_entry": "11100",
            "rows_sharing_duplicate": ["I", "Z"],
            "missing_entry": "11110",
            "repaired_row": "I",
            "entries_per_operator": 8,
        },
    )


def _finding_unrecoverable(seed: int) -> ErratumFinding:
    rng = np.random.default_rng(seed)
    targets = 100
    min_fid = 1.0
    strict_values: list[float] = []
    fidelity_values: list[float] = []
    example_phase: complex | None = None
    for k in range(targets):
        theta = rng.uniform(0.05, np.pi / 2.0 - 0.05)
        shares = generic_shares(2, rng)
        t = TargetState(np.cos(theta), np.sin(theta), sum(shares))
        report = run_exact("bich3", t, shares, "table1")
        min_fid = min(min_fid, float(report.fidelity.min()))
        strict_values.append(report.p_strict)
        fidelity_values.append(report.p_fidelity)
        if k == 0:
            example_phase = report.branch("010", "01").residual_phase
    return ErratumFinding(
        id="v",
        location="section 2.2",
        description=(
            "Branches said to admit 'no any appropriate unitary operator' in "
            "fact reach fidelity 1 under the tabulated operators, with a "
            "share-dependent residual phase. Under the fidelity criterion the "
            "three-party scheme succeeds on every branch, while strict vector "
            "equality up to a sign yields success probability 1/4; the "
            "critique holds only under the strict reading."
        ),
        evidence={
            "seed": int(seed),
            "targets_checked": targets,
            "min_branch_fidelity": float(min_fid),
            "p_strict_min": float(min(strict_values)),
            "p_strict_max": float(max(strict_values)),
            "p_fidelity_min": float(min(fidelity_values)),
            "p_fidelity_max": float(max(fidelity_values)),
            "example_branch_l": "010",
            "example_branch_m": "01",
            "example_residual_phase": _phase_json(example_phase),
        },
    )


def check_bases(
    n_min: int, n_max: int, samples: int, seed: int, fixtures: Sequence[str]
) -> list[tuple[str, float, bool]]:
    """(name, max deviation, ok) rows for every basis health check.

    Sender bases (improved for each n in n_min..n_max, bich3) must be
    orthonormal and complete, helper bases unitary (bich3's also
    self-inverse), over samples random targets and phases plus the poles.
    Each fixture adds a known-bad printed construction.  Both party counts
    must lie in the 2..12 range run_exact supports.
    """
    _check_party_count(n_min)
    _check_party_count(n_max)
    if n_max < n_min:
        raise ValueError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, np.pi / 2.0, size=samples)
    targets = [TargetState(np.cos(x), np.sin(x)) for x in thetas]
    targets += [TargetState(1.0, 0.0), TargetState(0.0, 1.0)]
    phis = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    rows: list[tuple[str, float, bool]] = []

    budget = DEFAULT_TOL.equality
    for n in range(n_min, n_max + 1):
        dev = 0.0
        for t in targets:
            mat = improved_alice_basis(t, n).matrix
            dev = max(dev, _gram_deviation(mat), _gram_deviation(mat.T))
        rows.append((f"improved-alice-n{n}", dev, dev <= budget))
    dev = 0.0
    for t in targets:
        mat = bich_alice_basis3(t).matrix
        dev = max(dev, _gram_deviation(mat), _gram_deviation(mat.T))
    rows.append(("bich3-alice", dev, dev <= budget))
    unitary_dev = 0.0
    involution_dev = 0.0
    for phi in phis:
        for r in (0, 1):
            mat = bich_bob_basis(r, phi).matrix
            unitary_dev = max(unitary_dev, _gram_deviation(mat))
            involution_dev = max(
                involution_dev, float(np.abs(mat @ mat - np.eye(2)).max())
            )
    rows.append(("bich3-bob-unitary", unitary_dev, unitary_dev <= budget))
    rows.append(("bich3-bob-self-inverse", involution_dev, involution_dev <= budget))
    dev = 0.0
    for phi in phis:
        for l_j in (0, 1):
            dev = max(dev, _gram_deviation(improved_bob_basis(l_j, phi).matrix))
    rows.append(("improved-bob-unitary", dev, dev <= budget))
    for fixture in fixtures:
        if fixture != "eq25-as-printed":
            raise ValueError(f"unknown fixture {fixture!r}")
        dev = 0.0
        for t in targets:
            printed = printed_improved_matrix3(t)
            norms = np.linalg.norm(printed, axis=1)
            dev = max(dev, float(np.abs(norms - 1.0).max()), _gram_deviation(printed))
        rows.append((f"fixture-{fixture}", dev, dev <= budget))
    return rows


def detect_errata(seed: int = 0) -> tuple[ErratumFinding, ...]:
    """The five internal inconsistencies, each with reproducible evidence.

    Findings i through iv are computed at a fixed built-in target, so their
    content is byte-identical for every seed; finding v surveys 100 random
    targets drawn from the given seed, and its verdict does not depend on
    the seed.
    """
    return (
        _finding_printed_row(),
        _finding_step3(),
        _finding_table2(),
        _finding_table1_text(),
        _finding_unrecoverable(seed),
    )
