"""Per-branch references for the exact protocol engine and the Pauli oracle.

This is the original branch-by-branch ``run_exact``: it builds the dense
2^(2n) channel, measures the sender with ``projective_measure`` on it,
forms the full helper Kronecker basis per sender outcome, calls the rule
once per transcript and grades every branch with scalar arithmetic.  It is
slow and memory hungry, but it follows the textbook measurement cascade
step by step, so the columnar engine in :mod:`jrsp.protocol` is tested
against it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from jrsp import (
    BranchRecord,
    RecoveryRule,
    StateVector,
    TargetState,
    Tolerances,
    bich_alice_basis3,
    bich_basis_selector,
    bich_bob_basis,
    build_channel,
    improved_alice_basis,
    improved_bob_basis,
    projective_measure,
)
from jrsp.protocol import _PAULI_OPS, ProtocolReport, _check_run_args
from jrsp.qcore import DEFAULT_TOL, index_to_bits
from jrsp.verify import _pauli_overlaps


@dataclass(frozen=True)
class ReferenceRun:
    """Branch records in enumeration order and the two success sums."""

    branches: tuple[BranchRecord, ...]
    p_strict: float
    p_fidelity: float


def _helper_bases(variant, l_bits, shares):
    if variant == "bich3":
        r1, r2 = bich_basis_selector(l_bits)
        return (bich_bob_basis(r1, shares[0]), bich_bob_basis(r2, shares[1]))
    return tuple(improved_bob_basis(l_bits[j], shares[j]) for j in range(len(shares)))


def reference_run_exact(
    variant: str,
    t: TargetState,
    shares: Sequence[float],
    rule: str | RecoveryRule,
    tol: Tolerances = DEFAULT_TOL,
) -> ReferenceRun:
    """Enumerate and grade every branch one transcript at a time."""
    shares, n, resolved = _check_run_args(variant, t, shares, rule, tol)
    channel = build_channel(n)
    alice = bich_alice_basis3(t) if variant == "bich3" else improved_alice_basis(t, n)
    target_conj = t.state("C").amplitudes.conj()
    alice_outcomes = projective_measure(channel, channel.labels[:n], alice, tol)
    helper_dim = 1 << (n - 1)
    branches: list[BranchRecord] = []
    p_strict = 0.0
    p_fidelity = 0.0
    for out in alice_outcomes:
        l_bits = index_to_bits(out.outcome_index, n)
        all_m = [index_to_bits(mi, n - 1) for mi in range(helper_dim)]
        ops = [resolved(l_bits, m_bits) for m_bits in all_m]
        if out.residual_state is None:
            for m_bits, op in zip(all_m, ops):
                branches.append(
                    BranchRecord(l_bits, m_bits, 0.0, None, op, None, False, None, None)
                )
            continue
        joint_basis = reduce(
            np.kron, [b.matrix for b in _helper_bases(variant, l_bits, shares)]
        )
        components = joint_basis.conj() @ out.residual_state.amplitudes.reshape(
            helper_dim, 2
        )
        cond = np.einsum("mj,mj->m", components.conj(), components).real
        live = cond >= tol.probability_floor
        pre_rows = np.zeros_like(components)
        pre_rows[live] = components[live] / np.sqrt(cond[live])[:, None]
        post_rows = np.empty_like(pre_rows)
        for distinct in {o.label: o for o in ops}.values():
            mask = np.array([o.label == distinct.label for o in ops])
            post_rows[mask] = pre_rows[mask] @ distinct.matrix.T
        overlaps = post_rows @ target_conj
        fids = np.abs(overlaps) ** 2
        for mi, (m_bits, op) in enumerate(zip(all_m, ops)):
            prob = float(out.probability * cond[mi])
            if not live[mi]:
                branches.append(
                    BranchRecord(l_bits, m_bits, prob, None, op, None, False, None, None)
                )
                continue
            fid = float(fids[mi])
            phase: complex | None = None
            strict = False
            if fid >= 1.0 - tol.success:
                phase = complex(overlaps[mi] / abs(overlaps[mi]))
                strict = min(abs(phase - 1.0), abs(phase + 1.0)) <= tol.success
                p_fidelity += prob
            if strict:
                p_strict += prob
            branches.append(
                BranchRecord(
                    l_bits,
                    m_bits,
                    prob,
                    StateVector._trusted(pre_rows[mi], ("C",)),
                    op,
                    StateVector._trusted(post_rows[mi], ("C",)),
                    strict,
                    fid,
                    phase,
                )
            )
    return ReferenceRun(tuple(branches), p_strict, p_fidelity)


def reference_oracle_branches(report: ProtocolReport):
    """The Pauli oracle over the branch records, one scalar verdict at a time."""
    live = [i for i, br in enumerate(report.branches) if br.pre_recovery is not None]
    results = [None] * len(report.branches)
    if not live:
        return tuple(results)
    rows = np.stack([report.branches[i].pre_recovery.amplitudes for i in live])
    overlaps = _pauli_overlaps(rows, report.target.state().amplitudes)
    fids = np.abs(overlaps) ** 2
    best = np.argmax(fids, axis=0)
    for col, i in enumerate(live):
        idx = int(best[col])
        fid = float(fids[idx, col])
        phase = None
        if fid >= 1.0 - report.tolerances.success:
            ov = overlaps[idx, col]
            phase = complex(ov / abs(ov))
        results[i] = (_PAULI_OPS[idx], fid, phase)
    return tuple(results)
