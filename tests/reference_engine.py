"""Dense references for the exact protocol engine and the Pauli oracle.

``reference_run_exact`` is the original branch-by-branch ``run_exact``: it
builds the dense 2^(2n) channel, measures the sender with
``projective_measure`` on it, forms the full helper Kronecker basis per
sender outcome, calls the rule once per transcript and grades every branch
with scalar arithmetic.  ``collapse_after_alice`` and ``bob_branches`` walk
the same cascade one measurement at a time.  They are slow and memory
hungry, but they follow the textbook measurement cascade step by step, so
the columnar engine in :mod:`jrsp.protocol` is tested against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from jrsp import (
    BranchRecord,
    OrthonormalBasis,
    RecoveryRule,
    StateVector,
    TargetState,
    Tolerances,
    bich_alice_basis3,
    bich_basis_selector,
    bich_bob_basis,
    improved_alice_basis,
    improved_bob_basis,
)
from jrsp.protocol import _PAULI_OPS, ProtocolReport, _check_run_args, build_channel
from jrsp.qcore import DEFAULT_TOL, as_bits, bits_to_index, index_to_bits, projective_measure
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


def collapse_after_alice(
    channel: StateVector,
    basis: OrthonormalBasis,
    outcome: int | Sequence[int] | str,
) -> tuple[float, StateVector | None]:
    """Measure the leading qubits of the channel in the sender's basis.

    The measured qubits are the first basis.num_qubits labels of the
    channel, matching the A-first layout of :func:`build_channel`.  Returns
    the probability of the requested outcome and the residual state over
    the remaining qubits, or None in place of the state when the outcome
    has negligible probability.
    """
    targets = channel.labels[: basis.num_qubits]
    if isinstance(outcome, int):
        index = outcome
    else:
        index = bits_to_index(as_bits(outcome, basis.num_qubits))
    outcomes = projective_measure(channel, targets, basis)
    if not 0 <= index < len(outcomes):
        raise ValueError(f"outcome {index} out of range 0..{len(outcomes) - 1}")
    picked = outcomes[index]
    return picked.probability, picked.residual_state


def bob_branches(
    L: StateVector,
    bob_bases: Sequence[OrthonormalBasis],
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[tuple[tuple[int, ...], float, StateVector | None], ...]:
    """Enumerate every helper measurement branch of a post-sender state.

    L covers the helper qubits followed by the receiver qubit, in that
    order, and bob_bases supplies one single-qubit basis per helper.  The
    helpers are measured as a sequence of projective measurements in label
    order.  Each returned entry is (helper bits, joint conditional
    probability, receiver state); the state is None when the branch weight
    falls below the probability floor.
    """
    helpers = L.labels[:-1]
    if len(bob_bases) != len(helpers):
        raise ValueError(
            f"state has {len(helpers)} helper qubits but {len(bob_bases)} bases were given"
        )
    for basis in bob_bases:
        if basis.num_qubits != 1:
            raise ValueError("helper bases must be single-qubit bases")
    partials: list[tuple[tuple[int, ...], float, StateVector | None]] = [((), 1.0, L)]
    for label, basis in zip(helpers, bob_bases):
        extended: list[tuple[tuple[int, ...], float, StateVector | None]] = []
        for bits, prob, state in partials:
            if state is None:
                extended.append((bits + (0,), 0.0, None))
                extended.append((bits + (1,), 0.0, None))
                continue
            for out in projective_measure(state, (label,), basis, tol):
                extended.append(
                    (bits + (out.outcome_index,), prob * out.probability, out.residual_state)
                )
        partials = extended
    return tuple(partials)
