"""Per-trial reference for the seeded Monte Carlo sampler.

This is the original trial-by-trial loop of ``run_sampled``: one
``np.random.Philox`` generator per trial and dict-based conditional tables
built by walking every helper-bit prefix.  It is slow (tens of microseconds
per trial, O(8^n) set-up) but obviously follows the documented stream, so
the array sampler in :mod:`jrsp.protocol` is tested against it for
identical counts.  The key is spelled as an explicit uint64 array, which
matches the original list form on every seed below 2^63 and stays exact on
the rest of the 64-bit range.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from jrsp import ProtocolReport, RecoveryRule, TargetState, Tolerances, run_exact
from jrsp.qcore import DEFAULT_TOL, bits_to_index, index_to_bits


def conditional_tables(
    report: ProtocolReport,
) -> tuple[np.ndarray, dict[tuple[int, tuple[int, ...]], float]]:
    """Sender marginal and helper-bit conditionals for ancestral sampling.

    Returns the probability vector over sender outcomes and a map from
    (sender outcome, helper-bit prefix) to the probability that the next
    helper bit is zero given that prefix.
    """
    n = report.n
    marginal = np.zeros(1 << n)
    joint: dict[tuple[int, tuple[int, ...]], float] = {}
    for br in report.branches:
        l_idx = bits_to_index(br.alice_bits)
        marginal[l_idx] += br.probability
        joint[(l_idx, br.bob_bits)] = br.probability
    next_zero: dict[tuple[int, tuple[int, ...]], float] = {}
    for l_idx in range(1 << n):
        if marginal[l_idx] <= 0.0:
            continue
        for depth in range(n - 1):
            for prefix_idx in range(1 << depth):
                prefix = index_to_bits(prefix_idx, depth) if depth else ()
                mass = [0.0, 0.0]
                for m_idx in range(1 << (n - 1)):
                    m_bits = index_to_bits(m_idx, n - 1)
                    if m_bits[:depth] == prefix:
                        mass[m_bits[depth]] += joint[(l_idx, m_bits)]
                total = mass[0] + mass[1]
                if total > 0.0:
                    next_zero[(l_idx, prefix)] = mass[0] / total
    return marginal, next_zero


def reference_run_sampled(
    variant: str,
    t: TargetState,
    shares: Sequence[float],
    rule: str | RecoveryRule,
    trials: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
) -> ProtocolReport:
    """Sampled run with one freshly keyed generator per trial."""
    exact = run_exact(variant, t, shares, rule, tol)
    n = exact.n
    marginal, next_zero = conditional_tables(exact)
    cumulative = np.cumsum(marginal)
    index_of = {
        (bits_to_index(br.alice_bits), br.bob_bits): pos
        for pos, br in enumerate(exact.branches)
    }
    counts = [0] * len(exact.branches)
    strict_hits = 0
    fidelity_hits = 0
    for trial in range(trials):
        key = np.array([seed, trial], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        l_idx = int(np.searchsorted(cumulative, gen.random(), side="right"))
        l_idx = min(l_idx, (1 << n) - 1)
        m_bits: tuple[int, ...] = ()
        for _ in range(n - 1):
            m_bits += (0,) if gen.random() < next_zero[(l_idx, m_bits)] else (1,)
        pos = index_of[(l_idx, m_bits)]
        counts[pos] += 1
        br = exact.branches[pos]
        if br.strict_match:
            strict_hits += 1
        if br.fidelity is not None and br.fidelity >= 1.0 - tol.success:
            fidelity_hits += 1
    return replace(
        exact,
        mode="sampled",
        trials=trials,
        seed=seed,
        counts=tuple(counts),
        p_strict=strict_hits / trials,
        p_fidelity=fidelity_hits / trials,
    )
