"""End-to-end protocol runs: channel, measurement cascade, recovery, verdicts.

A run prepares the entangled channel, measures the first sender's qubits in
her amplitude-encoding basis, walks every helper measurement branch, applies
the selected recovery rule at the receiver, and grades each branch against
the target state.  Exact runs enumerate all branches with their exact
probabilities; sampled runs draw transcripts trial by trial from the same
law using counter-based per-trial random streams, so a given seed reproduces
identical counts on any machine.

Register layout: the channel orders qubits A1..An, B1..B(n-1), C.  Qubit Aj
is entangled with Bj for j < n and An is entangled with the receiver qubit
C.  Helper j measures Bj, and branches are enumerated in B1-first order, so
an outcome transcript reads left to right like its bit string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .bases import (
    RULES,
    RecoveryRule,
    TargetState,
    bich_alice_basis3,
    bich_basis_selector,
    bich_bob_basis,
    improved_alice_basis,
    improved_bob_basis,
)
from .qcore import (
    DEFAULT_TOL,
    OrthonormalBasis,
    RecoveryOp,
    StateVector,
    Tolerances,
    as_bits,
    bits_to_index,
    index_to_bits,
    projective_measure,
)

__all__ = [
    "VARIANTS",
    "ClassicalMessage",
    "BranchRecord",
    "ProtocolReport",
    "build_channel",
    "split_phase",
    "generic_shares",
    "collapse_after_alice",
    "bob_branches",
    "run_exact",
    "run_sampled",
]

VARIANTS = ("bich3", "improved")

_TWO_PI = 2.0 * math.pi


def _angle_gap(x: float, y: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = math.fmod(abs(x - y), _TWO_PI)
    return min(d, _TWO_PI - d)


@dataclass(frozen=True)
class ClassicalMessage:
    """One classical broadcast: the sender's name, its bits, and the round.

    Round 1 is the first sender announcing her joint outcome; round 2 is a
    helper announcing her single bit.
    """

    sender: str
    payload: str
    step: int

    def __post_init__(self) -> None:
        as_bits(self.payload)
        if self.step not in (1, 2):
            raise ValueError(f"step must be 1 or 2, got {self.step!r}")
        if self.step == 1 and self.sender != "Alice":
            raise ValueError(f"round 1 broadcasts come from Alice, got {self.sender!r}")
        if self.step == 2:
            if not self.sender.startswith("Bob"):
                raise ValueError(
                    f"round 2 broadcasts come from a helper, got {self.sender!r}"
                )
            if len(self.payload) != 1:
                raise ValueError(
                    f"helper broadcasts carry one bit, got {self.payload!r}"
                )


@dataclass(frozen=True, eq=False)
class BranchRecord:
    """One fully resolved measurement branch of a run.

    alice_bits and bob_bits form the classical transcript broadcast to the
    receiver and probability is its exact joint weight.  pre_recovery is the
    receiver qubit before correction, post_recovery the qubit after the
    recovery operator.  fidelity grades post_recovery against the target,
    strict_match additionally demands that the leftover global phase is a
    clean sign, and residual_phase records that leftover unit scalar
    whenever the fidelity check passes.  The state and grade fields are None
    on branches of negligible probability.
    """

    alice_bits: tuple[int, ...]
    bob_bits: tuple[int, ...]
    probability: float
    pre_recovery: StateVector | None
    recovery: RecoveryOp
    post_recovery: StateVector | None
    strict_match: bool
    fidelity: float | None
    residual_phase: complex | None

    @property
    def messages(self) -> tuple[ClassicalMessage, ...]:
        """The broadcast transcript of this branch, in announcement order."""
        first = ClassicalMessage(
            "Alice", "".join(str(v) for v in self.alice_bits), 1
        )
        rest = tuple(
            ClassicalMessage(f"Bob{j}", str(bit), 2)
            for j, bit in enumerate(self.bob_bits, start=1)
        )
        return (first,) + rest

    @property
    def transcript(self) -> str:
        """Compact l=... m=... rendering of the broadcast bits."""
        l_txt = "".join(str(v) for v in self.alice_bits)
        m_txt = "".join(str(v) for v in self.bob_bits)
        return f"l={l_txt} m={m_txt}"


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """Outcome of one exact or sampled protocol run.

    p_strict and p_fidelity are exact branch-probability sums in exact mode
    and empirical frequencies in sampled mode.  counts aligns with branches
    and is only present for sampled runs, as are trials and seed.
    """

    variant: str
    n: int
    target: TargetState
    shares: tuple[float, ...]
    rule: str
    branches: tuple[BranchRecord, ...]
    p_strict: float
    p_fidelity: float
    tolerances: Tolerances
    mode: str = "exact"
    trials: int | None = None
    seed: int | None = None
    counts: tuple[int, ...] | None = None

    @property
    def message_log(self) -> tuple[tuple[ClassicalMessage, ...], ...]:
        """Per-branch broadcast transcripts, in branch enumeration order."""
        return tuple(br.messages for br in self.branches)

    def branch(self, l: Sequence[int] | str, m: Sequence[int] | str) -> BranchRecord:
        """Look up a branch by its transcript bits."""
        l_bits = as_bits(l)
        m_bits = as_bits(m)
        for br in self.branches:
            if br.alice_bits == l_bits and br.bob_bits == m_bits:
                return br
        raise KeyError(f"no branch with l={l_bits} m={m_bits}")


def build_channel(n: int) -> StateVector:
    """Channel of n shared EPR pairs in the layout A1..An, B1..B(n-1), C.

    Each pair is (|00> + |11>)/sqrt 2, so the amplitudes are 2^{-n/2} on
    exactly the indices whose A-block bits repeat in the B and C bits.
    """
    if not 2 <= n <= 12:
        raise ValueError(f"supported channel sizes are 2 <= n <= 12, got n={n}")
    amps = np.zeros(1 << (2 * n), dtype=np.complex128)
    weight = 2.0 ** (-n / 2.0)
    for x in range(1 << n):
        amps[(x << n) | x] = weight
    labels = tuple(f"A{j}" for j in range(1, n + 1))
    labels += tuple(f"B{j}" for j in range(1, n))
    labels += ("C",)
    return StateVector(amps, labels)


def _pi_gap(values: Sequence[float], margin: float) -> bool:
    """True when every value is at least margin away from all multiples of pi."""
    for v in values:
        d = math.fmod(abs(v), math.pi)
        if min(d, math.pi - d) < margin:
            return False
    return True


def split_phase(
    phi: float,
    count: int,
    mode: str = "equal",
    rng: np.random.Generator | int | None = None,
) -> tuple[float, ...]:
    """Split the target phase into shares that sum exactly to phi.

    mode "equal" hands every holder phi/count.  mode "random" draws the
    first count - 1 shares uniformly from [0.1, 2 pi - 0.1] and gives the
    remainder to the last holder; rng may be a Generator or a seed for one,
    so a fixed seed reproduces the shares.  Random draws are redrawn until
    the shares and their running sums stay clear of multiples of pi, which
    keeps the branch phases of a run away from the degenerate values +1 and
    -1 (only the fixed phase phi itself, which is not ours to choose, can
    still be degenerate).
    """
    if count < 1:
        raise ValueError(f"need at least one share, got count={count}")
    phi = float(phi)
    if mode == "equal":
        return (phi / count,) * count
    if mode != "random":
        raise ValueError(f"unknown share mode {mode!r}, expected 'equal' or 'random'")
    if count == 1:
        return (phi,)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    for _ in range(1000):
        head = [float(v) for v in gen.uniform(0.1, _TWO_PI - 0.1, size=count - 1)]
        last = phi - sum(head)
        partial = list(np.cumsum(head))
        if _pi_gap(head + [last] + partial, 0.05):
            return tuple(head) + (last,)
    raise RuntimeError("could not draw nondegenerate phase shares for this phi")


def generic_shares(
    count: int, rng: np.random.Generator | int | None = None
) -> tuple[float, ...]:
    """Phase shares in general position, with no prescribed total.

    Draws every share uniformly from [0.1, 2 pi - 0.1] and redraws until the
    shares, their running sums, and their pairwise differences all stay at
    least 0.05 away from every multiple of pi.  Branch phases built from
    such shares can only be +1 or -1 when they are identically a sign, which
    is what a clean strict-success count needs.  The matching target phase
    is the sum of the returned shares.
    """
    if count < 1:
        raise ValueError(f"need at least one share, got count={count}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    for _ in range(1000):
        shares = [float(v) for v in gen.uniform(0.1, _TWO_PI - 0.1, size=count)]
        checks = shares + list(np.cumsum(shares))
        checks += [x - y for i, x in enumerate(shares) for y in shares[i + 1 :]]
        if _pi_gap(checks, 0.05):
            return tuple(shares)
    raise RuntimeError("could not draw phase shares in general position")


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


def _resolve_rule(rule: str | RecoveryRule) -> RecoveryRule:
    if isinstance(rule, RecoveryRule):
        return rule
    try:
        return RULES[rule]
    except KeyError:
        raise ValueError(
            f"unknown rule {rule!r}, expected one of {sorted(RULES)}"
        ) from None


def _alice_basis(variant: str, t: TargetState, n: int) -> OrthonormalBasis:
    if variant == "bich3":
        return bich_alice_basis3(t)
    return improved_alice_basis(t, n)


def _helper_bases(
    variant: str, l_bits: tuple[int, ...], shares: tuple[float, ...]
) -> tuple[OrthonormalBasis, ...]:
    if variant == "bich3":
        r1, r2 = bich_basis_selector(l_bits)
        return (bich_bob_basis(r1, shares[0]), bich_bob_basis(r2, shares[1]))
    return tuple(
        improved_bob_basis(l_bits[j], shares[j]) for j in range(len(shares))
    )


def _check_run_args(
    variant: str, t: TargetState, shares: Sequence[float], rule: str | RecoveryRule, tol: Tolerances
) -> tuple[tuple[float, ...], int, RecoveryRule]:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    shares = tuple(float(v) for v in shares)
    if len(shares) < 1:
        raise ValueError("need at least one phase share")
    if not all(math.isfinite(v) for v in shares):
        raise ValueError(f"phase shares must be finite, got {shares}")
    n = len(shares) + 1
    if variant == "bich3" and n != 3:
        raise ValueError(
            f"variant 'bich3' needs exactly 2 phase shares, got {len(shares)}"
        )
    if _angle_gap(sum(shares), t.phi) > tol.success:
        raise ValueError(
            f"shares sum to {sum(shares)!r}, which is not the target phase "
            f"{t.phi!r} modulo 2 pi"
        )
    resolved = _resolve_rule(rule)
    resolved.check_applicable(variant, n)
    return shares, n, resolved


def run_exact(
    variant: str,
    t: TargetState,
    shares: Sequence[float],
    rule: str | RecoveryRule,
    tol: Tolerances = DEFAULT_TOL,
) -> ProtocolReport:
    """Enumerate all branches of one protocol run and grade each one.

    Args:
        variant: "bich3" for the three-party scheme or "improved" for the
            N-party scheme.
        t: the target state; its phase must equal the share sum mod 2 pi.
        shares: phase shares, one per helper, so the party count is
            len(shares) + 1.
        rule: recovery rule name from RULES, or a RecoveryRule instance;
            the rule must belong to the chosen variant.
        tol: numerical budgets for grading.

    Returns:
        A ProtocolReport with one BranchRecord per transcript, ordered by
        sender outcome then helper bits, and the exact strict and fidelity
        success probabilities.

    The helper cascade is evaluated per sender outcome as one projective
    measurement in the tensor product of the helper bases, which by
    associativity of the projections equals the helper-by-helper sequence
    that :func:`bob_branches` performs, branch for branch.
    """
    shares, n, resolved = _check_run_args(variant, t, shares, rule, tol)
    channel = build_channel(n)
    alice = _alice_basis(variant, t, n)
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
            np.kron,
            [b.matrix for b in _helper_bases(variant, l_bits, shares)],
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
    return ProtocolReport(
        variant=variant,
        n=n,
        target=t,
        shares=shares,
        rule=resolved.name,
        branches=tuple(branches),
        p_strict=p_strict,
        p_fidelity=p_fidelity,
        tolerances=tol,
    )


# Philox4x64-10 constants (Salmon et al., SC'11; numpy.random.Philox).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53
_CHUNK = 4096  # trials per batch, so memory stays flat in the trial count


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, for a uint64 array b.

    numpy has no 128-bit integers, so the high word is assembled from the
    32-bit halves of both factors; no partial sum can overflow 64 bits.
    """
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo = a_lo * b_lo
    mid = a_hi * b_lo + (lo_lo >> 32)
    cross = a_lo * b_hi + (mid & _MASK32)
    return a_hi * b_hi + (mid >> 32) + (cross >> 32), np.uint64(a) * b


def _philox_uniforms(seed: int, trial_ids: np.ndarray, count: int) -> np.ndarray:
    """The first count draws of np.random.Philox(key=(seed, trial)).random()
    for every trial in the uint64 array trial_ids.

    Returns one row per trial.  Philox4x64-10 turns a 128-bit key and a
    256-bit counter into four 64-bit words per block; a fresh numpy Philox
    bumps its counter before the first block, so draws 4b..4b+3 come from
    counter (b + 1, 0, 0, 0).  Each word w maps to the double (w >> 11) 2^-53.
    """
    blocks = -(-count // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _MASK64)
        k1 = trial_ids + np.uint64(r * _PHILOX_W[1] & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).transpose(1, 0, 2)
    words = words.reshape(trial_ids.size, 4 * blocks)[:, :count]
    return (words >> 11).astype(np.float64) * _DOUBLE_UNIT


def _sampling_tables(probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sender cumulative law and helper-bit thresholds for ancestral sampling.

    probabilities is the (2^n, 2^(n-1)) branch-probability matrix.  Row l of
    the returned threshold table is a binary tree over helper-bit prefixes:
    node (1 << d) | prefix holds the probability that helper bit d is zero
    given sender outcome l and the d earlier helper bits.  Every mass is a
    sequential left fold over its contiguous block of branches (cumsum, not
    the pairwise np.sum), so each threshold is reproducible to the last bit.
    Nodes of zero mass are never reached and hold 1.0.
    """
    outcomes, helper_dim = probabilities.shape
    marginal = np.cumsum(probabilities, axis=1)[:, -1]
    next_zero = np.ones((outcomes, helper_dim))
    for depth in range(helper_dim.bit_length() - 1):
        blocks = probabilities.reshape(outcomes, 1 << depth, 2, -1)
        mass = np.cumsum(blocks, axis=-1)[..., -1]
        total = mass[..., 0] + mass[..., 1]
        np.divide(
            mass[..., 0], total, out=next_zero[:, 1 << depth : 2 << depth],
            where=total > 0.0,
        )
    return np.cumsum(marginal), next_zero


def run_sampled(
    variant: str,
    t: TargetState,
    shares: Sequence[float],
    rule: str | RecoveryRule,
    trials: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
) -> ProtocolReport:
    """Monte Carlo run drawing transcripts from the exact branch law.

    Trial k reads its own counter-based stream: the draws of
    ``np.random.Generator(np.random.Philox(key=np.array([seed, k],
    dtype=np.uint64))).random()``, that is Philox4x64-10 keyed on the 64-bit
    words (seed, k) with the counter starting at 1 and each output word w
    mapped to (w >> 11) 2^-53.  Any seed in [0, 2^64) is used as its full
    64-bit word.  The transcript is
    sampled ancestrally: draw 0 picks the sender outcome by inverting the
    cumulative sender law, and draw d + 1 sets helper bit d to 0 exactly
    when it falls below that bit's conditional probability of 0.  So a seed
    reproduces identical counts on any machine, independent of trial
    order, and trials are drawn in fixed-size batches, so memory stays flat
    however many are requested.  The returned report reuses the exact
    per-branch grading and carries the observed branch counts; its p_strict
    and p_fidelity are empirical frequencies.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit word, got {seed}")
    exact = run_exact(variant, t, shares, rule, tol)
    n = exact.n
    helper_bits = n - 1
    probabilities = np.array([br.probability for br in exact.branches])
    cumulative, next_zero = _sampling_tables(probabilities.reshape(1 << n, -1))
    thresholds = next_zero.ravel()
    counts = np.zeros(len(exact.branches), dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        batch = np.arange(start, min(start + _CHUNK, trials), dtype=np.uint64)
        draws = _philox_uniforms(seed, batch, n)
        l_idx = np.searchsorted(cumulative, draws[:, 0], side="right")
        rows = np.minimum(l_idx, (1 << n) - 1) << helper_bits
        node = np.ones(batch.size, dtype=np.intp)
        for d in range(helper_bits):
            bit = draws[:, d + 1] >= thresholds[rows | node]
            node = (node << 1) | bit
        counts += np.bincount(rows + node - (1 << helper_bits), minlength=counts.size)
    strict = np.array([br.strict_match for br in exact.branches], dtype=bool)
    faithful = np.array(
        [br.fidelity is not None and br.fidelity >= 1.0 - tol.success
         for br in exact.branches],
        dtype=bool,
    )
    return replace(
        exact,
        mode="sampled",
        trials=trials,
        seed=seed,
        counts=tuple(counts.tolist()),
        p_strict=int(counts[strict].sum()) / trials,
        p_fidelity=int(counts[faithful].sum()) / trials,
    )
