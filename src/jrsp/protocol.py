"""End-to-end protocol runs: measurement cascade, recovery, verdicts.

An exact run computes every branch of the protocol at once, as columns over
the transcripts: the first sender's measurement of the A qubits in the
amplitude-encoding basis, each helper's phase-basis measurement, the
selected recovery rule at the receiver, and the grade of each branch against
the target state.  Each sender-basis row is one ket and its bitwise
complement, so the post-sender state has two amplitudes per outcome, and
neither the 2^(2n) channel nor a 2^n x 2^n sender matrix is built.  The
step-by-step dense cascade (:func:`build_channel`, then
``projective_measure`` on the sender and on each helper in turn) lives in
tests/reference_engine.py, where the columns are checked against it bit for
bit.  Sampled runs draw transcripts from the same law using counter-based
per-trial random streams, so a given seed reproduces identical counts on any
machine.

Register layout: the channel orders qubits A1..An, B1..B(n-1), C.  Qubit Aj
is entangled with Bj for j < n and An is entangled with the receiver qubit
C.  Helper j measures Bj, and branches are enumerated in B1-first order, so
an outcome transcript reads left to right like its bit string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .bases import (
    RULES,
    RecoveryRule,
    TargetState,
    _sender_pairs,
    bich_alice_basis3,  # not called: perfbench --trace 1 wraps this binding
    bich_basis_selector,
    bich_bob_basis,
    improved_alice_basis,  # not called: perfbench --trace 1 wraps this binding
    improved_bob_basis,
)
from .qcore import (
    DEFAULT_TOL,
    RecoveryOp,
    StateVector,
    Tolerances,
    as_bits,
    bits_to_index,
    index_to_bits,
    projective_measure,  # not called: perfbench --trace 1 wraps this binding
)

__all__ = [
    "VARIANTS",
    "BranchRecord",
    "ProtocolReport",
    "split_phase",
    "generic_shares",
    "run_exact",
    "run_sampled",
]

VARIANTS = ("bich3", "improved")

_TWO_PI = 2.0 * math.pi


def _angle_gap(x: float, y: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = math.fmod(abs(x - y), _TWO_PI)
    return min(d, _TWO_PI - d)


@dataclass(frozen=True, eq=False)
class BranchRecord:
    """One fully resolved measurement branch of a run.

    alice_bits and bob_bits form the classical transcript broadcast to the
    receiver and probability is its exact joint weight.  pre_recovery is the
    receiver qubit before correction, post_recovery the qubit after the
    recovery operator.  fidelity grades post_recovery against the target,
    strict_match additionally demands that the leftover global phase is a
    clean sign, and residual_phase records that leftover unit scalar
    whenever the fidelity check passes.  residual_phase is None on the other
    branches; no other field is ever None.
    """

    alice_bits: tuple[int, ...]
    bob_bits: tuple[int, ...]
    probability: float
    pre_recovery: StateVector
    recovery: RecoveryOp
    post_recovery: StateVector
    strict_match: bool
    fidelity: float
    residual_phase: complex | None

    @property
    def transcript(self) -> str:
        """Compact l=... m=... rendering of the broadcast bits."""
        l_txt = "".join(str(v) for v in self.alice_bits)
        m_txt = "".join(str(v) for v in self.bob_bits)
        return f"l={l_txt} m={m_txt}"


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """Outcome of one exact or sampled protocol run, one column per field.

    Branch i is the transcript with sender outcome index i >> (n - 1) and
    helper outcome index i & (2^(n-1) - 1), both big endian, so the columns
    run in sender-outcome-major order.  prob holds the exact branch
    probabilities; pre and post, of shape (branches, 2), the receiver qubit
    before and after recovery; ops the recovery op codes (RecoveryOp.code);
    fidelity the fidelity of post to the target; phase the leftover unit
    scalar.  faithful marks the branches whose fidelity passes the success
    threshold, and strict those whose phase is also a clean sign; phase is
    zero off faithful branches.  Every branch weighs 2^-(2n-1), so each one
    carries a receiver state.  The columns are read-only.

    p_strict and p_fidelity are exact branch-probability sums in exact mode
    and empirical frequencies in sampled mode.  counts aligns with the
    columns and is only present for sampled runs, as are trials and seed.
    """

    variant: str
    n: int
    target: TargetState
    shares: tuple[float, ...]
    rule: str
    p_strict: float
    p_fidelity: float
    tolerances: Tolerances
    prob: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    ops: np.ndarray
    fidelity: np.ndarray
    phase: np.ndarray
    faithful: np.ndarray
    strict: np.ndarray
    mode: str = "exact"
    trials: int | None = None
    seed: int | None = None
    counts: tuple[int, ...] | None = None

    @cached_property
    def branches(self) -> tuple[BranchRecord, ...]:
        """Every branch as a BranchRecord, built from the columns on first access."""
        return tuple(self._record(i) for i in range(self.prob.size))

    def _record(self, i: int) -> BranchRecord:
        helpers = self.n - 1
        l_bits = index_to_bits(i >> helpers, self.n)
        m_bits = index_to_bits(i & ((1 << helpers) - 1), helpers)
        return BranchRecord(
            l_bits,
            m_bits,
            float(self.prob[i]),
            StateVector._trusted(self.pre[i], ("C",)),
            RecoveryOp.from_code(self.ops[i]),
            StateVector._trusted(self.post[i], ("C",)),
            bool(self.strict[i]),
            float(self.fidelity[i]),
            complex(self.phase[i]) if self.faithful[i] else None,
        )

    def branch(self, l: Sequence[int] | str, m: Sequence[int] | str) -> BranchRecord:
        """Look up a branch by its transcript bits."""
        l_bits = as_bits(l)
        m_bits = as_bits(m)
        if len(l_bits) != self.n or len(m_bits) != self.n - 1:
            raise KeyError(f"no branch with l={l_bits} m={m_bits}")
        return self._record((bits_to_index(l_bits) << (self.n - 1)) | bits_to_index(m_bits))


# Largest party count accepted: a run keeps its 2^(2n-1) branches as columns
# of ~100 bytes a branch, 0.8 GiB at n = 12 and 3.1 GiB at n = 13.
_MAX_PARTIES = 12


def _check_party_count(n: int) -> None:
    if not 2 <= n <= _MAX_PARTIES:
        raise ValueError(
            f"supported party counts are 2 <= n <= {_MAX_PARTIES}, got n={n}"
        )


def build_channel(n: int) -> StateVector:
    """Channel of n shared EPR pairs in the layout A1..An, B1..B(n-1), C.

    Each pair is (|00> + |11>)/sqrt 2, so the amplitudes are 2^{-n/2} on
    exactly the indices whose A-block bits repeat in the B and C bits.
    :func:`run_exact` never builds it; the dense reference cascade in
    tests/reference_engine.py measures it, and perfbench --trace 1 wraps
    this binding.
    """
    _check_party_count(n)
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


def _resolve_rule(rule: str | RecoveryRule) -> RecoveryRule:
    if isinstance(rule, RecoveryRule):
        return rule
    try:
        return RULES[rule]
    except KeyError:
        raise ValueError(
            f"unknown rule {rule!r}, expected one of {sorted(RULES)}"
        ) from None


def _helper_matrices(variant: str, shares: tuple[float, ...]) -> np.ndarray:
    """Every helper basis of a run, indexed [helper, variant bit, row, column].

    Each of the 2(n - 1) bases is built once, through the constructors bound
    in this module.
    """
    make = bich_bob_basis if variant == "bich3" else improved_bob_basis
    return np.array([[make(bit, share).matrix for bit in (0, 1)] for share in shares])


def _variant_bits(variant: str, n: int) -> np.ndarray:
    """Basis variant bit of each helper for each sender outcome, (2^n, n - 1)."""
    if variant == "bich3":
        return np.array([bich_basis_selector(index_to_bits(l, 3)) for l in range(8)])
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, 0, -1)) & 1


def _helper_columns(mats: np.ndarray, variants: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column k[l] of sender outcome l's joint helper basis, for every l.

    The joint basis is the Kronecker product of the helper bases in label
    order, so its column k is the Kronecker product of one column per
    factor.  The factors are multiplied left to right, as np.kron does, so
    every entry is bitwise the entry of the full product.
    """
    helpers = mats.shape[0]
    col = mats[0][variants[:, 0], :, (k >> (helpers - 1)) & 1]
    for j in range(1, helpers):
        factor = mats[j][variants[:, j], :, (k >> (helpers - 1 - j)) & 1]
        col = (col[:, :, None] * factor[:, None, :]).reshape(len(k), -1)
    return col


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as abs() computes it on a complex scalar; np.abs may differ in
    the last bit."""
    return np.hypot(z.real, z.imag)


def _unit_phases(overlaps: np.ndarray, where: np.ndarray) -> np.ndarray:
    """overlaps / |overlaps| where the mask is set and 0 elsewhere."""
    out = np.zeros_like(overlaps)
    np.divide(overlaps, _modulus(overlaps), out=out, where=where)
    return out


# The four Pauli words indexed by op code: I, X, Z, ZX.
_PAULI_OPS = tuple(RecoveryOp.from_code(code) for code in range(4))


def _rule_codes(
    rule: RecoveryRule, l_idx: np.ndarray, m_idx: np.ndarray, n: int
) -> np.ndarray:
    """The rule's op codes for every branch, checked to be one code in
    0..3 per branch."""
    codes = np.asarray(rule.codes(l_idx, m_idx, n))
    if codes.shape != l_idx.shape or codes.dtype.kind not in "iu":
        raise ValueError(
            f"rule {rule.name!r} must give one integer op code per branch, "
            f"got {codes.dtype} values of shape {codes.shape}"
        )
    if codes.size and not (0 <= codes.min() and codes.max() <= 3):
        raise ValueError(
            f"rule {rule.name!r} gave op codes outside 0..3: "
            f"{sorted(set(codes[(codes < 0) | (codes > 3)].tolist()))[:5]}"
        )
    return codes.astype(np.int8)


def _check_run_args(
    variant: str, t: TargetState, shares: Sequence[float], rule: str | RecoveryRule
) -> tuple[tuple[float, ...], int, RecoveryRule]:
    """Validate a run's inputs and resolve its rule.

    The share sum must equal the target phase modulo 2 pi within the fixed
    DEFAULT_TOL.equality, whatever the run's own budgets; the run's success
    budget only grades branches.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    shares = tuple(float(v) for v in shares)
    n = len(shares) + 1
    _check_party_count(n)
    if not all(math.isfinite(v) for v in shares):
        raise ValueError(f"phase shares must be finite, got {shares}")
    if variant == "bich3" and n != 3:
        raise ValueError(
            f"variant 'bich3' needs exactly 2 phase shares, got {len(shares)}"
        )
    if _angle_gap(sum(shares), t.phi) > DEFAULT_TOL.equality:
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
        A ProtocolReport with one column entry per transcript, ordered by
        sender outcome then helper bits, and the exact strict and fidelity
        success probabilities.

    The sender basis is read as complement pairs checked in O(2^n), and the
    helper cascade per sender outcome as one projective measurement in the
    tensor product of the helper bases, which by associativity of the
    projections equals measuring the helpers one after another, branch for
    branch.  Every stage works on arrays over all sender outcomes or all
    branches at once.  The results are bitwise those of the dense reference
    cascade in tests/reference_engine.py, which measures the channel of
    :func:`build_channel` with ``projective_measure``, the dense sender
    basis and the full helper Kronecker basis.
    """
    shares, n, resolved = _check_run_args(variant, t, shares, rule)
    outcomes, helper_dim = 1 << n, 1 << (n - 1)
    kets, coeffs = _sender_pairs(variant, t, n)

    # On the sender's qubits the channel is 2^(-n/2) times the identity, so
    # the measured components are the scaled conjugate pair coefficients;
    # the dense rows' other entries are exact zeros, which add nothing.
    comps = coeffs.conj() * 2.0 ** (-n / 2.0)
    p_alice = np.einsum("mj,mj->m", comps.conj(), comps).real
    amps = comps / np.sqrt(p_alice)[:, None]

    # The post-sender state has those two amplitudes, so each helper
    # component is one product with a column of the joint helper basis.
    # The dense product adds exact zeros to that product; + 0.0 does the
    # same to its zeros, turning -0 into +0.
    rows = np.arange(outcomes)
    mats = _helper_matrices(variant, shares)
    variants = _variant_bits(variant, n)
    comp = np.empty((outcomes, helper_dim, 2), dtype=np.complex128)
    for side, ket in enumerate((kets, kets ^ (outcomes - 1))):
        column = _helper_columns(mats, variants, ket >> 1)
        comp[rows, :, ket & 1] = column.conj() * amps[:, side, None] + 0.0
    comp = comp.reshape(-1, 2)

    cond = np.einsum("mj,mj->m", comp.conj(), comp).real
    prob = np.repeat(p_alice, helper_dim) * cond
    pre = comp / np.sqrt(cond)[:, None]

    l_idx, m_idx = np.divmod(np.arange(prob.size), helper_dim)
    ops = _rule_codes(resolved, l_idx, m_idx, n)
    # A one-row product takes numpy's vector path, whose zeros can differ
    # in sign from the matrix path's, so an op that occurs once among a
    # sender outcome's branches is applied to that row alone, exactly as a
    # product per sender outcome and op does it.
    group = (l_idx << 2) | ops
    once = np.bincount(group, minlength=4 * outcomes)[group] == 1
    post = np.empty_like(pre)
    for code, op in enumerate(_PAULI_OPS):
        pauli = op.matrix
        picked = ops == code
        post[picked & ~once] = pre[picked & ~once] @ pauli.T
        for i in np.flatnonzero(picked & once):
            post[i : i + 1] = pre[i : i + 1] @ pauli.T

    overlaps = post @ t.state("C").amplitudes.conj()
    fidelity = np.abs(overlaps) ** 2
    faithful = fidelity >= 1.0 - tol.success
    phase = _unit_phases(overlaps, faithful)
    gap = np.minimum(_modulus(phase - 1.0), _modulus(phase + 1.0))
    strict = faithful & (gap <= tol.success)
    columns = dict(
        prob=prob, pre=pre, post=post, ops=ops, fidelity=fidelity, phase=phase,
        faithful=faithful, strict=strict,
    )
    for column in columns.values():
        column.setflags(write=False)
    return ProtocolReport(
        variant=variant,
        n=n,
        target=t,
        shares=shares,
        rule=resolved.name,
        # cumsum folds left to right, like a running += over the branches.
        p_strict=float(np.cumsum(np.where(strict, prob, 0.0))[-1]),
        p_fidelity=float(np.cumsum(np.where(faithful, prob, 0.0))[-1]),
        tolerances=tol,
        **columns,
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
    cumulative, next_zero = _sampling_tables(exact.prob.reshape(1 << n, -1))
    thresholds = next_zero.ravel()
    counts = np.zeros(exact.prob.size, dtype=np.int64)
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
    return replace(
        exact,
        mode="sampled",
        trials=trials,
        seed=seed,
        counts=tuple(counts.tolist()),
        p_strict=int(counts[exact.strict].sum()) / trials,
        p_fidelity=int(counts[exact.faithful].sum()) / trials,
    )
