"""End-to-end protocol runs: measurement cascade, recovery, verdicts.

An exact run computes every branch of the protocol at once, as columns over
the transcripts: the first sender's measurement of the A qubits in the
amplitude-encoding basis, each helper's phase-basis measurement, the
selected recovery rule at the receiver, and the grade of each branch against
the target state.  Each sender-basis row is one ket and its bitwise
complement, so the post-sender state has two amplitudes per outcome, and
neither the 2^(2n) channel nor a 2^n x 2^n sender matrix is built.  Every
helper basis of a run comes from one stack, ``bases._helper_stack``, of
which the public helper-basis constructors are views, and one check,
``bases._run_bases``, covers the sender pairs and the stack.  The
step-by-step dense cascade (:func:`build_channel`, then
``projective_measure`` on the sender and on each helper in turn) lives in
tests/reference_engine.py, where prob and pre are checked against it bit
for bit.  Grading, the recovery Pauli and the overlap with the target, is
one kernel, :func:`_overlaps`, shared by the engine and the reference; the
Pauli oracle in :mod:`jrsp.verify` grades all four words at once from
shared products and matches it bit for bit.  Sampled runs draw
transcripts from the same law using counter-based per-trial random
streams, so a given seed reproduces identical counts on any machine.

Register layout: the channel orders qubits A1..An, B1..B(n-1), C.  Qubit Aj
is entangled with Bj for j < n and An is entangled with the receiver qubit
C.  Helper j measures Bj, and branches are enumerated in B1-first order, so
an outcome transcript reads left to right like its bit string.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .bases import (
    RULES,
    RecoveryRule,
    TargetState,
    _run_bases,
    _sender_kets,
    bich_alice_basis3,  # not called: perfbench --trace 1 wraps this binding
    bich_basis_selector,
    bich_bob_basis,  # not called: perfbench --trace 1 wraps this binding
    improved_alice_basis,  # not called: perfbench --trace 1 wraps this binding
    improved_bob_basis,  # not called: perfbench --trace 1 wraps this binding
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


def _helper_columns(cols: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """The column of each sender outcome's joint helper basis that its
    post-sender state reads, for every outcome.

    cols[j, p] is column p & 1 of helper j's basis with variant bit p >> 1,
    and picks[j] names the column helper j contributes to each outcome.  The
    joint basis is the Kronecker product of the helper bases in label order,
    so its column is the Kronecker product of one column per factor.  The
    factors are multiplied left to right, with the running column as the
    first operand, as np.kron does, so every entry is bitwise the entry of
    the full product.  Each factor is applied as two whole-column products,
    one per entry of the factor, so every multiply runs over the whole
    running column rather than over pairs.
    """
    col = cols[0, picks[0]]
    for j in range(1, len(picks)):
        factor = cols[j, picks[j]]
        out = np.empty(col.shape + (2,), dtype=np.complex128)
        for b in (0, 1):
            np.multiply(col, factor[:, b, None], out=out[:, :, b])
        col = out.reshape(len(col), -1)
    return col


# Rows _normalise scales at a time: 512 KiB of pre, so that each of its
# passes over a float column of the block finds the block in cache.
_NORMALISE_ROWS = 1 << 14


def _normalise(pre: np.ndarray) -> np.ndarray:
    """Scale every row of pre, shape (rows, 2), to unit norm in place and
    return the squared norms it had.

    The squared norm is (re0² + im0²) + (re1² + im1²) in that order, which
    is bitwise np.einsum("mj,mj->m", pre.conj(), pre).real; it is built one
    float column at a time, so no temporary is the size of pre.  numpy
    divides a complex by a real s as by s + 0j, which for components that
    are not -0 is the product with 1 / s, so scaling the float columns by
    1 / s is bitwise pre /= s.  Rows are taken _NORMALISE_ROWS at a time,
    and every pass runs over all the rows of its block.
    """
    cond = np.empty(len(pre))
    for first in range(0, len(pre), _NORMALISE_ROWS):
        parts = pre[first:first + _NORMALISE_ROWS].view(np.float64)
        re0, im0, re1, im1 = parts.T
        norms = cond[first:first + _NORMALISE_ROWS]
        np.multiply(re0, re0, out=norms)
        norms += im0 * im0
        tail = re1 * re1
        tail += im1 * im1
        norms += tail
        scale = 1.0 / np.sqrt(norms)
        for column in parts.T:
            column *= scale
    return cond


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as abs() computes it on a complex scalar; np.abs may differ in
    the last bit."""
    return np.hypot(z.real, z.imag)


def _unit_phases(overlaps: np.ndarray, where: np.ndarray) -> np.ndarray:
    """overlaps / |overlaps| where the mask is set and 0 elsewhere."""
    out = np.zeros(overlaps.shape, dtype=overlaps.dtype)
    np.divide(overlaps, _modulus(overlaps), out=out, where=where)
    return out


def _overlaps(
    pre: np.ndarray, codes: np.ndarray | int, target_amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The grading kernel: each row of pre after its Pauli word, and the
    overlap of the target with it.

    codes holds one op code (RecoveryOp.code) per row, or is one code for
    every row.  The word is applied exactly, as the textbook matrix acts:
    X swaps the two amplitudes, Z negates the second, and + 0.0 turns -0
    into +0.  The overlap is summed entry by entry, so each value depends
    on its own row and word alone, never on the rows beside it or on the
    BLAS kernel; the engine and the reference grade here, and the Pauli
    oracle's grid over all four words (``verify._word_overlaps``) matches
    it bit for bit.
    """
    # A code is x + 2 z: bit 0 asks for X, and Z is asked for by 2 and 3.
    codes = np.asarray(codes)
    x, z = codes & 1, codes >= 2
    p0, p1 = pre[:, 0], pre[:, 1]
    u, v = np.where(x, p1, p0), np.where(x, p0, p1)
    np.negative(v, out=v, where=z)
    u += 0.0
    v += 0.0
    post = np.empty(u.shape + (2,), dtype=np.complex128)
    post[:, 0] = u
    post[:, 1] = v
    # The overlap conj(c0) u + conj(c1) v, formed in place in u.
    c0, c1 = target_amps.conj()
    u *= c0
    v *= c1
    u += v
    return post, u


def _verdicts(
    overlaps: np.ndarray, success: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(fidelity, phase, faithful, strict) of each overlap under the success
    budget; phase is zero off faithful rows."""
    fidelity = np.abs(overlaps) ** 2
    faithful = fidelity >= 1.0 - success
    phase = _unit_phases(overlaps, faithful)
    strict = faithful & (_sign_gap(phase) <= success)
    return fidelity, phase, faithful, strict


def _sign_gap(phase: np.ndarray) -> np.ndarray:
    """min(|phase - 1|, |phase + 1|), bit for bit, in one hypot.

    The nearer of +1 and -1 has the real part's sign (a zero real part is
    as far from both), and hypot is monotone in each argument."""
    return np.hypot(phase.real - np.copysign(1.0, phase.real), phase.imag)


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


def _shape_tables(variant: str, n: int, rule: RecoveryRule) -> tuple[tuple, np.ndarray]:
    """The read-only tables every run of one shape reads: (sides, codes).

    A sender outcome's two amplitudes sit on its row's ket and on that ket's
    complement, one side each.  Side s is (picks, slot): picks[j] is the
    column of helper j's basis the side reads, 2 r + c for variant bit r
    and column c, and slot the amplitude of the receiver qubit it fills.
    codes holds the rule's op code for every branch, checked by _rule_codes.
    """
    helpers = n - 1
    shifts = np.arange(helpers, 0, -1)[:, None]
    if variant == "bich3":
        variants = np.array([bich_basis_selector(index_to_bits(l, 3)) for l in range(8)]).T
    else:
        # Helper j measures in the variant named by sender bit j.
        variants = (np.arange(1 << n) >> shifts) & 1
    kets = _sender_kets(variant, n)
    sides = []
    for ket in (kets, kets ^ ((1 << n) - 1)):
        # The helpers' joint outcome index, big endian, is ket >> 1.
        sides.append((2 * variants + ((ket >> shifts) & 1), ket & 1))
    # Branch i = (l << helpers) | m, in order.
    l_idx = np.arange(1 << n).repeat(1 << helpers)
    m_idx = np.tile(np.arange(1 << helpers), 1 << n)
    codes = _rule_codes(rule, l_idx, m_idx, n)
    for table in (*sides[0], *sides[1], codes):
        table.setflags(write=False)
    return tuple(sides), codes


_cached_tables = lru_cache(maxsize=32)(_shape_tables)


def _plan(variant: str, n: int, rule: RecoveryRule) -> tuple[tuple, np.ndarray]:
    """_shape_tables for a run, kept from the first run of each shape.

    A rule that fails a check of _rule_codes raises on every run and is
    never kept.  A rule whose codes cannot be hashed cannot key the cache,
    so its tables are built afresh for each run.
    """
    try:
        hash(rule)
    except TypeError:
        return _shape_tables(variant, n, rule)
    return _cached_tables(variant, n, rule)


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

    The sender basis is read as complement pairs, every helper basis comes
    from one stack, both are checked in O(2^n) by one batched Gram
    deviation (bases._run_bases), and the helper cascade per sender
    outcome is one projective measurement in the tensor product of the
    helper bases, which by associativity of the projections equals
    measuring the helpers one after another, branch for branch.  Every
    stage works on arrays over all sender outcomes or all branches at once,
    and the tables that depend only on (variant, n, rule), which
    helper-basis column each outcome reads and the op codes, are computed
    once per shape.  prob and pre are bitwise those of the dense
    reference cascade in tests/reference_engine.py, which measures the
    channel of
    :func:`build_channel` with ``projective_measure``, the dense sender
    basis and the full helper Kronecker basis.  Each branch is then graded
    by :func:`_overlaps` and :func:`_verdicts`.
    """
    shares, n, resolved = _check_run_args(variant, t, shares, rule)
    sides, ops = _plan(variant, n, resolved)
    outcomes = 1 << n
    coeffs, stack = _run_bases(variant, t, shares)

    # On the sender's qubits the channel is 2^(-n/2) times the identity, so
    # the measured components are the scaled conjugate pair coefficients;
    # the dense rows' other entries are exact zeros, which add nothing.
    comps = coeffs.conj() * 2.0 ** (-n / 2.0)
    p_alice = np.einsum("mj,mj->m", comps.conj(), comps).real
    amps = comps / np.sqrt(p_alice)[:, None]

    # The post-sender state has those two amplitudes, so each helper
    # component is one product with a conjugated column of the joint helper
    # basis.  The dense product adds exact zeros to that product; + 0.0 does
    # the same to its zeros, turning -0 into +0.  Conjugating the factors
    # instead of their product changes only the signs of zeros, which the
    # + 0.0 clears as well.
    rows = np.arange(outcomes)
    cols = stack.conj().swapaxes(-1, -2).reshape(n - 1, 4, 2)
    pre = np.empty((outcomes, 1 << (n - 1), 2), dtype=np.complex128)
    for side, (picks, slot) in enumerate(sides):
        column = _helper_columns(cols, picks)
        column *= amps[:, side, None]
        column += 0.0
        pre[rows, :, slot] = column
    pre = pre.reshape(-1, 2)

    # The + 0.0 left no -0 component, which _normalise needs.
    cond = _normalise(pre)
    prob = (p_alice[:, None] * cond.reshape(outcomes, -1)).reshape(-1)

    post, overlaps = _overlaps(pre, ops, t._amplitudes())
    fidelity, phase, faithful, strict = _verdicts(overlaps, tol.success)
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


# Philox4x64-10 constants (Salmon et al., SC'11; numpy.random.Philox) as
# (2, 1, 1) columns with one entry per lane: the multipliers and the key's
# step per round.  _PHILOX_COLUMNS stacks the step, the multipliers and
# their 32-bit halves.  The masks and shift counts are 0-d arrays, which
# numpy converts with less per-call work than scalars.
_PHILOX_M = np.array([[[0xD2E7470EE14C6C93]], [[0xCA5A826395121157]]], dtype=np.uint64)
_PHILOX_W = np.array([[[0x9E3779B97F4A7C15]], [[0xBB67AE8584CAA73B]]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)
_SHIFT11 = np.array(11, dtype=np.uint64)
_PHILOX_COLUMNS = np.stack((_PHILOX_W, _PHILOX_M, _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32))
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53
_CHUNK = 4096  # trials per batch, so memory stays flat in the trial count


def _philox_uniforms(seed: int, trial_ids: np.ndarray, count: int) -> np.ndarray:
    """The first count draws of np.random.Philox(key=(seed, trial)).random()
    for every trial in the uint64 array trial_ids.

    Returns one row per trial, shape (trials, count): the transpose of a
    draw-major (count, trials) array, so one draw of every trial is
    contiguous.  Philox4x64-10 turns a 128-bit key and a 256-bit counter
    into four 64-bit words per block; a fresh numpy Philox bumps its counter
    before the first block, so draws 4b..4b+3 come from counter
    (b + 1, 0, 0, 0).  Each word w maps to the double (w >> 11) 2^-53.

    The counter is two (2, blocks, trials) lane stacks: mixed holds the
    words a round multiplies, (c0, c2), and passed the words it passes
    through, (c1, c3).  Each step of the two 64 x 64 -> 128 bit products is
    one numpy call over both lanes against the multiplier stack; numpy has
    no 128-bit integers, so the high word is assembled from 32-bit halves
    and no partial sum overflows 64 bits.  A round then sets
    mixed = high[::-1] ^ passed ^ key and passed = low[::-1], swapping the
    lanes through reversed views.  The key stack starts at (seed, trial)
    and steps by (W0, W1) after every round, so round r uses
    (seed + r W0, trial + r W1).

    Every buffer of the rounds is a slice of one allocation made once per
    call and freed on return, and every operand of a round has the full
    stack shape: numpy's loop over same-shape contiguous arrays skips the
    broadcasting iterator.  The draws get their own array, so the block is
    freed before the next batch asks for one, and glibc's malloc hands the
    same pages back batch after batch rather than returning them to the
    system to be faulted in again.
    """
    blocks = -(-count // 4)
    work = np.empty((11, 2, blocks, trial_ids.size), dtype=np.uint64)
    work[:4] = _PHILOX_COLUMNS
    step, m, m_lo, m_hi, key, mixed, passed, low, spare, mid, carry = work
    key[0] = seed
    key[1] = trial_ids
    mixed[0] = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    mixed[1] = 0
    passed.fill(0)
    passed = passed[::-1]
    for _ in range(_PHILOX_ROUNDS):
        np.multiply(m, mixed, out=low)
        # mixed's high halves, then the high words, are formed in place.
        np.bitwise_and(mixed, _LOW32, out=mid)
        np.right_shift(mixed, _SHIFT32, out=mixed)
        np.multiply(m_lo, mid, out=carry)
        np.right_shift(carry, _SHIFT32, out=carry)
        np.multiply(m_hi, mid, out=mid)
        np.add(mid, carry, out=mid)
        np.bitwise_and(mid, _LOW32, out=carry)
        np.right_shift(mid, _SHIFT32, out=mid)
        np.multiply(m_lo, mixed, out=spare)
        np.add(spare, carry, out=carry)  # the cross term
        np.right_shift(carry, _SHIFT32, out=carry)
        np.multiply(m_hi, mixed, out=mixed)
        np.add(mixed, mid, out=mixed)
        np.add(mixed, carry, out=mixed)
        np.bitwise_xor(mixed[::-1], passed, out=spare)
        np.bitwise_xor(spare, key, out=spare)
        np.add(key, step, out=key)
        mixed, spare = spare, mixed
        # low is always written to a plain buffer; passed is its reverse.
        low, passed = passed[::-1], low[::-1]
    # Block b's words c0, c1, c2, c3 are mixed[0], passed[0], mixed[1], passed[1].
    draws = np.empty((blocks, 2, 2, trial_ids.size))
    for words, kind in ((mixed, 0), (passed, 1)):
        np.right_shift(words, _SHIFT11, out=words)
        np.multiply(words.transpose(1, 0, 2), _DOUBLE_UNIT, out=draws[:, :, kind])
    return draws.reshape(4 * blocks, -1)[:count].T


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


def _integer(name: str, value: object) -> int:
    """value as a Python int, for an int or numpy integer that is not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
    mapped to (w >> 11) 2^-53.  trials and seed must be integers (Python or
    numpy, not bool), and any seed in [0, 2^64) is used as its full 64-bit
    word.  The transcript is sampled ancestrally: draw 0 picks the sender
    outcome by inverting the cumulative sender law, and draw d + 1 sets
    helper bit d to 0 exactly when it falls below that bit's conditional
    probability of 0.  So a seed reproduces identical counts on any
    machine, independent of trial order.  Trials are drawn in batches of
    _CHUNK, so memory stays flat however many are requested; a batch's
    draws come from :func:`_philox_uniforms` laid out draw-major, so each
    step of the descent reads one contiguous row of draws.  The returned
    report reuses the exact per-branch grading and carries the observed
    branch counts; its p_strict and p_fidelity are empirical frequencies.
    """
    trials = _integer("trials", trials)
    seed = _integer("seed", seed)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
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
