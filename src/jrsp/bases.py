"""Measurement bases and recovery rules for the two preparation protocols.

Two protocol families are covered.  The three-party scheme ("bich3") has the
senders measure their halves jointly in an entangled eight-dimensional basis,
after which two helpers measure in phase-encoding two-dimensional bases picked
by a selector, and the receiver corrects with a fixed 32-entry lookup table.
The improved N-party scheme ("improved") has the first sender measure in a
product-structured amplitude basis and each helper measure in a phase basis
chosen by one bit of her outcome; three competing recovery rules for it are
provided so their success rates can be compared branch by branch.

Basis conventions match :mod:`jrsp.qcore`: basis matrices are row major with
one orthonormal row per outcome, and multi-qubit outcome indices are big
endian over the measured labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    OrthonormalBasis,
    RecoveryOp,
    StateVector,
    as_bits,
    bits_to_index,
)

__all__ = [
    "TargetState",
    "bich_alice_basis3",
    "bich_bob_basis",
    "bich_basis_selector",
    "improved_alice_basis",
    "improved_bob_basis",
    "printed_improved_matrix3",
    "RecoveryRule",
    "RULES",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TargetState:
    """Classical description of the qubit to prepare: a|0> + b e^{i phi} |1>.

    a and b are nonnegative magnitudes with a^2 + b^2 = 1; any signs belong
    in the relative phase, which is stored reduced to [0, 2 pi).
    """

    a: float
    b: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        a, b = float(self.a), float(self.b)
        if not (a >= 0.0 and b >= 0.0):
            raise ValueError(f"amplitudes must be nonnegative, got a={a} b={b}")
        norm_sq = a * a + b * b
        if abs(norm_sq - 1.0) > DEFAULT_TOL.norm:
            raise ValueError(f"amplitudes must satisfy a^2 + b^2 = 1, got {norm_sq!r}")
        if not math.isfinite(float(self.phi)):
            raise ValueError(f"phase must be finite, got phi={self.phi}")
        phi = math.fmod(float(self.phi), _TWO_PI)
        if phi < 0.0:
            phi += _TWO_PI
        if phi >= _TWO_PI:
            phi = 0.0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_theta(cls, theta: float, phi: float = 0.0) -> "TargetState":
        """Angle form with a = cos(theta) and b = sin(theta), theta in [0, pi/2]."""
        if not 0.0 <= theta <= math.pi / 2.0:
            raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
        return cls(a=math.cos(theta), b=math.sin(theta), phi=phi)

    def state(self, label: str = "C") -> StateVector:
        """The target as a one-qubit StateVector."""
        amps = np.array([self.a, self.b * np.exp(1j * self.phi)])
        return StateVector(amps, (label,))

# Sparse row layout of the senders' joint basis in the three-party scheme.
# Row index is the measurement outcome klm, columns are computational kets
# over the three sender halves, and every row holds one amplitude-a and one
# amplitude-b component on a ket and its bitwise complement.
_BICH_ALICE_ROWS: dict[int, tuple[tuple[int, str], tuple[int, str]]] = {
    0b000: ((0b000, "a"), (0b111, "b")),
    0b001: ((0b000, "b"), (0b111, "-a")),
    0b010: ((0b001, "a"), (0b110, "b")),
    0b011: ((0b001, "b"), (0b110, "-a")),
    0b100: ((0b010, "a"), (0b101, "b")),
    0b101: ((0b010, "b"), (0b101, "-a")),
    0b110: ((0b011, "a"), (0b100, "b")),
    0b111: ((0b011, "-b"), (0b100, "a")),
}

# Corrected receiver lookup for the three-party scheme, keyed by the five
# broadcast bits klmns.  Two printed entries required repair before the
# table partitioned all 32 branches; detect_errata documents the repair.
_BICH_TABLE1: dict[str, str] = {
    "00000": "I", "00011": "I", "10000": "I", "10011": "I",
    "01101": "I", "01110": "I", "11101": "I", "11110": "I",
    "01000": "X", "01011": "X", "11000": "X", "11011": "X",
    "00101": "X", "00110": "X", "10101": "X", "10110": "X",
    "00100": "ZX", "00111": "ZX", "10100": "ZX", "10111": "ZX",
    "01001": "ZX", "01010": "ZX", "11001": "ZX", "11010": "ZX",
    "01100": "Z", "01111": "Z", "11100": "Z", "11111": "Z",
    "00001": "Z", "00010": "Z", "10001": "Z", "10010": "Z",
}

# Helper-basis selector for the three-party scheme: sender outcome klm picks
# the pair of phase-basis variants (r1, r2) used by the two helpers.
_BICH_SELECTOR: dict[int, tuple[int, int]] = {
    0b000: (0, 0), 0b010: (0, 0),
    0b001: (1, 1), 0b011: (1, 1),
    0b100: (0, 1), 0b110: (0, 1),
    0b101: (1, 0), 0b111: (1, 0),
}


def _coeff(symbol: str, a: float, b: float) -> float:
    return {"a": a, "b": b, "-a": -a, "-b": -b}[symbol]


def bich_alice_basis3(t: TargetState) -> OrthonormalBasis:
    """Joint three-qubit basis measured by the senders in the bich3 scheme.

    Each basis vector superposes one computational ket with its bitwise
    complement, weighted by the amplitudes of the target state, so the
    measurement transfers the amplitude information in a single shot.
    """
    mat = np.zeros((8, 8), dtype=np.complex128)
    for row, entries in _BICH_ALICE_ROWS.items():
        for col, symbol in entries:
            mat[row, col] = _coeff(symbol, t.a, t.b)
    return OrthonormalBasis(mat, tag="bich3-alice")


def bich_bob_basis(r: int, phi_j: float) -> OrthonormalBasis:
    """Phase basis of one helper in the bich3 scheme.

    The variant bit r conjugates the phase: the basis is
    (1/sqrt 2) [[1, e^{-s i phi}], [e^{s i phi}, -1]] with s = (-1)^r.
    Both variants are Hermitian and square to the identity.
    """
    if r not in (0, 1):
        raise ValueError(f"basis variant must be 0 or 1, got {r!r}")
    sign = -1.0 if r else 1.0
    phase = np.exp(1j * sign * float(phi_j))
    mat = np.array([[1.0, np.conj(phase)], [phase, -1.0]]) / np.sqrt(2.0)
    return OrthonormalBasis(mat, tag=f"bich3-bob-r{r}")


def bich_basis_selector(klm: Sequence[int] | str) -> tuple[int, int]:
    """Map the senders' outcome to the helpers' basis variant bits (r1, r2)."""
    bits = as_bits(klm, 3)
    return _BICH_SELECTOR[bits_to_index(bits)]


def improved_alice_basis(t: TargetState, n: int) -> OrthonormalBasis:
    """First sender's n-qubit basis in the improved scheme.

    Row l is a|l> + (-1)^{l_1} b|l~> where l~ is the bitwise complement of l
    and l_1 is the leading bit.  The alternating sign keeps rows on
    complementary supports orthogonal for every target amplitude pair.
    """
    if n < 2:
        raise ValueError(f"the improved scheme needs n >= 2 parties, got {n}")
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for l in range(dim):
        l1 = (l >> (n - 1)) & 1
        mat[l, l] = t.a
        mat[l, (~l) & (dim - 1)] = (-1.0) ** l1 * t.b
    return OrthonormalBasis(mat, tag=f"improved-alice-n{n}")


def improved_bob_basis(l_j: int, phi_j: float) -> OrthonormalBasis:
    """Phase basis of helper j in the improved scheme.

    The sender bit l_j picks which column carries the phase factor:
    variant 0 is (1/sqrt 2) [[1, e^{-i phi}], [1, -e^{-i phi}]] and variant 1
    moves the factor to the first column.  Unlike the bich3 helper bases
    these are not Hermitian, so they are applied exactly once each.
    """
    if l_j not in (0, 1):
        raise ValueError(f"basis variant must be 0 or 1, got {l_j!r}")
    phase = np.exp(-1j * float(phi_j))
    if l_j == 0:
        mat = np.array([[1.0, phase], [1.0, -phase]]) / np.sqrt(2.0)
    else:
        mat = np.array([[phase, 1.0], [-phase, 1.0]]) / np.sqrt(2.0)
    return OrthonormalBasis(mat, tag=f"improved-bob-l{l_j}")


def printed_improved_matrix3(t: TargetState) -> np.ndarray:
    """The three-party sender matrix exactly as printed in the manuscript.

    The genuine basis comes from :func:`improved_alice_basis`.  This raw
    transcription keeps the misprint in the row for outcome 100, which
    carries a stray extra amplitude-b entry and so has squared norm
    a^2 + 2 b^2.  Returned as a bare array because it fails orthonormality
    validation whenever b is nonzero; the verification suite uses it as a
    known-bad fixture.
    """
    mat = improved_alice_basis(t, 3).matrix.copy()
    mat[0b100, 0b101] = t.b
    return mat


def _parity(bits, width: int):
    """Parity of the low width bits of an integer or an integer array."""
    out = bits & 0
    for j in range(width):
        out = out ^ ((bits >> j) & 1)
    return out


# Rules as op codes (RecoveryOp.code, x + 2 z) over big-endian outcome
# indices: l over the n sender bits l_1..l_n, m over the n - 1 helper bits
# m_1..m_(n-1).  Each works elementwise on integer arrays, which is how the
# protocol engine evaluates a rule on every branch at once, and on plain
# integers, which is how RecoveryRule.__call__ evaluates it on one
# transcript.

def _derived_codes(l, m, n: int):
    """Recovery rule rederived from the collapsed receiver state.

    The receiver holds a|l_n> + (-1)^{l_1 xor m_1 xor ... xor m_(n-1)}
    b e^{i phi} |l_n~> after all measurements, so X^{l_n} fixes the bit flip
    and Z on the parity of l_1 with the helper bits fixes the sign.  This
    rule restores the target exactly on every branch.
    """
    z = ((l >> (n - 1)) & 1) ^ _parity(m, n - 1)
    return (l & 1) | (z << 1)


def _paper_step3_codes(l, m, n: int):
    """Recovery rule exactly as printed in the improved scheme's final step.

    Transcribed verbatim for comparison: Z is driven by the parity of l_n
    with the helper bits and X by the parity of all sender bits.  It agrees
    with the derived rule only when l_1 = ... = l_n, so most branches come
    out wrong under it.
    """
    z = (l & 1) ^ _parity(m, n - 1)
    return _parity(l, n) | (z << 1)


def _table2_codes(l, m, n: int):
    """Recovery rule read off the improved scheme's printed three-party table.

    The table puts Z on the parity of the two helper bits and X on the last
    sender bit, dropping the leading sender bit l_1 that the derived rule
    needs, so it fails exactly on the l_1 = 1 half of the branches.
    """
    return (l & 1) | (_parity(m, n - 1) << 1)


_TABLE1_CODES = np.array(
    [RecoveryOp.from_label(_BICH_TABLE1[f"{key:05b}"]).code for key in range(32)],
    dtype=np.int8,
)


def _table1_codes(l, m, n: int):
    """Corrected receiver lookup of the bich3 scheme, keyed by the five
    broadcast bits: the three sender bits klm, then the helper bits n and s."""
    return _TABLE1_CODES[(l << 2) | m]


@dataclass(frozen=True)
class RecoveryRule:
    """A named recovery rule together with where it applies.

    codes maps (sender outcome index l, helper outcome index m, sender bit
    count n) to the op code RecoveryOp.code, elementwise over integer
    arrays; calling the rule evaluates it on one transcript given as bits.
    variant names the protocol the rule belongs to and requires_n pins the
    party count when the rule is a fixed-size table rather than a formula.
    """

    name: str
    variant: str
    codes: Callable
    requires_n: int | None = None

    def __call__(self, l: Sequence[int] | str, m: Sequence[int] | str) -> RecoveryOp:
        l_bits = as_bits(l)
        m_bits = as_bits(m)
        if len(l_bits) != len(m_bits) + 1:
            raise ValueError(
                f"expected one more sender bit than helper bits, got {len(l_bits)} "
                f"sender and {len(m_bits)} helper bits"
            )
        if self.requires_n is not None and len(l_bits) != self.requires_n:
            raise ValueError(
                f"rule {self.name!r} covers exactly {self.requires_n} sender bits, "
                f"got {len(l_bits)}"
            )
        code = self.codes(bits_to_index(l_bits), bits_to_index(m_bits), len(l_bits))
        return RecoveryOp.from_code(code)

    def check_applicable(self, variant: str, n: int) -> None:
        if variant != self.variant:
            raise ValueError(
                f"rule {self.name!r} belongs to variant {self.variant!r}, "
                f"not {variant!r}"
            )
        if self.requires_n is not None and n != self.requires_n:
            raise ValueError(
                f"rule {self.name!r} is only defined for n={self.requires_n}, got n={n}"
            )


RULES: dict[str, RecoveryRule] = {
    "derived": RecoveryRule(
        name="derived",
        variant="improved",
        codes=_derived_codes,
    ),
    "paper-step3": RecoveryRule(
        name="paper-step3",
        variant="improved",
        codes=_paper_step3_codes,
    ),
    "table2": RecoveryRule(
        name="table2",
        variant="improved",
        codes=_table2_codes,
        requires_n=3,
    ),
    "table1": RecoveryRule(
        name="table1",
        variant="bich3",
        codes=_table1_codes,
        requires_n=3,
    ),
}
