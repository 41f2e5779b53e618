"""Dense state-vector mathematics for small labelled qubit registers.

Everything here works on explicit complex amplitude arrays, which keeps the
behaviour auditable at the register sizes this package cares about (a dozen
qubits or so).  Qubits are addressed by string labels and the register order
is big endian: the leftmost label owns the most significant bit of the
computational index.  For labels ("A", "B") the amplitude at index 2 is the
coefficient of |10>, meaning A=1 and B=0, and a bit string read left to right
is the index written in binary.

All states visible outside this module are normalised and every constructor
validates its input against the budgets in :class:`Tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "StateVector",
    "RecoveryOp",
    "OrthonormalBasis",
    "as_bits",
    "bits_to_index",
    "index_to_bits",
    "projective_measure",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical budgets shared across the package.

    success is the one settable budget: the threshold behind both the
    strict and the fidelity success verdicts.  It must lie in [0, 1), since
    a budget of 1 or more would pass every branch whatever its fidelity; a
    ValueError names it otherwise.

    equality, norm and probability_floor are fixed budgets, read from
    DEFAULT_TOL wherever they apply: equality bounds orthonormality, state
    normalisation and the share-sum check, norm bounds a target's drift
    from a^2 + b^2 = 1, and probability_floor is the outcome weight below
    which projective_measure produces no residual state.  Every branch of
    both protocols weighs 2^-(2n-1), so the floor never prunes one.  They
    are fields so that reports print them, but not parameters:
    Tolerances(equality=...) raises TypeError.
    """

    equality: float = field(default=1e-10, init=False)
    norm: float = field(default=1e-12, init=False)
    probability_floor: float = field(default=1e-14, init=False)
    success: float = 1e-9

    def __post_init__(self) -> None:
        value = float(self.success)
        if not 0.0 <= value < 1.0:
            raise ValueError(f"tolerance 'success' must lie in [0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def as_bits(bits: Sequence[int] | str, width: int | None = None) -> tuple[int, ...]:
    """Coerce a bit string like "010" or an int sequence to a tuple of bits."""
    if isinstance(bits, str):
        if bits == "" or any(c not in "01" for c in bits):
            raise ValueError(f"expected a nonempty string over 0/1, got {bits!r}")
        out = tuple(int(c) for c in bits)
    else:
        out = tuple(int(v) for v in bits)
        if not out or any(v not in (0, 1) for v in out):
            raise ValueError(f"expected nonempty bits in {{0, 1}}, got {bits!r}")
    if width is not None and len(out) != width:
        raise ValueError(f"expected {width} bits, got {len(out)}: {bits!r}")
    return out


def bits_to_index(bits: Sequence[int] | str) -> int:
    """Big-endian integer value of a bit sequence."""
    value = 0
    for bit in as_bits(bits):
        value = (value << 1) | bit
    return value


def index_to_bits(index: int, width: int) -> tuple[int, ...]:
    """Inverse of :func:`bits_to_index` for a register of known width."""
    if not 0 <= index < (1 << width):
        raise ValueError(f"index {index} out of range for {width} bits")
    return tuple((index >> (width - 1 - j)) & 1 for j in range(width))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalised pure state over an ordered tuple of labelled qubits."""

    amplitudes: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(lab) for lab in self.labels)
        if not labels:
            raise ValueError("a state needs at least one qubit label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels}")
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != 1 << len(labels):
            raise ValueError(
                f"expected {1 << len(labels)} amplitudes for {len(labels)} qubits, "
                f"got {amps.shape[0]}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        # Written so that a NaN norm fails too.
        if not abs(norm_sq - 1.0) <= DEFAULT_TOL.equality:
            raise ValueError(f"state is not normalised: sum |amp|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray, labels: tuple[str, ...]) -> "StateVector":
        """Internal constructor for amplitudes already known to be valid.

        Skips the normalisation and label checks of __post_init__; used only
        on vectors produced by operations that preserve both by construction.
        """
        obj = object.__new__(cls)
        amps = np.array(amplitudes, dtype=np.complex128)
        amps.setflags(write=False)
        object.__setattr__(obj, "amplitudes", amps)
        object.__setattr__(obj, "labels", labels)
        return obj

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def position(self, label: str) -> int:
        """Index of a label within the register layout."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"no qubit labelled {label!r} in register {self.labels}"
            ) from None

    def amplitude(self, bits: Sequence[int] | str) -> complex:
        return complex(self.amplitudes[bits_to_index(as_bits(bits, self.num_qubits))])


@dataclass(frozen=True)
class RecoveryOp:
    """Pauli word Z^z_exp X^x_exp; acting on a ket, X is applied first."""

    x_exp: int
    z_exp: int

    _LABELS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "ZX"}

    def __post_init__(self) -> None:
        if self.x_exp not in (0, 1) or self.z_exp not in (0, 1):
            raise ValueError(
                f"exponents must be bits, got x={self.x_exp!r} z={self.z_exp!r}"
            )

    @property
    def label(self) -> str:
        return self._LABELS[(self.x_exp, self.z_exp)]

    @property
    def code(self) -> int:
        """Op code x_exp + 2 z_exp: 0, 1, 2, 3 for I, X, Z, ZX."""
        return self.x_exp | (self.z_exp << 1)

    @classmethod
    def from_code(cls, code: int) -> "RecoveryOp":
        """Inverse of :attr:`code`."""
        code = int(code)
        if not 0 <= code <= 3:
            raise ValueError(f"op codes run from 0 to 3, got {code}")
        return cls(code & 1, code >> 1)

    @classmethod
    def from_label(cls, label: str) -> "RecoveryOp":
        for exps, name in cls._LABELS.items():
            if name == label:
                return cls(*exps)
        raise ValueError(f"unknown recovery label {label!r}, expected I, X, Z or ZX")

    @property
    def matrix(self) -> np.ndarray:
        """The 2 x 2 matrix, shared and read-only."""
        return _PAULI_WORDS[self.code]


def _pauli_word(code: int) -> np.ndarray:
    mat = np.eye(2, dtype=np.complex128)
    if code & 1:
        mat = _PAULI_X @ mat
    if code >> 1:
        mat = _PAULI_Z @ mat
    mat.setflags(write=False)
    return mat


# RecoveryOp.matrix by op code; every entry is exactly 0 or +-1.
_PAULI_WORDS = tuple(_pauli_word(code) for code in range(4))


def _gram_deviation(mat: np.ndarray) -> float:
    """max |M M^dagger - I| of a square matrix M, or the largest over a stack
    of them: 0 when every row set is orthonormal."""
    gram = mat @ mat.conj().swapaxes(-1, -2)
    return float(np.abs(gram - np.eye(mat.shape[-1])).max())


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Measurement basis over k qubits: one matrix row per outcome vector.

    The Gram condition is validated on entry, so a value of this type is
    always a complete orthonormal set (for square matrices row orthonormality
    already implies the completeness relation sum_m |u_m><u_m| = identity).
    """

    matrix: np.ndarray
    tag: str = ""

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ValueError(f"basis dimension must be a power of two >= 2, got {dim}")
        if not np.isfinite(mat).all():
            raise ValueError(f"basis entries must be finite (tag {self.tag!r})")
        deviation = _gram_deviation(mat)
        if not deviation <= DEFAULT_TOL.equality:
            raise ValueError(
                f"rows are not orthonormal (tag {self.tag!r}), deviation {deviation:.3e}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1


@dataclass(frozen=True, eq=False)
class ProjectiveOutcome:
    """One outcome of a projective measurement.

    residual_state covers the unmeasured qubits and is None either when the
    probability is below the floor or when every qubit was measured.
    """

    outcome_index: int
    probability: float
    residual_state: StateVector | None


def projective_measure(
    state: StateVector,
    targets: Sequence[str],
    basis: OrthonormalBasis,
) -> tuple[ProjectiveOutcome, ...]:
    """Measure the target qubits in the given orthonormal basis.

    Args:
        state: the register to measure.
        targets: labels of the measured qubits; their order fixes which qubit
            carries which bit of the basis row index.
        basis: orthonormal basis of dimension 2^len(targets).

    Returns:
        One ProjectiveOutcome per basis vector, ordered by outcome index.
        Outcome m occurs with probability <state|P_m|state> for
        P_m = |u_m><u_m| on the targets, and its residual state is the
        normalised projection on the remaining qubits, in their original
        order, with the complex phase of the projected component kept.
    """
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate measurement targets {targets}")
    positions = [state.position(lab) for lab in targets]
    k = len(targets)
    if basis.num_qubits != k:
        raise ValueError(
            f"basis covers {basis.num_qubits} qubits but {k} targets were given"
        )
    n = state.num_qubits
    tens = np.moveaxis(state.amplitudes.reshape((2,) * n), positions, range(k))
    components = basis.matrix.conj() @ tens.reshape(1 << k, -1)
    probabilities = np.einsum("mj,mj->m", components.conj(), components).real
    rest = tuple(lab for lab in state.labels if lab not in targets)
    outcomes = []
    for m in range(1 << k):
        p = float(probabilities[m])
        if rest and p >= DEFAULT_TOL.probability_floor:
            residual = StateVector(components[m] / np.sqrt(p), rest)
        else:
            residual = None
        outcomes.append(ProjectiveOutcome(m, p, residual))
    return tuple(outcomes)
