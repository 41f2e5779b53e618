"""Unit tests for the state-vector core."""

from __future__ import annotations

import numpy as np
import pytest

from jrsp import DEFAULT_TOL, OrthonormalBasis, RecoveryOp, StateVector, Tolerances
from jrsp.qcore import as_bits, bits_to_index, index_to_bits, projective_measure

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_bit_helpers_round_trip():
    assert as_bits("0101") == (0, 1, 0, 1)
    assert as_bits((1, 0, 1)) == (1, 0, 1)
    assert bits_to_index("101") == 5
    assert index_to_bits(5, 4) == (0, 1, 0, 1)
    for value in range(16):
        assert bits_to_index(index_to_bits(value, 4)) == value


def test_as_bits_rejects_garbage():
    with pytest.raises(ValueError):
        as_bits((0, 2, 1))
    with pytest.raises(ValueError):
        as_bits("1001", width=3)
    with pytest.raises(ValueError):
        as_bits("10x1")


def test_state_vector_basic_properties():
    amps = np.array([INV_SQRT2, 0.0, 0.0, INV_SQRT2], dtype=complex)
    psi = StateVector(amps, ("A", "B"))
    assert psi.num_qubits == 2
    assert psi.position("B") == 1
    assert psi.amplitude((1, 1)) == pytest.approx(INV_SQRT2)
    # big-endian: the leftmost label owns the most significant bit
    ket = StateVector(np.eye(4)[0b10], ("X", "Y"))
    assert ket.amplitude((1, 0)) == 1.0
    assert ket.amplitude("01") == 0.0
    # amplitudes are defensive: the stored buffer cannot be written through
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 9.0


@pytest.mark.parametrize(
    "amps, labels",
    [
        (np.ones(4) / 2.0, ("A", "A")),
        (np.ones(3) / np.sqrt(3.0), ("A", "B")),
        (np.array([1.0, 1.0]), ("A",)),
    ],
)
def test_state_vector_rejects_bad_input(amps, labels):
    with pytest.raises(ValueError):
        StateVector(np.asarray(amps, dtype=complex), labels)


class TestRecoveryOp:
    def test_labels(self):
        assert RecoveryOp(0, 0).label == "I"
        assert RecoveryOp(1, 0).label == "X"
        assert RecoveryOp(0, 1).label == "Z"
        assert RecoveryOp(1, 1).label == "ZX"

    def test_from_label_round_trip(self):
        for name in ("I", "X", "Z", "ZX"):
            assert RecoveryOp.from_label(name).label == name

    def test_op_codes_round_trip_in_label_order(self):
        labels = [RecoveryOp.from_code(code).label for code in range(4)]
        assert labels == ["I", "X", "Z", "ZX"]
        for code in range(4):
            assert RecoveryOp.from_code(code).code == code
        with pytest.raises(ValueError):
            RecoveryOp.from_code(4)

    def test_matrix_applies_x_before_z(self):
        zx = RecoveryOp(1, 1).matrix
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        np.testing.assert_allclose(zx, z @ x)

    def test_apply_recovery_on_a_ket(self):
        flipped = RecoveryOp(1, 1).matrix @ np.array([1.0, 0.0])
        # ZX|0> = Z|1> = -|1>
        np.testing.assert_array_equal(flipped, [0.0, -1.0])


def test_orthonormal_basis_validates_rows():
    good = OrthonormalBasis(np.eye(4, dtype=complex), tag="comp")
    assert good.num_qubits == 2
    with pytest.raises(ValueError):
        OrthonormalBasis(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex), tag="bad")
    with pytest.raises(ValueError):
        OrthonormalBasis(np.eye(3, dtype=complex), tag="bad-dim")


def test_projective_measure_computational_basis(rng):
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    raw /= np.linalg.norm(raw)
    psi = StateVector(raw, ("A", "B", "C"))
    outcomes = projective_measure(psi, ("A",), OrthonormalBasis(np.eye(2, dtype=complex), tag="z"))
    assert len(outcomes) == 2
    probs = np.array([o.probability for o in outcomes])
    assert probs.sum() == pytest.approx(1.0)
    # outcome 0 keeps the first half of the amplitudes, renormalized
    head = raw[:4]
    np.testing.assert_allclose(
        outcomes[0].residual_state.amplitudes, head / np.linalg.norm(head), atol=1e-14
    )
    assert outcomes[0].residual_state.labels == ("B", "C")


def test_projective_measure_uses_conjugated_rows():
    plus_i = np.array([1.0, 1.0j]) * INV_SQRT2
    basis = OrthonormalBasis(
        np.array([plus_i, np.array([1.0, -1.0j]) * INV_SQRT2]), tag="y"
    )
    psi = StateVector(plus_i.copy(), ("Q",))
    outcomes = projective_measure(psi, ("Q",), basis)
    assert outcomes[0].probability == pytest.approx(1.0)
    assert outcomes[1].probability == pytest.approx(0.0)


def test_projective_measure_of_every_qubit_leaves_no_residual():
    psi = StateVector(np.array([0.0, 1.0, 0.0, 0.0]), ("A", "B"))  # |01>
    outcomes = projective_measure(psi, ("A", "B"), OrthonormalBasis(np.eye(4, dtype=complex), tag="z"))
    assert outcomes[1].probability == pytest.approx(1.0)
    assert outcomes[1].residual_state is None
    # impossible outcomes fall below the probability floor
    assert outcomes[0].residual_state is None


def test_projective_measure_middle_qubit_keeps_label_order(rng):
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    raw /= np.linalg.norm(raw)
    psi = StateVector(raw, ("A", "B", "C"))
    out = projective_measure(psi, ("B",), OrthonormalBasis(np.eye(2, dtype=complex), tag="z"))
    assert out[0].residual_state.labels == ("A", "C")
    sub = raw.reshape(2, 2, 2)[:, 0, :].reshape(4)
    np.testing.assert_allclose(
        out[0].residual_state.amplitudes, sub / np.linalg.norm(sub), atol=1e-14
    )


def test_tolerances_defaults():
    assert DEFAULT_TOL == Tolerances()
    assert DEFAULT_TOL.equality == 1e-10
    assert DEFAULT_TOL.norm == 1e-12
    assert DEFAULT_TOL.probability_floor == 1e-14
    assert DEFAULT_TOL.success == 1e-9


@pytest.mark.parametrize("key", ["equality", "norm", "probability_floor", "success"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_tolerances_reject_non_finite_and_negative_values(key, bad):
    with pytest.raises(ValueError, match=key):
        Tolerances(**{key: bad})


def test_tolerances_accept_zero():
    assert Tolerances(equality=0.0, norm=0.0, probability_floor=0.0, success=0.0).success == 0.0
