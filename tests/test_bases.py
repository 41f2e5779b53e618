"""Unit tests for measurement bases, the target type and recovery rules."""

from __future__ import annotations

import numpy as np
import pytest

from jrsp import (
    RULES,
    TargetState,
    bich_alice_basis3,
    bich_basis_selector,
    bich_bob_basis,
    improved_alice_basis,
    improved_bob_basis,
    printed_improved_matrix3,
)

TWO_PI = 2.0 * np.pi


def random_amplitude_pairs(rng, count):
    thetas = rng.uniform(0.0, np.pi / 2.0, size=count)
    return [(np.cos(x), np.sin(x)) for x in thetas]


class TestTargetState:
    def test_stores_magnitudes_and_reduced_phase(self):
        t = TargetState(0.6, 0.8, 1.1)
        assert (t.a, t.b, t.phi) == (0.6, 0.8, 1.1)

    @pytest.mark.parametrize("phi, expected", [(-0.5, TWO_PI - 0.5), (7.0, 7.0 - TWO_PI), (TWO_PI, 0.0)])
    def test_phase_normalises_into_principal_range(self, phi, expected):
        assert TargetState(0.6, 0.8, phi).phi == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("a, b", [(-0.6, 0.8), (0.6, -0.8), (0.7, 0.8), (1.0, 0.1)])
    def test_rejects_bad_amplitudes(self, a, b):
        with pytest.raises(ValueError):
            TargetState(a, b)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_phase(self, phi):
        with pytest.raises(ValueError, match="finite"):
            TargetState(0.6, 0.8, phi)

    def test_from_theta(self):
        t = TargetState.from_theta(np.pi / 4.0, 0.3)
        assert t.a == pytest.approx(t.b)
        assert TargetState.from_theta(0.0).a == 1.0
        assert TargetState.from_theta(np.pi / 2.0).b == 1.0
        with pytest.raises(ValueError):
            TargetState.from_theta(2.0)

    def test_state_vector_form(self):
        t = TargetState(0.6, 0.8, 1.1)
        psi = t.state("R")
        assert psi.labels == ("R",)
        assert psi.amplitude("0") == pytest.approx(0.6)
        assert psi.amplitude("1") == pytest.approx(0.8 * np.exp(1.1j))


class TestImprovedAliceBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_orthonormal_for_random_and_extreme_targets(self, n, rng):
        pairs = random_amplitude_pairs(rng, 25) + [(1.0, 0.0), (0.0, 1.0)]
        for a, b in pairs:
            mat = improved_alice_basis(TargetState(a, b), n).matrix
            dim = 1 << n
            assert np.abs(mat @ mat.conj().T - np.eye(dim)).max() < 1e-12
            assert np.abs(mat.T @ mat.conj() - np.eye(dim)).max() < 1e-12

    def test_row_structure_three_parties(self):
        t = TargetState(0.6, 0.8)
        mat = improved_alice_basis(t, 3).matrix
        # row l = a|l> + (-1)^{l_1} b|l~>, with l~ the bitwise complement
        assert mat[0b011, 0b011] == pytest.approx(0.6)
        assert mat[0b011, 0b100] == pytest.approx(0.8)
        assert mat[0b100, 0b100] == pytest.approx(0.6)
        assert mat[0b100, 0b011] == pytest.approx(-0.8)
        assert np.count_nonzero(mat) == 16

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            improved_alice_basis(TargetState(0.6, 0.8), 1)


def test_printed_improved_matrix_misprint_location():
    t = TargetState(0.6, 0.8)
    printed = printed_improved_matrix3(t)
    genuine = improved_alice_basis(t, 3).matrix
    diff = printed - genuine
    assert diff[0b100, 0b101] == pytest.approx(0.8)
    assert np.count_nonzero(diff) == 1
    assert np.linalg.norm(printed[0b100]) == pytest.approx(np.sqrt(0.36 + 2 * 0.64))


class TestBichAliceBasis:
    def test_orthonormal_for_random_targets(self, rng):
        for a, b in random_amplitude_pairs(rng, 25) + [(1.0, 0.0), (0.0, 1.0)]:
            mat = bich_alice_basis3(TargetState(a, b)).matrix
            assert np.abs(mat @ mat.conj().T - np.eye(8)).max() < 1e-12

    def test_row_contents(self):
        mat = bich_alice_basis3(TargetState(0.6, 0.8)).matrix
        expected = {
            0b000: {0b000: 0.6, 0b111: 0.8},
            0b001: {0b000: 0.8, 0b111: -0.6},
            0b010: {0b001: 0.6, 0b110: 0.8},
            0b011: {0b001: 0.8, 0b110: -0.6},
            0b100: {0b010: 0.6, 0b101: 0.8},
            0b101: {0b010: 0.8, 0b101: -0.6},
            0b110: {0b011: 0.6, 0b100: 0.8},
            0b111: {0b011: -0.8, 0b100: 0.6},
        }
        for row, cols in expected.items():
            for col, value in cols.items():
                assert mat[row, col] == pytest.approx(value), (row, col)
        assert np.count_nonzero(mat) == 16


class TestHelperBases:
    @pytest.mark.parametrize("r", [0, 1])
    def test_bich_helper_basis_is_an_involution(self, r, rng):
        for phi in rng.uniform(0.0, TWO_PI, size=25):
            mat = bich_bob_basis(r, phi).matrix
            assert np.abs(mat @ mat - np.eye(2)).max() < 1e-12
            assert np.abs(mat - mat.conj().T).max() < 1e-12

    def test_bich_helper_basis_entries(self):
        phi = 0.77
        m0 = bich_bob_basis(0, phi).matrix * np.sqrt(2.0)
        assert m0[0, 1] == pytest.approx(np.exp(-1j * phi))
        assert m0[1, 0] == pytest.approx(np.exp(1j * phi))
        assert m0[1, 1] == pytest.approx(-1.0)
        m1 = bich_bob_basis(1, phi).matrix * np.sqrt(2.0)
        assert m1[0, 1] == pytest.approx(np.exp(1j * phi))
        assert m1[1, 0] == pytest.approx(np.exp(-1j * phi))

    @pytest.mark.parametrize("l_j", [0, 1])
    def test_improved_helper_basis_is_unitary(self, l_j, rng):
        for phi in rng.uniform(0.0, TWO_PI, size=25):
            mat = improved_bob_basis(l_j, phi).matrix
            assert np.abs(mat @ mat.conj().T - np.eye(2)).max() < 1e-12

    def test_improved_helper_basis_entries(self):
        phi = 0.77
        phase = np.exp(-1j * phi)
        m0 = improved_bob_basis(0, phi).matrix * np.sqrt(2.0)
        np.testing.assert_allclose(m0, [[1.0, phase], [1.0, -phase]], atol=1e-15)
        m1 = improved_bob_basis(1, phi).matrix * np.sqrt(2.0)
        np.testing.assert_allclose(m1, [[phase, 1.0], [-phase, 1.0]], atol=1e-15)

    def test_improved_helper_basis_is_not_hermitian_generally(self):
        mat = improved_bob_basis(0, 0.77).matrix
        assert np.abs(mat - mat.conj().T).max() > 0.1

    @pytest.mark.parametrize("bad", [-1, 2, None])
    def test_variant_bit_validation(self, bad):
        with pytest.raises((ValueError, TypeError)):
            bich_bob_basis(bad, 0.5)
        with pytest.raises((ValueError, TypeError)):
            improved_bob_basis(bad, 0.5)


@pytest.mark.parametrize(
    "klm, expected",
    [
        ("000", (0, 0)), ("010", (0, 0)),
        ("001", (1, 1)), ("011", (1, 1)),
        ("100", (0, 1)), ("110", (0, 1)),
        ("101", (1, 0)), ("111", (1, 0)),
    ],
)
def test_bich_basis_selector(klm, expected):
    assert bich_basis_selector(klm) == expected


class TestBichRecoveryTable:
    @pytest.mark.parametrize(
        "klm, n, s, label",
        [
            ("000", 0, 0, "I"), ("111", 1, 0, "I"), ("011", 0, 1, "I"),
            ("010", 0, 0, "X"), ("110", 0, 0, "X"), ("001", 1, 0, "X"),
            ("001", 0, 0, "ZX"), ("110", 0, 1, "ZX"), ("010", 0, 1, "ZX"),
            ("011", 0, 0, "Z"), ("111", 0, 0, "Z"), ("000", 0, 1, "Z"),
        ],
    )
    def test_selected_entries(self, klm, n, s, label):
        assert RULES["table1"](klm, (n, s)).label == label

    def test_partition_covers_all_branches_evenly(self):
        from collections import Counter
        counts = Counter(
            RULES["table1"](f"{klm:03b}", (n, s)).label
            for klm in range(8) for n in (0, 1) for s in (0, 1)
        )
        assert counts == {"I": 8, "X": 8, "Z": 8, "ZX": 8}

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            RULES["table1"]("000", (2, 0))


class TestRecoveryRules:
    @pytest.mark.parametrize(
        "l, m, label",
        [
            ("000", "00", "I"), ("010", "00", "I"), ("001", "00", "X"),
            ("100", "00", "Z"), ("101", "00", "ZX"), ("000", "01", "Z"),
            ("111", "11", "ZX"), ("0000", "000", "I"), ("1001", "100", "X"),
        ],
    )
    def test_derived_rule(self, l, m, label):
        assert RULES["derived"](l, m).label == label

    @pytest.mark.parametrize(
        "l, m, label",
        [
            ("000", "00", "I"), ("010", "00", "X"), ("001", "00", "ZX"),
            ("111", "00", "ZX"), ("111", "01", "X"), ("11", "0", "Z"),
        ],
    )
    def test_paper_step3_rule(self, l, m, label):
        assert RULES["paper-step3"](l, m).label == label

    @pytest.mark.parametrize(
        "l, m, label",
        [
            ("000", "00", "I"), ("100", "00", "I"), ("001", "00", "X"),
            ("000", "01", "Z"), ("101", "10", "ZX"),
        ],
    )
    def test_table2_rule(self, l, m, label):
        assert RULES["table2"](l, m).label == label

    def test_table2_rule_is_three_party_only(self):
        with pytest.raises(ValueError):
            RULES["table2"]("0000", "000")

    def test_rules_validate_bit_counts(self):
        with pytest.raises(ValueError):
            RULES["derived"]("000", "000")

    def test_derived_and_table2_agree_exactly_on_leading_zero(self):
        for l in range(8):
            for m in range(4):
                l_txt, m_txt = f"{l:03b}", f"{m:02b}"
                same = RULES["derived"](l_txt, m_txt) == RULES["table2"](l_txt, m_txt)
                assert same == (l < 4), (l_txt, m_txt)


class TestRuleRegistry:
    def test_registry_contents(self):
        assert set(RULES) == {"derived", "paper-step3", "table2", "table1"}
        assert RULES["table1"].variant == "bich3"
        assert RULES["table1"].requires_n == 3
        assert RULES["table2"].requires_n == 3
        assert RULES["derived"].requires_n is None

    def test_check_applicable(self):
        RULES["derived"].check_applicable("improved", 5)
        RULES["table1"].check_applicable("bich3", 3)
        with pytest.raises(ValueError):
            RULES["table1"].check_applicable("improved", 3)
        with pytest.raises(ValueError):
            RULES["derived"].check_applicable("bich3", 3)
        with pytest.raises(ValueError):
            RULES["table2"].check_applicable("improved", 4)

    def test_table1_rule_wraps_the_lookup(self):
        rule = RULES["table1"]
        assert rule("000", "00").label == "I"
        assert rule("010", "01").label == "ZX"
        assert rule("011", "01").label == "I"
