"""Tests for the radial-mode eigenanalysis.

numpy.linalg.eigh on the explicitly assembled potential matrix serves as the
generic-eigensolver oracle for the closed forms.
"""

import math

import numpy as np
import pytest

from selfhomodyne.constants import HBAR, K_B
from selfhomodyne.modes import (
    DETECTION_AXIS,
    TrapConfig,
    mode_temperature,
    phonon_occupation,
    project_psd,
    radial_modes,
    spring_gain_from_frequencies,
)

WX = 2 * math.pi * 2100.0
WY = 2 * math.pi * 3200.0


def potential_matrix(wx, wy, alpha):
    a2 = alpha * alpha
    return np.array([[wx**2 + a2, a2], [a2, wy**2 + a2]])


def eigh_oracle(wx, wy, alpha):
    vals, vecs = np.linalg.eigh(potential_matrix(wx, wy, alpha))
    return np.sqrt(vals), vecs  # ascending


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


class TestRadialModes:
    def test_no_feedback_recovers_bare_trap(self):
        sol = radial_modes(WX, WY, 0.0)
        assert sol.freq_low == WX
        assert sol.freq_high == WY
        np.testing.assert_allclose(sol.vec_low, [1.0, 0.0])
        np.testing.assert_allclose(sol.vec_high, [0.0, 1.0])
        assert sol.theta_fb == pytest.approx(math.pi / 4, abs=1e-15)

    def test_no_feedback_swapped_axes(self):
        sol = radial_modes(WY, WX, 0.0)
        assert sol.freq_high == WY
        np.testing.assert_allclose(sol.vec_high, [1.0, 0.0])
        assert sol.theta_fb == pytest.approx(math.pi / 4, abs=1e-15)

    def test_degenerate_trap_closed_form(self):
        w = 2 * math.pi * 2500.0
        alpha = 2 * math.pi * 400.0
        sol = radial_modes(w, w, alpha)
        assert sol.freq_low == pytest.approx(w, rel=1e-14)
        assert sol.freq_high == pytest.approx(math.sqrt(w**2 + 2 * alpha**2), rel=1e-14)
        np.testing.assert_allclose(sol.vec_high, DETECTION_AXIS, atol=1e-14)
        assert sol.theta_fb == pytest.approx(0.0, abs=1e-7)

    def test_matches_symmetric_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            wx = 2 * math.pi * rng.uniform(1e3, 5e3)
            wy = 2 * math.pi * rng.uniform(1e3, 5e3)
            alpha = 2 * math.pi * rng.uniform(50.0, 3e3)
            sol = radial_modes(wx, wy, alpha)
            freqs, vecs = eigh_oracle(wx, wy, alpha)
            assert sol.freq_low == pytest.approx(freqs[0], rel=1e-12)
            assert sol.freq_high == pytest.approx(freqs[1], rel=1e-12)
            # eigenvectors parallel to the oracle's columns
            assert abs(cross2(sol.vec_low, vecs[:, 0])) < 1e-10
            assert abs(cross2(sol.vec_high, vecs[:, 1])) < 1e-10

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            wx = 2 * math.pi * rng.uniform(1e3, 5e3)
            wy = 2 * math.pi * rng.uniform(1e3, 5e3)
            alpha = 2 * math.pi * rng.uniform(0.0, 3e3)
            sol = radial_modes(wx, wy, alpha)
            a2 = alpha * alpha
            trace = 2 * a2 + wx**2 + wy**2
            det = (wx**2 + a2) * (wy**2 + a2) - a2 * a2
            assert sol.freq_low**2 + sol.freq_high**2 == pytest.approx(trace, rel=1e-12)
            assert sol.freq_low**2 * sol.freq_high**2 == pytest.approx(det, rel=1e-12)

    def test_eigenvectors_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            sol = radial_modes(
                2 * math.pi * rng.uniform(1e3, 5e3),
                2 * math.pi * rng.uniform(1e3, 5e3),
                2 * math.pi * rng.uniform(0.0, 3e3),
            )
            assert abs(np.dot(sol.vec_low, sol.vec_high)) < 1e-10

    def test_rotation_angle_monotone_in_gain(self):
        alphas = np.linspace(0.0, 2 * math.pi * 20e3, 400)
        thetas = [radial_modes(WX, WY, float(a)).theta_fb for a in alphas]
        assert thetas[0] == pytest.approx(math.pi / 4, abs=1e-15)
        assert all(b <= a + 1e-12 for a, b in zip(thetas, thetas[1:]))
        assert thetas[-1] < 0.1  # approaches the detection axis at large gain
        # continuity across the grid
        assert max(abs(b - a) for a, b in zip(thetas, thetas[1:])) < 0.02

    def test_angle_range_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            sol = radial_modes(
                2 * math.pi * rng.uniform(1e3, 5e3),
                2 * math.pi * rng.uniform(1e3, 5e3),
                2 * math.pi * rng.uniform(0.0, 10e3),
            )
            assert 0.0 <= sol.theta_fb <= math.pi / 4 + 1e-12
            assert sol.freq_low <= sol.freq_high

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            radial_modes(WX, WY, -1.0)
        with pytest.raises(ValueError):
            radial_modes(0.0, WY, 0.0)


class TestSpringGainInversion:
    def test_bare_trap_gives_zero(self):
        assert spring_gain_from_frequencies(WX, WY, WX, WY) == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            wx = 2 * math.pi * rng.uniform(1e3, 5e3)
            wy = 2 * math.pi * rng.uniform(1e3, 5e3)
            alpha = 2 * math.pi * rng.uniform(10.0, 5e3)
            sol = radial_modes(wx, wy, alpha)
            rec = spring_gain_from_frequencies(sol.freq_low, sol.freq_high, wx, wy)
            assert rec == pytest.approx(alpha, rel=1e-10)

    def test_degenerate_analytic_case(self):
        w = 2 * math.pi * 2500.0
        alpha0 = 2 * math.pi * 700.0
        nu_high = math.sqrt(w**2 + 2 * alpha0**2)
        assert spring_gain_from_frequencies(w, nu_high, w, w) == pytest.approx(alpha0, rel=1e-12)

    def test_inconsistent_spectrum_rejected(self):
        with pytest.raises(ValueError, match="inconsistent spectrum"):
            spring_gain_from_frequencies(0.5 * WX, 0.5 * WY, WX, WY)


class TestProjectPsd:
    def test_aligned_mode(self):
        s_low = np.linspace(1.0, 2.0, 16)
        s_high = np.linspace(3.0, 4.0, 16)
        np.testing.assert_allclose(project_psd(s_low, s_high, 0.0), s_high)

    def test_equal_weight_at_45_degrees(self):
        s_low = np.full(8, 2.0)
        s_high = np.full(8, 4.0)
        np.testing.assert_allclose(project_psd(s_low, s_high, math.pi / 4), np.full(8, 3.0))

    def test_variance_linearity(self):
        rng = np.random.default_rng(9)
        s_low = rng.uniform(0.0, 1.0, 256)
        s_high = rng.uniform(0.0, 1.0, 256)
        theta = 0.3
        total = np.trapezoid(project_psd(s_low, s_high, theta))
        expected = math.sin(theta) ** 2 * np.trapezoid(s_low) + math.cos(theta) ** 2 * np.trapezoid(s_high)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project_psd(np.zeros(4), np.zeros(5), 0.1)


class TestModeTemperature:
    def test_inverse_of_equipartition(self):
        m, nu, t = 2.0e-17, WY, 0.05
        var = K_B * t / (m * nu**2)
        assert mode_temperature(m, nu, var, 0.0) == pytest.approx(t, rel=1e-12, abs=0)

    def test_projection_correction_doubles(self):
        m, nu, var = 2.0e-17, WY, 1e-18
        t0 = mode_temperature(m, nu, var, 0.0)
        t45 = mode_temperature(m, nu, var, math.pi / 4)
        assert t45 == pytest.approx(2 * t0, rel=1e-12, abs=0)

    def test_paper_mass_accepted_verbatim(self):
        t = mode_temperature(2.0e-17, WY, K_B * 0.018 / (2.0e-17 * WY**2), 0.0)
        assert t == pytest.approx(0.018, rel=1e-12, abs=0)

    def test_orthogonal_axis_raises(self):
        with pytest.raises(ZeroDivisionError):
            mode_temperature(2.0e-17, WY, 1e-18, math.pi / 2)


class TestPhononOccupation:
    def test_exact_bose_inversion(self):
        # hbar w = kB T ln 2  ->  n = 1
        t = 1e-3
        omega = K_B * t * math.log(2.0) / HBAR
        assert phonon_occupation(t, omega) == pytest.approx(1.0, rel=1e-12)

    def test_millikelvin_occupation(self):
        n = phonon_occupation(1e-3, WY)
        assert n == pytest.approx(6.51e3, rel=0.01)
        # the quoted 5e3 agrees at the order-of-magnitude level only
        assert 0.5 < n / 5e3 < 2.0

    def test_high_temperature_limit(self):
        omega = WY
        t = 2e3 * HBAR * omega / K_B  # kB T / hbar w = 2000
        n = phonon_occupation(t, omega)
        classical = K_B * t / (HBAR * omega) - 0.5
        assert n == pytest.approx(classical, rel=1e-6)

    def test_zero_temperature_limit(self):
        assert phonon_occupation(1e-12, WY) == 0.0
        with pytest.raises(ValueError):
            phonon_occupation(0.0, WY)


class TestTrapConfig:
    def test_defaults_valid(self):
        cfg = TrapConfig()
        assert cfg.secular_freq_y == pytest.approx(2 * math.pi * 3200)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            TrapConfig(secular_freq_x=0.0)
        with pytest.raises(ValueError):
            TrapConfig(mass=0.0)
