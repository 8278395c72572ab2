"""Tests for the interference-optics module.

Oracles are independent of the production code path, which evaluates every
aperture integral as one closed-form cap moment: the efficiencies and
sensitivities are checked against scipy's adaptive quadrature in theta and
against polynomials in c = cos(theta_D), the fringe moments of a displaced
scatterer have a closed antiderivative after the azimuthal integral is done
by hand (for the standard geometry, polarization perpendicular to the cap
axis), and the sphere normalization is checked with scipy's adaptive
quadrature.  The dipole pattern, the fringe state of a displaced scatterer
and the interference intensity are written here from their formulas, as
references summed with a 64-node Gauss-Legendre rule on the cap for a dipole
along any unit vector; the sensitivities are checked against them.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.constants import c as C_SI, hbar as HBAR_SI

from selfhomodyne import cli
from selfhomodyne.config import ScenarioConfig
from selfhomodyne.langevin import _RAMP_START_PATH, _detector_outputs
from selfhomodyne.optics import (
    Beam,
    OpticalSetup,
    RayleighValidityWarning,
    Scatterer,
    _effective_wavenumber,
    backaction_psd,
    calibration_deviation,
    collection_efficiency,
    detection_efficiency,
    fringe_slope,
    imprecision,
    mirror_sensitivity,
    particle_sensitivity,
    rayleigh_scattered_power,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def cap_moments_analytic(theta_d, kq):
    """(a, b) moments for polarization perpendicular to the cap axis.

    The phi integral of the dipole pattern gives (3/8)(1 + u^2) du, and
    int (1+u^2) cos(k u) du, int (1+u^2) sin(k u) du have closed forms.
    """
    c = math.cos(theta_d)
    if kq == 0.0:
        return (3.0 / 8.0) * (4.0 / 3.0 - c - c**3 / 3.0), 0.0
    k = kq

    def f_cos(u):
        return (1 + u * u) * math.sin(k * u) / k + 2 * u * math.cos(k * u) / k**2 \
            - 2 * math.sin(k * u) / k**3

    def f_sin(u):
        return -(1 + u * u) * math.cos(k * u) / k + 2 * u * math.sin(k * u) / k**2 \
            + 2 * math.cos(k * u) / k**3

    return (3.0 / 8.0) * (f_cos(1.0) - f_cos(c)), (3.0 / 8.0) * (f_sin(1.0) - f_sin(c))


def calibration_deviation_analytic(na):
    """chi_m and chi_p reduce to polynomials in c = cos(theta_D):
    chi_m ~ 4 - 3c - c^3, chi_p ~ (3/4)(3 - 2c^2 - c^4); the symmetric
    relative difference simplifies to the rational form below."""
    c = math.sqrt(1.0 - na * na)
    return 2.0 * (1 - c) * (3 * c**2 + 2 * c + 7) / (3 * c**3 + 7 * c**2 + 13 * c + 25)


def collection_efficiency_analytic(theta_d):
    c = math.cos(theta_d)
    return (4.0 - 3.0 * c - c**3) / 8.0


GL_NODES, GL_WEIGHTS = leggauss(64)
Y_POL = (0.0, 1.0, 0.0)  # the paper's polarization, perpendicular to the cap axis


def cap_weights(theta_d, eps=Y_POL):
    """Nodes u = cos(theta) on the cap [cos(theta_d), 1] and weights w with
    sum(w * f(u)) = int_cap f(cos(theta)) * (dipole density) dOmega, for a
    dipole along any unit vector eps, from the general azimuthal integral
        int (eps.n)^2 dphi = pi (1 - u^2)(eps_x^2 + eps_y^2) + 2 pi eps_z^2 u^2.
    The 64-node Gauss-Legendre rule resolves the low-degree polynomials and
    the fringe moments cos/sin(k u), |k| < 4 pi, of a scatterer displaced by
    |q| < lambda to rounding."""
    lo = math.cos(theta_d)
    u = 0.5 * (1.0 - lo) * GL_NODES + 0.5 * (1.0 + lo)
    ex, ey, ez = eps
    dot2 = math.pi * (1.0 - u * u) * (ex * ex + ey * ey) + 2.0 * math.pi * ez * ez * u * u
    density = (3.0 / (8.0 * math.pi)) * (2.0 * math.pi - dot2)
    return u, 0.5 * (1.0 - lo) * GL_WEIGHTS * density


def detection_angular_analytic(theta_d):
    """Chebyshev-expanded form of the aperture factor: (8 - 5c^3 - 3c^5)/8."""
    c = math.cos(theta_d)
    return (8.0 - 5.0 * c**3 - 3.0 * c**5) / 8.0


def dipole_density(direction) -> float:
    """Dipole-radiated power per unit solid angle along the unit vector
    ``direction`` for the dipole oscillating along y: (3/8pi)(1 - n_y^2),
    the integrand whose cap integrals the cap weights sum."""
    n = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(n))
    if n.shape != (3,) or not abs(norm - 1.0) <= 1e-8:  # a NaN component fails too
        raise ValueError(f"direction must be a unit 3-vector, got {direction!r}")
    n_y = float(n[1])
    return (3.0 / (8.0 * math.pi)) * (1.0 - n_y * n_y)


@dataclasses.dataclass(frozen=True)
class FringeState:
    """Fringe amplitude/phase of the interference term at one scatterer
    displacement: amplitude A = 2*rho*sqrt(a^2+b^2), phase = atan2(b, a),
    with (a, b) the cosine/sine moments of the dipole pattern over the cap."""

    amplitude: float
    phase: float
    cos_moment: float
    sin_moment: float


def fringe_state(setup, q) -> FringeState:
    """Fringe amplitude and phase for a scatterer displaced by q along the
    detection axis, from the moments
        a = int_cap cos((4pi/lambda) q cos(theta)) dp
        b = int_cap sin((4pi/lambda) q cos(theta)) dp
    summed with the cap weights of the y-polarized dipole, which resolve
    them for |q| < lambda."""
    if abs(q) >= setup.wavelength:
        raise ValueError("displacement must satisfy |q| < wavelength")
    u, w = cap_weights(setup.half_aperture)
    k2 = 4.0 * math.pi / setup.wavelength
    a = float(w @ np.cos(k2 * q * u))
    b = float(w @ np.sin(k2 * q * u))
    rho = setup.mirror_reflectivity
    return FringeState(
        amplitude=2.0 * rho * math.hypot(a, b), phase=math.atan2(b, a), cos_moment=a, sin_moment=b
    )


def interference_intensity(setup, q, optical_path) -> float:
    """Varying part of the normalized detector intensity at the one-way
    focus-to-mirror path R_s = ``optical_path``,
    I = -A cos(4pi R_s / lambda + phase); the full intensity is I + 1 + rho^2."""
    state = fringe_state(setup, q)
    return -state.amplitude * math.cos(4.0 * math.pi * optical_path / setup.wavelength + state.phase)


PAPER_SETUP = OpticalSetup()  # NA = 0.18, 780 nm, V = 0.7, eta_opt = 0.9, QE = 0.82


# ---------------------------------------------------------------------------
# dipole_density (reference)
# ---------------------------------------------------------------------------

class TestDipoleDensity:
    def test_along_axis_is_zero(self):
        assert dipole_density((0, 1, 0)) == 0.0

    def test_perpendicular_is_maximum(self):
        assert dipole_density((0, 0, 1)) == pytest.approx(
            3 / (8 * math.pi), rel=1e-12, abs=0
        )

    def test_full_sphere_normalization_adaptive_quadrature(self):
        # oracle: scipy adaptive quadrature of the emission pattern
        total, err = integrate.dblquad(
            lambda theta, phi: dipole_density(
                (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
            ) * math.sin(theta),
            0.0, 2.0 * math.pi,
            0.0, math.pi,
            epsabs=1e-12,
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_non_unit_input_rejected(self):
        with pytest.raises(ValueError):
            dipole_density((0, 2, 0))
        with pytest.raises(ValueError):
            dipole_density((0.5, 0.5, 0.5))


# ---------------------------------------------------------------------------
# cap weights
# ---------------------------------------------------------------------------

CAP_APERTURES = [1e-3, math.asin(0.18), 0.5, 1.0, math.pi / 2, 2.0, math.pi]


class TestCapWeightsReference:
    """The cap weights of the y-polarized dipole, which the production cap
    moments integrate, agree to rounding with those of every polarization
    perpendicular to the cap axis, which is why the polarization is not a
    setting."""

    @pytest.mark.parametrize("pol", [(1.0, 0.0, 0.0), (0.6, 0.8, 0.0)])
    @pytest.mark.parametrize("theta_d", CAP_APERTURES)
    def test_in_plane_polarizations_agree(self, theta_d, pol):
        _, w = cap_weights(theta_d)
        np.testing.assert_allclose(w, cap_weights(theta_d, pol)[1], rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# fringe_state (reference)
# ---------------------------------------------------------------------------

class TestFringeState:
    def test_zero_displacement_has_zero_phase(self):
        st = fringe_state(PAPER_SETUP, 0.0)
        assert st.sin_moment == 0.0
        assert st.phase == 0.0
        assert st.amplitude > 0.0

    def test_matches_analytic_moments(self):
        lam = PAPER_SETUP.wavelength
        for theta_d in (0.1, math.asin(0.18), 0.6, 1.2):
            setup = OpticalSetup(half_aperture=theta_d)
            for q in (0.0, lam / 100, lam / 8):
                st = fringe_state(setup, q)
                a_ref, b_ref = cap_moments_analytic(theta_d, 4 * math.pi * q / lam)
                assert st.cos_moment == pytest.approx(a_ref, abs=1e-10)
                assert st.sin_moment == pytest.approx(b_ref, abs=1e-10)

    def test_small_aperture_amplitude_expansion(self):
        # A -> 3*rho*theta_D^2/4 with O(theta^4) remainder
        for theta_d in (0.05, 0.1, 0.2):
            setup = OpticalSetup(half_aperture=theta_d, mirror_reflectivity=1.0)
            amp = fringe_state(setup, 0.0).amplitude
            assert abs(amp - 0.75 * theta_d**2) <= theta_d**4

    def test_phase_linear_in_q_at_paper_na(self):
        lam = PAPER_SETUP.wavelength
        q = lam / 8
        st = fringe_state(PAPER_SETUP, q)
        expected = (4 * math.pi * q / lam) * (1 - PAPER_SETUP.half_aperture**2 / 4)
        assert st.phase == pytest.approx(expected, rel=0.01)

    def test_displacement_out_of_regime_rejected(self):
        with pytest.raises(ValueError):
            fringe_state(PAPER_SETUP, 2 * PAPER_SETUP.wavelength)

    def test_series_consistency_invariant(self):
        # amplitude and phase vs the small-aperture expansions, error measured
        # against the natural scales (rho for A, 4*pi*q/lambda for the phase)
        lam = 780e-9
        q = lam / 10000
        kq = 4 * math.pi * q / lam
        for theta_d in (0.1, 0.2, 0.3):
            setup = OpticalSetup(half_aperture=theta_d, wavelength=lam)
            st = fringe_state(setup, q)
            assert abs(st.amplitude - 0.75 * theta_d**2) <= theta_d**4
            assert abs(st.phase - kq * (1 - theta_d**2 / 4)) / kq <= theta_d**4

    def test_cos_moment_constant_to_first_order_in_q(self):
        # the cosine moment varies only quadratically with displacement
        lam = PAPER_SETUP.wavelength
        a0 = fringe_state(PAPER_SETUP, 0.0).cos_moment
        for q in (lam / 1000, lam / 300):
            aq = fringe_state(PAPER_SETUP, q).cos_moment
            assert abs(aq - a0) <= (4 * math.pi * q / lam) ** 2 * a0


# ---------------------------------------------------------------------------
# interference_intensity (reference)
# ---------------------------------------------------------------------------

class TestInterferenceIntensity:
    def test_no_mirror_no_signal(self):
        setup = OpticalSetup(mirror_reflectivity=0.0)
        for rs in (0.0, 0.01, 0.15):
            assert interference_intensity(setup, 1e-8, optical_path=rs) == pytest.approx(0.0, abs=1e-15)

    def test_periodic_in_optical_path(self):
        lam = PAPER_SETUP.wavelength
        rs0 = _RAMP_START_PATH
        q = lam / 50
        i0 = interference_intensity(PAPER_SETUP, q, optical_path=rs0)
        i1 = interference_intensity(PAPER_SETUP, q, optical_path=rs0 + lam / 2)
        assert i1 == pytest.approx(i0, abs=1e-9)
        # exactly one full fringe within a half-wavelength sweep: the sign of
        # (I - midpoint) changes twice
        rs = rs0 + np.linspace(0, lam / 2, 201)
        vals = np.array([interference_intensity(PAPER_SETUP, q, optical_path=r) for r in rs])
        crossings = np.sum(np.diff(np.sign(vals - vals.mean())) != 0)
        assert crossings == 2

    def test_midfringe_taylor_matches_particle_sensitivity(self):
        lam = PAPER_SETUP.wavelength
        rs_lock = 3 * lam / 8  # mid-fringe point with negative slope
        assert interference_intensity(PAPER_SETUP, 0.0, optical_path=rs_lock) == pytest.approx(0.0, abs=1e-12)
        q = lam / 2000
        chi = particle_sensitivity(PAPER_SETUP)
        val = interference_intensity(PAPER_SETUP, q, optical_path=rs_lock)
        assert val == pytest.approx(-chi * q, rel=1e-4)


# ---------------------------------------------------------------------------
# sensitivities and calibration deviation
# ---------------------------------------------------------------------------

class TestSensitivities:
    @pytest.mark.parametrize("rho", [1.0, 0.37])
    def test_mirror_sensitivity_is_the_rest_fringe_slope(self, rho):
        # the slope of the fringe amplitude of the particle at rest, to the
        # rounding of the 64-node rule that sums the reference
        for na in np.linspace(0.01, 0.99, 500):
            setup = dataclasses.replace(
                OpticalSetup.from_numerical_aperture(float(na)), mirror_reflectivity=rho
            )
            rest = fringe_state(setup, 0.0).amplitude
            assert mirror_sensitivity(setup) == pytest.approx(
                fringe_slope(rest, setup.wavelength), rel=1e-12, abs=0
            )

    def test_mirror_sensitivity_zero_without_mirror(self):
        assert mirror_sensitivity(OpticalSetup(mirror_reflectivity=0.0)) == 0.0

    def test_mirror_sensitivity_small_aperture(self):
        theta_d = 0.05
        setup = OpticalSetup(half_aperture=theta_d)
        expected = 3 * math.pi * theta_d**2 / setup.wavelength
        assert mirror_sensitivity(setup) == pytest.approx(expected, rel=2e-3)

    def test_mirror_sensitivity_linear_in_reflectivity(self):
        s1 = mirror_sensitivity(OpticalSetup(mirror_reflectivity=0.4))
        s2 = mirror_sensitivity(OpticalSetup(mirror_reflectivity=0.8))
        assert s2 == pytest.approx(2 * s1, rel=1e-12)

    def test_particle_sensitivity_paraxial_limit(self):
        setup = OpticalSetup(half_aperture=0.01)
        ratio = particle_sensitivity(setup) / mirror_sensitivity(setup)
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_exact_and_expansion_agree_at_paper_na(self):
        # the small-aperture form (4 pi A / lambda)(1 - theta_D^2 / 4)
        chi_x = fringe_state(PAPER_SETUP, 0.0).amplitude * _effective_wavenumber(PAPER_SETUP)
        assert particle_sensitivity(PAPER_SETUP) == pytest.approx(chi_x, rel=1e-3)

    def test_particle_never_exceeds_mirror_sensitivity(self):
        for theta_d in np.linspace(0.02, math.pi / 2, 40):
            setup = OpticalSetup(half_aperture=float(theta_d))
            assert particle_sensitivity(setup) <= mirror_sensitivity(setup) * (1 + 1e-12)


class TestCalibrationDeviation:
    def test_paper_value_at_na_018(self):
        assert calibration_deviation(0.18) == pytest.approx(0.008, abs=1e-3)

    def test_matches_closed_form(self):
        for na in (0.05, 0.18, 0.4, 0.6, 0.9):
            assert calibration_deviation(na) == pytest.approx(
                calibration_deviation_analytic(na), rel=1e-8
            )

    def test_vanishes_at_small_na(self):
        assert calibration_deviation(1e-3) < 1e-6

    def test_exact_at_every_aperture(self):
        """Against exact rational arithmetic on the code's own
        e = 1 - cos(theta_D) = 2 sin^2(theta_D/2), with c = 1 - e: the
        difference of the two sensitivities, taken by subtraction, lost
        6.7e-6 of the result at NA = 1e-5."""
        for na in np.geomspace(1e-8, 0.99, 200):
            e = Fraction(2.0 * math.sin(0.5 * math.asin(float(na))) ** 2)
            c = 1 - e
            diff = e * e * (1 - 2 * e / 3 + e * e / 4)
            total = sum((1 - c**m) / m for m in (1, 2, 3, 4))
            exact = 2 * diff / total
            got = Fraction(calibration_deviation(float(na)))
            assert abs(got - exact) <= Fraction(1, 10**15) * exact, na

    def test_ten_percent_boundary(self):
        # the 10% claim holds to its one-digit precision at NA = 0.6 (the
        # exact value is 0.1016; the strict crossing sits at NA ~ 0.596)
        assert calibration_deviation(0.6) == pytest.approx(0.10, abs=2e-3)
        assert calibration_deviation(0.59) <= 0.10

    def test_monotone_increasing(self):
        grid = np.linspace(0.01, 0.999, 100)
        vals = [calibration_deviation(float(na)) for na in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_na_rejected(self):
        with pytest.raises(ValueError):
            calibration_deviation(1.0)
        with pytest.raises(ValueError):
            calibration_deviation(0.0)
        for na in (0.0, -0.18, 1.0 + 1e-12, math.nan):
            with pytest.raises(ValueError, match=r"numerical aperture must lie in \(0, 1\]"):
                OpticalSetup.from_numerical_aperture(na)


# ---------------------------------------------------------------------------
# aperture integrals against adaptive quadrature in theta
# ---------------------------------------------------------------------------

QUAD_APERTURES = [1e-3, 1e-2, 0.05, math.asin(0.18), 0.5, 1.0, math.pi / 2, 2.0]


def cap_moment_quad(theta_d, k):
    """int_cap cos^k(theta) dp by scipy's adaptive quadrature of the
    azimuth-integrated pattern (3/8)(1 + cos^2 a) cos^k(a) sin(a) over
    a in [0, theta_d]."""
    total, _ = integrate.quad(
        lambda a: 0.375 * (1.0 + math.cos(a) ** 2) * math.cos(a) ** k * math.sin(a),
        0.0, theta_d, epsabs=0.0, epsrel=1e-13,
    )
    return total


class TestApertureIntegrals:
    """Each aperture function against its cap moment by adaptive quadrature,
    to 1e-14 relative down to a 1e-3 rad cap, where a difference of
    polynomials in cos(theta_D), or a rule with nodes on [cos(theta_D), 1],
    loses ~1e-11 to cancellation."""

    @pytest.mark.parametrize("theta_d", QUAD_APERTURES)
    def test_collection_efficiency(self, theta_d):
        assert collection_efficiency(theta_d) == pytest.approx(
            cap_moment_quad(theta_d, 0), rel=1e-14, abs=0
        )

    @pytest.mark.parametrize("theta_d", [t for t in QUAD_APERTURES if t <= math.pi / 2])
    def test_sensitivities_and_detection_efficiency(self, theta_d):
        rho = 0.37
        setup = OpticalSetup(
            half_aperture=theta_d, mirror_reflectivity=rho,
            visibility=1.0, path_efficiency=1.0, detector_qe=1.0,
        )
        lam = setup.wavelength
        assert mirror_sensitivity(setup) == pytest.approx(
            fringe_slope(2.0 * rho * cap_moment_quad(theta_d, 0), lam), rel=1e-14, abs=0
        )
        assert particle_sensitivity(setup) == pytest.approx(
            2.0 * rho * (4.0 * math.pi / lam) * cap_moment_quad(theta_d, 1), rel=1e-14, abs=0
        )
        assert detection_efficiency(setup) == pytest.approx(
            5.0 * cap_moment_quad(theta_d, 2), rel=1e-14, abs=0
        )


# ---------------------------------------------------------------------------
# efficiencies and powers
# ---------------------------------------------------------------------------

class TestCollectionEfficiency:
    def test_paper_value(self):
        assert collection_efficiency(math.asin(0.18)) == pytest.approx(0.012, abs=1e-3)

    def test_matches_closed_form(self):
        for theta_d in (0.1, 0.5, 1.0, 2.0, 3.0):
            assert collection_efficiency(theta_d) == pytest.approx(
                collection_efficiency_analytic(theta_d), abs=1e-10
            )

    def test_endpoints(self):
        assert collection_efficiency(0.0) == 0.0
        assert collection_efficiency(math.pi) == pytest.approx(1.0, abs=1e-10)
        for theta_d in (-1e-12, math.pi + 1e-12, math.nan):
            with pytest.raises(ValueError, match=r"half_aperture must lie in \[0, pi\]"):
                collection_efficiency(theta_d)

    def test_monotone_in_aperture(self):
        grid = np.linspace(0.01, math.pi, 50)
        vals = [collection_efficiency(float(t)) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cap_integrals_adaptive_quadrature(self):
        # oracle: scipy adaptive quadrature of the emission pattern over the cap
        setup = OpticalSetup.from_numerical_aperture(0.5)
        theta_d = setup.half_aperture
        kq = 4.0 * math.pi / setup.wavelength * (setup.wavelength / 7.0)

        def cap(weight):
            total, _ = integrate.dblquad(
                lambda theta, phi: weight(math.cos(theta)) * dipole_density(
                    (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
                ) * math.sin(theta),
                0.0, 2.0 * math.pi,
                0.0, theta_d,
                epsabs=1e-13,
            )
            return total

        st = fringe_state(setup, setup.wavelength / 7.0)
        assert collection_efficiency(theta_d) == pytest.approx(cap(lambda u: 1.0), abs=1e-10)
        assert st.cos_moment == pytest.approx(cap(lambda u: math.cos(kq * u)), abs=1e-10)
        assert st.sin_moment == pytest.approx(cap(lambda u: math.sin(kq * u)), abs=1e-10)


class TestRayleighPower:
    def test_paper_operating_point(self):
        beam = Beam(power=0.43, waist=0.29e-3, wavelength=780e-9)
        p = rayleigh_scattered_power(beam, Scatterer(radius=150e-9, refractive_index=1.45))
        # quoted 0.09 uW with a 50% band dominated by the r^6 dependence
        assert p == pytest.approx(0.09e-6, rel=0.5)
        assert p == pytest.approx(9.44e-8, rel=1e-3)  # frozen direct evaluation

    def test_zero_beam_power(self):
        beam = Beam(power=0.0, waist=0.29e-3)
        assert rayleigh_scattered_power(beam, Scatterer()) == 0.0

    def test_sixth_power_radius_scaling(self):
        beam = Beam(power=0.1, waist=1e-4)
        p1 = rayleigh_scattered_power(beam, Scatterer(radius=50e-9))
        p2 = rayleigh_scattered_power(beam, Scatterer(radius=100e-9))
        assert p2 / p1 == pytest.approx(64.0, rel=1e-9)

    def test_linear_beam_power_scaling(self):
        s = Scatterer(radius=80e-9)
        p1 = rayleigh_scattered_power(Beam(power=0.1, waist=1e-4), s)
        p2 = rayleigh_scattered_power(Beam(power=0.3, waist=1e-4), s)
        assert p2 / p1 == pytest.approx(3.0, rel=1e-12)

    def test_rayleigh_warning_on_large_sphere(self):
        beam = Beam(power=0.1, waist=1e-4, wavelength=780e-9)
        with pytest.warns(RayleighValidityWarning):
            rayleigh_scattered_power(beam, Scatterer(radius=500e-9))


class TestDetectionEfficiency:
    def test_paper_value(self):
        assert detection_efficiency(PAPER_SETUP) == pytest.approx(0.021, abs=4e-3)

    def test_matches_chebyshev_form(self):
        for theta_d in (0.05, 0.18, 0.6, 1.1):
            setup = OpticalSetup(
                half_aperture=theta_d, visibility=1.0, path_efficiency=1.0, detector_qe=1.0
            )
            assert detection_efficiency(setup) == pytest.approx(
                detection_angular_analytic(theta_d), rel=1e-12, abs=0
            )

    @pytest.mark.parametrize("pol", [Y_POL, (1.0, 0.0, 0.0), (0.6, 0.8, 0.0)])
    def test_closed_form_is_the_cap_quadrature(self, pol):
        # for every polarization perpendicular to the cap axis z the aperture
        # factor is 5 int_cap cos^2(theta) dp, summed with that polarization's
        # cap weights
        for theta_d in (0.05, 0.18, 0.5, 1.0, 1.4, math.pi / 2):
            setup = OpticalSetup(
                half_aperture=theta_d, visibility=1.0, path_efficiency=1.0, detector_qe=1.0
            )
            u, w = cap_weights(theta_d, pol)
            assert detection_efficiency(setup) == pytest.approx(
                5.0 * float(w @ (u * u)), rel=1e-13, abs=0
            )

    def test_endpoint_identities(self):
        tiny = OpticalSetup(half_aperture=1e-9, visibility=1.0, path_efficiency=1.0, detector_qe=1.0)
        assert detection_efficiency(tiny) == pytest.approx(0.0, abs=1e-12)
        full = OpticalSetup(half_aperture=math.pi / 2, visibility=1.0, path_efficiency=1.0, detector_qe=1.0)
        assert detection_efficiency(full) == pytest.approx(1.0, abs=1e-12)

    def test_angular_factor_monotone(self):
        grid = np.linspace(1e-3, math.pi / 2, 60)
        vals = [detection_angular_analytic(float(t)) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# imprecision and back-action
# ---------------------------------------------------------------------------

class TestImprecision:
    def test_paper_sensitivity(self):
        s = imprecision(84e-9, 0.021, 780e-9)
        assert math.sqrt(s) == pytest.approx(1.7e-12, rel=0.05, abs=0)
        # oracle: same expression evaluated with scipy's CODATA constants
        ref = 5 * HBAR_SI * C_SI * 780e-9 / (8 * math.pi * 0.021 * 84e-9)
        assert s == pytest.approx(ref, rel=1e-9, abs=0)

    def test_inverse_power_scaling(self):
        assert imprecision(2e-7, 0.021, 780e-9) == pytest.approx(
            imprecision(1e-7, 0.021, 780e-9) / 2, rel=1e-12, abs=0
        )

    def test_loglog_slope_is_minus_one(self):
        powers = np.logspace(-9, -6, 7)
        vals = np.array([imprecision(float(p), 0.021, 780e-9) for p in powers])
        slopes = np.diff(np.log(vals)) / np.diff(np.log(powers))
        assert np.all(np.abs(slopes + 1.0) < 1e-12)

    def test_division_errors(self):
        with pytest.raises(ZeroDivisionError):
            imprecision(0.0, 0.021, 780e-9)
        with pytest.raises(ZeroDivisionError):
            imprecision(84e-9, 0.0, 780e-9)
        for power, eta in ((-84e-9, 0.021), (84e-9, -0.021)):
            with pytest.raises(ValueError, match="must be positive"):
                imprecision(power, eta, 780e-9)
        # a NaN or infinite argument fails its range and is named
        for name, args in [("power", (math.nan, 0.021, 780e-9)), ("power", (math.inf, 0.021, 780e-9)),
                           ("eta_det", (84e-9, math.nan, 780e-9)),
                           ("wavelength", (84e-9, 0.021, math.nan)),
                           ("wavelength", (84e-9, 0.021, math.inf))]:
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                imprecision(*args)


class TestBackaction:
    def test_zero_power(self):
        assert backaction_psd(0.0, 780e-9) == 0.0
        with pytest.raises(ValueError, match="power must be >= 0"):
            backaction_psd(-1e-9, 780e-9)
        # a NaN or infinite argument fails its range and is named
        for name, args in [("power", (math.nan, 780e-9)), ("power", (math.inf, 780e-9)),
                           ("wavelength", (84e-9, math.nan)), ("wavelength", (84e-9, 0.0))]:
            with pytest.raises(ValueError, match=f"{name} must be"):
                backaction_psd(*args)

    def test_value_at_84_nw(self):
        ref = 0.8 * HBAR_SI * (2 * math.pi / 780e-9) * 84e-9 / C_SI
        got = backaction_psd(84e-9, 780e-9)
        assert got == pytest.approx(ref, rel=1e-9, abs=0)
        assert got == pytest.approx(1.9e-43, rel=0.01, abs=0)

    def test_backsolve_quoted_value(self):
        # a quoted 4e-43 N^2/Hz implies ~1.8e-7 W of scattered power
        p_implied = 4e-43 * C_SI / (0.8 * HBAR_SI * 2 * math.pi / 780e-9)
        assert p_implied == pytest.approx(1.8e-7, rel=0.03)


# ---------------------------------------------------------------------------
# fringe slope / conversion
# ---------------------------------------------------------------------------

class TestVoltsToMeters:
    """The detector output is referred to position by dividing it by the
    calibration slope ``cli._calibration_slope`` returns."""

    def test_slope_definition(self):
        assert fringe_slope(1.0, 780e-9) == pytest.approx(4 * math.pi / 780e-9, rel=1e-12)

    def test_zero_volts(self):
        # mid-fringe lock: no displacement gives no signal and no position
        cfg = ScenarioConfig.from_dict({})
        for nonlinear in (False, True):
            det = dataclasses.replace(cfg.detector, fringe_nonlinearity=nonlinear)
            volts, _ = _detector_outputs(np.zeros(8), None, np.zeros(8), None, None, cfg.setup, det)
            assert np.all(volts / cli._calibration_slope(cfg) == 0.0)

    def test_zero_slope_raises(self):
        cfg = ScenarioConfig.from_dict({"optics": {"visibility": 0.0}})
        with pytest.raises(ValueError, match="no fringe contrast"):
            cli._calibration_slope(cfg)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

class TestTypes:
    def test_na_roundtrip(self):
        setup = OpticalSetup.from_numerical_aperture(0.18)
        assert math.sin(setup.half_aperture) == pytest.approx(0.18, rel=1e-14, abs=0)

    def test_invalid_setup_rejected(self):
        with pytest.raises(ValueError):
            OpticalSetup(half_aperture=0.0)
        with pytest.raises(ValueError):
            OpticalSetup(visibility=1.2)
        for wavelength in (0.0, -780e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="wavelength must be positive"):
                OpticalSetup(wavelength=wavelength)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_unit_vector_rejected(self, bad):
        # a NaN norm compares False with any tolerance, so it is tested as
        # "not within", not as "beyond"
        with pytest.raises(ValueError, match="direction must be a unit 3-vector"):
            dipole_density((bad, 1, 0))

    def test_invalid_scatterer_rejected(self):
        with pytest.raises(ValueError):
            Scatterer(radius=0.0)
        with pytest.raises(ValueError):
            Scatterer(refractive_index=0.9)
        # a NaN or infinite field fails its range and is named
        for field, value in [("radius", math.nan), ("radius", math.inf),
                             ("refractive_index", math.nan), ("refractive_index", math.inf)]:
            with pytest.raises(ValueError, match=f"{field} must"):
                Scatterer(**{field: value})

    def test_invalid_beam_rejected(self):
        with pytest.raises(ValueError):
            Beam(power=-0.1, waist=1e-4)
        with pytest.raises(ValueError):
            Beam(power=0.1, waist=0.0)
        for field, value in [("power", math.nan), ("power", math.inf),
                             ("waist", math.nan), ("waist", math.inf),
                             ("wavelength", math.nan), ("wavelength", math.inf),
                             ("wavelength", 0.0)]:
            with pytest.raises(ValueError, match=f"{field} must"):
                Beam(**{"power": 0.1, "waist": 1e-4, field: value})

    def test_rayleigh_flag(self):
        s = Scatterer(radius=150e-9)
        assert s.is_rayleigh(780e-9)
        assert not s.is_rayleigh(200e-9)
