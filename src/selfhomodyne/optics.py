"""Self-homodyne interference optics for a dipolar scatterer.

A point dipole radiates toward a collection lens of half-aperture theta_D; a
flat mirror behind a second confocal lens retro-reflects the image so the
directly scattered field interferes with its mirror image on the detector.
This module evaluates what the commands derive from that interference
signal: the mirror and particle sensitivities, the calibration deviation
between them, collection and detection efficiencies, Rayleigh scattered
power, the position-imprecision floor, and the radiation-pressure
back-action force PSD.

Conventions
-----------
* All intensities are normalized so the total dipole-radiated power is 1;
  detector-unit conversions live in the CLI's calibration slope
  (``cli._calibration_slope``) only.
* The collection cap is centered on the +z axis (the detection axis); the
  dipole is polarized along y, perpendicular to it, as ``imprecision`` assumes.
* One-sided PSDs everywhere.

All functions are pure; the dataclasses are frozen and safe to share across
threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import C, HBAR

__all__ = [
    "OpticalSetup",
    "Scatterer",
    "Beam",
    "RayleighValidityWarning",
    "mirror_sensitivity",
    "particle_sensitivity",
    "calibration_deviation",
    "collection_efficiency",
    "rayleigh_scattered_power",
    "detection_efficiency",
    "imprecision",
    "backaction_psd",
    "fringe_slope",
]


class RayleighValidityWarning(UserWarning):
    """Scatterer radius is not small compared to the wavelength; the dipole
    (Rayleigh) approximation is questionable."""


@dataclass(frozen=True)
class OpticalSetup:
    """Geometry and loss budget of the self-homodyne detection path.

    Parameters are SI.  ``half_aperture`` is the lens half-opening angle
    theta_D, with numerical aperture NA = sin(theta_D).  ``mirror_reflectivity``
    is the *field* reflectivity rho of the retro-mirror.  ``visibility``,
    ``path_efficiency`` and ``detector_qe`` are the measured interferometric
    visibility and the optical/quantum loss factors entering the detection
    efficiency.
    """

    wavelength: float = 780e-9
    half_aperture: float = math.asin(0.18)
    mirror_reflectivity: float = 1.0
    visibility: float = 0.7
    path_efficiency: float = 0.9
    detector_qe: float = 0.82

    def __post_init__(self):
        if not 0.0 < self.half_aperture <= math.pi / 2:
            raise ValueError("half_aperture must lie in (0, pi/2]")
        if not 0.0 < self.wavelength < math.inf:
            raise ValueError(f"wavelength must be positive and finite, got {self.wavelength!r}")
        for name in ("mirror_reflectivity", "visibility", "path_efficiency", "detector_qe"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")

    @classmethod
    def from_numerical_aperture(cls, na: float) -> "OpticalSetup":
        if not 0.0 < na <= 1.0:
            raise ValueError("numerical aperture must lie in (0, 1]")
        return cls(half_aperture=math.asin(na))


@dataclass(frozen=True)
class Scatterer:
    """Dielectric nanosphere treated as a point dipole."""

    radius: float = 150e-9
    refractive_index: float = 1.45

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")
        if not 1.0 < self.refractive_index < math.inf:
            raise ValueError(
                f"refractive_index must exceed 1 and be finite, got {self.refractive_index!r}"
            )

    def is_rayleigh(self, wavelength: float) -> bool:
        """True when the dipole approximation is comfortable (r < lambda/2)."""
        return self.radius < wavelength / 2.0


@dataclass(frozen=True)
class Beam:
    """Illumination beam: power, field 1/e waist radius, wavelength."""

    power: float
    waist: float
    wavelength: float = 780e-9

    def __post_init__(self):
        if not 0.0 <= self.power < math.inf:
            raise ValueError(f"power must be >= 0 and finite, got {self.power!r}")
        if not 0.0 < self.waist < math.inf:
            raise ValueError(f"waist must be positive and finite, got {self.waist!r}")
        if not 0.0 < self.wavelength < math.inf:
            raise ValueError(f"wavelength must be positive and finite, got {self.wavelength!r}")


# ---------------------------------------------------------------------------
# Cap moments
# ---------------------------------------------------------------------------

def _cap_moment(theta_d: float, k: int) -> float:
    """int_cap cos^k(theta) dp over the cap of half-aperture theta_d, with dp
    the dipole-radiated power fraction.

    The azimuthal integral is closed form, int n_y^2 dphi = pi (1 - u^2) for
    u = cos(theta), which leaves (3/8)(1 + u^2) u^k du on [c, 1],
    c = cos(theta_d), and so the moment (3/8) sum_{m = k+1, k+3} (1 - c^m)/m.
    Each 1 - c^m is (1 - c)(1 + c + ... + c^(m-1)) with 1 - c =
    2 sin^2(theta_d/2), so a small cap loses no digits to cancellation.
    """
    c = math.cos(theta_d)
    one_minus_c = 2.0 * math.sin(0.5 * theta_d) ** 2
    return 0.375 * one_minus_c * sum(sum(c**j for j in range(m)) / m for m in (k + 1, k + 3))


def _effective_wavenumber(setup: OpticalSetup) -> float:
    """Phase per particle displacement of the mid-fringe signal in the
    small-aperture limit, k_eff = (4 pi / lambda)(1 - theta_D^2/4)."""
    return (4.0 * math.pi / setup.wavelength) * (1.0 - setup.half_aperture**2 / 4.0)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def mirror_sensitivity(setup: OpticalSetup) -> float:
    """Maximum detector sensitivity to mirror displacements, 4*pi*A/lambda,
    with the fringe amplitude A = 2*rho*int_cap dp of the particle at rest
    (at q = 0 the sine moment of the cap vanishes and the cosine moment is
    the collected power)."""
    amplitude = 2.0 * setup.mirror_reflectivity * _cap_moment(setup.half_aperture, 0)
    return fringe_slope(amplitude, setup.wavelength)


def particle_sensitivity(setup: OpticalSetup) -> float:
    """Maximum detector sensitivity to particle displacements at the
    mid-fringe lock point.

    Differentiates the locked intensity under the integral sign:
    |dI/dq| = 2*rho*(4pi/lambda)*int cos(theta)*cos(...)*dp is bounded by
    its q=0 value (the cosine factor is <= 1 with equality at q=0), so the
    maximum is evaluated there.  Its small-aperture form is
    (4pi*A/lambda)(1 - theta_D^2/4).
    """
    moment = _cap_moment(setup.half_aperture, 1)
    return 2.0 * setup.mirror_reflectivity * (4.0 * math.pi / setup.wavelength) * moment


def _delta_chi(setup: OpticalSetup) -> float:
    """Relative deviation 2(chi_m - chi_p)/(chi_m + chi_p) between the mirror-ramp
    calibration slope chi_m and the particle sensitivity chi_p, with chi_m - chi_p =
    2 rho (4pi/lambda) (3/8) e^2 (1 - 2e/3 + e^2/4) in closed form for e = 1 - cos(theta_D)
    = 2 sin^2(theta_D/2).  Undefined (both chi 0) only without a mirror."""
    chi_sum = mirror_sensitivity(setup) + particle_sensitivity(setup)
    if chi_sum == 0.0:
        raise ZeroDivisionError(
            "delta_chi = 2 (chi_m - chi_p)/(chi_m + chi_p) is undefined: the mirror and "
            "particle sensitivities are both 0 because optics.mirror_field_reflectivity is 0"
        )
    e = 2.0 * math.sin(0.5 * setup.half_aperture) ** 2
    moment = 0.375 * e * e * (1.0 - 2.0 * e / 3.0 + 0.25 * e * e)
    return 4.0 * setup.mirror_reflectivity * (4.0 * math.pi / setup.wavelength) * moment / chi_sum


def calibration_deviation(numerical_aperture: float) -> float:
    """``_delta_chi`` of the default setup at the given numerical aperture:
    the paper's delta_chi(NA), which acceptance criteria 1 and 10 check."""
    if not 0.0 < numerical_aperture < 1.0:
        raise ValueError("numerical aperture must lie in (0, 1)")
    return _delta_chi(OpticalSetup.from_numerical_aperture(numerical_aperture))


def collection_efficiency(half_aperture: float) -> float:
    """Fraction of the power radiated by the dipole that a lens cap of the
    given half-aperture collects (cap axis = detection axis z)."""
    if not 0.0 <= half_aperture <= math.pi:
        raise ValueError("half_aperture must lie in [0, pi]")
    return _cap_moment(half_aperture, 0)


def rayleigh_scattered_power(beam: Beam, scatterer: Scatterer) -> float:
    """Total power scattered by a subwavelength dielectric sphere in the
    Rayleigh approximation, P = I0 * sigma with
    sigma = (8pi/3) (alpha_p k^2 / 4pi eps0)^2 and I0 = 2 P0 / (pi w0^2)."""
    if not scatterer.is_rayleigh(beam.wavelength):
        warnings.warn(
            f"radius {scatterer.radius:.3g} m is not < wavelength/2; "
            "Rayleigh cross section may be inaccurate",
            RayleighValidityWarning,
            stacklevel=2,
        )
    k = 2.0 * math.pi / beam.wavelength
    n2 = scatterer.refractive_index**2
    # alpha_p / (4 pi eps0) = r^3 (n^2-1)/(n^2+2); eps0 cancels in sigma.
    alpha_red = scatterer.radius**3 * (n2 - 1.0) / (n2 + 2.0)
    sigma = (8.0 * math.pi / 3.0) * (alpha_red * k * k) ** 2
    intensity = 2.0 * beam.power / (math.pi * beam.waist**2)
    return intensity * sigma


def detection_efficiency(setup: OpticalSetup) -> float:
    """Overall detection efficiency: visibility^2 times path and quantum
    losses times the aperture factor 5 int_cap cos^2(theta) dp
    = (8 - 5 c^3 - 3 c^5)/8, c = cos(theta_D)."""
    angular = 5.0 * _cap_moment(setup.half_aperture, 2)
    return setup.visibility**2 * setup.path_efficiency * setup.detector_qe * angular


def imprecision(power: float, eta_det: float, wavelength: float) -> float:
    """One-sided position-imprecision PSD of the calibrated signal along the
    detection axis, S_imp = 5 hbar c lambda / (8 pi eta_det P)  [m^2/Hz]."""
    if power == 0.0 or eta_det == 0.0:
        raise ZeroDivisionError("power and detection efficiency must be nonzero")
    for name, val in (("power", power), ("eta_det", eta_det), ("wavelength", wavelength)):
        if not 0.0 < val < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {val!r}")
    return 5.0 * HBAR * C * wavelength / (8.0 * math.pi * eta_det * power)


def backaction_psd(power: float, wavelength: float) -> float:
    """One-sided radiation-pressure shot-noise force PSD,
    S_BA = (4/5) hbar k P / c  [N^2/Hz]."""
    if not 0.0 <= power < math.inf:
        raise ValueError(f"power must be >= 0 and finite, got {power!r}")
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength!r}")
    k = 2.0 * math.pi / wavelength
    return 0.8 * HBAR * k * power / C


def fringe_slope(fringe_amplitude: float, wavelength: float) -> float:
    """Maximum fringe slope S = 4*pi*A/lambda; with A in detector units this
    is the volts-per-meter calibration factor."""
    return 4.0 * math.pi * fringe_amplitude / wavelength
