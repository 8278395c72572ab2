"""Self-homodyne interference optics for a dipolar scatterer.

A point dipole radiates toward a collection lens of half-aperture theta_D; a
flat mirror behind a second confocal lens retro-reflects the image so the
directly scattered field interferes with its mirror image on the detector.
This module evaluates that interference signal and everything derived from
it: fringe amplitude/phase, mirror and particle sensitivities, the
calibration deviation between them, collection and detection efficiencies,
Rayleigh scattered power, the position-imprecision floor, and the
radiation-pressure back-action force PSD.

Conventions
-----------
* All intensities are normalized so the total dipole-radiated power is 1;
  detector-unit conversions live in :func:`volts_to_meters` only.
* The collection cap is centered on the +z axis (the detection axis), the
  illumination polarization is perpendicular to it (y by default).
* One-sided PSDs everywhere.

All functions are pure; the dataclasses are frozen and safe to share across
threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import C, HBAR

__all__ = [
    "OpticalSetup",
    "Scatterer",
    "Beam",
    "FringeState",
    "OutOfLinearRangeWarning",
    "RayleighValidityWarning",
    "dipole_density",
    "fringe_state",
    "interference_intensity",
    "mirror_sensitivity",
    "particle_sensitivity",
    "calibration_deviation",
    "collection_efficiency",
    "rayleigh_scattered_power",
    "total_power_from_collected",
    "detection_efficiency",
    "imprecision",
    "backaction_psd",
    "fringe_slope",
    "volts_to_meters",
]

_Y_AXIS = (0.0, 1.0, 0.0)


class OutOfLinearRangeWarning(UserWarning):
    """Displacement estimate exceeds a quarter wavelength: the linear
    volts-to-meters conversion is no longer valid."""


class RayleighValidityWarning(UserWarning):
    """Scatterer radius is not small compared to the wavelength; the dipole
    (Rayleigh) approximation is questionable."""


def _as_unit_vector(v, name: str, tol: float = 1e-8) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"{name} must be a unit vector (|{name}| = {norm:.6g})")
    return arr


@dataclass(frozen=True)
class OpticalSetup:
    """Geometry and loss budget of the self-homodyne detection path.

    Parameters are SI.  ``half_aperture`` is the lens half-opening angle
    theta_D, with numerical aperture NA = sin(theta_D).  ``mirror_reflectivity``
    is the *field* reflectivity rho of the retro-mirror.  ``visibility``,
    ``path_efficiency`` and ``detector_qe`` are the measured interferometric
    visibility and the optical/quantum loss factors entering the detection
    efficiency.  ``focal_length`` + ``mirror_distance`` set the one-way
    optical path R_s from the focus to the mirror.
    """

    wavelength: float = 780e-9
    half_aperture: float = math.asin(0.18)
    mirror_reflectivity: float = 1.0
    visibility: float = 0.7
    path_efficiency: float = 0.9
    detector_qe: float = 0.82
    focal_length: float = 0.05
    mirror_distance: float = 0.10
    polarization_axis: tuple = _Y_AXIS

    def __post_init__(self):
        if not 0.0 < self.half_aperture <= math.pi / 2:
            raise ValueError("half_aperture must lie in (0, pi/2]")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        for name in ("mirror_reflectivity", "visibility", "path_efficiency", "detector_qe"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        if self.focal_length + self.mirror_distance < 0.0:
            raise ValueError("optical path focal_length + mirror_distance must be >= 0")
        eps = np.asarray(self.polarization_axis, dtype=float)
        if eps.shape != (3,) or abs(np.linalg.norm(eps) - 1.0) > 1e-12:
            raise ValueError("polarization_axis must be a unit 3-vector (tol 1e-12)")
        object.__setattr__(self, "polarization_axis", tuple(float(x) for x in eps))

    @property
    def numerical_aperture(self) -> float:
        return math.sin(self.half_aperture)

    @classmethod
    def from_numerical_aperture(cls, na: float, **kwargs) -> "OpticalSetup":
        if not 0.0 < na <= 1.0:
            raise ValueError("numerical aperture must lie in (0, 1]")
        return cls(half_aperture=math.asin(na), **kwargs)

    @property
    def optical_path(self) -> float:
        """One-way path R_s = focal_length + mirror_distance [m]."""
        return self.focal_length + self.mirror_distance


@dataclass(frozen=True)
class Scatterer:
    """Dielectric nanosphere treated as a point dipole."""

    radius: float = 150e-9
    refractive_index: float = 1.45

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.refractive_index <= 1.0:
            raise ValueError("refractive_index must exceed 1")

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
        if self.power < 0.0:
            raise ValueError("power must be >= 0")
        if self.waist <= 0.0:
            raise ValueError("waist must be positive")


@dataclass(frozen=True)
class FringeState:
    """Fringe amplitude/phase of the interference term at one scatterer
    displacement: amplitude A = 2*rho*sqrt(a^2+b^2), phase = atan2(b, a),
    with (a, b) the cosine/sine moments of the dipole pattern over the cap."""

    amplitude: float
    phase: float
    cos_moment: float
    sin_moment: float


# ---------------------------------------------------------------------------
# Cap quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(64)


def _cap_weights(theta_d: float, eps) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u = cos(theta) on the cap [cos(theta_d), 1] and weights w with
    sum(w * f(u)) = int_cap f(cos(theta)) * (dipole density) dOmega.

    The azimuthal integral is closed form,
        int (eps.n)^2 dphi = pi s^2 (eps_x^2 + eps_y^2) + 2 pi eps_z^2 u^2,
    with s^2 = 1 - u^2, which leaves a smooth 1-D integral over u.  One
    fixed 64-node Gauss-Legendre rule resolves it to rounding for every f
    used here: polynomials of low degree and cos/sin(k u) with |k| < 4 pi.
    """
    lo = math.cos(theta_d)
    u = 0.5 * (1.0 - lo) * _GL_NODES + 0.5 * (1.0 + lo)
    ex, ey, ez = eps
    dot2 = math.pi * (1.0 - u * u) * (ex * ex + ey * ey) + 2.0 * math.pi * ez * ez * u * u
    density = (3.0 / (8.0 * math.pi)) * (2.0 * math.pi - dot2)
    return u, 0.5 * (1.0 - lo) * _GL_WEIGHTS * density


def _effective_wavenumber(setup: OpticalSetup) -> float:
    """Phase per particle displacement of the mid-fringe signal in the
    small-aperture limit, k_eff = (4 pi / lambda)(1 - theta_D^2/4)."""
    return (4.0 * math.pi / setup.wavelength) * (1.0 - setup.half_aperture**2 / 4.0)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def dipole_density(direction, polarization) -> float:
    """Dipole-radiated power per unit solid angle along ``direction`` for a
    dipole oscillating along ``polarization``: (3/8pi)(1 - |eps.n|^2).

    Integrates to 1 over the full sphere.  Both inputs must be unit vectors.
    """
    n = _as_unit_vector(direction, "direction")
    eps = _as_unit_vector(polarization, "polarization")
    dot = float(np.dot(eps, n))
    return (3.0 / (8.0 * math.pi)) * (1.0 - dot * dot)


def fringe_state(setup: OpticalSetup, q: float) -> FringeState:
    """Fringe amplitude and phase for a scatterer displaced by q along the
    detection axis.

    The cosine/sine moments are
        a = int_cap cos((4pi/lambda) q cos(theta)) dp
        b = int_cap sin((4pi/lambda) q cos(theta)) dp
    over the collection cap, weighted by the dipole pattern, and
    A = 2*rho*sqrt(a^2 + b^2), phase = atan2(b, a).
    """
    if abs(q) >= setup.wavelength:
        raise ValueError("displacement must satisfy |q| < wavelength")
    u, w = _cap_weights(setup.half_aperture, setup.polarization_axis)
    k2 = 4.0 * math.pi / setup.wavelength
    a = float(w @ np.cos(k2 * q * u))
    b = float(w @ np.sin(k2 * q * u))
    rho = setup.mirror_reflectivity
    return FringeState(
        amplitude=2.0 * rho * math.hypot(a, b),
        phase=math.atan2(b, a),
        cos_moment=a,
        sin_moment=b,
    )


def interference_intensity(setup: OpticalSetup, q: float, optical_path: float | None = None) -> float:
    """Varying part of the normalized detector intensity,
    I = -A cos(4pi R_s / lambda + phase); the full intensity is I + 1 + rho^2.
    """
    rs = setup.optical_path if optical_path is None else optical_path
    state = fringe_state(setup, q)
    return -state.amplitude * math.cos(4.0 * math.pi * rs / setup.wavelength + state.phase)


def mirror_sensitivity(setup: OpticalSetup, q: float = 0.0) -> float:
    """Maximum detector sensitivity to mirror displacements, 4*pi*A/lambda,
    with the fringe amplitude evaluated at the operating displacement q."""
    return fringe_slope(fringe_state(setup, q).amplitude, setup.wavelength)


def particle_sensitivity(setup: OpticalSetup, mode: str = "exact") -> float:
    """Maximum detector sensitivity to particle displacements at the
    mid-fringe lock point.

    exact:     differentiate the locked intensity under the integral sign;
               |dI/dq| = 2*rho*(4pi/lambda)*int cos(theta)*cos(...)*dp is
               bounded by its q=0 value (the cosine factor is <= 1 with
               equality at q=0), so the maximum is evaluated there.
    expansion: small-aperture form (4pi*A/lambda)(1 - theta_D^2/4).
    """
    if mode == "exact":
        u, w = _cap_weights(setup.half_aperture, setup.polarization_axis)
        return 2.0 * setup.mirror_reflectivity * (4.0 * math.pi / setup.wavelength) * float(w @ u)
    if mode == "expansion":
        return fringe_state(setup, 0.0).amplitude * _effective_wavenumber(setup)
    raise ValueError(f"unknown mode {mode!r}; use 'exact' or 'expansion'")


def calibration_deviation(numerical_aperture: float) -> float:
    """Relative deviation between the mirror-ramp calibration slope and the
    true particle sensitivity, 2(chi_m - chi_p)/(chi_m + chi_p), with the
    exact-mode chi_p."""
    if not 0.0 < numerical_aperture < 1.0:
        raise ValueError("numerical aperture must lie in (0, 1)")
    setup = OpticalSetup.from_numerical_aperture(numerical_aperture)
    chi_m = mirror_sensitivity(setup)
    chi_p = particle_sensitivity(setup, mode="exact")
    return 2.0 * (chi_m - chi_p) / (chi_m + chi_p)


def collection_efficiency(half_aperture: float, polarization=_Y_AXIS) -> float:
    """Fraction of the dipole-radiated power collected by a lens cap of the
    given half-aperture (cap axis = detection axis z)."""
    if half_aperture == 0.0:
        return 0.0
    if not 0.0 < half_aperture <= math.pi:
        raise ValueError("half_aperture must lie in [0, pi]")
    _, w = _cap_weights(half_aperture, _as_unit_vector(polarization, "polarization"))
    return float(w.sum())


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


def total_power_from_collected(collected_power: float, col_efficiency: float) -> float:
    """Total scattered power inferred from the collected fraction."""
    if col_efficiency == 0.0:
        raise ZeroDivisionError("collection efficiency is zero")
    return collected_power / col_efficiency


def detection_efficiency(setup: OpticalSetup) -> float:
    """Overall detection efficiency: visibility^2 times path and quantum
    losses times the aperture factor
    (128 - 90 cos(t) - 35 cos(3t) - 3 cos(5t))/128."""
    t = setup.half_aperture
    angular = (
        128.0 - 90.0 * math.cos(t) - 35.0 * math.cos(3.0 * t) - 3.0 * math.cos(5.0 * t)
    ) / 128.0
    return setup.visibility**2 * setup.path_efficiency * setup.detector_qe * angular


def imprecision(
    power: float, eta_det: float, wavelength: float, projection_factor: float = 1.0
) -> float:
    """One-sided position-imprecision PSD of the calibrated signal,
    S_imp = g * 5 hbar c lambda / (8 pi eta_det P)  [m^2/Hz].

    g = 1 along the detection axis; g = 1/cos^2(angle) when referring the
    measurement to a motional axis at an angle (2 at 45 degrees).
    """
    if power == 0.0 or eta_det == 0.0:
        raise ZeroDivisionError("power and detection efficiency must be nonzero")
    if power < 0.0 or eta_det < 0.0:
        raise ValueError("power and detection efficiency must be positive")
    if projection_factor < 1.0:
        raise ValueError("projection_factor must be >= 1")
    return projection_factor * 5.0 * HBAR * C * wavelength / (8.0 * math.pi * eta_det * power)


def backaction_psd(power: float, wavelength: float) -> float:
    """One-sided radiation-pressure shot-noise force PSD,
    S_BA = (4/5) hbar k P / c  [N^2/Hz]."""
    if power < 0.0:
        raise ValueError("power must be >= 0")
    k = 2.0 * math.pi / wavelength
    return 0.8 * HBAR * k * power / C


def fringe_slope(fringe_amplitude: float, wavelength: float) -> float:
    """Maximum fringe slope S = 4*pi*A/lambda; with A in detector units this
    is the volts-per-meter calibration factor."""
    return 4.0 * math.pi * fringe_amplitude / wavelength


def volts_to_meters(volts, slope_volts_per_meter: float, wavelength: float | None = None):
    """Convert a detector series to displacement via the fringe slope.

    Valid only in the linear regime; if the converted excursion approaches a
    quarter wavelength an OutOfLinearRangeWarning is emitted.
    """
    if slope_volts_per_meter == 0.0:
        raise ZeroDivisionError("calibration slope is zero")
    q = np.asarray(volts, dtype=float) / slope_volts_per_meter
    if wavelength is not None and q.size and float(np.max(np.abs(q))) > wavelength / 4.0:
        warnings.warn(
            "converted displacement exceeds lambda/4; outside the linear fringe range",
            OutOfLinearRangeWarning,
            stacklevel=2,
        )
    if np.isscalar(volts):
        return float(q)
    return q
