"""Radial normal modes of the trap potential with a feedback spring.

The position-proportional part of the feedback force, applied along the
detection axis q = (x + y)/sqrt(2), adds a coupling term (1/2) m alpha^2
(x + y)^2 to the bare radial potential.  The potential matrix becomes

    [[wx^2 + a^2,  a^2       ],
     [a^2,         wy^2 + a^2]]        (a = alpha)

whose eigenfrequencies and eigenvectors this module evaluates in closed
form, together with the rotation angle between the high-frequency mode axis
and the detection axis, the PSD projection onto that axis, mode
temperatures, and phonon occupations.

All functions are pure; dataclasses are frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B

__all__ = [
    "TrapConfig",
    "ModeSolution",
    "DETECTION_AXIS",
    "radial_modes",
    "spring_gain_from_frequencies",
    "project_psd",
    "mode_temperature",
    "phonon_occupation",
]

# Detection axis q bisects the two radial trap axes (45 degrees to each).
DETECTION_AXIS = np.array([1.0, 1.0]) / math.sqrt(2.0)


@dataclass(frozen=True)
class TrapConfig:
    """Secular trap parameters (angular frequencies in rad/s)."""

    secular_freq_x: float = 2.0 * math.pi * 2100.0
    secular_freq_y: float = 2.0 * math.pi * 3200.0
    mass: float = 2.0e-17

    def __post_init__(self):
        for name in ("secular_freq_x", "secular_freq_y"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")


@dataclass(frozen=True)
class ModeSolution:
    """Feedback-modified radial eigenmodes.

    ``freq_low``/``freq_high`` are the eigenfrequencies (rad/s, low <= high),
    ``vec_low``/``vec_high`` the unit eigenvectors in the (x, y) plane, and
    ``theta_fb`` the angle between the high-frequency mode axis and the
    detection axis, in [0, pi/4].
    """

    freq_low: float
    freq_high: float
    vec_low: np.ndarray
    vec_high: np.ndarray
    theta_fb: float
    spring_gain: float


def _unit_sign_fixed(v: np.ndarray) -> np.ndarray:
    """Normalize and fix the sign so the second component is positive (first
    component when the second vanishes)."""
    v = v / np.linalg.norm(v)
    if v[1] < 0.0 or (v[1] == 0.0 and v[0] < 0.0):
        v = -v
    return v


def radial_modes(omega_x: float, omega_y: float, alpha: float) -> ModeSolution:
    """Diagonalize the radial potential including the feedback spring.

    Closed forms:
        nu^2 = (2a^2 + wx^2 + wy^2 -/+ sqrt(4a^4 + (wx^2 - wy^2)^2)) / 2
    and eigenvectors (c, 1) with c = (nu^2 - wy^2)/a^2 - 1 for a > 0.
    At alpha = 0 the bare axes are returned.
    """
    if alpha < 0.0:
        raise ValueError("spring gain alpha must be >= 0")
    if omega_x <= 0.0 or omega_y <= 0.0:
        raise ValueError("trap frequencies must be positive")

    wx2, wy2, a2 = omega_x**2, omega_y**2, alpha**2
    root = math.sqrt(4.0 * a2 * a2 + (wx2 - wy2) ** 2)
    nu_low2 = 0.5 * (2.0 * a2 + wx2 + wy2 - root)
    nu_high2 = 0.5 * (2.0 * a2 + wx2 + wy2 + root)

    if alpha == 0.0:
        # bare trap, reproduced exactly (no sqrt(w^2) round trip)
        nu_low, nu_high = min(omega_x, omega_y), max(omega_x, omega_y)
        if wx2 <= wy2:
            vec_low, vec_high = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        else:
            vec_low, vec_high = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        cosang = abs(float(np.dot(vec_high, DETECTION_AXIS)))
        return ModeSolution(
            freq_low=nu_low,
            freq_high=nu_high,
            vec_low=vec_low,
            vec_high=vec_high,
            theta_fb=math.acos(min(1.0, cosang)),
            spring_gain=0.0,
        )
    c_low = (nu_low2 - wy2) / a2 - 1.0
    c_high = (nu_high2 - wy2) / a2 - 1.0
    vec_low = _unit_sign_fixed(np.array([c_low, 1.0]))
    vec_high = _unit_sign_fixed(np.array([c_high, 1.0]))

    cosang = abs(float(np.dot(vec_high, DETECTION_AXIS)))
    theta = math.acos(min(1.0, cosang))
    return ModeSolution(
        freq_low=math.sqrt(nu_low2),
        freq_high=math.sqrt(nu_high2),
        vec_low=vec_low,
        vec_high=vec_high,
        theta_fb=theta,
        spring_gain=alpha,
    )


def spring_gain_from_frequencies(
    nu_low: float, nu_high: float, omega_x: float, omega_y: float
) -> float:
    """Invert the trace of the potential matrix:
    alpha^2 = (nu_low^2 + nu_high^2 - wx^2 - wy^2) / 2."""
    excess = nu_low**2 + nu_high**2 - omega_x**2 - omega_y**2
    if excess < 0.0:
        raise ValueError(
            "inconsistent spectrum: measured eigenfrequencies fall below the "
            "bare trap trace (nu_low^2 + nu_high^2 < wx^2 + wy^2)"
        )
    return math.sqrt(excess / 2.0)


def project_psd(psd_low: np.ndarray, psd_high: np.ndarray, theta_fb: float) -> np.ndarray:
    """Project the two mode PSDs onto the detection axis,
    S_qq = S_low sin^2(theta) + S_high cos^2(theta), pointwise."""
    low = np.asarray(psd_low, dtype=float)
    high = np.asarray(psd_high, dtype=float)
    if low.shape != high.shape:
        raise ValueError("mode PSDs must share one frequency grid")
    s, c = math.sin(theta_fb), math.cos(theta_fb)
    return low * s * s + high * c * c


def mode_temperature(mass: float, mode_freq: float, var_q: float, theta_fb: float) -> float:
    """Mode temperature from the detected variance of that mode's peak:
    T = m nu^2 <q^2> / (kB cos^2(theta_fb)).

    The cos^2 undoes the projection of the mode motion onto the detection
    axis; theta_fb = pi/2 (mode orthogonal to the detection axis) is a
    division error.
    """
    c = math.cos(theta_fb)
    if abs(c) < 1e-12:
        raise ZeroDivisionError("mode axis orthogonal to the detection axis")
    return mass * mode_freq**2 * var_q / (K_B * c * c)


def phonon_occupation(temperature: float, omega: float) -> float:
    """Bose occupation n = 1/(exp(hbar w / kB T) - 1)."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    x = HBAR * omega / (K_B * temperature)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)
