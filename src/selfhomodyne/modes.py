"""Radial normal modes of the trap potential with a feedback spring.

The position-proportional part of the feedback force, applied along the
detection axis q = (x + y)/sqrt(2), adds a coupling term (1/2) m alpha^2
(x + y)^2 to the bare radial potential.  The potential matrix becomes

    [[wx^2 + a^2,  a^2       ],
     [a^2,         wy^2 + a^2]]        (a = alpha)

which one Jacobi rotation diagonalizes: for d = |wx^2 - wy^2| the mode axes tilt
off the trap axes by atan(t), t = 2a^2/(d + sqrt(4a^4 + d^2)), c = 1/sqrt(1 + t^2),
s = t c, and the high mode lies theta_fb = (1/2) atan2(d, 2a^2) off the detection
axis.  The low eigenvalue is the determinant over the high one,
nu_low^2 = (wx^2 wy^2 + a^2 (wx^2 + wy^2)) / nu_high^2.  The module also gives
mode temperatures and phonon occupations.

All functions are pure; dataclasses are frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import reject_bools
from .constants import HBAR, K_B

__all__ = [
    "TrapConfig",
    "ModeSolution",
    "radial_modes",
    "mode_temperature",
    "phonon_occupation",
]


@dataclass(frozen=True)
class TrapConfig:
    """Secular trap parameters (angular frequencies in rad/s)."""

    secular_freq_x: float = 2.0 * math.pi * 2100.0
    secular_freq_y: float = 2.0 * math.pi * 3200.0
    mass: float = 2.0e-17

    def __post_init__(self):
        reject_bools(**vars(self))
        for name in ("secular_freq_x", "secular_freq_y", "mass"):
            val = getattr(self, name)
            if not 0.0 < val < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {val!r}")


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


def radial_modes(omega_x: float, omega_y: float, alpha: float) -> ModeSolution:
    """Diagonalize the radial potential including the feedback spring.

    Closed forms, with d = |wx^2 - wy^2| and root = sqrt(4a^4 + d^2):
        nu_high^2 = (2a^2 + wx^2 + wy^2 + root) / 2
        nu_low^2 = det / nu_high^2,  det = wx^2 wy^2 + a^2 (wx^2 + wy^2)
    the determinant of the potential matrix over the high eigenvalue, a sum of
    positive terms where (2a^2 + wx^2 + wy^2 - root)/2 cancels at large gain.
    For a > 0 one Jacobi rotation, t = 2a^2/(d + root), c = 1/sqrt(1 + t^2),
    s = t c: the low and high modes are (-c, s) and (s, c) when wx <= wy, else
    (-s, c) and (c, s), and theta_fb = (1/2) atan2(d, 2a^2), with no digits
    lost at any gain.  At alpha = 0 the bare axes are returned, at pi/4.
    """
    reject_bools(omega_x=omega_x, omega_y=omega_y, alpha=alpha)
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"spring gain alpha must be >= 0 and finite, got {alpha!r}")
    for name, val in (("omega_x", omega_x), ("omega_y", omega_y)):
        if not 0.0 < val < math.inf:
            raise ValueError(f"trap frequency {name} must be positive and finite, got {val!r}")

    wx2, wy2, a2 = omega_x**2, omega_y**2, alpha**2
    if alpha == 0.0:
        # bare trap, reproduced exactly (no sqrt(w^2) round trip)
        nu_low, nu_high = min(omega_x, omega_y), max(omega_x, omega_y)
        vec_low, vec_high = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        if wx2 > wy2:
            vec_low, vec_high = vec_high, vec_low
        theta_fb = math.pi / 4
    else:
        root = math.sqrt(4.0 * a2 * a2 + (wx2 - wy2) ** 2)
        nu_high2 = 0.5 * (2.0 * a2 + wx2 + wy2 + root)
        nu_low = math.sqrt((wx2 * wy2 + a2 * (wx2 + wy2)) / nu_high2)
        nu_high = math.sqrt(nu_high2)
        d = abs(wx2 - wy2)
        t = 2.0 * a2 / (d + root)
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = t * c
        if wx2 > wy2:  # the high mode lies near the x axis
            c, s = s, c
        vec_low, vec_high = np.array([-c, s]), np.array([s, c])
        theta_fb = 0.5 * math.atan2(d, 2.0 * a2)
    return ModeSolution(nu_low, nu_high, vec_low, vec_high, theta_fb)


def mode_temperature(mass: float, mode_freq: float, var_q: float, theta_fb: float) -> float:
    """Mode temperature from the detected variance of that mode's peak:
    T = m nu^2 <q^2> / (kB cos^2(theta_fb)).

    The cos^2 undoes the projection of the mode motion onto the detection
    axis; theta_fb = pi/2 (mode orthogonal to the detection axis) is a
    division error.
    """
    args = {"mass": mass, "mode_freq": mode_freq, "var_q": var_q, "theta_fb": theta_fb}
    for name, val in args.items():
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val!r}")
    if not mass > 0.0:
        raise ValueError(f"mass must be > 0, got {mass!r}")
    if not var_q >= 0.0:
        raise ValueError(f"var_q must be >= 0, got {var_q!r}")
    c = math.cos(theta_fb)
    if abs(c) < 1e-12:
        raise ZeroDivisionError("mode axis orthogonal to the detection axis")
    return mass * mode_freq**2 * var_q / (K_B * c * c)


def phonon_occupation(temperature: float, omega: float) -> float:
    """Bose occupation n = 1/(exp(hbar w / kB T) - 1): the phonon number of
    a feedback-cooled mode at its temperature, as the paper quotes it for
    the 1 mK cooling limit."""
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    x = HBAR * omega / (K_B * temperature)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)
