"""Stochastic time-domain simulation of the trapped particle's radial motion
and of the interferometric detector watching it.

The two radial degrees of freedom obey

    m x_i'' = -m w_i^2 x_i - m gamma x_i' + F_th,i + F_ba,i + F_fb,i

with independent white thermal and back-action forces of the configured
one-sided PSDs.  The feedback force acts along the detection axis
q = (x + y)/sqrt(2) (or the orthogonal axis p for the forward channel) and
contains a viscous term -m*gamma_fb*dq_meas/dt and a spring term
-2 m alpha^2 q_meas; the factor 2 makes the per-axis spring coupling
-m alpha^2 (x + y), i.e. exactly the potential matrix diagonalized by
``modes.radial_modes``.  q_meas is the detector-derived position including
imprecision noise and, optionally, the sinusoidal fringe response.

One detector model, ``_detector_outputs``, maps each block of recorded
motion to the self-homodyne and forward channels; the per-step loop computes
only the motion and the feedback measurement.  A run that stores the
self-homodyne channel alone (``self_from``) forms no forward channel.

Integrator: per step, external forces (feedback, back-action) enter as an
impulse, then a half-step of exact damping+thermal Ornstein-Uhlenbeck, an
exact harmonic rotation, and a second OU half-step.  In the noiseless
open-loop limit the map is the exact oscillator propagator; with the bath on,
the discrete stationary position and velocity variances of the thermal
oscillator are exact for any dt (fixed point of the O/2-R-O/2 map), so
equipartition holds without dt extrapolation.  The step is written once,
in ``_StepMap``; a block of steps runs as the exact chunked scan ``_scan`` of
its linear map, or as the scalar loop when the feedback loop sees the fringe
nonlinearity.  ``simulate``'s block loop draws each block's inputs, 8
normals per step from one generator.

Runs are deterministic: (config, seed) -> bit-identical Trajectory.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import modes
from ._checks import reject_bools
from .constants import K_B
from .optics import OpticalSetup, _effective_wavenumber, fringe_slope

__all__ = [
    "Bath",
    "FeedbackConfig",
    "DetectorModel",
    "Trajectory",
    "CalibrationResult",
    "gas_damping_rate",
    "thermal_force_psd",
    "simulate",
    "run_calibration",
]

_INVSQ2 = 1.0 / math.sqrt(2.0)
# steps per block of the scan: what a run holds besides its outputs, two
# 1 MB input slots and a ~1.6 MB workspace, is set by this, not by its length
_BLOCK = 1 << 14
# the block of a loop that runs the scalar loop: its per-step Python float
# lists and its one input slot are bounded by this, not by _BLOCK
_SUB_BLOCK = 1 << 12

# a loop is unstable when the spectral radius of its one-step map exceeds 1
# by more than this: an undamped oscillator's |lambda| = 1 comes out within
# rounding of 1, while the delayed spring loops that do grow sit >= 1e-6 above
_RHO_TOL = 1e-9

# default forward-channel noise floor sits 38 dB above the self-homodyne one
_FORWARD_DB = 38.0

# one-way path R_s from the focus to the mirror where a ramp starts [m]: it
# only sets where on the fringe the ramp starts, and no output depends on it
_RAMP_START_PATH = 0.15


@dataclass(frozen=True)
class Bath:
    """Background gas: pressure, temperature, and the measured damping anchor
    through which gamma(p) = gamma_ref * p / p_ref scales linearly."""

    pressure: float = 2e-8          # [mbar]
    temperature: float = 300.0      # [K]
    damping_anchor: tuple = (1e-2, 2.0 * math.pi * 4.3)  # (mbar, rad/s)

    def __post_init__(self):
        reject_bools(**vars(self))
        for name in ("pressure", "temperature"):
            val = getattr(self, name)
            if not 0.0 <= val < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {val!r}")
        p_ref, g_ref = self.damping_anchor
        if not (0.0 < p_ref < math.inf and 0.0 < g_ref < math.inf):
            raise ValueError(
                f"damping anchor must be positive and finite, got {self.damping_anchor!r}"
            )


@dataclass(frozen=True)
class FeedbackConfig:
    """Feedback loop: viscous gain, spring gain, loop delay, filter band, and
    which detector channel drives the loop."""

    cooling_rate: float = 0.0       # [rad/s], gain of the dq/dt term
    spring_gain: float = 0.0        # [rad/s], alpha of the spring term
    loop_delay: float = 0.0         # [s]
    filter_band: tuple = (300.0, 6400.0)  # [Hz]
    source_channel: str = "self-homodyne"

    def __post_init__(self):
        reject_bools(**vars(self))
        for name in ("cooling_rate", "spring_gain", "loop_delay"):
            val = getattr(self, name)
            if not 0.0 <= val < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {val!r}")
        lo, hi = self.filter_band
        if not 0.0 <= lo < hi < math.inf:
            raise ValueError(
                f"filter_band must satisfy 0 <= f_lo < f_hi < inf, got {self.filter_band!r}"
            )
        if self.source_channel not in ("self-homodyne", "forward"):
            raise ValueError("source_channel must be 'self-homodyne' or 'forward'")

    @property
    def engaged(self) -> bool:
        return self.cooling_rate > 0.0 or self.spring_gain > 0.0


@dataclass(frozen=True)
class DetectorModel:
    """Detector channels and mirror servo mode.

    ``imprecision_self``/``imprecision_forward`` are position-referred noise
    floors [m^2/Hz] (0 = ideal detector; the forward default sits 38 dB above
    the self-homodyne floor).  ``mirror_mode`` is "locked" or "ramp", and
    ``ramp_rate`` [m/s] the mirror speed in ramp mode; ``_detector_outputs``
    is the model.  The self-homodyne channel is in units of the normalized
    intensity: every number reported from it is a position, the channel
    divided by the fringe slope, in which any detector gain would cancel.
    The forward channel is already a position [m], p plus its imprecision
    noise, and is read as it is.
    """

    imprecision_self: float = 3.0e-24
    imprecision_forward: float | None = None
    fringe_nonlinearity: bool = False
    mirror_mode: str = "locked"
    ramp_rate: float = 2e-6

    def __post_init__(self):
        reject_bools(
            imprecision_self=self.imprecision_self,
            imprecision_forward=self.imprecision_forward,
            ramp_rate=self.ramp_rate,
        )
        if not 0.0 <= self.imprecision_self < math.inf:
            raise ValueError(
                f"imprecision_self must be >= 0 and finite, got {self.imprecision_self!r}"
            )
        if not isinstance(self.fringe_nonlinearity, (bool, np.bool_)):
            raise ValueError(
                f"fringe_nonlinearity must be a bool, got {self.fringe_nonlinearity!r}"
            )
        if self.mirror_mode not in ("locked", "ramp"):
            raise ValueError("mirror_mode must be 'locked' or 'ramp'")
        if not 0.0 < self.ramp_rate < math.inf:
            raise ValueError(f"ramp_rate must be > 0 and finite, got {self.ramp_rate!r}")
        if self.imprecision_forward is None:
            object.__setattr__(
                self, "imprecision_forward", self.imprecision_self * 10 ** (_FORWARD_DB / 10.0)
            )
        elif not 0.0 <= self.imprecision_forward < math.inf:
            raise ValueError(
                f"imprecision_forward must be >= 0 and finite, got {self.imprecision_forward!r}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled simulation record.  All series share one grid;
    sample k sits at t = k*dt.

    The detection-axis displacement ``q`` = (x + y)/sqrt(2) is derived from
    x and y, not stored.  A record of ``simulate(..., self_from=n0)`` stores
    ``volts_self`` from step n0 on alone, so its sample k sits at
    t = (n0 + k)*dt; x, y and ``volts_fwd`` are None, and ``lock_lost``
    still covers every step.
    """

    dt: float
    x: np.ndarray | None
    y: np.ndarray | None
    volts_self: np.ndarray
    volts_fwd: np.ndarray | None
    lock_lost: bool = False
    self_from: int | None = None

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")

    @property
    def q(self) -> np.ndarray:
        if self.x is None:
            raise ValueError(
                f"q needs x and y, which a record simulated with self_from = {self.self_from} "
                "does not store"
            )
        return (self.x + self.y) * _INVSQ2

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt


@dataclass(frozen=True)
class CalibrationResult:
    """Fringe-scan calibration output."""

    volts_per_meter: float
    fringe_amplitude_volts: float
    fringe_frequency_hz: float
    fringes_covered: float
    offset_volts: float = 0.0

    @property
    def visibility(self) -> float:
        """Fringe contrast, amplitude over DC level."""
        if self.offset_volts == 0.0:
            return 0.0
        return self.fringe_amplitude_volts / self.offset_volts


def gas_damping_rate(bath: Bath) -> float:
    """Gas damping rate, linear in pressure through the measured anchor."""
    p_ref, g_ref = bath.damping_anchor
    return g_ref * bath.pressure / p_ref


def thermal_force_psd(bath: Bath, mass: float) -> float:
    """One-sided thermal force PSD, S = 4 kB T gamma m  [N^2/Hz]."""
    return 4.0 * K_B * bath.temperature * gas_damping_rate(bath) * mass


def _white_scale(psd_level: float, dt: float) -> float:
    """Standard deviation of the samples, one per dt, of white noise whose
    one-sided PSD is ``psd_level``: sqrt(psd/(2 dt))."""
    return math.sqrt(psd_level / (2.0 * dt))


def _effective_visibility(setup: OpticalSetup) -> float:
    """Fringe contrast of the detected signal: ideal two-field contrast
    2 rho/(1+rho^2) times the measured visibility."""
    rho = setup.mirror_reflectivity
    return setup.visibility * 2.0 * rho / (1.0 + rho * rho)


def _detector_outputs(q, p, nu_self, nu_fwd, t, setup: OpticalSetup, detector: DetectorModel):
    """The detector model: map the detection-axis and orthogonal
    displacements q and p [m], the position-referred imprecision noise of
    each channel [m] and the sample times t [s] (read in ramp mode only) to
    (volts_self, volts_fwd).

    Locked mode: the mirror sits on a mid-fringe point, R_s = (lambda/8)(2n+1)
    with n even, and the signal is S * (q + nu_self), S = V_eff * k_eff, with
    q replaced by sin(k_eff q)/k_eff under ``fringe_nonlinearity``.  Ramp
    mode: the raw fringe 1 - V_eff cos(4 pi (R_s + r t)/lambda + k_eff q) as
    the mirror advances at r = ``ramp_rate`` from the path
    R_s = ``_RAMP_START_PATH``, plus S * nu_self.  The forward channel reads
    p + nu_fwd in both modes; it is None when p is.
    """
    v_eff = _effective_visibility(setup)
    k_eff = _effective_wavenumber(setup)
    slope = v_eff * k_eff
    volts_fwd = None if p is None else p + nu_fwd
    if detector.mirror_mode == "locked":
        meas = np.sin(k_eff * q) / k_eff if detector.fringe_nonlinearity else q
        return slope * (meas + nu_self), volts_fwd
    # float64 resolves the ~2.4e6 rad start phase only to ~5e-10 rad: wrap it
    # once, so the phase keeps the precision of q; the ramp term, 6 pi over a
    # commanded three-fringe scan, is small enough to need no wrap
    k_mirror = 4.0 * math.pi / setup.wavelength
    start = math.fmod(k_mirror * _RAMP_START_PATH, 2.0 * math.pi)
    phase = start + k_mirror * detector.ramp_rate * t + k_eff * q
    return (1.0 - v_eff * np.cos(phase)) + slope * nu_self, volts_fwd


class _StepMap:
    """One integrator step, written once.

    The state s is x, vx, y, vy and, while the loop is engaged, its
    high-pass and low-pass filter states, the last delayed sample and the
    n-sample delay line (oldest first).  The inputs u of a step are the rows
    of an (n, 8) array: two OU kicks per axis (x, x, y, y, unit normals), the
    back-action force per axis [N] and the imprecision noise of the self and
    the forward channel [m], each a scaled normal.

    ``run`` is the scalar loop.  The linear map s' = A s + B u is probed from
    it with unit vectors; for a loop that sees the fringe nonlinearity it is
    the linearization at q = 0.
    """

    def __init__(
        self, trap: modes.TrapConfig, bath: Bath, feedback: FeedbackConfig, detector: DetectorModel,
        setup: OpticalSetup, dt: float, backaction_force_psd: float,
    ):
        mass = trap.mass
        self.dt = dt
        self.dt_over_m = dt / mass
        self.wx, self.wy = trap.secular_freq_x, trap.secular_freq_y

        # thermal / damping half-step factors (exact OU); sigma_v is also the
        # thermal velocity spread of the initial draw
        gamma = gas_damping_rate(bath)
        self.sigma_v = math.sqrt(K_B * bath.temperature / mass)
        self.a_half = math.exp(-gamma * dt / 2.0)
        self.ou_std = self.sigma_v * math.sqrt(-math.expm1(-gamma * dt))

        # rotation constants (exact harmonic propagator)
        self.cx, self.sx = math.cos(self.wx * dt), math.sin(self.wx * dt)
        self.cy, self.sy = math.cos(self.wy * dt), math.sin(self.wy * dt)

        # white-force and imprecision sample scales
        sigma_ba = _white_scale(backaction_force_psd, dt)
        self.normal_scale = np.array([
            1.0, 1.0, 1.0, 1.0, sigma_ba, sigma_ba,
            _white_scale(detector.imprecision_self, dt),
            _white_scale(detector.imprecision_forward, dt),
        ])

        # feedback loop: it measures (x + sgn*y)/sqrt(2) (q for the self
        # channel, p for the forward one) and pushes along the same axis;
        # only the self-homodyne channel sees the fringe
        self.fb_on = feedback.engaged
        forward = feedback.source_channel == "forward"
        self.sgn = -1.0 if forward else 1.0
        self.nu_col = 7 if forward else 6
        self.k_eff = _effective_wavenumber(setup)
        self.nonlin = self.fb_on and detector.fringe_nonlinearity and not forward
        self.m_gfb = mass * feedback.cooling_rate
        self.spring = 2.0 * mass * feedback.spring_gain**2
        f_lo, f_hi = feedback.filter_band
        self.r_hp = math.exp(-2.0 * math.pi * f_lo * dt)
        self.a_lp = math.exp(-2.0 * math.pi * f_hi * dt)
        self.b_lp = 1.0 - self.a_lp
        self.n_delay = int(round(feedback.loop_delay / dt))
        self.n_state = 4 + (3 + self.n_delay if self.fb_on else 0)

        d = self.n_state
        ab = np.array([self.run(e[:d], e[None, d:], linear=True)[2] for e in np.eye(d + 8)]).T
        self.A, self.B = ab[:, :d], ab[:, d:]
        # the scan skips inputs that are zero (a scale of 0) or move nothing
        self.live = [k for k in range(8) if self.normal_scale[k] != 0.0 and self.B[:, k].any()]
        self.ab = np.concatenate((self.A, self.B[:, self.live]), axis=1)
        self._work = None

    def draw_inputs(self, rng, buf: np.ndarray) -> np.ndarray:
        """The inputs of the next ``len(buf)`` steps, drawn into the (n, 8)
        buffer ``buf`` in one call and scaled in place: 8 normals per step,
        the last four scaled to force and imprecision.  Returns ``buf``."""
        return np.multiply(rng.standard_normal(out=buf), self.normal_scale, out=buf)

    def propagate(self, state, inputs):
        """Advance ``state`` over the rows of ``inputs``: the scalar loop when
        the loop sees the fringe nonlinearity, else the exact scan of the
        linear map.  Returns the x and y at the start of each step and the
        end state."""
        if self.nonlin:
            return self.run(state, inputs)
        n = inputs.shape[0]
        if self._work is None or self._work[0] != n:
            self._work = (n, *self._workspace(n))
        _, w, a_pow, a_end, rows_pow = self._work
        # w[l, d + j, c] = live input j at step l of chunk c, one strided
        # copy per input; the padding after step n stays zero
        d, L = self.n_state, w.shape[0] - 1
        c_full, tail = divmod(n, L)
        for j, k in enumerate(self.live):
            w[:L, d + j, :c_full] = inputs[: c_full * L, k].reshape(c_full, L).T
            if tail:
                w[:tail, d + j, c_full] = inputs[c_full * L :, k]
        return _scan(self.ab, a_pow, a_end, rows_pow, state, w, n)

    def _workspace(self, n: int):
        """The scan workspace for blocks of n steps: chunks of L ~ sqrt(n)
        steps, w (L + 1, d + live inputs, C chunks) zeroed, A^L, the power
        A^(l_end) that reaches the end state within the last chunk, and rows
        0 and 2 (x and y) of A^l for l < L."""
        d, A = self.n_state, self.A
        L = math.isqrt(n)
        C = -(-n // L)
        w = np.zeros((L + 1, self.ab.shape[1], C))
        rows_pow = np.empty((2, d, L))
        rows = np.eye(d)[[0, 2]]
        for l in range(L):
            rows_pow[:, :, l] = rows
            rows = rows @ A
        l_end = n - (n - 1) // L * L
        return w, np.linalg.matrix_power(A, L), np.linalg.matrix_power(A, l_end), rows_pow

    def run(self, state, inputs, linear: bool = False):
        """The scalar loop (see ``propagate``); ``linear`` drops the fringe
        from the loop's measurement."""
        dt, dt_over_m, a_half, ou_std = self.dt, self.dt_over_m, self.a_half, self.ou_std
        wx, wy, cx, sx, cy, sy = self.wx, self.wy, self.cx, self.sx, self.cy, self.sy
        inv_wx, inv_wy = 1.0 / wx, 1.0 / wy
        fb_on, sgn, k_eff = self.fb_on, self.sgn, self.k_eff
        nonlin = self.nonlin and not linear
        m_gfb, spring, r_hp, a_lp, b_lp = self.m_gfb, self.spring, self.r_hp, self.a_lp, self.b_lp
        sin = math.sin

        x, vx, y, vy, *loop = (float(v) for v in state)
        g1x, g2x, g1y, g2y, gbx, gby = inputs[:, :6].T.tolist()
        if fb_on:
            hp, vf, prev, *line = loop
            # delay line: append the new measurement, pop the oldest
            line = deque(line)
            push, pop = line.append, line.popleft
            nu = inputs[:, self.nu_col].tolist()
        n = inputs.shape[0]
        xs = [0.0] * n
        ys = [0.0] * n

        for k in range(n):
            xs[k] = x
            ys[k] = y

            # feedback force along the loop axis; the damping path uses the
            # band-limited differentiator, the spring path the raw delayed
            # measurement (a low-pass lag on a spring force anti-damps the
            # modes at rate ~2 alpha^2/w_corner and would blow up any weakly
            # damped run)
            if fb_on:
                q = (x + sgn * y) * _INVSQ2
                push((sin(k_eff * q) / k_eff if nonlin else q) + nu[k])
                delayed = pop()
                hp_new = r_hp * (hp + delayed - prev)
                vf = a_lp * vf + b_lp * (hp_new - hp) / dt
                hp, prev = hp_new, delayed
                u = -(m_gfb * vf + spring * delayed)
            else:
                u = 0.0

            uax = u * _INVSQ2
            fx = gbx[k] + uax
            fy = gby[k] + sgn * uax

            # kick
            vx += dt_over_m * fx
            vy += dt_over_m * fy
            # OU half, exact rotation, OU half
            vx = a_half * vx + ou_std * g1x[k]
            vy = a_half * vy + ou_std * g1y[k]
            x, vx = x * cx + vx * inv_wx * sx, -x * wx * sx + vx * cx
            y, vy = y * cy + vy * inv_wy * sy, -y * wy * sy + vy * cy
            vx = a_half * vx + ou_std * g2x[k]
            vy = a_half * vy + ou_std * g2y[k]

        end = [x, vx, y, vy] + ([hp, vf, prev, *line] if fb_on else [])
        return np.array(xs), np.array(ys), end


def _scan(ab, a_pow, a_end, rows_pow, state, w, n):
    """Propagate s' = A s + B u, ``ab`` = [A | B], from ``state`` over n
    steps whose live inputs are laid out in the workspace ``w`` (L + 1,
    d + inputs, C chunks of L steps), vectorized across the chunks: (1) one
    matmul per step gives the zero-start response of every chunk, (2) a
    sequential carry of the chunk starts s_c through ``a_pow`` = A^L, (3)
    by superposition the x and y at step l of chunk c are the zero-start
    response plus rows 0 and 2 of A^l (``rows_pow``) times s_c, and the end
    state is ``a_end`` s_c plus the zero-start response at the end of the
    last chunk.  Returns the x and y at the start of each step and the end
    state, which agree with the scalar loop ``_StepMap.run`` to rounding.

    Measured per 16 384-step block of the self closed loop (d = 7, 5 live
    inputs, L = C = 128, 2-vCPU host): (1) takes ~0.4 ms with ``matmul``
    where the same products through ``einsum`` took ~1.1 ms, (2) ~0.44 ms,
    and (3) ~0.07 ms where a sequential rerun of every chunk took ~0.8 ms.
    These small products run on one OpenBLAS thread: user CPU stays at wall
    time, the same as with one thread forced."""
    d = ab.shape[0]
    L = w.shape[0] - 1

    # (1) zero-start response: w[l, :d, c] is chunk c after l steps from
    # s = 0 (w[0, :d] is never written and stays zero)
    for l in range(L):
        np.matmul(ab, w[l], out=w[l + 1, :d])

    # (2) true chunk starts: s_c = A^L s_(c-1) + z_(c-1), z = w[L, :d]
    starts = np.empty((w.shape[2], d))
    starts[0] = state
    for c in range(1, starts.shape[0]):
        starts[c] = a_pow @ starts[c - 1] + w[L, :d, c - 1]

    # (3) x and y in step order: starts @ rows_pow[i] is (C, L)
    x = starts @ rows_pow[0]
    x += w[:L, 0].T
    y = starts @ rows_pow[1]
    y += w[:L, 2].T
    c_end = (n - 1) // L
    end = a_end @ starts[c_end] + w[n - c_end * L, :d, c_end]
    return x.reshape(-1)[:n], y.reshape(-1)[:n], end


def simulate(
    trap,
    bath: Bath,
    feedback: FeedbackConfig,
    detector: DetectorModel,
    setup: OpticalSetup,
    duration: float,
    dt: float,
    seed: int,
    initial_state: tuple | None = None,
    backaction_force_psd: float = 0.0,
    self_from: int | None = None,
) -> Trajectory:
    """Integrate the radial motion and synthesize both detector channels.

    ``trap`` is a modes.TrapConfig.  When ``initial_state`` (x, y, vx, vy) is
    None, positions and velocities are drawn from the thermal state at the
    bath temperature.  ``backaction_force_psd`` is the one-sided
    radiation-pressure force PSD applied independently on each axis (use
    optics.backaction_psd(P, lambda)).  A feedback loop whose one-step map
    has a spectral radius above 1 is rejected before integrating.
    Deterministic for a given (arguments, seed).

    With ``self_from`` = n0 the record stores the self-homodyne channel from
    step n0 on alone: its sample k sits at t = (n0 + k)*dt, x, y and the
    forward channel are None, and the run holds one series instead of four.
    The stored samples equal those of the full record, ``volts_self[n0:]``.
    """
    for name, value in (("duration", duration), ("dt", dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"duration and dt must be positive and finite, got {name} = {value!r}")
    if not (math.isfinite(backaction_force_psd) and backaction_force_psd >= 0.0):
        raise ValueError(
            f"backaction_force_psd must be >= 0 and finite, got {backaction_force_psd!r}"
        )
    steps = duration / dt
    if not math.isfinite(steps):
        raise ValueError(f"duration / dt = {steps!r} steps is not a finite count")
    n_steps = int(round(steps))
    if n_steps < 2:
        raise ValueError("duration too short for the chosen dt")
    if initial_state is not None:
        try:
            start = [float(v) for v in initial_state]
        except (TypeError, ValueError):
            start = []
        if len(start) != 4 or not all(map(math.isfinite, start)):
            raise ValueError(
                f"initial_state must be 4 finite numbers (x, y, vx, vy), got {initial_state!r}"
            )
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    if self_from is not None and (
        isinstance(self_from, bool)
        or not isinstance(self_from, (int, np.integer))
        or not 0 <= self_from < n_steps
    ):
        raise ValueError(
            f"self_from must be an int with 0 <= self_from < {n_steps} (the run's steps), "
            f"got {self_from!r}"
        )

    # looked up on the module at each call, where perfbench's tracer patches it
    mode_sol = modes.radial_modes(trap.secular_freq_x, trap.secular_freq_y, feedback.spring_gain)
    f_limit = mode_sol.freq_high / (2.0 * math.pi)
    if feedback.engaged:
        f_limit = max(f_limit, feedback.filter_band[1])
        if detector.mirror_mode != "locked":
            raise ValueError("feedback requires the locked mirror mode")
    if dt > 1.0 / (20.0 * f_limit):
        raise ValueError(
            f"dt = {dt:.3g} s too coarse: need dt <= {1.0 / (20.0 * f_limit):.3g} s "
            "(20 samples per fastest period/filter corner)"
        )

    step = _StepMap(trap, bath, feedback, detector, setup, dt, backaction_force_psd)
    rho = float(np.max(np.abs(np.linalg.eigvals(step.A))))
    if rho > 1.0 + _RHO_TOL:
        raise ValueError(
            f"unstable feedback loop: max|lambda| = {rho:.6g} > 1 with a "
            f"{step.n_delay}-sample loop delay"
        )

    rng = np.random.default_rng(seed)
    if initial_state is not None:
        x, y, vx, vy = start
    else:
        x = rng.standard_normal() * step.sigma_v / step.wx
        y = rng.standard_normal() * step.sigma_v / step.wy
        vx = rng.standard_normal() * step.sigma_v
        vy = rng.standard_normal() * step.sigma_v
    state = [x, vx, y, vy] + [0.0] * (step.n_state - 4)

    full = self_from is None
    n0 = 0 if full else int(self_from)
    out_vs = np.empty(n_steps - n0)
    if full:
        out_x = np.empty(n_steps)
        out_y = np.empty(n_steps)
        out_vf = np.empty(n_steps)
    else:
        out_x = out_y = out_vf = None
    lock_lost = False

    # imported here, not with the package: it loads logging, which added
    # ~20 ms (8%) to `import selfhomodyne`
    from concurrent.futures import ThreadPoolExecutor

    # block b + 1 is drawn on a helper thread while block b is scanned (the
    # draw releases the GIL), so a run uses up to two cores; one generator
    # draws every block in order, and draw b + 1 starts only once draw b is
    # done, so the stream is the serial one.  The pool starts its thread at
    # the first submit, so a run of one block, with nothing to overlap,
    # starts none.  The scalar loop draws its blocks in place: a 4096-step
    # block runs for about one GIL switch interval (5 ms), and handing its
    # draws to the helper made the bench psd `simulate` call ~20% slower
    # (median 0.56 s against 0.45 s, 2 vCPU).
    block, ahead = (_SUB_BLOCK, False) if step.nonlin else (_BLOCK, True)
    sizes = [min(block, n_steps - i0) for i0 in range(0, n_steps, block)]
    # the input slots, made once per run (a buffer per block is a fresh mmap)
    # on the calling thread (the helper's would come from a second glibc
    # arena), each sized to its first block; block b + 1 uses the other one
    slots = [np.empty((n, 8)) for n in sizes[: 2 if ahead else 1]]
    with ThreadPoolExecutor(max_workers=1) as pool:
        for b, nblk in enumerate(sizes):
            inputs = pending.result() if b and ahead else step.draw_inputs(rng, slots[0][:nblk])
            if ahead and b + 1 < len(sizes):
                pending = pool.submit(step.draw_inputs, rng, slots[(b + 1) % 2][: sizes[b + 1]])
            i0 = b * block
            blk = slice(i0, i0 + nblk)
            xb, yb, state = step.propagate(state, inputs)
            q = (xb + yb) * _INVSQ2
            p = (xb - yb) * _INVSQ2 if full else None
            # the sample times: only the ramp mirror reads them
            t = np.arange(i0, i0 + nblk) * dt if detector.mirror_mode == "ramp" else None
            vs, vf = _detector_outputs(q, p, inputs[:, 6], inputs[:, 7], t, setup, detector)
            if full:
                out_x[blk], out_y[blk], out_vf[blk] = xb, yb, vf
            # the block's steps from n0 on
            lo = max(n0 - i0, 0)
            if lo < nblk:
                out_vs[i0 + lo - n0 : i0 + nblk - n0] = vs[lo:]
            if detector.mirror_mode == "locked" and not lock_lost:
                lock_lost = bool(np.any(np.abs(q) > setup.wavelength / 4.0))

    return Trajectory(
        dt=dt,
        x=out_x,
        y=out_y,
        volts_self=out_vs,
        volts_fwd=out_vf,
        lock_lost=lock_lost,
        self_from=None if full else n0,
    )


def _rfft_magnitude(x: np.ndarray) -> np.ndarray:
    """``np.abs(np.fft.rfft(x))`` from one Cooley-Tukey split n = n1*n2, n1
    the largest divisor of n up to sqrt(n): length-n1 FFTs down the columns
    of ``x.reshape(n1, n2)``, the twiddles exp(-2 pi i k1 j2 / n), length-n2
    FFTs along the rows; bin k = k1 + n1*k2 sits at row k1, column k2.  What
    it holds besides x is a few complex copies of it, whatever the factors
    of n; a prime n (n1 = 1) is one full-length FFT."""
    n = x.size
    n1 = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    n2 = n // n1
    cols = np.fft.fft(x.reshape(n1, n2), axis=0)
    cols *= np.exp(np.outer(np.arange(n1), np.arange(n2)) * (-2j * math.pi / n))
    bins = np.fft.fft(cols, axis=1).T.reshape(-1)
    return np.abs(bins[: n // 2 + 1])


def run_calibration(trajectory: Trajectory, wavelength: float) -> CalibrationResult:
    """Extract the volts-per-meter scale from a mirror-ramp trajectory.

    Fits volts_self(t) = C0 + C1 cos(2 pi f t) + C2 sin(2 pi f t) with the
    fringe frequency refined from the FFT peak, and returns
    S = 4 pi A_volts / lambda for A_volts = sqrt(C1^2 + C2^2).
    """
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength!r}")
    v = np.asarray(trajectory.volts_self, dtype=float)
    n = v.size
    if n < 16:
        raise ValueError("trajectory too short for calibration")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(
            f"volts_self has {bad.size} non-finite sample(s), the first at index {bad[0]}"
        )
    dt = trajectory.dt
    duration = n * dt

    # the peak bin from a split transform: np.fft.rfft of a length with a
    # large prime factor, such as the default ramp's 76 677 = 3*61*419, runs
    # Bluestein's algorithm, whose buffers add 8-11 MB to a command's peak
    # memory, more than any simulated series
    spec = _rfft_magnitude(v - v.mean())
    spec[0] = 0.0
    k_peak = int(np.argmax(spec))
    f0 = k_peak / duration

    tgrid = np.arange(n) * dt
    # one design (row 0 the constant) and one work vector serve every fit,
    # so a fit makes no series-sized array: ``work`` holds the phase, then
    # the model, then the residual
    design = np.empty((3, n))
    design[0] = 1.0
    work = np.empty(n)

    def fit(freq):
        """Least-squares C0, C1, C2 at ``freq`` from the 3x3 normal equations,
        and the residual sum of squares r.r (v.v - C.b cancels to ~1e-12)."""
        np.multiply(tgrid, 2.0 * math.pi * freq, out=work)
        np.cos(work, out=design[1])
        np.sin(work, out=design[2])
        coef = np.linalg.solve(design @ design.T, design @ v)
        np.matmul(coef, design, out=work)
        np.subtract(v, work, out=work)
        return coef, float(work @ work)

    def residual(freq):
        return fit(freq)[1]

    # golden-section search of the bracket around the FFT peak down to a
    # tenth of a bin (10 evaluations), then a parabolic polish: the residual
    # is locally quadratic in f, so the three-point vertex lands on the
    # minimum to float precision
    df = 1.0 / duration
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = max(f0 - 1.5 * df, 0.1 * df), f0 + 1.5 * df
    c, d = b - g * (b - a), a + g * (b - a)
    r_c, r_d = residual(c), residual(d)
    while b - a >= 0.1 * df:
        if r_c <= r_d:
            b, d, r_d = d, c, r_c
            c = b - g * (b - a)
            r_c = residual(c)
        else:
            a, c, r_c = c, d, r_d
            d = a + g * (b - a)
            r_d = residual(d)
    f_fit = c if r_c <= r_d else d
    for h in (0.1 * df, 1e-2 * df, 1e-4 * df, 1e-7 * df):
        r_m, r_0, r_p = residual(f_fit - h), residual(f_fit), residual(f_fit + h)
        denom = r_m - 2.0 * r_0 + r_p
        if denom > 0.0:
            shift = 0.5 * h * (r_m - r_p) / denom
            if abs(shift) < 2.0 * h:
                f_fit += shift
    coef, _ = fit(f_fit)
    amp = math.hypot(float(coef[1]), float(coef[2]))
    fringes = f_fit * duration
    if fringes < 1.0:
        raise ValueError(
            f"insufficient ramp travel: {fringes:.2f} fringes covered, need >= 1 "
            "(>= 2 recommended)"
        )
    return CalibrationResult(
        volts_per_meter=fringe_slope(amp, wavelength),
        fringe_amplitude_volts=amp,
        fringe_frequency_hz=f_fit,
        fringes_covered=fringes,
        offset_volts=float(coef[0]),
    )
