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

One detector model (``_detector_outputs``) maps the recorded motion to the
self-homodyne and forward channels for both ``simulate`` and
``synthesize_detector``; in locked mode both follow
``DetectorModel.fringe_nonlinearity``.  The integrator applies it to each
block of stored samples; the per-step loop computes only the motion and the
feedback measurement.

Integrator: per step, external forces (feedback, back-action) enter as an
impulse, then a half-step of exact damping+thermal Ornstein-Uhlenbeck, an
exact harmonic rotation, and a second OU half-step.  In the noiseless
open-loop limit the map is the exact oscillator propagator; with the bath on,
the discrete stationary position and velocity variances of the thermal
oscillator are exact for any dt (fixed point of the O/2-R-O/2 map), so
equipartition holds without dt extrapolation.  The step is written once, as
the scalar loop ``_StepMap.run``.  Unless the feedback loop sees the fringe
nonlinearity, the step is the linear map s' = A s + B u (state s, inputs u);
A and B are probed from the loop with unit vectors, and each block of steps
runs as an exact chunked scan (``_scan``) that agrees with the loop to
rounding.  Only a loop that sees the fringe runs the scalar loop.  A loop
whose A (for the fringe: its linearization) has a spectral radius above 1 is
rejected before integrating.

Runs are deterministic: (config, seed) -> bit-identical Trajectory.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import modes
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
    "white_force_samples",
    "simulate",
    "synthesize_detector",
    "run_calibration",
]

_INVSQ2 = 1.0 / math.sqrt(2.0)
_BLOCK = 1 << 16

# a loop is unstable when the spectral radius of its one-step map exceeds 1
# by more than this: an undamped oscillator's |lambda| = 1 comes out within
# rounding of 1, while the delayed spring loops that do grow sit >= 1e-6 above
_RHO_TOL = 1e-9

# default forward-channel noise floor sits 38 dB above the self-homodyne one
_FORWARD_DB = 38.0


@dataclass(frozen=True)
class Bath:
    """Background gas: pressure, temperature, and the measured damping anchor
    through which gamma(p) = gamma_ref * p / p_ref scales linearly."""

    pressure: float = 2e-8          # [mbar]
    temperature: float = 300.0      # [K]
    damping_anchor: tuple = (1e-2, 2.0 * math.pi * 4.3)  # (mbar, rad/s)

    def __post_init__(self):
        if self.pressure < 0.0:
            raise ValueError("pressure must be >= 0")
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        p_ref, g_ref = self.damping_anchor
        if p_ref <= 0.0 or g_ref <= 0.0:
            raise ValueError("damping anchor must be positive")


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
        if self.cooling_rate < 0.0 or self.spring_gain < 0.0:
            raise ValueError("feedback gains must be >= 0")
        if self.loop_delay < 0.0:
            raise ValueError("loop delay must be >= 0")
        lo, hi = self.filter_band
        if not 0.0 <= lo < hi:
            raise ValueError("filter band must satisfy 0 <= f_lo < f_hi")
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
    the self-homodyne floor).  In locked mode the mirror holds a mid-fringe
    point with R_s = (lambda/8)(2n+1), n = ``lock_setpoint_index``; in ramp
    mode it advances at ``ramp_rate``.
    """

    imprecision_self: float = 3.0e-24
    imprecision_forward: float | None = None
    fringe_nonlinearity: bool = False
    mirror_mode: str = "locked"
    ramp_rate: float = 0.0
    lock_setpoint_index: int = 0
    gain: float = 1.0

    def __post_init__(self):
        if self.imprecision_self < 0.0:
            raise ValueError("imprecision must be >= 0")
        if self.mirror_mode not in ("locked", "ramp"):
            raise ValueError("mirror_mode must be 'locked' or 'ramp'")
        if self.imprecision_forward is None:
            object.__setattr__(
                self, "imprecision_forward", self.imprecision_self * 10 ** (_FORWARD_DB / 10.0)
            )
        elif self.imprecision_forward < 0.0:
            raise ValueError("imprecision must be >= 0")


@dataclass
class Trajectory:
    """Uniformly sampled simulation record.  All series share one grid;
    sample k sits at t = k*dt.

    The detection-axis displacement ``q`` = (x + y)/sqrt(2) is derived from
    x and y, not stored.  ``mirror_d`` is the mirror offset; in locked mode
    it is a read-only broadcast of the lock point.
    """

    dt: float
    x: np.ndarray
    y: np.ndarray
    volts_self: np.ndarray
    volts_fwd: np.ndarray
    mirror_d: np.ndarray
    rng_seed: int
    lock_lost: bool = False

    @property
    def q(self) -> np.ndarray:
        return (self.x + self.y) * _INVSQ2

    @property
    def time(self) -> np.ndarray:
        return np.arange(self.x.size) * self.dt

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    def to_csv(self, path) -> None:
        cols = (self.x, self.y, self.q, self.volts_self, self.volts_fwd, self.mirror_d)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "q", "volts_self", "volts_fwd", "mirror_d"])
            for k in range(self.x.size):
                row = [f"{k * self.dt:.17g}"] + [f"{c[k]:.17g}" for c in cols]
                writer.writerow(row)


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


def white_force_samples(psd_level: float, dt: float, size: int, rng) -> np.ndarray:
    """Discrete white force samples whose one-sided PSD is ``psd_level``:
    each sample is N(0, psd/(2 dt))."""
    if psd_level < 0.0 or dt <= 0.0:
        raise ValueError("psd_level must be >= 0 and dt > 0")
    return rng.standard_normal(size) * math.sqrt(psd_level / (2.0 * dt))


def _effective_visibility(setup: OpticalSetup) -> float:
    """Fringe contrast of the detected signal: ideal two-field contrast
    2 rho/(1+rho^2) times the measured visibility."""
    rho = setup.mirror_reflectivity
    return setup.visibility * 2.0 * rho / (1.0 + rho * rho)


def _locked_mirror_distance(setup: OpticalSetup, lock_index: int) -> tuple[float, int]:
    """Mirror offset closest to the configured distance that puts the one-way
    path on a mid-fringe point R_s = (lambda/8)(2m+1) with m matching the
    parity of ``lock_index`` (the parity selects the slope sign)."""
    lam = setup.wavelength
    m_float = ((setup.focal_length + setup.mirror_distance) * 8.0 / lam - 1.0) / 2.0
    m = int(round(m_float))
    if (m - lock_index) % 2 != 0:
        m += 1 if m_float > m else -1
    m = max(m, 0)
    d = (lam / 8.0) * (2 * m + 1) - setup.focal_length
    return d, m


def _mirror_position(setup: OpticalSetup, detector: DetectorModel, t):
    """Mirror offset d(t) [m] at the sample times t [s]: the lock point in
    locked mode (a read-only broadcast, no per-sample storage), the ramp
    mirror_distance + ramp_rate * t in ramp mode."""
    if detector.mirror_mode == "locked":
        d_lock, _ = _locked_mirror_distance(setup, detector.lock_setpoint_index)
        return np.broadcast_to(d_lock, np.shape(t))
    return setup.mirror_distance + detector.ramp_rate * t


def _detector_outputs(q, p, nu_self, nu_fwd, t, setup: OpticalSetup, detector: DetectorModel):
    """The detector model: map the detection-axis and orthogonal
    displacements q and p [m], the position-referred imprecision noise of
    each channel [m] and the sample times t [s] to (volts_self, volts_fwd).

    Locked mode: the mirror sits on the mid-fringe point and the signal is
    lock_sign * S * (q + nu_self), S = gain * V_eff * k_eff, with q replaced
    by sin(k_eff q)/k_eff under ``fringe_nonlinearity``.  Ramp mode: the raw
    fringe gain * (1 - V_eff cos(4 pi (f + d(t))/lambda + k_eff q)) as the
    mirror advances, plus S * nu_self.  The forward channel reads
    gain * (p + nu_fwd) in both modes.
    """
    v_eff = _effective_visibility(setup)
    k_eff = _effective_wavenumber(setup)
    gain = detector.gain
    slope = gain * v_eff * k_eff
    volts_fwd = gain * (p + nu_fwd)
    if detector.mirror_mode == "locked":
        _, m_lock = _locked_mirror_distance(setup, detector.lock_setpoint_index)
        lock_sign = 1.0 if m_lock % 2 == 0 else -1.0
        meas = np.sin(k_eff * q) / k_eff if detector.fringe_nonlinearity else q
        return lock_sign * slope * (meas + nu_self), volts_fwd
    d_now = _mirror_position(setup, detector, t)
    # float64 resolves the ~2.4e6 rad mirror term only to ~5e-10 rad: wrap it
    # before adding k_eff q, so the phase keeps the precision of q
    mirror_phase = 4.0 * math.pi * (setup.focal_length + d_now) / setup.wavelength
    phase = np.mod(mirror_phase, 2.0 * math.pi) + k_eff * q
    return gain * (1.0 - v_eff * np.cos(phase)) + slope * nu_self, volts_fwd


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

    A step map serves one ``simulate`` call.  It allocates the multi-MB block
    buffer once (the scan workspace once per block size) and reuses it for
    every block: a fresh buffer of that size per block would be a fresh mmap
    and page-fault in anew.
    """

    def __init__(self, trap, bath, feedback, detector, setup, dt, backaction_force_psd):
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
        sigma_ba = math.sqrt(backaction_force_psd / (2.0 * dt))
        self.normal_scale = np.array([
            1.0, 1.0, 1.0, 1.0, sigma_ba, sigma_ba,
            math.sqrt(detector.imprecision_self / (2.0 * dt)),
            math.sqrt(detector.imprecision_forward / (2.0 * dt)),
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
        self._inputs = self._work = None

    def draw_inputs(self, rng, n: int) -> np.ndarray:
        """The inputs of the next n steps: 8 normals per step, drawn in one
        call and scaled in place, the last four to force and imprecision.
        The result is a view of the map's input buffer, valid until the next
        draw."""
        if self._inputs is None or self._inputs.shape[0] < n:
            self._inputs = np.empty((n, 8))
        buf = self._inputs[:n]
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
            # chunks of L ~ sqrt(n) steps: w[l, :, c] = (s, u) at step l of
            # chunk c, the live inputs in a zero-padded (C*L, live) copy, A^L
            L = math.isqrt(n)
            C = -(-n // L)
            w = np.empty((L + 1, self.ab.shape[1], C))
            padded = np.zeros((C * L, len(self.live)))
            self._work = (n, w, padded, np.linalg.matrix_power(self.A, L))
        _, w, padded, a_pow = self._work
        np.take(inputs, self.live, axis=1, out=padded[:n])
        return _scan(self.ab, a_pow, state, w, padded, n)

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
        return xs, ys, end


def _scan(ab, a_pow, state, w, padded, n):
    """Propagate s' = A s + B u, ``ab`` = [A | B], from ``state`` over the
    first n rows u of ``padded``, vectorized across the C chunks of L steps
    laid out in the workspace ``w`` (L + 1, d + inputs, C): (1) the
    zero-start response of every chunk, (2) a sequential carry of the chunk
    starts through ``a_pow`` = A^L, (3) a rerun of every chunk from its true
    start.  Returns the x and y at the start of each step and the end state.

    The per-step products go through ``einsum``, not ``@``: on a 2-core host
    the multithreaded OpenBLAS behind ``@`` ran a tall (n x inputs) product
    ~10x slower than one thread, and erratically."""
    d = ab.shape[0]
    L, C = w.shape[0] - 1, w.shape[2]
    # one einsum per step writes the s of step l + 1 of every chunk
    w[:L, d:] = padded.reshape(C, L, -1).transpose(1, 2, 0)

    # (1) zero-start response: z[:, c] is where chunk c ends from s = 0
    w[0, :d] = 0.0
    for l in range(L):
        np.einsum("ij,jc->ic", ab, w[l], out=w[l + 1, :d])
    z = w[L, :d].copy()

    # (2) true chunk starts: s_c = A^L s_(c-1) + z_(c-1)
    w[0, :d, 0] = state
    for c in range(1, C):
        w[0, :d, c] = np.einsum("ij,j->i", a_pow, w[0, :d, c - 1]) + z[:, c - 1]

    # (3) rerun every chunk from its true start
    for l in range(L):
        np.einsum("ij,jc->ic", ab, w[l], out=w[l + 1, :d])

    c_end = (n - 1) // L
    x = w[:L, 0].T.reshape(-1)[:n]
    y = w[:L, 2].T.reshape(-1)[:n]
    return x, y, w[n - c_end * L, :d, c_end].copy()


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
) -> Trajectory:
    """Integrate the radial motion and synthesize both detector channels.

    ``trap`` is a modes.TrapConfig.  When ``initial_state`` (x, y, vx, vy) is
    None, positions and velocities are drawn from the thermal state at the
    bath temperature.  ``backaction_force_psd`` is the one-sided
    radiation-pressure force PSD applied independently on each axis (use
    optics.backaction_psd(P, lambda)).  A feedback loop whose one-step map
    has a spectral radius above 1 is rejected before integrating.
    Deterministic for a given (arguments, seed).
    """
    if duration <= 0.0 or dt <= 0.0:
        raise ValueError("duration and dt must be positive")
    if backaction_force_psd < 0.0:
        raise ValueError("backaction_force_psd must be >= 0")
    n_steps = int(round(duration / dt))
    if n_steps < 2:
        raise ValueError("duration too short for the chosen dt")

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
        x, y, vx, vy = (float(v) for v in initial_state)
    else:
        x = rng.standard_normal() * step.sigma_v / step.wx
        y = rng.standard_normal() * step.sigma_v / step.wy
        vx = rng.standard_normal() * step.sigma_v
        vy = rng.standard_normal() * step.sigma_v
    state = [x, vx, y, vy] + [0.0] * (step.n_state - 4)

    # first, so that a locked run's time grid is freed before the outputs exist
    mirror_d = _mirror_position(setup, detector, np.arange(n_steps) * dt)
    out_x = np.empty(n_steps)
    out_y = np.empty(n_steps)
    out_vs = np.empty(n_steps)
    out_vf = np.empty(n_steps)
    lock_lost = False

    for i0 in range(0, n_steps, _BLOCK):
        nblk = min(_BLOCK, n_steps - i0)
        inputs = step.draw_inputs(rng, nblk)
        blk = slice(i0, i0 + nblk)
        out_x[blk], out_y[blk], state = step.propagate(state, inputs)
        q = (out_x[blk] + out_y[blk]) * _INVSQ2
        p = (out_x[blk] - out_y[blk]) * _INVSQ2
        out_vs[blk], out_vf[blk] = _detector_outputs(
            q, p, inputs[:, 6], inputs[:, 7], np.arange(i0, i0 + nblk) * dt, setup, detector
        )
        if detector.mirror_mode == "locked" and not lock_lost:
            lock_lost = bool(np.any(np.abs(q) > setup.wavelength / 4.0))

    return Trajectory(
        dt=dt,
        x=out_x,
        y=out_y,
        volts_self=out_vs,
        volts_fwd=out_vf,
        mirror_d=mirror_d,
        rng_seed=seed,
        lock_lost=lock_lost,
    )


def synthesize_detector(
    q, setup: OpticalSetup, detector: DetectorModel, dt: float, rng=None
) -> np.ndarray:
    """Self-homodyne detector output for a given displacement series, from
    the same detector model ``simulate`` uses (so a noiseless trajectory's
    ``q`` reproduces its ``volts_self`` exactly).

    Locked mode: mid-fringe signal proportional to q, or to sin(k_eff q)
    when ``detector.fringe_nonlinearity`` is set, plus noise equivalent to
    the configured imprecision referred to position (drawn from ``rng``;
    none when it is None).  Ramp mode: the raw fringe intensity as the
    mirror advances, 1 - V_eff * cos(4 pi (f + d(t))/lambda + k_eff q).
    """
    q = np.asarray(q, dtype=float)
    if rng is None:
        noise = np.zeros_like(q)
    else:
        noise = rng.standard_normal(q.size) * math.sqrt(detector.imprecision_self / (2.0 * dt))
    volts_self, _ = _detector_outputs(q, 0.0, noise, 0.0, np.arange(q.size) * dt, setup, detector)
    return volts_self


def run_calibration(trajectory: Trajectory, wavelength: float) -> CalibrationResult:
    """Extract the volts-per-meter scale from a mirror-ramp trajectory.

    Fits volts_self(t) = C0 + C1 cos(2 pi f t) + C2 sin(2 pi f t) with the
    fringe frequency refined from the FFT peak, and returns
    S = 4 pi A_volts / lambda for A_volts = sqrt(C1^2 + C2^2).
    """
    from scipy import optimize

    v = np.asarray(trajectory.volts_self, dtype=float)
    n = v.size
    if n < 16:
        raise ValueError("trajectory too short for calibration")
    dt = trajectory.dt
    duration = n * dt

    vc = v - v.mean()
    spec = np.abs(np.fft.rfft(vc))
    spec[0] = 0.0
    k_peak = int(np.argmax(spec))
    f0 = k_peak / duration

    tgrid = np.arange(n) * dt

    def residual(freq):
        w = 2.0 * math.pi * freq
        design = np.column_stack([np.ones(n), np.cos(w * tgrid), np.sin(w * tgrid)])
        coef, *_ = np.linalg.lstsq(design, v, rcond=None)
        r = v - design @ coef
        return float(r @ r)

    df = 1.0 / duration
    res = optimize.minimize_scalar(
        residual,
        bounds=(max(f0 - 1.5 * df, 0.1 * df), f0 + 1.5 * df),
        method="bounded",
        options={"xatol": df * 1e-12},
    )
    f_fit = float(res.x)
    # parabolic polish: the residual is locally quadratic in f, so the
    # three-point vertex lands on the minimum to float precision
    for h in (1e-4 * df, 1e-7 * df):
        r_m, r_0, r_p = residual(f_fit - h), residual(f_fit), residual(f_fit + h)
        denom = r_m - 2.0 * r_0 + r_p
        if denom > 0.0:
            shift = 0.5 * h * (r_m - r_p) / denom
            if abs(shift) < 2.0 * h:
                f_fit += shift
    w = 2.0 * math.pi * f_fit
    design = np.column_stack([np.ones(n), np.cos(w * tgrid), np.sin(w * tgrid)])
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
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
