"""Tests for the stochastic simulator, detector synthesis, and calibration.

Oracles: equipartition of the thermal state, the exponential energy decay of
a damped oscillator, the free-particle heating rate of a white force, the
closed-form mode frequencies under the feedback spring, and exact synthetic
fringes.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfhomodyne import langevin
from selfhomodyne.constants import K_B
from selfhomodyne.langevin import (
    Bath,
    DetectorModel,
    FeedbackConfig,
    Trajectory,
    gas_damping_rate,
    run_calibration,
    simulate,
    synthesize_detector,
    thermal_force_psd,
    white_force_samples,
)
from selfhomodyne.modes import TrapConfig, radial_modes
from selfhomodyne.optics import OpticalSetup, backaction_psd
from selfhomodyne.spectral import welch_psd

TRAP = TrapConfig()
SETUP = OpticalSetup()
QUIET = DetectorModel(imprecision_self=0.0, imprecision_forward=0.0)
NO_FB = FeedbackConfig()
DT16 = 2.0**-16
DT17 = 2.0**-17


def axis_energy(x, dt, omega, mass):
    """Per-axis mechanical energy from positions (velocity via central
    differences; fine when omega*dt << 1)."""
    v = (x[2:] - x[:-2]) / (2.0 * dt)
    xs = x[1:-1]
    return 0.5 * mass * (v**2 + omega**2 * xs**2)


class TestBathModel:
    def test_damping_anchor(self):
        assert gas_damping_rate(Bath(pressure=1e-2)) == pytest.approx(2 * math.pi * 4.3, rel=1e-12)

    def test_damping_at_low_pressure(self):
        assert gas_damping_rate(Bath(pressure=2e-8)) == pytest.approx(
            2 * math.pi * 8.6e-6, rel=1e-12, abs=0
        )

    def test_zero_pressure(self):
        assert gas_damping_rate(Bath(pressure=0.0)) == 0.0

    def test_negative_pressure_rejected(self):
        with pytest.raises(ValueError):
            Bath(pressure=-1e-3)

    def test_thermal_force_psd_zero_temperature(self):
        assert thermal_force_psd(Bath(pressure=1e-2, temperature=0.0), 2e-17) == 0.0

    def test_thermal_force_psd_operating_point(self):
        # direct evaluation with the printed gamma, T, m gives 1.79e-41; the
        # published table quotes 4.6e-41 for the same inputs (recorded, not
        # reproduced)
        s = thermal_force_psd(Bath(pressure=2e-8, temperature=300.0), 2.0e-17)
        assert s == pytest.approx(1.79e-41, rel=1e-2, abs=0)

    def test_gas_noise_dominates_backaction(self):
        s_gas = thermal_force_psd(Bath(pressure=2e-8, temperature=300.0), 2.0e-17)
        s_ba = backaction_psd(84e-9, 780e-9)
        assert s_gas / s_ba > 10.0
        assert s_gas / s_ba == pytest.approx(94.0, rel=0.05)


class TestWhiteForceSamples:
    def test_variance_matches_psd_target(self):
        rng = np.random.default_rng(123)
        for level in (1.79e-41, 1.9e-43):
            dt = DT16
            samples = white_force_samples(level, dt, 1_000_000, rng)
            assert float(np.var(samples)) == pytest.approx(level / (2 * dt), rel=0.02, abs=0)

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            white_force_samples(-1.0, DT16, 10, rng)
        with pytest.raises(ValueError):
            white_force_samples(1.0, 0.0, 10, rng)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        bath = Bath(pressure=0.1, temperature=300.0)
        fb = FeedbackConfig(cooling_rate=2 * math.pi * 50)
        det = DetectorModel(imprecision_self=1e-22)
        a = simulate(TRAP, bath, fb, det, SETUP, duration=0.2, dt=DT17, seed=99)
        b = simulate(TRAP, bath, fb, det, SETUP, duration=0.2, dt=DT17, seed=99)
        for name in ("x", "y", "q", "volts_self", "volts_fwd", "mirror_d"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_differs(self):
        bath = Bath(pressure=0.1, temperature=300.0)
        a = simulate(TRAP, bath, NO_FB, QUIET, SETUP, duration=0.05, dt=DT16, seed=1)
        b = simulate(TRAP, bath, NO_FB, QUIET, SETUP, duration=0.05, dt=DT16, seed=2)
        assert not np.array_equal(a.x, b.x)


class TestThermalEquilibrium:
    def test_projected_variance_equipartition(self):
        # 0.5 mbar keeps the relaxation time ~ms so a 4 s run self-averages
        bath = Bath(pressure=0.5, temperature=300.0)
        traj = simulate(TRAP, bath, NO_FB, QUIET, SETUP, duration=4.0, dt=DT16, seed=11)
        expected = (K_B * 300.0 / (2 * TRAP.mass)) * (
            1 / TRAP.secular_freq_x**2 + 1 / TRAP.secular_freq_y**2
        )
        assert float(np.var(traj.q)) == pytest.approx(expected, rel=0.05, abs=0)

    def test_halving_dt_preserves_variance(self):
        # a deterministic ringdown under feedback isolates the discretization
        # of the loop (the stochastic steady state is dt-exact by construction)
        bath = Bath(pressure=2e-2, temperature=0.0)
        fb = FeedbackConfig(cooling_rate=2 * math.pi * 50, spring_gain=2 * math.pi * 500)
        out = []
        for dt in (DT17, DT17 / 2):
            traj = simulate(
                TRAP, bath, fb, QUIET, SETUP, duration=0.2, dt=dt, seed=4,
                initial_state=(10e-9, 0.0, 0.0, 0.0),
            )
            out.append(float(np.var(traj.q)))
        assert out[1] == pytest.approx(out[0], rel=0.01, abs=0)


class TestEnergyDecay:
    def test_exponential_decay_of_damped_oscillator(self):
        gamma = 2 * math.pi * 20.0
        pressure = gamma / (2 * math.pi * 4.3) * 1e-2
        bath = Bath(pressure=pressure, temperature=0.0)
        dt = 2.0**-18
        duration = 5.0 / gamma
        x0 = 50e-9
        traj = simulate(
            TRAP, bath, NO_FB, QUIET, SETUP, duration=duration, dt=dt, seed=0,
            initial_state=(x0, 0.0, 0.0, 0.0),
        )
        energy = axis_energy(traj.x, dt, TRAP.secular_freq_x, TRAP.mass)
        t = (np.arange(energy.size) + 1) * dt
        # compare at a handful of probe times against exp(-gamma t)
        for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
            k = int(frac * (energy.size - 1))
            expected = energy[0] * math.exp(-gamma * t[k])
            assert energy[k] == pytest.approx(expected, rel=0.02, abs=0)


class TestBackactionHeating:
    def test_free_heating_rate(self):
        # bath off, back-action on: total radial heating dE/dt = S_BA/(2m)
        # (S_BA applied independently per axis)
        bath = Bath(pressure=0.0, temperature=0.0)
        s_ba = backaction_psd(1.0, SETUP.wavelength)  # large P for a clean signal
        duration, dt = 0.2, DT16
        rates = []
        for seed in range(128):
            traj = simulate(
                TRAP, bath, NO_FB, QUIET, SETUP, duration=duration, dt=dt, seed=seed,
                initial_state=(0.0, 0.0, 0.0, 0.0), backaction_force_psd=s_ba,
            )
            e_tot = axis_energy(traj.x, dt, TRAP.secular_freq_x, TRAP.mass) + axis_energy(
                traj.y, dt, TRAP.secular_freq_y, TRAP.mass
            )
            n = e_tot.size
            rates.append((float(np.mean(e_tot[-n // 10 :])) - float(np.mean(e_tot[: n // 10]))) / (
                0.9 * duration
            ))
        assert float(np.mean(rates)) == pytest.approx(s_ba / (2 * TRAP.mass), rel=0.10, abs=0)


class TestFeedbackSpring:
    def test_spectral_peaks_match_mode_solution(self):
        alpha = 2 * math.pi * 1700.0
        fb = FeedbackConfig(cooling_rate=0.0, spring_gain=alpha, filter_band=(50.0, 6000.0))
        bath = Bath(pressure=1e-4, temperature=300.0)
        traj = simulate(TRAP, bath, fb, QUIET, SETUP, duration=4.0, dt=DT17, seed=3)
        psd = welch_psd(traj.q, 1 / DT17, segment_len=1 << 19)
        sol = radial_modes(TRAP.secular_freq_x, TRAP.secular_freq_y, alpha)
        for pred in (sol.freq_low / (2 * math.pi), sol.freq_high / (2 * math.pi)):
            sub = psd.band(pred * 0.85, pred * 1.15)
            got = float(sub.frequencies[np.argmax(sub.values)])
            assert got == pytest.approx(pred, rel=0.01)

    def test_cooling_reduces_mode_temperature(self):
        bath = Bath(pressure=2e-2, temperature=300.0)
        det = DetectorModel(imprecision_self=3e-24)
        fb = FeedbackConfig(cooling_rate=2 * math.pi * 160.0)
        traj = simulate(TRAP, bath, fb, det, SETUP, duration=4.0, dt=DT17, seed=5)
        n0 = int(1.0 / DT17)
        t_y = TRAP.mass * TRAP.secular_freq_y**2 * float(np.var(traj.y[n0:])) / K_B
        assert t_y < 60.0  # far below 300 K

    def test_feedback_requires_locked_mirror(self):
        det = DetectorModel(mirror_mode="ramp", ramp_rate=1e-6)
        fb = FeedbackConfig(cooling_rate=2 * math.pi * 50)
        with pytest.raises(ValueError, match="locked"):
            simulate(TRAP, Bath(), fb, det, SETUP, duration=0.1, dt=DT16, seed=0)

    def test_dt_constraint_enforced(self):
        with pytest.raises(ValueError, match="too coarse"):
            simulate(TRAP, Bath(), NO_FB, QUIET, SETUP, duration=0.1, dt=1e-3, seed=0)


class TestLoopDelayAndAxis:
    """The loop's delay line and measurement axis, on noiseless runs (T = 0,
    no imprecision) where any difference is the feedback's own doing."""

    START = (1e-9, 0.0, 0.0, 0.0)
    COLD = Bath(pressure=2e-2, temperature=0.0)

    def run(self, fb):
        return simulate(
            TRAP, self.COLD, fb, QUIET, SETUP, duration=64 * DT17, dt=DT17, seed=1,
            initial_state=self.START,
        )

    @pytest.mark.parametrize("channel", ["self-homodyne", "forward"])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_delay_of_n_samples(self, n, channel):
        # the first measurement (taken on sample 0) reaches the loop output
        # on step n and moves the particle from sample n + 1 on
        open_ = self.run(NO_FB)
        fb = FeedbackConfig(
            cooling_rate=2 * math.pi * 160.0, spring_gain=2 * math.pi * 500.0,
            loop_delay=n * DT17, source_channel=channel,
        )
        closed = self.run(fb)
        for name in ("x", "y"):
            a, b = getattr(open_, name), getattr(closed, name)
            assert np.array_equal(a[: n + 1], b[: n + 1])
        assert closed.x[n + 1] != open_.x[n + 1]

    @pytest.mark.parametrize("channel", ["self-homodyne", "forward"])
    def test_sub_sample_delay_rounds_to_zero(self, channel):
        fb = FeedbackConfig(cooling_rate=2 * math.pi * 160.0, source_channel=channel)
        a = self.run(fb)
        b = self.run(dataclasses.replace(fb, loop_delay=0.4 * DT17))
        for name in ("x", "y", "volts_self", "volts_fwd"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_forward_loop_ignores_fringe_nonlinearity(self):
        # the forward detector has no fringe: its loop and channel are the
        # same with and without the self-homodyne fringe nonlinearity
        bath = Bath(pressure=2e-2, temperature=1.0)
        fb = FeedbackConfig(
            cooling_rate=2 * math.pi * 160.0, loop_delay=2 * DT17, source_channel="forward"
        )
        lin, nl = (
            simulate(
                TRAP, bath, fb, DetectorModel(fringe_nonlinearity=flag), SETUP,
                duration=0.05, dt=DT17, seed=21,
            )
            for flag in (False, True)
        )
        for name in ("x", "y", "volts_fwd"):
            assert np.array_equal(getattr(lin, name), getattr(nl, name))
        assert not np.array_equal(lin.volts_self, nl.volts_self)

    def test_self_loop_nonlinearity_in_linear_limit(self):
        # sin(k q)/k = q (1 - (k q)^2/6 + ...): a cold loop that sees the
        # fringe departs from the linear one by at most ~(k_eff max|q|)^2
        bath = Bath(pressure=2e-2, temperature=1e-3)
        fb = FeedbackConfig(
            cooling_rate=2 * math.pi * 160.0, spring_gain=2 * math.pi * 500.0,
            loop_delay=2 * DT17,
        )
        lin, nl = (
            simulate(
                TRAP, bath, fb, DetectorModel(fringe_nonlinearity=flag), SETUP,
                duration=0.2, dt=DT17, seed=22,
            )
            for flag in (False, True)
        )
        k_eff = 4 * math.pi / SETUP.wavelength * (1 - SETUP.half_aperture**2 / 4)
        bound = (k_eff * float(np.max(np.abs(lin.q)))) ** 2
        dev = float(np.max(np.abs(nl.x - lin.x))) / float(np.max(np.abs(lin.x)))
        assert 0.0 < dev <= bound < 0.1


class TestLoopStability:
    """A loop whose one-step map (for the fringe: its linearization) has a
    spectral radius above 1 is rejected before integrating."""

    @pytest.mark.parametrize("fringe", [False, True])
    def test_delayed_cool_sweep_loop_rejected(self, fringe):
        # the cool-sweep gains at 2 pi x 160 rad/s: |lambda| - 1 = +1.3e-2
        gain = 2 * math.pi * 160.0
        fb = FeedbackConfig(cooling_rate=gain, spring_gain=250.0 * math.sqrt(gain), loop_delay=8 * DT17)
        det = DetectorModel(fringe_nonlinearity=fringe)
        with pytest.raises(ValueError, match=r"max\|lambda\| = 1\.01.*8-sample"):
            simulate(TRAP, Bath(pressure=2e-2), fb, det, SETUP, duration=0.01, dt=DT17, seed=0)

    def test_benchmark_psd_loop_accepted(self):
        # cold, viscous-only, nonlinear loop with a 4-sample delay
        fb = FeedbackConfig(cooling_rate=2 * math.pi * 160.0, loop_delay=4 * DT17)
        det = DetectorModel(fringe_nonlinearity=True)
        bath = Bath(pressure=2e-2, temperature=1.0)
        traj = simulate(TRAP, bath, fb, det, SETUP, duration=0.05, dt=DT17, seed=1)
        assert not traj.lock_lost


class TestScanAgainstScalarLoop:
    """Every linear run goes through the vectorized scan of s' = A s + B u;
    the scalar loop that A and B are probed from is the reference."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["open", "ramp", "self-homodyne", "forward"]),
        delay=st.integers(0, 4),
        gain_hz=st.floats(40.0, 640.0),
        spring=st.booleans(),
        fringe=st.booleans(),
        backaction=st.booleans(),
        hot=st.booleans(),
        n_steps=st.sampled_from([2, 3, 97, 4099, (1 << 16) + 1, (1 << 16) + 1234]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_scalar_loop(
        self, kind, delay, gain_hz, spring, fringe, backaction, hot, n_steps, seed
    ):
        fb = NO_FB
        det = DetectorModel(fringe_nonlinearity=fringe and kind != "self-homodyne")
        if kind == "ramp":
            det = dataclasses.replace(det, mirror_mode="ramp", ramp_rate=2e-6)
        elif kind != "open":
            fb = FeedbackConfig(
                cooling_rate=2 * math.pi * gain_hz,
                spring_gain=2 * math.pi * 250.0 if spring else 0.0,
                loop_delay=delay * DT17,
                source_channel=kind,
            )
        bath = Bath(pressure=2e-2, temperature=300.0 if hot else 1e-3)
        kwargs = dict(
            duration=n_steps * DT17, dt=DT17, seed=seed,
            backaction_force_psd=backaction_psd(1e-7, SETUP.wavelength) if backaction else 0.0,
        )
        fast = simulate(TRAP, bath, fb, det, SETUP, **kwargs)
        with mock.patch.object(langevin._StepMap, "propagate", langevin._StepMap.run):
            ref = simulate(TRAP, bath, fb, det, SETUP, **kwargs)
        for name in ("x", "y", "volts_self", "volts_fwd"):
            a, b = getattr(fast, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name
        assert fast.lock_lost == ref.lock_lost


class TestLockLoss:
    def test_room_temperature_motion_flags_lock_loss(self):
        # at 300 K the radial amplitude exceeds lambda/4
        bath = Bath(pressure=0.5, temperature=300.0)
        traj = simulate(TRAP, bath, NO_FB, QUIET, SETUP, duration=0.05, dt=DT16, seed=8)
        assert traj.lock_lost

    def test_quiet_particle_keeps_lock(self):
        bath = Bath(pressure=0.5, temperature=1e-4)
        traj = simulate(TRAP, bath, NO_FB, QUIET, SETUP, duration=0.05, dt=DT16, seed=8)
        assert not traj.lock_lost


class TestDetectorSynthesis:
    @pytest.mark.parametrize(
        "det",
        [
            QUIET,
            DetectorModel(imprecision_self=0.0, imprecision_forward=0.0, fringe_nonlinearity=True),
            DetectorModel(imprecision_self=0.0, imprecision_forward=0.0, lock_setpoint_index=1),
            DetectorModel(imprecision_self=0.0, mirror_mode="ramp", ramp_rate=2e-6),
        ],
        ids=["locked-linear", "locked-nonlinear", "locked-odd-setpoint", "ramp"],
    )
    def test_same_model_as_simulate(self, det):
        # 1 K: the motion spans k_eff*q ~ 1, where sin(k_eff q) and q differ
        bath = Bath(pressure=0.5, temperature=1.0)
        traj = simulate(TRAP, bath, NO_FB, det, SETUP, duration=0.05, dt=DT16, seed=3)
        assert np.array_equal(synthesize_detector(traj.q, SETUP, det, dt=DT16), traj.volts_self)

    def test_locked_zero_motion_gives_zero_mean_noise(self):
        det = DetectorModel(imprecision_self=1e-22)
        rng = np.random.default_rng(5)
        out = synthesize_detector(np.zeros(1 << 15), SETUP, det, dt=DT16, rng=rng)
        sigma = math.sqrt(1e-22 / (2 * DT16))
        slope = det.gain * SETUP.visibility * (4 * math.pi / SETUP.wavelength) * (
            1 - SETUP.half_aperture**2 / 4
        )
        assert abs(float(np.mean(out))) < 5 * slope * sigma / math.sqrt(out.size)
        assert float(np.std(out)) == pytest.approx(slope * sigma, rel=0.05)

    def test_ramp_one_fringe_per_half_wavelength(self):
        lam = SETUP.wavelength
        rate = 1e-6
        duration = (lam / 2) / rate  # exactly one fringe of travel
        n = 4096
        dt = duration / n
        det = DetectorModel(mirror_mode="ramp", ramp_rate=rate, imprecision_self=0.0)
        out = synthesize_detector(np.zeros(n), SETUP, det, dt=dt)
        assert out[0] == pytest.approx(out[-1], rel=1e-3)
        mid = (out.max() + out.min()) / 2
        crossings = np.sum(np.diff(np.sign(out - mid)) != 0)
        assert crossings == 2

    def test_ramp_visibility_equals_configured(self):
        det = DetectorModel(mirror_mode="ramp", ramp_rate=2e-6, imprecision_self=0.0)
        n = 1 << 14
        out = synthesize_detector(np.zeros(n), SETUP, det, dt=DT16 * 8)
        vis = (out.max() - out.min()) / (out.max() + out.min())
        assert vis == pytest.approx(SETUP.visibility, rel=1e-3)

    def test_no_mirror_flat_output(self):
        setup = OpticalSetup(mirror_reflectivity=0.0)
        det = DetectorModel(mirror_mode="ramp", ramp_rate=2e-6, imprecision_self=0.0)
        out = synthesize_detector(np.zeros(256), setup, det, dt=DT16)
        assert float(np.ptp(out)) == 0.0

    def test_small_signal_peak_amplitude(self):
        # low NA so the paraxial slope S = 4 pi A / lambda applies within 1%
        setup = OpticalSetup.from_numerical_aperture(0.10)
        det = DetectorModel(imprecision_self=0.0)
        lam = setup.wavelength
        q_amp = lam / 100
        fs = 1 / DT16
        n = 1 << 15
        f_d = 1024.0  # integer number of cycles in the record
        t = np.arange(n) * DT16
        q = q_amp * np.sin(2 * math.pi * f_d * t)
        out = synthesize_detector(q, setup, det, dt=DT16)
        # least-squares amplitude at the tone frequency
        design = np.column_stack(
            [np.cos(2 * math.pi * f_d * t), np.sin(2 * math.pi * f_d * t)]
        )
        coef, *_ = np.linalg.lstsq(design, out, rcond=None)
        amp_volts = det.gain * 2 * setup.mirror_reflectivity / (
            1 + setup.mirror_reflectivity**2
        ) * setup.visibility
        slope = 4 * math.pi * amp_volts / lam
        assert math.hypot(*coef) == pytest.approx(slope * q_amp, rel=0.01)


class TestCalibration:
    def make_synthetic_ramp(self, amp, freq, duration, fs, offset=0.3, phase=0.7):
        n = int(duration * fs)
        t = np.arange(n) / fs
        volts = offset + amp * np.cos(2 * math.pi * freq * t + phase)
        zeros = np.zeros(n)
        return Trajectory(
            dt=1 / fs, x=zeros, y=zeros, volts_self=volts,
            volts_fwd=zeros, mirror_d=zeros, rng_seed=0,
        )

    def test_exact_noiseless_fringes(self):
        lam = 780e-9
        traj = self.make_synthetic_ramp(1.0, 3.7, 2.0, 4096.0)
        result = run_calibration(traj, lam)
        assert result.volts_per_meter == pytest.approx(4 * math.pi / lam, rel=1e-9)
        assert result.fringes_covered == pytest.approx(7.4, rel=1e-6)

    def test_simulated_ramp_recovers_model_slope(self):
        det = DetectorModel(mirror_mode="ramp", ramp_rate=2e-6, imprecision_self=0.0)
        bath = Bath(pressure=0.5, temperature=1e-6)
        traj = simulate(TRAP, bath, NO_FB, det, SETUP, duration=0.5, dt=DT16, seed=6)
        result = run_calibration(traj, SETUP.wavelength)
        amp_expected = SETUP.visibility  # gain 1, rho 1
        assert result.fringe_amplitude_volts == pytest.approx(amp_expected, rel=1e-4)

    def test_rate_invariance(self):
        det_lo = DetectorModel(mirror_mode="ramp", ramp_rate=1.5e-6, imprecision_self=0.0)
        det_hi = DetectorModel(mirror_mode="ramp", ramp_rate=15e-6, imprecision_self=0.0)
        bath = Bath(pressure=0.5, temperature=1e-6)
        s = []
        for det, dur in ((det_lo, 0.8), (det_hi, 0.08)):
            traj = simulate(TRAP, bath, NO_FB, det, SETUP, duration=dur, dt=DT16, seed=6)
            s.append(run_calibration(traj, SETUP.wavelength).volts_per_meter)
        assert s[1] == pytest.approx(s[0], rel=0.005)

    def test_insufficient_travel_rejected(self):
        traj = self.make_synthetic_ramp(1.0, 0.4, 2.0, 4096.0)  # 0.8 fringe
        with pytest.raises(ValueError, match="insufficient"):
            run_calibration(traj, 780e-9)


class TestTrajectoryExport:
    def test_csv_format_and_roundtrip(self, tmp_path):
        bath = Bath(pressure=0.5, temperature=1.0)
        traj = simulate(TRAP, bath, NO_FB, QUIET, SETUP, duration=64 * DT16, dt=DT16, seed=2)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        raw = path.read_bytes()
        assert b"\r\n" in raw  # RFC-4180 line endings
        lines = raw.decode().strip().split("\r\n")
        assert lines[0] == "t,x,y,q,volts_self,volts_fwd,mirror_d"
        assert len(lines) == 65
        row = lines[3].split(",")
        assert float(row[0]) == pytest.approx(2 * DT16)
        assert float(row[3]) == traj.q[2]  # 17 significant digits round-trip

    def test_locked_mirror_position_on_setpoint(self):
        traj = simulate(
            TRAP, Bath(pressure=0.5, temperature=1e-6), NO_FB, QUIET, SETUP,
            duration=0.01, dt=DT16, seed=1,
        )
        lam = SETUP.wavelength
        rs = SETUP.focal_length + traj.mirror_d[0]
        m = (rs * 8 / lam - 1) / 2
        assert m == pytest.approx(round(m), abs=1e-6)
        assert round(m) % 2 == DetectorModel().lock_setpoint_index % 2
        assert np.all(traj.mirror_d == traj.mirror_d[0])
        assert not traj.mirror_d.flags.writeable

    def test_forward_channel_floor(self):
        s_fwd = 1e-20
        det = DetectorModel(imprecision_self=1e-24, imprecision_forward=s_fwd)
        bath = Bath(pressure=0.5, temperature=1e-6)
        traj = simulate(TRAP, bath, NO_FB, det, SETUP, duration=0.5, dt=DT16, seed=13)
        assert float(np.var(traj.volts_fwd)) == pytest.approx(s_fwd / (2 * DT16), rel=0.05, abs=0)


class TestConfigTypes:
    def test_feedback_validation(self):
        with pytest.raises(ValueError):
            FeedbackConfig(cooling_rate=-1.0)
        with pytest.raises(ValueError):
            FeedbackConfig(filter_band=(5000.0, 100.0))
        with pytest.raises(ValueError):
            FeedbackConfig(source_channel="sideways")

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(imprecision_self=-1.0)
        with pytest.raises(ValueError):
            DetectorModel(mirror_mode="wobble")

    def test_forward_default_38_db(self):
        det = DetectorModel(imprecision_self=3e-24)
        assert det.imprecision_forward == pytest.approx(3e-24 * 10**3.8, rel=1e-12, abs=0)
