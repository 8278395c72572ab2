"""Tests for the stochastic simulator, detector synthesis, and calibration.

Oracles: equipartition of the thermal state, the exponential energy decay of
a damped oscillator, the free-particle heating rate of a white force, the
closed-form mode frequencies under the feedback spring, and exact synthetic
fringes.
"""

import dataclasses
import math
import threading
import tracemalloc
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
    _detector_outputs,
    _effective_visibility,
    gas_damping_rate,
    run_calibration,
    simulate,
    thermal_force_psd,
)
from selfhomodyne.modes import TrapConfig, radial_modes
from selfhomodyne.optics import OpticalSetup, _effective_wavenumber, backaction_psd, fringe_slope
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
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            Bath(temperature=-1.0)
        for anchor in [(0.0, 1.0), (1e-2, 0.0), (-1e-2, 1.0), (1e-2, -1.0), (math.nan, 1.0),
                       (1e-2, math.inf)]:
            with pytest.raises(ValueError, match="damping anchor must be positive"):
                Bath(damping_anchor=anchor)
        # a NaN or infinite field fails its range and is named
        for field in ("pressure", "temperature"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{field} must be >= 0 and finite"):
                    Bath(**{field: value})

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
        # the per-step scale of every white force and imprecision draw
        rng = np.random.default_rng(123)
        for level in (1.79e-41, 1.9e-43):
            dt = DT16
            samples = rng.standard_normal(1_000_000) * langevin._white_scale(level, dt)
            assert float(np.var(samples)) == pytest.approx(level / (2 * dt), rel=0.02, abs=0)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        bath = Bath(pressure=0.1, temperature=300.0)
        fb = FeedbackConfig(cooling_rate=2 * math.pi * 50)
        det = DetectorModel(imprecision_self=1e-22)
        a = simulate(TRAP, bath, fb, det, SETUP, duration=0.2, dt=DT17, seed=99)
        b = simulate(TRAP, bath, fb, det, SETUP, duration=0.2, dt=DT17, seed=99)
        for name in ("x", "y", "q", "volts_self", "volts_fwd"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_differs(self):
        bath = Bath(pressure=0.1, temperature=300.0)
        a = simulate(TRAP, bath, NO_FB, QUIET, SETUP, duration=0.05, dt=DT16, seed=1)
        b = simulate(TRAP, bath, NO_FB, QUIET, SETUP, duration=0.05, dt=DT16, seed=2)
        assert not np.array_equal(a.x, b.x)


class TestBlockPipeline:
    """Block b + 1 is drawn on a helper thread while block b is scanned."""

    # three full blocks and a partial one
    N_STEPS = 3 * langevin._BLOCK + 777
    GAIN = 2 * math.pi * 640.0
    FB = FeedbackConfig(cooling_rate=GAIN, spring_gain=250.0 * math.sqrt(GAIN))
    S_BA = backaction_psd(1e-7, SETUP.wavelength)

    def run(self, n_steps=N_STEPS, seed=21):
        return simulate(
            TRAP, Bath(pressure=2e-2), self.FB, DetectorModel(), SETUP,
            duration=n_steps * DT17, dt=DT17, seed=seed, backaction_force_psd=self.S_BA,
        )

    def test_inputs_are_the_serial_stream(self):
        seen = []
        propagate = langevin._StepMap.propagate

        def record(step, state, inputs):
            seen.append(inputs.copy())
            return propagate(step, state, inputs)

        with mock.patch.object(langevin._StepMap, "propagate", record):
            traj = self.run(seed=21)
        assert [b.shape[0] for b in seen] == [langevin._BLOCK] * 3 + [777]

        det = DetectorModel()
        sigma_ba = math.sqrt(self.S_BA / (2 * DT17))
        scale = np.array([1.0, 1.0, 1.0, 1.0, sigma_ba, sigma_ba,
                          math.sqrt(det.imprecision_self / (2 * DT17)),
                          math.sqrt(det.imprecision_forward / (2 * DT17))])
        rng = np.random.default_rng(21)
        rng.standard_normal(4)  # the thermal initial state
        serial = rng.standard_normal((self.N_STEPS, 8)) * scale
        inputs = np.concatenate(seen)
        assert np.array_equal(inputs, serial)
        # a slot redrawn before its block's outputs were formed would break this
        p = (traj.x - traj.y) * langevin._INVSQ2
        assert np.array_equal(traj.volts_fwd, p + inputs[:, 7])

    def test_split_draws_are_one_draw(self):
        # blocks drawn one after another from one generator give the values
        # of one draw over the whole run: the stream does not depend on the
        # block size
        n = 3 * langevin._SUB_BLOCK + 777
        whole = np.random.default_rng(21).standard_normal(out=np.empty((n, 8)))
        rng = np.random.default_rng(21)
        split = np.empty((n, 8))
        for i0 in range(0, n, langevin._SUB_BLOCK):
            rng.standard_normal(out=split[i0 : i0 + langevin._SUB_BLOCK])
        assert np.array_equal(split, whole)

    @pytest.mark.parametrize(
        "n_steps, helpers",
        [pytest.param(N_STEPS, 1, id="four-blocks"), pytest.param(langevin._BLOCK, 0, id="one-block")],
    )
    def test_helper_thread_joined(self, n_steps, helpers):
        before = threading.active_count()
        during = []
        propagate = langevin._StepMap.propagate

        def count(step, state, inputs):
            during.append(threading.active_count())
            return propagate(step, state, inputs)

        with mock.patch.object(langevin._StepMap, "propagate", count):
            self.run(n_steps)
        # a run of one block starts no thread
        assert during[0] == before + helpers
        assert threading.active_count() == before

    @pytest.mark.parametrize("method", ["propagate", "draw_inputs"])
    def test_failure_in_second_block_joins_helper(self, method):
        # draw_inputs of block 2 runs on the helper thread, propagate on the caller's
        err = RuntimeError("second block")
        calls = []
        original = getattr(langevin._StepMap, method)

        def fail_second(step, *args):
            calls.append(args)
            if len(calls) == 2:
                raise err
            return original(step, *args)

        before = threading.active_count()
        with mock.patch.object(langevin._StepMap, method, fail_second):
            with pytest.raises(RuntimeError) as caught:
                self.run()
        assert caught.value is err
        assert threading.active_count() == before


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

    def test_invalid_run_rejected(self):
        bath = Bath(pressure=0.5, temperature=1.0)
        bad = [
            (dict(duration=0.0, dt=DT16), "duration and dt must be positive"),
            (dict(duration=-0.01, dt=DT16), "duration and dt must be positive"),
            (dict(duration=0.01, dt=0.0), "duration and dt must be positive"),
            (dict(duration=0.01, dt=-DT16), "duration and dt must be positive"),
            (dict(duration=0.01, dt=DT16, backaction_force_psd=-1e-43), "backaction_force_psd must be >= 0"),
            (dict(duration=1.4 * DT16, dt=DT16), "duration too short"),
            (dict(duration=math.nan, dt=DT16), "positive and finite, got duration = nan"),
            (dict(duration=math.inf, dt=DT16), "positive and finite, got duration = inf"),
            (dict(duration=0.01, dt=math.nan), "positive and finite, got dt = nan"),
            (dict(duration=1e300, dt=1e-10), "duration / dt = inf steps is not a finite count"),
            (dict(duration=0.01, dt=DT16, backaction_force_psd=math.nan),
             "backaction_force_psd must be >= 0 and finite, got nan"),
            (dict(duration=0.01, dt=DT16, backaction_force_psd=math.inf),
             "backaction_force_psd must be >= 0 and finite, got inf"),
            (dict(duration=0.01, dt=DT16, initial_state=(0.0, math.nan, 0.0, 0.0)), "initial_state"),
            (dict(duration=0.01, dt=DT16, initial_state=(0.0, 0.0, 0.0)), "initial_state"),
            (dict(duration=0.01, dt=DT16, initial_state=(0.0, 0.0, 0.0, 0.0, 0.0)), "initial_state"),
            (dict(duration=0.01, dt=DT16, initial_state=("a", 0.0, 0.0, 0.0)), "initial_state"),
            (dict(duration=0.01, dt=DT16, initial_state=1.0), "initial_state"),
            (dict(duration=64 * DT16, dt=DT16, self_from=True), "self_from .* got True"),
            (dict(duration=64 * DT16, dt=DT16, self_from=1.0), "self_from .* got 1.0"),
            (dict(duration=64 * DT16, dt=DT16, self_from="1"), "self_from .* got '1'"),
            (dict(duration=64 * DT16, dt=DT16, self_from=-1), r"0 <= self_from < 64 .* got -1"),
            (dict(duration=64 * DT16, dt=DT16, self_from=64), r"0 <= self_from < 64 .* got 64"),
            # a bool seed would run as the seed 0 or 1; numpy's own errors for the
            # other three do not name the seed
            (dict(duration=64 * DT16, dt=DT16, seed=True), "seed .* got True"),
            (dict(duration=64 * DT16, dt=DT16, seed=np.False_), "seed .* got (np.)?False"),
            (dict(duration=64 * DT16, dt=DT16, seed=-1), "seed .* got -1"),
            (dict(duration=64 * DT16, dt=DT16, seed=1.5), "seed .* got 1.5"),
            (dict(duration=64 * DT16, dt=DT16, seed="3"), "seed .* got '3'"),
        ]
        for kwargs, message in bad:
            with pytest.raises(ValueError, match=message):
                simulate(TRAP, bath, NO_FB, QUIET, SETUP, **{"seed": 1, **kwargs})

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


class TestWorkingSet:
    """What ``simulate`` holds besides its outputs is bounded by the block,
    not by the run.  tracemalloc counts numpy's allocations, so the figures
    repeat exactly."""

    # in blocks of one float64 series (_BLOCK * 8 B): two 8-column input
    # slots make 16, the scan workspace ~12, the block's x, y, q, p and
    # detector temporaries the rest
    BOUND_BLOCKS = 48
    # the scalar loop's, in sub-blocks (_SUB_BLOCK * 8 B): its one 8-column
    # input slot makes 8, the Python float lists of the inputs and of x and
    # y (32 B a float) ~36, the block's arrays the rest; 55.7 measured in
    # full, 50.4 stored alone
    BOUND_SUB_BLOCKS = 64

    def test_peak_above_outputs_is_a_few_blocks(self):
        gain = 2 * math.pi * 640.0
        runs = [
            # the scan: the fastest bench cool-sweep point, 4 s, stored in
            # full and, as cool-sweep runs it, after its 0.5 s transient alone
            (
                Bath(pressure=2e-2),
                FeedbackConfig(cooling_rate=gain, spring_gain=250.0 * math.sqrt(gain)),
                DetectorModel(imprecision_forward=2.2e-16),
                4.0, 0.5, langevin._BLOCK, self.BOUND_BLOCKS,
            ),
            # the scalar loop: the bench psd loop (1 K, viscous only, 4-sample
            # delay), stored in full and after a quarter of the run alone.
            # tracemalloc slows its per-step loop ~40x, so the run is 8
            # sub-blocks, not 4 s: a 4 s run gives the same figures to 0.03
            # sub-blocks
            (
                Bath(pressure=2e-2, temperature=1.0),
                FeedbackConfig(cooling_rate=2 * math.pi * 160.0, loop_delay=4 * DT17),
                DetectorModel(fringe_nonlinearity=True),
                0.25, 0.0625, langevin._SUB_BLOCK, self.BOUND_SUB_BLOCKS,
            ),
        ]
        for bath, fb, det, duration, transient, block, bound in runs:
            n_steps, n0 = round(duration / DT17), round(transient / DT17)
            assert n_steps >= 8 * block
            for self_from, series in ((None, 4 * n_steps), (n0, n_steps - n0)):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    traj = simulate(
                        TRAP, bath, fb, det, SETUP, duration=duration, dt=DT17, seed=5,
                        self_from=self_from,
                    )
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                stored = (traj.x, traj.y, traj.volts_self, traj.volts_fwd)
                outputs = sum(a.nbytes for a in stored if a is not None)
                assert outputs == 8 * series
                assert peak - outputs < bound * block * 8, (block, self_from)


class TestStoredRecord:
    """``simulate(..., self_from=n0)`` stores the self-homodyne channel from
    step n0 on alone, and it equals that part of the full record."""

    N_STEPS = 4 * langevin._BLOCK + 777
    GAIN = 2 * math.pi * 640.0
    LOOPS = {
        "open": (Bath(pressure=2e-2), NO_FB, DetectorModel()),
        "self-closed-spring": (
            Bath(pressure=2e-2),
            FeedbackConfig(cooling_rate=GAIN, spring_gain=250.0 * math.sqrt(GAIN)),
            DetectorModel(),
        ),
        "forward-closed": (
            Bath(pressure=2e-2),
            FeedbackConfig(cooling_rate=GAIN, source_channel="forward"),
            DetectorModel(imprecision_forward=2.2e-16),
        ),
        "ramp": (Bath(pressure=2e-2), NO_FB, DetectorModel(mirror_mode="ramp", ramp_rate=2e-6)),
        # the scalar loop, whose propagate returns Python lists
        "nonlinear-4-sample-delay": (
            Bath(pressure=2e-2, temperature=1.0),
            FeedbackConfig(cooling_rate=2 * math.pi * 160.0, loop_delay=4 * DT17),
            DetectorModel(fringe_nonlinearity=True),
        ),
    }

    def run(self, loop, self_from=None):
        bath, fb, det = self.LOOPS[loop]
        return simulate(
            TRAP, bath, fb, det, SETUP, duration=self.N_STEPS * DT17, dt=DT17, seed=29,
            backaction_force_psd=backaction_psd(1e-7, SETUP.wavelength), self_from=self_from,
        )

    @pytest.mark.parametrize("loop", LOOPS)
    def test_equals_the_full_record(self, loop):
        full = self.run(loop)
        # the first step, the steps around the first block boundary, the last
        for n0 in (0, langevin._BLOCK - 1, langevin._BLOCK, langevin._BLOCK + 1, self.N_STEPS - 1):
            lean = self.run(loop, n0)
            assert np.array_equal(lean.volts_self, full.volts_self[n0:]), n0
            assert lean.lock_lost == full.lock_lost
            assert lean.x is None and lean.y is None and lean.volts_fwd is None
            assert lean.self_from == n0
            with pytest.raises(ValueError, match=f"self_from = {n0}"):
                lean.q

    def test_lock_lost_covers_the_transient(self):
        # a cold particle started 1 um out, beyond lambda/4, and cooled back
        # inside it within the first block: the stored record never leaves
        # the fringe, yet the run lost the lock
        fb = FeedbackConfig(cooling_rate=self.GAIN)
        kwargs = dict(
            duration=self.N_STEPS * DT17, dt=DT17, seed=3, initial_state=(1e-6, 0.0, 0.0, 0.0)
        )
        cold = Bath(pressure=2e-2, temperature=1e-3)
        full = simulate(TRAP, cold, fb, QUIET, SETUP, **kwargs)
        n0 = langevin._BLOCK
        assert full.lock_lost
        assert np.max(np.abs(full.q[n0:])) < SETUP.wavelength / 4.0
        assert simulate(TRAP, cold, fb, QUIET, SETUP, self_from=n0, **kwargs).lock_lost


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
        # one block, a block boundary and a partial block after several
        n_steps=st.sampled_from([
            2, 3, 97, 4099, langevin._BLOCK + 1, langevin._BLOCK + 1234, 4 * langevin._BLOCK + 777,
        ]),
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
        self.assert_matches_scalar_loop(bath, fb, det, **kwargs)

    @pytest.mark.parametrize("channel", ["self-homodyne", "forward"])
    def test_bench_sweep_loop_over_three_blocks(self, channel):
        # the fastest cool-sweep point over three full blocks and a partial
        # one: the workspace is reused and the state carried across three
        # block boundaries
        gain = 2 * math.pi * 640.0
        fb = FeedbackConfig(
            cooling_rate=gain, spring_gain=250.0 * math.sqrt(gain), source_channel=channel
        )
        det = DetectorModel(imprecision_forward=2.2e-16)
        n_steps = 3 * langevin._BLOCK + 777
        self.assert_matches_scalar_loop(
            Bath(pressure=2e-2), fb, det, duration=n_steps * DT17, dt=DT17, seed=5
        )

    @staticmethod
    def assert_matches_scalar_loop(bath, fb, det, **kwargs):
        fast = simulate(TRAP, bath, fb, det, SETUP, **kwargs)
        with mock.patch.object(langevin._StepMap, "propagate", langevin._StepMap.run):
            ref = simulate(TRAP, bath, fb, det, SETUP, **kwargs)
        for name in ("x", "y", "volts_self", "volts_fwd"):
            a, b = getattr(fast, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name
        assert fast.lock_lost == ref.lock_lost


class TestScalarSubBlocks:
    """A loop that sees the fringe runs the scalar loop over blocks of
    ``_SUB_BLOCK`` steps; the result is that of one scalar loop over the
    whole run."""

    # full sub-blocks and a partial one, longer than several ``_BLOCK``s
    N_STEPS = 4 * langevin._BLOCK + 3 * langevin._SUB_BLOCK + 777
    LOOPS = {
        # the benchmark psd loop: 1 K, viscous only, 4-sample delay
        "bench-psd": (
            Bath(pressure=2e-2, temperature=1.0),
            FeedbackConfig(cooling_rate=2 * math.pi * 160.0, loop_delay=4 * DT17),
        ),
        "self-2-sample-delay": (
            Bath(pressure=2e-2, temperature=1e-3),
            FeedbackConfig(
                cooling_rate=2 * math.pi * 320.0, spring_gain=2 * math.pi * 250.0,
                loop_delay=2 * DT17,
            ),
        ),
    }

    @pytest.mark.parametrize("loop", LOOPS)
    def test_matches_whole_block_scalar_loop(self, loop):
        bath, fb = self.LOOPS[loop]
        det = DetectorModel(fringe_nonlinearity=True)
        kwargs = dict(duration=self.N_STEPS * DT17, dt=DT17, seed=17)
        run = langevin._StepMap.run

        before = threading.active_count()

        def simulate_counting_rows():
            rows = []

            def count_rows(step, state, inputs, linear=False):
                if not linear:  # not a probe of the linear map
                    rows.append(inputs.shape[0])
                    # the blocks are drawn in place, on no helper thread
                    assert threading.active_count() == before
                return run(step, state, inputs, linear)

            with mock.patch.object(langevin._StepMap, "run", count_rows):
                return simulate(TRAP, bath, fb, det, SETUP, **kwargs), rows

        sub, rows = simulate_counting_rows()
        assert max(rows) <= langevin._SUB_BLOCK
        assert sum(rows) == self.N_STEPS
        # the reference: the same run as one block, one scalar loop
        with mock.patch.object(langevin, "_SUB_BLOCK", self.N_STEPS):
            whole, rows = simulate_counting_rows()
        assert rows == [self.N_STEPS]
        for name in ("x", "y", "volts_self", "volts_fwd"):
            assert np.array_equal(getattr(sub, name), getattr(whole, name)), name
        assert sub.lock_lost == whole.lock_lost


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
            DetectorModel(imprecision_self=0.0, mirror_mode="ramp", ramp_rate=2e-6),
        ],
        ids=["locked-linear", "locked-nonlinear", "ramp"],
    )
    def test_same_model_as_simulate(self, det):
        # 1 K: the motion spans k_eff*q ~ 1, where sin(k_eff q) and q differ
        bath = Bath(pressure=0.5, temperature=1.0)
        traj = simulate(TRAP, bath, NO_FB, det, SETUP, duration=0.05, dt=DT16, seed=3)
        q = traj.q
        t = np.arange(q.size) * DT16
        out, _ = _detector_outputs(q, None, np.zeros(q.size), None, t, SETUP, det)
        assert np.array_equal(out, traj.volts_self)

    def test_ramp_is_the_two_term_path(self):
        # the ramp phase with the start path written as the sum of a 0.05 m
        # focal length and a 0.10 m mirror distance, the mirror term wrapped
        # per sample: the fixed 0.15 m start gives the same fringe to rounding
        rate = 2e-6
        det = DetectorModel(imprecision_self=0.0, imprecision_forward=0.0, mirror_mode="ramp",
                            ramp_rate=rate)
        lam = SETUP.wavelength
        traj = simulate(TRAP, Bath(), NO_FB, det, SETUP, duration=3 * (lam / 2) / rate, dt=DT17,
                        seed=20240901, initial_state=(0.0, 0.0, 0.0, 0.0))
        t = np.arange(traj.volts_self.size) * DT17
        mirror = np.mod(4.0 * math.pi * (0.05 + (0.10 + rate * t)) / lam, 2.0 * math.pi)
        phase = mirror + _effective_wavenumber(SETUP) * traj.q
        expected = 1.0 - _effective_visibility(SETUP) * np.cos(phase)
        assert float(np.max(np.abs(traj.volts_self - expected))) <= 2e-9

    def test_locked_zero_motion_gives_zero_mean_noise(self):
        det = DetectorModel(imprecision_self=1e-22)
        rng = np.random.default_rng(5)
        sigma = math.sqrt(1e-22 / (2 * DT16))
        n = 1 << 15
        out, _ = _detector_outputs(np.zeros(n), None, rng.standard_normal(n) * sigma, None, None, SETUP, det)
        slope = SETUP.visibility * (4 * math.pi / SETUP.wavelength) * (
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
        out, _ = _detector_outputs(np.zeros(n), None, np.zeros(n), None, np.arange(n) * dt, SETUP, det)
        assert out[0] == pytest.approx(out[-1], rel=1e-3)
        mid = (out.max() + out.min()) / 2
        crossings = np.sum(np.diff(np.sign(out - mid)) != 0)
        assert crossings == 2

    def test_ramp_visibility_equals_configured(self):
        det = DetectorModel(mirror_mode="ramp", ramp_rate=2e-6, imprecision_self=0.0)
        n = 1 << 14
        out, _ = _detector_outputs(np.zeros(n), None, np.zeros(n), None, np.arange(n) * (DT16 * 8), SETUP, det)
        vis = (out.max() - out.min()) / (out.max() + out.min())
        assert vis == pytest.approx(SETUP.visibility, rel=1e-3)

    def test_no_mirror_flat_output(self):
        setup = OpticalSetup(mirror_reflectivity=0.0)
        det = DetectorModel(mirror_mode="ramp", ramp_rate=2e-6, imprecision_self=0.0)
        out, _ = _detector_outputs(np.zeros(256), None, np.zeros(256), None, np.arange(256) * DT16, setup, det)
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
        out, _ = _detector_outputs(q, None, np.zeros(n), None, None, setup, det)
        # least-squares amplitude at the tone frequency
        design = np.column_stack(
            [np.cos(2 * math.pi * f_d * t), np.sin(2 * math.pi * f_d * t)]
        )
        coef, *_ = np.linalg.lstsq(design, out, rcond=None)
        amp_volts = 2 * setup.mirror_reflectivity / (
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
            volts_fwd=zeros,
        )

    def test_exact_noiseless_fringes(self):
        # from on a bin of the FFT to 0.99 bin off it, in four phases: a
        # search that starts its parabolic steps at the FFT peak misses the
        # minimum off the bin (by up to 7% in frequency between 7.25 and
        # 7.75 fringes), so each case is checked, not only one
        lam = 780e-9
        for fringes in (7.0, 7.25, 7.4, 7.5, 7.6, 7.75, 7.9, 7.99):
            for phase in (0.0, 0.7, 2.5, 4.4):
                traj = self.make_synthetic_ramp(1.0, fringes / 2.0, 2.0, 4096.0, phase=phase)
                result = run_calibration(traj, lam)
                case = f"{fringes} fringes, phase {phase}"
                assert result.volts_per_meter == pytest.approx(4 * math.pi / lam, rel=1e-9), case
                assert result.fringes_covered == pytest.approx(fringes, rel=1e-9), case
                assert result.offset_volts == pytest.approx(0.3, rel=1e-9), case

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
        # 15 samples: too few to fit at all
        traj = self.make_synthetic_ramp(1.0, 2.0, 1.0, 15.0)
        with pytest.raises(ValueError, match="trajectory too short"):
            run_calibration(traj, 780e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        traj = self.make_synthetic_ramp(1.0, 3.7, 2.0, 4096.0)
        traj.volts_self[[1234, 5000, 7000]] = bad
        with pytest.raises(ValueError, match="3 non-finite sample.*index 1234"):
            run_calibration(traj, 780e-9)

    @pytest.mark.parametrize("wavelength", [0.0, -780e-9, math.nan, math.inf])
    def test_bad_wavelength_rejected(self, wavelength):
        # -780 nm gave a negative slope, NaN a NaN slope and 0 a bare
        # ZeroDivisionError
        traj = self.make_synthetic_ramp(1.0, 3.7, 2.0, 4096.0)
        with pytest.raises(ValueError, match="wavelength must be positive and finite"):
            run_calibration(traj, wavelength)

    @pytest.mark.parametrize("dt", [0.0, -1e-5, math.nan, math.inf])
    def test_bad_dt_rejected(self, dt):
        # dt = inf hung the calibration's search and dt < 0 gave a negative
        # fringe frequency: the record rejects both when it is made, and its
        # fields cannot be reassigned after
        traj = self.make_synthetic_ramp(1.0, 3.7, 2.0, 4096.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            dataclasses.replace(traj, dt=dt)
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.dt = dt


def brent_calibration(trajectory, wavelength):
    """run_calibration's (volts_per_meter, fringe_frequency_hz, offset_volts)
    as computed with scipy's bounded Brent minimizer on the same bracket, a
    parabolic polish at 1e-4 and 1e-7 bin, and an SVD least-squares fit at
    every trial frequency."""
    from scipy import optimize

    v = np.asarray(trajectory.volts_self, dtype=float)
    t = np.arange(v.size) * trajectory.dt
    df = 1.0 / (v.size * trajectory.dt)
    spec = np.abs(np.fft.rfft(v - v.mean()))
    spec[0] = 0.0
    f0 = int(np.argmax(spec)) * df

    def fit(freq):
        w = 2.0 * math.pi * freq
        design = np.column_stack([np.ones(v.size), np.cos(w * t), np.sin(w * t)])
        coef, *_ = np.linalg.lstsq(design, v, rcond=None)
        r = v - design @ coef
        return coef, float(r @ r)

    def rss(freq):
        return fit(freq)[1]

    bounds = (max(f0 - 1.5 * df, 0.1 * df), f0 + 1.5 * df)
    f = optimize.minimize_scalar(rss, bounds=bounds, method="bounded", options={"xatol": df * 1e-12}).x
    for h in (1e-4 * df, 1e-7 * df):
        r_m, r_0, r_p = rss(f - h), rss(f), rss(f + h)
        denom = r_m - 2.0 * r_0 + r_p
        if denom > 0.0 and abs(0.5 * h * (r_m - r_p) / denom) < 2.0 * h:
            f += 0.5 * h * (r_m - r_p) / denom
    coef, _ = fit(f)
    return fringe_slope(math.hypot(coef[1], coef[2]), wavelength), f, float(coef[0])


@pytest.mark.parametrize("n", [16, 8192, 10007, 76677], ids=["16", "smooth", "prime", "default-ramp"])
def test_split_transform_matches_rfft(n):
    """The calibration's split transform gives ``np.abs(np.fft.rfft(x))``
    for a smooth length, a prime one (no split) and the default ramp's
    3*61*419."""
    x = np.random.default_rng(n).standard_normal(n) + np.cos(0.3 * np.arange(n))
    ref = np.abs(np.fft.rfft(x))
    got = langevin._rfft_magnitude(x)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


class TestCalibrationAgainstBrent:
    """The golden-section search and the normal equations give the fit of
    the bounded Brent search and the SVD least squares they replaced, on the
    ramp ``calibrate`` runs: with the default bath, whose fringes are clean,
    and at 2e-2 mbar, where the particle's motion dominates the scan.  The
    split transform's peak bin is ``np.fft.rfft``'s on each ramp."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("pressure", [None, 2e-2], ids=["default", "2e-2mbar"])
    def test_matches_reference(self, pressure, seed):
        from selfhomodyne import cli
        from selfhomodyne.config import ScenarioConfig

        cfg = ScenarioConfig.from_dict({} if pressure is None else {"bath": {"pressure_mbar": pressure}})
        traj = cli._ramp_run(cfg, seed)
        vc = traj.volts_self - traj.volts_self.mean()
        assert np.argmax(langevin._rfft_magnitude(vc)[1:]) == np.argmax(np.abs(np.fft.rfft(vc))[1:])
        result = run_calibration(traj, cfg.setup.wavelength)
        got = (result.volts_per_meter, result.fringe_frequency_hz, result.offset_volts)
        np.testing.assert_allclose(got, brent_calibration(traj, cfg.setup.wavelength), rtol=1e-10, atol=0)


class TestTrajectoryExport:
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
        with pytest.raises(ValueError, match="loop_delay must be >= 0"):
            FeedbackConfig(loop_delay=-1e-6)
        # a NaN or infinite field fails its range and is named; a NaN
        # cooling rate would otherwise run the loop open (nan > 0 is False)
        for field in ("cooling_rate", "spring_gain", "loop_delay"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{field} must be >= 0 and finite"):
                    FeedbackConfig(**{field: value})
        for band in [(math.nan, 6400.0), (300.0, math.nan), (300.0, math.inf)]:
            with pytest.raises(ValueError, match="filter_band must satisfy"):
                FeedbackConfig(filter_band=band)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(imprecision_self=-1.0)
        with pytest.raises(ValueError, match="imprecision_forward must be >= 0"):
            DetectorModel(imprecision_forward=-1e-20)
        with pytest.raises(ValueError):
            DetectorModel(mirror_mode="wobble")
        for rate in (0.0, -1e-6, math.nan, math.inf):
            with pytest.raises(ValueError, match="ramp_rate must be > 0"):
                DetectorModel(ramp_rate=rate)
        for field in ("imprecision_self", "imprecision_forward"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{field} must be >= 0 and finite"):
                    DetectorModel(**{field: value})
        # a truthy string or number would switch the nonlinearity on
        for flag in ("false", "", 1, 0.0, None):
            with pytest.raises(ValueError, match="fringe_nonlinearity must be a bool"):
                DetectorModel(fringe_nonlinearity=flag)
        for flag in (True, np.True_, np.False_):
            assert DetectorModel(fringe_nonlinearity=flag).fringe_nonlinearity == flag

    def test_forward_default_38_db(self):
        det = DetectorModel(imprecision_self=3e-24)
        assert det.imprecision_forward == pytest.approx(3e-24 * 10**3.8, rel=1e-12, abs=0)
