"""Tests for the CLI harness: command outputs, determinism, config handling,
and exit codes.  Commands run in-process through main()."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfhomodyne
from selfhomodyne import cli, langevin
from selfhomodyne.cli import main
from selfhomodyne.config import ConfigError, ScenarioConfig
from selfhomodyne.langevin import Bath, DetectorModel, FeedbackConfig, run_calibration
from selfhomodyne.modes import TrapConfig
from selfhomodyne.optics import (
    OpticalSetup,
    Scatterer,
    calibration_deviation,
    detection_efficiency,
    imprecision,
)
from selfhomodyne.spectral import FitError, lorentzian_fit


def run_cli(tmp_path, command, overrides=None, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "out"
    argv = ["--out", str(out)]
    if overrides is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(overrides))
        argv += ["--config", str(cfg_path)]
    argv += list(extra)
    argv.append(command)
    code = main(argv)
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = ScenarioConfig.from_dict({"scenario_id": "rt", "bath": {"pressure_mbar": 0.5}})
        again = ScenarioConfig.from_dict(json.loads(cfg.to_json()))
        assert again.to_json() == cfg.to_json()
        assert again.sha256() == cfg.sha256()

    def test_defaults_complete(self):
        cfg = ScenarioConfig.from_dict({})
        assert math.sin(cfg.setup.half_aperture) == pytest.approx(0.18)
        assert cfg.trap.secular_freq_y == pytest.approx(2 * math.pi * 3200)
        assert cfg.bath.pressure == 2e-8

    def test_defaults_are_library_defaults(self):
        # from_dict reads each leaf's default from the dataclass defaults,
        # the one copy of the operating point: parsing them back through the
        # key units gives the same objects
        cfg = ScenarioConfig.from_dict({})
        assert cfg.setup == OpticalSetup()
        assert cfg.scatterer == Scatterer()
        assert cfg.trap == TrapConfig()
        assert cfg.bath == Bath()
        assert cfg.detector == DetectorModel()
        assert cfg.feedback == FeedbackConfig()

    def test_default_tree_pinned(self):
        # a default moved, or a unit conversion changed, shows here
        assert ScenarioConfig.from_dict({}).sha256() == (
            "a63cabdb67034ba5597173c7bbfb6f7904d5652753c94e8495821d84a7eae4ee"
        )
        assert ScenarioConfig.from_dict().sha256() == ScenarioConfig.from_dict({}).sha256()

    @pytest.mark.parametrize("overrides", [[1], "x", 5, []], ids=repr)
    def test_non_dict_overrides_rejected(self, overrides):
        message = f"config overrides must be a dict, got {type(overrides).__name__}$"
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict(overrides)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ScenarioConfig.from_dict({"optic": {}})
        with pytest.raises(ConfigError, match="unknown config key"):
            ScenarioConfig.from_dict({"optics": {"wavelength_nm": 780}})
        # an unknown table that is not a table is unknown, not a bad table
        with pytest.raises(ConfigError, match="^unknown config key: optic$"):
            ScenarioConfig.from_dict({"optic": 5})
        # an unknown key beside valid ones in a table that is read
        with pytest.raises(ConfigError, match="^unknown config key: optics.bogus$"):
            ScenarioConfig.from_dict({"optics": {"wavelength_m": 780e-9, "bogus": 1, "visibility": 0.5}})
        # settings that no computation read are gone
        for table, key in [("optics", "axis_projection_angle_rad"),
                           ("trap", "secular_freq_z_hz"), ("trap", "stability_q"),
                           ("trap", "drive_freq_hz"), ("detector", "mirror_mode"),
                           ("detector", "lock_setpoint_index"), ("optics", "polarization_axis"),
                           ("detector", "gain_volts"), ("optics", "focal_length_m"),
                           ("optics", "mirror_distance_m")]:
            with pytest.raises(ConfigError, match="unknown config key"):
                ScenarioConfig.from_dict({table: {key: 0.5}})

    def test_invalid_value_rejected(self):
        bad = [
            {"optics": {"visibility": 1.5}},
            {"sim": {"transient_s": 99.0}},
            {"detector": {"ramp_rate_m_per_s": 0.0}},
            {"detector": {"ramp_rate_m_per_s": -1e-6}},
            {"sweeps": {"scattered_powers_w": [0.0]}},
            {"sweeps": {"cooling_rates_rad_per_s": [-1.0]}},
            {"sweeps": {"spring_gain_coef": -250.0}},
            {"sweeps": {"mode_spring_gains_rad_per_s": [-1.0]}},
            # the mass reaches the physics, and its check, through TrapConfig
            {"scatterer": {"mass_kg": -1e-18}},
        ]
        for overrides in bad:
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict(overrides)
        # wrong types, non-finite numbers, bad seeds and values out of range:
        # the error names the leaf
        typed = [
            ("detector", "imprecision_self_m2_per_hz", -1),
            ("detector", "imprecision_forward_m2_per_hz", -1),
            ("bath", "damping_anchor_pressure_mbar", 0),
            ("trap", "secular_freq_x_hz", -1),
            ("optics", "visibility", 1.5),
            ("bath", "pressure_mbar", math.nan),
            ("bath", "pressure_mbar", math.inf),
            ("optics", "wavelength_m", -math.inf),
            ("sim", "dt_s", math.nan),
            ("trap", "secular_freq_x_hz", math.inf),
            ("trap", "secular_freq_y_hz", math.nan),
            ("bath", "pressure_mbar", "2e-8"),
            ("detector", "fringe_nonlinearity", "false"),
            ("detector", "fringe_nonlinearity", 0),
            ("sim", "seed", 1.7),
            ("sim", "seed", "7"),
            ("sim", "seed", True),
            ("sim", "seed", -1),
            ("sweeps", "scattered_powers_w", [math.nan, "4e-8"]),
            ("sweeps", "scattered_powers_w", 4e-8),
            ("sweeps", "cooling_rates_rad_per_s", [math.inf]),
            ("sweeps", "spring_gain_coef", "250"),
            ("sweeps", "mode_spring_gains_rad_per_s", "abc"),
            ("sweeps", "mode_spring_gains_rad_per_s", [True]),
            ("sim", "dt_s", 0.0),
            ("sim", "dt_s", -1e-6),
            ("sim", "duration_s", 0.0),
            ("sim", "transient_s", -0.1),
            ("sim", "transient_s", 99.0),
            ("optics", "numerical_aperture", 1.5),
            ("optics", "numerical_aperture", 0.0),
            ("optics", "numerical_aperture", -0.18),
            ("feedback", "filter_band_hz", [300.0, 6400.0, 9000.0]),
            ("feedback", "filter_band_hz", [300.0]),
            ("feedback", "filter_band_hz", [6400.0, 300.0]),
            ("sweeps", "scattered_powers_w", [0.0]),
            ("sweeps", "cooling_rates_rad_per_s", [-1.0, 0.0, 1.0]),
            ("sweeps", "spring_gain_coef", -250.0),
            ("sweeps", "mode_spring_gains_rad_per_s", [-1.0]),
            ("scatterer", "refractive_index", 0.9),
            ("feedback", "source_channel", 3),
            ("feedback", "source_channel", "side"),
            # an integer JSON number too large for a float
            ("bath", "pressure_mbar", 10**400),
            ("sim", "seed", 10**400),
        ]
        for table, key, value in typed:
            with pytest.raises(ConfigError, match=re.escape(f"{table}.{key}: ")):
                ScenarioConfig.from_dict({table: {key: value}})
        # sweeps too short to run: the error names the leaf
        short = [("scattered_powers_w", []), ("cooling_rates_rad_per_s", []),
                 ("cooling_rates_rad_per_s", [0.0, 100.0])]
        for key, value in short:
            with pytest.raises(ConfigError, match=re.escape(f"sweeps.{key}: needs")):
                ScenarioConfig.from_dict({"sweeps": {key: value}})
        # the scenario id and the tables: the error names the key
        named = [
            ({"scenario_id": 5}, "scenario_id must be a string"),
            ({"scenario_id": None}, "scenario_id must be a string"),
            ({"bath": 2e-8}, "config key bath must be a table"),
            ({"sim": [1.0]}, "config key sim must be a table"),
        ]
        for overrides, message in named:
            with pytest.raises(ConfigError, match=message):
                ScenarioConfig.from_dict(overrides)
        assert math.sin(ScenarioConfig.from_dict({"optics": {"numerical_aperture": 1.0}}).setup.half_aperture) == 1.0
        # an integral float is still an integral seed
        assert ScenarioConfig.from_dict({"sim": {"seed": 7.0}}).seed == 7

    def test_cooling_rates_at_most_1000(self):
        # forward-channel point i is seeded as sweep point 1000 + i, so a
        # 1001st self-homodyne point would share forward point 0's seed
        rates = [float(i) for i in range(1000)]
        assert len(ScenarioConfig.from_dict({"sweeps": {"cooling_rates_rad_per_s": rates}}).cooling_rates) == 1000
        with pytest.raises(ConfigError, match=r"sweeps\.cooling_rates_rad_per_s: allows at most 1000 entries"):
            ScenarioConfig.from_dict({"sweeps": {"cooling_rates_rad_per_s": rates + [1000.0]}})


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _sim(draw):
    duration = draw(_floats(1e-3, 1e3))
    return {
        "dt_s": draw(_floats(1e-9, 1e-3)),
        "duration_s": duration,
        "transient_s": draw(_floats(0.0, 0.99)) * duration,
        "seed": draw(st.integers(0, 2**63)),
    }


_OVERRIDES = st.fixed_dictionaries({}, optional={
    "sim": _sim(),
    "sweeps": st.fixed_dictionaries({}, optional={
        "scattered_powers_w": st.lists(_floats(1e-12, 1.0), min_size=1, max_size=6),
        "cooling_rates_rad_per_s": st.lists(_floats(0.0, 1e4), min_size=3, max_size=8),
        "spring_gain_coef": _floats(0.0, 1e3),
        "mode_spring_gains_rad_per_s": st.lists(_floats(0.0, 1e5), max_size=6),
    }),
    "detector": st.fixed_dictionaries({}, optional={
        "imprecision_self_m2_per_hz": _floats(0.0, 1e-20),
        "imprecision_forward_m2_per_hz": _floats(0.0, 1e-14),
        "fringe_nonlinearity": st.booleans(),
        "ramp_rate_m_per_s": _floats(1e-9, 1e-4),
    }),
})


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(overrides=_OVERRIDES)
    def test_parse_serialize_parse(self, overrides):
        cfg = ScenarioConfig.from_dict(overrides)
        again = ScenarioConfig.from_dict(json.loads(cfg.to_json()))
        assert again.to_json() == cfg.to_json()
        assert again.sha256() == cfg.sha256()
        assert again == cfg
        # the typed values are the ones the tree holds
        sim, swp = cfg.tree["sim"], cfg.tree["sweeps"]
        assert (cfg.dt, cfg.duration, cfg.transient, cfg.seed) == (
            sim["dt_s"], sim["duration_s"], sim["transient_s"], sim["seed"]
        )
        assert cfg.scattered_powers == tuple(swp["scattered_powers_w"])
        assert cfg.cooling_rates == tuple(swp["cooling_rates_rad_per_s"])
        assert cfg.spring_gain_coef == swp["spring_gain_coef"]
        assert cfg.mode_spring_gains == tuple(swp["mode_spring_gains_rad_per_s"])
        assert type(cfg.seed) is int


class TestEfficiencyReport:
    def test_paper_defaults(self, tmp_path):
        code, out = run_cli(tmp_path, "efficiency-report")
        assert code == 0
        report = json.loads((out / "efficiency_report.json").read_text())
        assert report["eta_collection"] == pytest.approx(0.012, abs=1e-3)
        assert report["eta_detection"] == pytest.approx(0.021, abs=4e-3)
        assert report["delta_chi"] == pytest.approx(0.008, abs=1e-3)
        # the report and the library share one delta_chi formula
        assert report["delta_chi"] == calibration_deviation(0.18)
        assert report["p_rayleigh_w"] == pytest.approx(0.09e-6, rel=0.5)
        assert report["s_gas_over_s_backaction"] > 10.0

    def test_lossless_unit_aperture(self, tmp_path):
        overrides = {
            "optics": {
                "numerical_aperture": 1.0,
                "visibility": 1.0,
                "path_efficiency": 1.0,
                "detector_quantum_efficiency": 1.0,
            }
        }
        code, out = run_cli(tmp_path, "efficiency-report", overrides)
        assert code == 0
        report = json.loads((out / "efficiency_report.json").read_text())
        assert report["eta_detection"] == pytest.approx(1.0, abs=1e-12)
        assert report["eta_collection"] == pytest.approx(0.5, abs=1e-9)

    def test_manifest_written(self, tmp_path):
        code, out = run_cli(tmp_path, "efficiency-report")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "efficiency-report"
        assert manifest["outputs"] == ["efficiency_report.json"]
        assert "hbar_j_s" in manifest["constants"]
        assert len(manifest["config_sha256"]) == 64

    def test_zero_power_writes_strict_json(self, tmp_path):
        # without back-action the gas/back-action ratio is null, not Infinity
        code, out = run_cli(tmp_path, "efficiency-report", {"beam": {"power_w": 0}})
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (out / "efficiency_report.json").read_text()
        report = json.loads(text, parse_constant=reject)
        assert report["s_backaction_n2_per_hz"] == 0.0
        assert report["s_gas_over_s_backaction"] is None


FAST_SCAN = {
    "bath": {"pressure_mbar": 0.5, "temperature_k": 1e-6},
    "sim": {"dt_s": 2.0**-16, "duration_s": 0.5, "transient_s": 0.1, "seed": 9},
}


class TestFringeScan:
    def test_fringe_period_is_half_wavelength(self, tmp_path):
        code, out = run_cli(tmp_path, "fringe-scan", FAST_SCAN)
        assert code == 0
        header, rows = read_csv(out / "fringe_scan.csv")
        assert header == ["mirror_displacement_m", "detector_volts", "visibility"]
        disp = np.array([r[0] for r in rows])
        volts = np.array([r[1] for r in rows])
        # dominant spatial period from the FFT over the (linear) ramp
        spec = np.abs(np.fft.rfft(volts - volts.mean()))
        k = int(np.argmax(spec[1:])) + 1
        travel = disp[-1] - disp[0]
        period = travel / k
        lam = 780e-9
        assert period == pytest.approx(lam / 2, rel=0.01)

    def test_visibility_column_matches_config(self, tmp_path):
        code, out = run_cli(tmp_path, "fringe-scan", FAST_SCAN)
        _, rows = read_csv(out / "fringe_scan.csv")
        assert rows[0][2] == pytest.approx(0.7, rel=1e-3)

    def test_no_mirror_flat_output(self, tmp_path):
        overrides = dict(FAST_SCAN)
        overrides["optics"] = {"mirror_field_reflectivity": 0.0}
        code, out = run_cli(tmp_path, "fringe-scan", overrides)
        assert code == 0
        _, rows = read_csv(out / "fringe_scan.csv")
        volts = np.array([r[1] for r in rows])
        assert float(np.ptp(volts)) == 0.0
        assert rows[0][2] == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fringes_covered"] is None

    @pytest.mark.parametrize("bath, clean", [
        (None, True),  # the default 2e-8 mbar: the particle barely moves
        ({"pressure_mbar": 2e-2}, False),  # the fit follows the particle's motion
    ], ids=["default", "2e-2mbar"])
    def test_manifest_reports_fringes_covered(self, tmp_path, bath, clean):
        code, out = run_cli(tmp_path, "fringe-scan", None if bath is None else {"bath": bath})
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        _, rows = read_csv(out / "fringe_scan.csv")
        assert manifest["fringes_ramped"] == 3
        if clean:
            assert manifest["fringes_covered"] == pytest.approx(3.0, abs=1e-3)
            assert rows[0][2] == pytest.approx(0.7, abs=0.01)
        else:
            assert manifest["fringes_covered"] > 100.0
            assert rows[0][2] < 0.1


class TestCalibrateCommand:
    def test_reports_model_slope(self, tmp_path):
        code, out = run_cli(tmp_path, "calibrate", FAST_SCAN)
        assert code == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["volts_per_meter"] == pytest.approx(
            report["model_slope_volts_per_meter"], rel=1e-3
        )
        assert report["fringes_covered"] == pytest.approx(3.0, rel=1e-3)

    def test_blurred_scan_fails(self, tmp_path):
        # a 300 K bath at 0.5 mbar heats the particle during the scan, and its
        # motion smears the fringes: the fitted slope falls far below the model
        over = dict(FAST_SCAN, bath={"pressure_mbar": 0.5, "temperature_k": 300.0})
        code, out = run_cli(tmp_path, "calibrate", over)
        assert code == 1
        assert not (out / "calibration.json").exists() and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err.startswith("ValueError: calibrate: fitted slope ")
        model = ScenarioConfig.from_dict(over)
        assert f"from the model slope {cli._calibration_slope(model):.6g} V/m (bound 1%)" in err
        assert "at bath pressure 0.5 mbar" in err and "pre-cooled particle" in err
        # the fit follows the particle's motion: it finds thousands of fringes
        fit = run_calibration(cli._ramp_run(model, model.seed), model.setup.wavelength)
        assert fit.fringes_covered > 100 * cli._FRINGES_RAMPED
        assert f"the fit found {fit.fringes_covered:.6g} fringes where 3 were ramped" in err


class TestModesCommand:
    def test_oracle_discrepancy_small(self, tmp_path):
        code, out = run_cli(tmp_path, "modes")
        assert code == 0
        data = json.loads((out / "modes.json").read_text())
        assert len(data["modes"]) >= 3
        for entry in data["modes"]:
            assert entry["oracle_discrepancy"] < 1e-10
        # zero gain reproduces the bare trap at 45 degrees
        first = data["modes"][0]
        assert first["nu_low_hz"] == 2100.0
        assert first["nu_high_hz"] == 3200.0
        assert first["theta_fb_rad"] == pytest.approx(math.pi / 4)
        # rotation angle decreases with gain
        thetas = [m["theta_fb_rad"] for m in data["modes"]]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))


IMP_SWEEP = {
    "sim": {"dt_s": 2.0**-16, "duration_s": 2.0, "transient_s": 0.0, "seed": 3},
    "sweeps": {"scattered_powers_w": [4e-8, 8.4e-8, 4e-7]},
}


COOL_THREADS = {
    "bath": {"pressure_mbar": 2e-2},
    "detector": {"imprecision_forward_m2_per_hz": 2.2e-16},
    "sim": {"duration_s": 1.5, "transient_s": 0.25, "seed": 77},
    "sweeps": {"cooling_rates_rad_per_s": [0.0, 2 * math.pi * 40.0, 2 * math.pi * 160.0]},
}


class TestImprecisionSweep:
    def test_columns_and_physics(self, tmp_path):
        code, out = run_cli(tmp_path, "imprecision-sweep", IMP_SWEEP)
        assert code == 0
        header, rows = read_csv(out / "imprecision_sweep.csv")
        eta = 0.021613487536598624  # detection efficiency of the default setup
        powers = np.array([r[0] for r in rows])
        pred = np.array([r[1] for r in rows])
        ideal = np.array([r[2] for r in rows])
        extracted = np.array([r[3] for r in rows])
        # predicted / ideal ratio is 1/eta at every power
        np.testing.assert_allclose(pred / ideal, 1.0 / eta, rtol=1e-12)
        # log-log slope -1
        slopes = np.diff(np.log(pred)) / np.diff(np.log(powers))
        assert np.all(np.abs(slopes + 1) < 1e-12)
        # simulated floor recovers the prediction
        np.testing.assert_allclose(extracted, pred, rtol=0.10)

    def test_sensitivity_at_84_nw(self, tmp_path):
        code, out = run_cli(tmp_path, "imprecision-sweep", IMP_SWEEP)
        _, rows = read_csv(out / "imprecision_sweep.csv")
        row = next(r for r in rows if r[0] == pytest.approx(8.4e-8, abs=0))
        assert math.sqrt(row[1]) == pytest.approx(1.7e-12, rel=0.05, abs=0)

    def test_simulates_the_configured_detector(self, tmp_path):
        # the scenario's detector, locked, with the predicted floor
        over = {
            "detector": {"fringe_nonlinearity": True, "ramp_rate_m_per_s": 3e-6},
            "sim": {"dt_s": 2.0**-16, "duration_s": 0.25, "transient_s": 0.0, "seed": 3},
            "sweeps": {"scattered_powers_w": [8.4e-8]},
        }
        with mock.patch.object(cli, "simulate", wraps=cli.simulate) as sim:
            code, _ = run_cli(tmp_path, "imprecision-sweep", over)
        assert code == 0
        cfg = ScenarioConfig.from_dict(over)
        s_pred = imprecision(8.4e-8, detection_efficiency(cfg.setup), cfg.setup.wavelength)
        expected = dataclasses.replace(cfg.detector, imprecision_self=s_pred)
        (call,) = sim.call_args_list
        assert call.args[3] == expected


class TestDeterminismAndErrors:
    def test_rerun_byte_identical(self, tmp_path):
        _, out_a = run_cli(tmp_path / "a", "fringe-scan", FAST_SCAN)
        _, out_b = run_cli(tmp_path / "b", "fringe-scan", FAST_SCAN)
        assert (out_a / "fringe_scan.csv").read_bytes() == (out_b / "fringe_scan.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        over = dict(FAST_SCAN, bath={"pressure_mbar": 0.5, "temperature_k": 300.0})
        _, out_a = run_cli(tmp_path / "a", "psd", over)
        _, out_b = run_cli(tmp_path / "b", "psd", over, extra=["--seed", "123"])
        assert (out_a / "psd.csv").read_bytes() != (out_b / "psd.csv").read_bytes()

    @pytest.mark.parametrize("command", ["modes", "psd"])
    def test_negative_seed_flag_rejected(self, tmp_path, command):
        code, out = run_cli(tmp_path, command, FAST_SCAN, extra=["--seed", "-1"])
        assert code == 1
        assert not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())
        assert err["error"].startswith("ConfigError") and "seed" in err["error"]

    @pytest.mark.parametrize("temperature, lost", [(1e-6, False), (300.0, True)])
    def test_psd_manifest_records_lock_status(self, tmp_path, temperature, lost):
        over = dict(FAST_SCAN, bath={"pressure_mbar": 0.5, "temperature_k": temperature})
        code, out = run_cli(tmp_path, "psd", over)
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["lock_lost"] is lost

    def test_unstable_loop_nonzero_exit(self, tmp_path):
        # the cool-sweep gains at 2 pi x 160 rad/s with an 8-sample delay
        gain = 2 * math.pi * 160.0
        over = dict(FAST_SCAN, feedback={
            "cooling_rate_rad_per_s": gain, "spring_gain_rad_per_s": 250.0 * math.sqrt(gain),
            "loop_delay_s": 8 * 2.0**-17,
        }, sim=dict(FAST_SCAN["sim"], dt_s=2.0**-17))
        code, out = run_cli(tmp_path, "psd", over)
        assert code == 1
        assert not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err.startswith("ValueError: psd: simulation failed: unstable feedback loop")
        assert "8-sample" in err

    @pytest.mark.parametrize("command", ["fringe-scan", "calibrate"])
    @pytest.mark.parametrize("overrides, stage", [
        # a 1 ms step is too coarse for the 3.2 kHz mode
        ({"sim": {"dt_s": 1e-3}}, "simulation failed: dt = 0.001 s too coarse"),
        # a three-fringe ramp at 15 mm/s lasts under 16 steps
        ({"detector": {"ramp_rate_m_per_s": 0.015}},
         "calibration failed: trajectory too short for calibration"),
    ], ids=["simulation", "calibration"])
    def test_ramp_failure_named(self, tmp_path, command, overrides, stage):
        code, out = run_cli(tmp_path, command, overrides)
        assert code == 1
        assert not list(out.glob("*.csv")) and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err.startswith(f"ValueError: {command}: {stage}")

    def test_psd_failure_named(self, tmp_path):
        # 2 samples of record after the transient are too few for a Welch segment
        over = {"sim": {"duration_s": 3e-5, "transient_s": 2e-5}}
        code, out = run_cli(tmp_path, "psd", over)
        assert code == 1
        assert not (out / "psd.csv").exists() and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err == (
            "ValueError: psd: Welch estimate failed: segment_len must lie in [1, len(series)]"
        )

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        code, out = run_cli(tmp_path, "efficiency-report", extra=["--threads", threads])
        assert code == 1
        assert not (out / "efficiency_report.json").exists() and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err == f"ConfigError: --threads must be >= 1, got {threads}"

    def test_invalid_config_nonzero_exit(self, tmp_path):
        code, out = run_cli(tmp_path, "efficiency-report", {"optics": {"visibility": 2.0}})
        assert code == 1
        err = json.loads((out / "error_manifest.json").read_text())
        assert "error" in err

    @pytest.mark.parametrize("command, optics, output", [
        ("psd", {"visibility": 0.0}, "psd.csv"),
        ("psd", {"mirror_field_reflectivity": 0.0}, "psd.csv"),
        ("imprecision-sweep", {"visibility": 0.0}, "imprecision_sweep.csv"),
        ("imprecision-sweep", {"mirror_field_reflectivity": 0.0}, "imprecision_sweep.csv"),
        ("calibrate", {"visibility": 0.0}, "calibration.json"),
        ("calibrate", {"mirror_field_reflectivity": 0.0}, "calibration.json"),
        ("efficiency-report", {"mirror_field_reflectivity": 0.0}, "efficiency_report.json"),
    ], ids=["psd-V0", "psd-rho0", "imprecision-sweep-V0", "imprecision-sweep-rho0",
            "calibrate-V0", "calibrate-rho0", "efficiency-report-rho0"])
    def test_zero_fringe_contrast_nonzero_exit(self, tmp_path, command, optics, output):
        code, out = run_cli(tmp_path, command, dict(IMP_SWEEP, optics=optics))
        assert code == 1
        assert not (out / output).exists() and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        if command == "efficiency-report":
            assert err.startswith("ZeroDivisionError")
            assert "delta_chi" in err and "mirror_field_reflectivity is 0" in err
        else:
            assert "no fringe contrast" in err

    def test_psd_rejects_ramp_mode(self, tmp_path):
        # a ramping mirror records a fringe scan, not a position: only
        # fringe-scan and calibrate ramp it, and no setting selects the mode
        over = dict(FAST_SCAN, detector={"mirror_mode": "ramp", "ramp_rate_m_per_s": 2e-6})
        code, out = run_cli(tmp_path, "psd", over)
        assert code == 1
        assert not (out / "psd.csv").exists() and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err == "ConfigError: unknown config key: detector.mirror_mode"

    def test_unstable_cool_sweep_point_named(self, tmp_path):
        # alpha = 250 sqrt(gamma_fb) with a 1-sample delay: point 1 is unstable
        over = {
            "feedback": {"loop_delay_s": 2.0**-17},
            "sim": {"duration_s": 0.5, "transient_s": 0.1, "seed": 5},
            "sweeps": {"cooling_rates_rad_per_s": [0.0, 2 * math.pi * 20.0, 2 * math.pi * 40.0]},
        }
        code, out = run_cli(tmp_path, "cool-sweep", over)
        assert code == 1
        assert not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert "self-homodyne point 1: gamma_fb = 125.664 rad/s" in err
        assert "alpha = 2802.5 rad/s (spring rule alpha = spring_gain_coef * sqrt(gamma_fb)" in err
        assert "unstable feedback loop" in err and "1-sample" in err

    def test_cool_sweep_fit_failure_named(self, tmp_path):
        # 0.04 s of record per point leaves fewer than 8 PSD bins in the fit band
        over = {"sim": {"duration_s": 0.05, "transient_s": 0.01}}
        code, out = run_cli(tmp_path, "cool-sweep", over)
        assert code == 1
        assert not list(out.glob("*.csv")) and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err.startswith(
            "ValueError: cool-sweep self-homodyne point 0: gamma_fb = 0 rad/s: fit of the upper mode failed: "
        )
        assert err.endswith("band too narrow: fewer than 8 PSD bins")

    def test_cool_sweep_fit_error_keeps_its_type(self, tmp_path):
        gamma = 2 * math.pi * 40.0
        over = dict(COOL_THREADS, sweeps={"cooling_rates_rad_per_s": [gamma, 2 * gamma, 4 * gamma]})
        fits = []

        def fail_second_fit(psd, band):
            fits.append(band)
            if len(fits) == 2:
                raise FitError("did not converge in 4 evaluations")
            return lorentzian_fit(psd, band)

        with mock.patch.object(cli, "lorentzian_fit", fail_second_fit):
            code, out = run_cli(tmp_path, "cool-sweep", over)
        assert code == 1 and len(fits) == 2
        assert not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err == (
            "FitError: cool-sweep self-homodyne point 1: gamma_fb = 502.655 rad/s: "
            "fit of the upper mode failed: did not converge in 4 evaluations"
        )

    def test_cooling_curve_fit_failure_named(self, tmp_path):
        # a measured cooling rate of 0 cannot enter T = A/gamma
        fits = []

        def zero_width_second_fit(psd, band):
            fit = lorentzian_fit(psd, band)
            fits.append(band)
            return dataclasses.replace(fit, fwhm=0.0) if len(fits) == 2 else fit

        with mock.patch.object(cli, "lorentzian_fit", zero_width_second_fit):
            code, out = run_cli(tmp_path, "cool-sweep", COOL_THREADS)
        assert code == 1 and len(fits) == 3
        assert not list(out.glob("*.csv")) and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err == (
            "ValueError: cool-sweep self-homodyne: cooling-curve fit failed: "
            "cooling rates must be positive"
        )

    def test_imprecision_sweep_failure_named(self, tmp_path):
        # 5e-5 s of record is too short for a Welch segment
        over = {"sim": {"duration_s": 5e-5, "transient_s": 0.0}}
        code, out = run_cli(tmp_path, "imprecision-sweep", over)
        assert code == 1
        assert not list(out.glob("*.csv")) and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err == (
            "ValueError: imprecision-sweep point 0: power = 2e-08 W: Welch floor estimate "
            "failed: segment_len must lie in [1, len(series)]"
        )

    def test_cool_sweep_zero_imprecision_rejected_before_simulating(self, tmp_path):
        # B = pi m w_y^2 S_imp / (2 k_B) = 0 leaves the cooling curve no T_min
        over = {"detector": {"imprecision_self_m2_per_hz": 0.0}}
        with mock.patch.object(cli, "simulate") as sim:
            code, out = run_cli(tmp_path, "cool-sweep", over)
        assert code == 1
        sim.assert_not_called()
        assert not list(out.glob("*.csv")) and not (out / "manifest.json").exists()
        err = json.loads((out / "error_manifest.json").read_text())["error"]
        assert err.startswith("ValueError: ")
        assert "detector.imprecision_self_m2_per_hz" in err and "B = pi m w_y^2 S_imp" in err

    def test_malformed_json_nonzero_exit(self, tmp_path):
        cases = [("{not json", "config file is not valid JSON"),
                 ("[1, 2]", "config file must contain a JSON object")]
        for i, (text, message) in enumerate(cases):
            cfg_path = tmp_path / f"bad{i}.json"
            cfg_path.write_text(text)
            out = tmp_path / f"out{i}"
            code = main(["--config", str(cfg_path), "--out", str(out), "efficiency-report"])
            assert code == 1
            err = json.loads((out / "error_manifest.json").read_text())["error"]
            assert err.startswith("ConfigError: ") and message in err

    @pytest.mark.parametrize("sub", [None, "inner"])
    def test_out_not_a_directory(self, tmp_path, capsys, sub):
        # an --out that is a file, or lies under one, has no room for an
        # error manifest: the run says so and exits 1 without a traceback
        path = tmp_path / "taken"
        path.write_text("kept\n")
        out = path if sub is None else path / sub
        code = main(["--out", str(out), "modes"])
        assert code == 1
        assert path.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot make the output directory --out {out}: ")

    def test_threads_do_not_change_output(self, tmp_path):
        _, out_a = run_cli(tmp_path / "a", "imprecision-sweep", IMP_SWEEP)
        _, out_b = run_cli(tmp_path / "b", "imprecision-sweep", IMP_SWEEP, extra=["--threads", "3"])
        assert (out_a / "imprecision_sweep.csv").read_bytes() == (
            out_b / "imprecision_sweep.csv"
        ).read_bytes()
        # 3 blocks per point: two sweep threads each run a helper thread
        # that draws one block while the other is scanned
        _, out_a = run_cli(tmp_path / "c", "cool-sweep", COOL_THREADS)
        _, out_b = run_cli(tmp_path / "d", "cool-sweep", COOL_THREADS, extra=["--threads", "2"])
        for name in ("cool_sweep_self.csv", "cool_sweep_forward.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


COOL_FAST = {
    "scenario_id": "cool-fast",
    "bath": {"pressure_mbar": 2e-2},
    "detector": {"imprecision_forward_m2_per_hz": 2.2e-16},
    "sim": {"duration_s": 8.0, "transient_s": 1.0, "seed": 77},
    "sweeps": {
        "cooling_rates_rad_per_s": [0.0, 2 * math.pi * 40.0, 2 * math.pi * 160.0],
        "spring_gain_coef": 250.0,
    },
}


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cool")
    code, out = run_cli(tmp, "cool-sweep", COOL_FAST)
    assert code == 0
    return out


class TestCoolSweep:

    def test_zero_gain_row_at_bath_temperature(self, sweep_out):
        header, rows = read_csv(sweep_out / "cool_sweep_self.csv")
        t_idx = header.index("t_mode_k")
        assert rows[0][t_idx] == pytest.approx(300.0, rel=0.10)

    def test_fitted_a_matches_bath_heating(self, sweep_out):
        header, rows = read_csv(sweep_out / "cool_sweep_self.csv")
        a_idx = header.index("fitted_a_rad_k_per_s")
        gamma0 = 2 * math.pi * 4.3 * (2e-2 / 1e-2)
        assert rows[0][a_idx] == pytest.approx(gamma0 * 300.0, rel=0.10)

    def test_theta_fb_decreases_with_alpha(self, sweep_out):
        header, rows = read_csv(sweep_out / "cool_sweep_self.csv")
        th_idx = header.index("theta_fb_rad")
        thetas = [r[th_idx] for r in rows]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))

    def test_temperature_decreases_with_gain(self, sweep_out):
        header, rows = read_csv(sweep_out / "cool_sweep_self.csv")
        t_idx = header.index("t_mode_k")
        temps = [r[t_idx] for r in rows]
        assert all(b < a for a, b in zip(temps, temps[1:]))

    def test_lock_status_column(self, sweep_out):
        # a 300 K thermal start swings |q| past lambda/4 on every point
        for name in ("cool_sweep_self.csv", "cool_sweep_forward.csv"):
            header, rows = read_csv(sweep_out / name)
            assert header[-1] == "lock_lost"
            assert [r[-1] for r in rows] == [1.0] * len(rows)

    def test_no_unresolved_fit(self, sweep_out):
        manifest = json.loads((sweep_out / "manifest.json").read_text())
        assert manifest["unresolved_fits"] == []

    def test_forward_channel_runs_hotter(self, sweep_out):
        header, rows_self = read_csv(sweep_out / "cool_sweep_self.csv")
        _, rows_fwd = read_csv(sweep_out / "cool_sweep_forward.csv")
        t_idx = header.index("t_mode_k")
        # at the highest gain the noisy forward loop cannot reach the
        # self-homodyne temperature
        assert rows_fwd[-1][t_idx] > rows_self[-1][t_idx]


# the default 2e-8 mbar: the zero-gain linewidth, ~1e-5 Hz, is far below a 5 Hz bin
COOL_UNRESOLVED = {
    "sim": {"duration_s": 1.0, "transient_s": 0.2, "seed": 3},
    "sweeps": {"cooling_rates_rad_per_s": [0.0, 2 * math.pi * 20.0, 2 * math.pi * 40.0]},
}


# perfbench's cool_sweep configuration
BENCH_COOL = {
    "bath": {"pressure_mbar": 2e-2},
    "detector": {"imprecision_forward_m2_per_hz": 2.2e-16},
    "sim": {"duration_s": 4.0, "transient_s": 0.5, "seed": 424242},
    "sweeps": {
        "cooling_rates_rad_per_s": [0.0] + [2 * math.pi * f for f in (20.0, 40.0, 80.0, 160.0, 320.0, 640.0)],
        "spring_gain_coef": 250.0,
    },
}


def test_cool_point_analyses_the_series_alone():
    """A bench cool-sweep point frees the trajectory before its analysis:
    while Welch runs, the self-homodyne channel and Welch's own buffers are
    all the point holds, and the point peaks no higher than the larger of
    that and its simulate call.  tracemalloc counts numpy's allocations."""
    cfg = ScenarioConfig.from_dict(BENCH_COOL)
    n = round(cfg.duration / cfg.dt)
    n0 = int(cfg.transient / cfg.dt)
    segment_len = min(1 << 18, (n - n0) // 4)
    phases = {}
    peaks = []

    def phase(name, fn):
        """``fn``, recording the memory live at its call and its peak."""
        def wrapper(*args, **kwargs):
            live, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            phases[name] = (live, tracemalloc.get_traced_memory()[1])
            return result
        return wrapper

    # the first simulate call imports numpy.random and the thread pool: their
    # modules would count as live memory when this test runs alone
    import concurrent.futures  # noqa: F401
    np.random.default_rng(0)

    tracemalloc.start()
    try:
        # Welch's buffers: its peak above a series of the same length
        series = np.zeros(n - n0)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli.welch_psd(series, 1.0 / cfg.dt, segment_len=segment_len)
        welch_buffers = tracemalloc.get_traced_memory()[1] - live
        del series

        base = tracemalloc.get_traced_memory()[0]
        with mock.patch.object(cli, "simulate", phase("simulate", cli.simulate)), \
                mock.patch.object(cli, "welch_psd", phase("welch", cli.welch_psd)):
            cli._cool_point(cfg, 424242, 6, cfg.cooling_rates[6], "self-homodyne")
        peak = max(peaks + [tracemalloc.get_traced_memory()[1]]) - base
    finally:
        tracemalloc.stop()
    slack = 1 << 16
    welch_live, welch_peak = phases["welch"]
    # the channel after the transient, the one series simulate stored
    assert welch_live - base <= 8 * (n - n0) + slack
    assert welch_peak - base <= 8 * (n - n0) + welch_buffers + slack
    # simulate holds that series and a few blocks of working set
    # (TestWorkingSet.BOUND_BLOCKS), not four series of the run's length
    assert phases["simulate"][1] - base <= 8 * (n - n0) + 48 * langevin._BLOCK * 8
    assert peak <= max(phases["simulate"][1] - base, welch_peak - base) + slack


def test_import_loads_no_thread_pool():
    """``import selfhomodyne.cli`` loads neither concurrent.futures nor the
    logging it imports: only a sweep on more than one thread needs them.  Nor
    does it load numpy.polynomial: the optics are closed form."""
    code = (
        "import sys, selfhomodyne.cli; print(sorted(m for m in "
        "('concurrent.futures', 'logging', 'numpy.polynomial') if m in sys.modules))"
    )
    src = str(Path(selfhomodyne.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_unresolved_fits_listed(tmp_path):
    code_a, out_a = run_cli(tmp_path / "a", "cool-sweep", COOL_UNRESOLVED)
    code_b, out_b = run_cli(tmp_path / "b", "cool-sweep", COOL_UNRESOLVED)
    assert code_a == code_b == 0
    unresolved = json.loads((out_a / "manifest.json").read_text())["unresolved_fits"]
    assert [(u["channel"], u["index"]) for u in unresolved] == [("self-homodyne", 0), ("forward", 0)]
    for u in unresolved:
        assert u["bin_hz"] == 131072.0 / 26214  # segment of a quarter of the 0.8 s record
        assert u["fwhm_hz"] < u["bin_hz"]
    header, _ = read_csv(out_a / "cool_sweep_self.csv")
    assert header == [
        "gamma_fb_rad_per_s", "alpha_rad_per_s", "nu_low_hz", "nu_high_hz", "theta_fb_rad",
        "t_mode_k", "fitted_a_rad_k_per_s", "t_min_k", "gamma_min_rad_per_s", "lock_lost",
    ]
    for name in ("manifest.json", "cool_sweep_self.csv", "cool_sweep_forward.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_commands_load_no_scipy(tmp_path):
    """The package never imports scipy: a fresh interpreter in which any
    scipy import fails imports the package and runs all seven commands."""
    config = {
        "sim": {"dt_s": 2.0**-16, "duration_s": 0.5, "transient_s": 0.1, "seed": 9},
        "sweeps": {"scattered_powers_w": [8.4e-8]},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "cool.json").write_text(json.dumps(COOL_THREADS))
    code = """
import sys
sys.modules["scipy"] = None  # an import of scipy or a submodule raises ImportError
import selfhomodyne
from selfhomodyne import cli, langevin
tmp = sys.argv[1]
commands = ("efficiency-report", "modes", "imprecision-sweep", "psd", "fringe-scan", "calibrate")
for command in commands + ("cool-sweep",):
    config = "/cool.json" if command == "cool-sweep" else "/config.json"
    argv = ["--config", tmp + config, "--out", tmp + "/" + command, command]
    assert cli.main(argv) == 0, command
print("ok")
"""
    src = str(Path(selfhomodyne.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"


def test_readme_matches_commands_and_config():
    """The README's command table lists exactly the CLI's commands, and its
    Configuration section names every top-level table of the config tree."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sections = dict(re.findall(r"^## ([^\n]+)\n(.*?)(?=^## |\Z)", readme, re.S | re.M))
    listed = re.findall(r"^\| `([\w-]+)` +\|", sections["CLI"], re.M)
    assert sorted(listed) == sorted(cli._COMMANDS)
    tree = ScenarioConfig.from_dict({}).tree
    tables = [name for name, value in tree.items() if isinstance(value, dict)]
    assert len(tables) == 9
    named = set(re.findall(r"`(\w+)`", sections["Configuration"]))
    assert set(tables) <= named, sorted(set(tables) - named)
