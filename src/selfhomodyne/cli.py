"""Command-line harness: scenario orchestration with deterministic CSV/JSON
outputs.

Every command is a pure function of (config, seed): outputs are
byte-identical across re-runs.  Each run writes a manifest.json with the
config hash, seed, constants table, and tool version; failures write
error_manifest.json and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, _seed
from .constants import CONSTANTS, K_B
from .langevin import (
    FeedbackConfig,
    _effective_visibility,
    gas_damping_rate,
    run_calibration,
    simulate,
    thermal_force_psd,
)
from .modes import radial_modes, mode_temperature
from .optics import (
    backaction_psd,
    collection_efficiency,
    detection_efficiency,
    fringe_slope,
    imprecision,
    mirror_sensitivity,
    particle_sensitivity,
    rayleigh_scattered_power,
)
from .spectral import FitError, cooling_curve_fit, imprecision_from_floor, lorentzian_fit, welch_psd

_FLOOR_BAND = (8000.0, 30000.0)  # resonance-free band for floor extraction [Hz]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file is
    opened, as neither has a JSON form."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_manifest(out_dir: Path, command: str, cfg: ScenarioConfig, seed: int, report: dict) -> None:
    """``report`` is what the command returned: its ``outputs`` and any run
    status it records (such as ``lock_lost``)."""
    _write_json(
        out_dir / "manifest.json",
        {
            "command": command,
            "scenario_id": cfg.scenario_id,
            "config_sha256": cfg.sha256(),
            "seed": seed,
            "constants": CONSTANTS,
            "version": __version__,
            **report,
            "outputs": sorted(report["outputs"]),
        },
    )


def _point_seed(seed: int, index: int) -> int:
    """The simulation seed of sweep point ``index``, derived from the run seed."""
    return int(np.random.default_rng([seed, index]).integers(2**31))


def _sweep(threads: int, point, args) -> list:
    """``point(*a)`` for each tuple ``a`` in ``args``, on up to ``threads``
    threads; results in the order of ``args``.  One thread runs the points
    in the calling thread: a pool of one worker would add nothing but a
    fresh thread per sweep, whose malloc arena may or may not be reused,
    so the peak memory of a run would vary from run to run."""
    if threads <= 1:
        return [point(*a) for a in args]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda a: point(*a), args))


def _calibration_slope(cfg: ScenarioConfig) -> float:
    """Volts-per-meter from the fringe-slope rule S = 4 pi A_volts / lambda,
    with the model's fringe amplitude in detector units.  A setup without
    fringe contrast has no slope, and its detector output no position."""
    amp_volts = cfg.detector.gain * _effective_visibility(cfg.setup)
    if amp_volts == 0.0:
        raise ValueError(
            "no fringe contrast to calibrate positions with: optics visibility, "
            "mirror_field_reflectivity or detector gain_volts is 0"
        )
    return fringe_slope(amp_volts, cfg.setup.wavelength)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _ramp_run(cfg: ScenarioConfig, seed: int):
    """Mirror-ramp simulation over three fringes of travel, modeling the
    calibration procedure on a pre-cooled particle (initial state at rest;
    thermal forces still act during the scan)."""
    rate = cfg.detector.ramp_rate if cfg.detector.ramp_rate > 0.0 else 2e-6
    det = dataclasses.replace(cfg.detector, mirror_mode="ramp", ramp_rate=rate)
    duration = 3.0 * (cfg.setup.wavelength / 2.0) / rate
    return simulate(
        cfg.trap, cfg.bath, FeedbackConfig(), det, cfg.setup,
        duration=duration, dt=cfg.dt, seed=seed, initial_state=(0.0, 0.0, 0.0, 0.0),
    )


def cmd_fringe_scan(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Ramp the mirror over several fringes and record the detector output."""
    lam = cfg.setup.wavelength
    traj = _ramp_run(cfg, seed)
    disp = traj.mirror_d - traj.mirror_d[0]
    if float(np.ptp(traj.volts_self)) < 1e-12 * max(abs(float(traj.volts_self[0])), 1.0):
        visibility = 0.0  # no fringes (e.g. no mirror)
    else:
        visibility = run_calibration(traj, lam).visibility
    rows = [
        (disp[k], traj.volts_self[k], visibility)
        for k in range(disp.size)
    ]
    _write_csv(out_dir / "fringe_scan.csv", ["mirror_displacement_m", "detector_volts", "visibility"], rows)
    return {"outputs": ["fringe_scan.csv"]}


def cmd_calibrate(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Run a fringe scan and fit the volts-per-meter conversion."""
    model_slope = _calibration_slope(cfg)
    traj = _ramp_run(cfg, seed)
    result = run_calibration(traj, cfg.setup.wavelength)
    _write_json(
        out_dir / "calibration.json",
        {
            "volts_per_meter": result.volts_per_meter,
            "fringe_amplitude_volts": result.fringe_amplitude_volts,
            "fringe_frequency_hz": result.fringe_frequency_hz,
            "fringes_covered": result.fringes_covered,
            "model_slope_volts_per_meter": model_slope,
        },
    )
    return {"outputs": ["calibration.json"]}


def _imprecision_point(cfg: ScenarioConfig, seed: int, index: int, power: float):
    """One imprecision-sweep point: the configured detector, locked, with
    the shot-noise floor predicted at ``power``."""
    setup = cfg.setup
    slope = _calibration_slope(cfg)
    eta = detection_efficiency(setup)
    s_pred = imprecision(power, eta, setup.wavelength)
    s_ideal = imprecision(power, 1.0, setup.wavelength)
    det = dataclasses.replace(cfg.detector, imprecision_self=s_pred, mirror_mode="locked")
    traj = simulate(
        cfg.trap, cfg.bath, FeedbackConfig(), det, setup,
        duration=cfg.duration, dt=cfg.dt, seed=_point_seed(seed, index),
        initial_state=(0.0, 0.0, 0.0, 0.0),
        backaction_force_psd=backaction_psd(power, setup.wavelength),
    )
    q_rec = traj.volts_self / slope
    psd = welch_psd(q_rec, traj.sample_rate, segment_len=min(1 << 15, q_rec.size // 8))
    s_ext = imprecision_from_floor(psd, _FLOOR_BAND)
    return power, s_pred, s_ideal, s_ext


def cmd_imprecision_sweep(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Predicted vs simulated imprecision floor over scattered power."""
    rows = _sweep(
        threads, _imprecision_point, [(cfg, seed, i, p) for i, p in enumerate(cfg.scattered_powers)]
    )
    _write_csv(
        out_dir / "imprecision_sweep.csv",
        ["power_w", "s_imp_predicted_m2_per_hz", "s_imp_ideal_m2_per_hz", "s_imp_extracted_m2_per_hz"],
        rows,
    )
    return {"outputs": ["imprecision_sweep.csv"]}


def _cool_point(cfg: ScenarioConfig, seed: int, index: int, gfb: float, channel: str):
    """Cooling-sweep point ``index`` of ``channel``: simulate, fit the high
    mode, return the measured cooling rate (total linewidth) and mode
    temperature.  The spring gain follows the sweep rule
    alpha = spring_gain_coef * sqrt(gamma_fb) on the self-homodyne channel
    and is 0 on the forward one."""
    slope = _calibration_slope(cfg)
    coef = cfg.spring_gain_coef if channel == "self-homodyne" else 0.0
    alpha = coef * math.sqrt(gfb)
    feedback = dataclasses.replace(
        cfg.feedback, cooling_rate=gfb, spring_gain=alpha, source_channel=channel
    )
    offset = 0 if channel == "self-homodyne" else 1000
    try:
        traj = simulate(
            cfg.trap, cfg.bath, feedback, cfg.detector, cfg.setup,
            duration=cfg.duration, dt=cfg.dt, seed=_point_seed(seed, offset + index),
        )
    except ValueError as exc:
        raise ValueError(
            f"cool-sweep {channel} point {index}: gamma_fb = {gfb:.6g} rad/s, "
            f"alpha = {alpha:.6g} rad/s (spring rule alpha = spring_gain_coef * "
            f"sqrt(gamma_fb), 0 on the forward channel): {exc}"
        ) from exc
    n0 = int(cfg.transient / cfg.dt)
    q_rec = traj.volts_self[n0:] / slope
    psd = welch_psd(q_rec, traj.sample_rate, segment_len=min(1 << 18, q_rec.size // 4))

    sol = radial_modes(cfg.trap.secular_freq_x, cfg.trap.secular_freq_y, alpha)
    gamma0 = gas_damping_rate(cfg.bath)
    # expected total linewidth sets the fit window; cap it below the mode gap
    theta = sol.theta_fb if channel == "self-homodyne" else math.pi / 2 - sol.theta_fb
    gamma_exp = gamma0 + gfb * math.cos(theta) ** 2
    gap_hz = (sol.freq_high - sol.freq_low) / (2.0 * math.pi)
    half = min(max(6.0 * gamma_exp / (2.0 * math.pi), 150.0), 0.4 * gap_hz)
    f_hi_mode = sol.freq_high / (2.0 * math.pi)
    fit = lorentzian_fit(psd, (f_hi_mode - half, f_hi_mode + half))
    t_mode = mode_temperature(
        cfg.trap.mass, 2.0 * math.pi * fit.center, fit.area, sol.theta_fb
    )
    gamma_meas = 2.0 * math.pi * fit.fwhm
    return {
        "gamma_fb_rad_per_s": gamma_meas,
        "alpha_rad_per_s": alpha,
        "nu_low_hz": sol.freq_low / (2.0 * math.pi),
        "nu_high_hz": fit.center,
        "theta_fb_rad": sol.theta_fb,
        "t_mode_k": t_mode,
        "lock_lost": traj.lock_lost,
    }


def _cool_channel(cfg: ScenarioConfig, seed: int, channel: str, threads: int, b_ext: float):
    points = [(cfg, seed, i, g, channel) for i, g in enumerate(cfg.cooling_rates)]
    results = _sweep(threads, _cool_point, points)
    fit_points = [(r["gamma_fb_rad_per_s"], r["t_mode_k"]) for r in results]
    curve = cooling_curve_fit(fit_points, mode="A-only", external_b=b_ext)
    return results, curve


def cmd_cool_sweep(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Feedback-gain sweep for both detector channels: per-point mode
    analysis, temperature and lock status (1 when |q| passed lambda/4), and
    the sweep-level cooling-curve fit."""
    b_ext = (
        math.pi * cfg.trap.mass * cfg.trap.secular_freq_y**2
        * cfg.detector.imprecision_self / (2.0 * K_B)
    )
    if b_ext <= 0.0:
        raise ValueError(
            "cool-sweep needs detector.imprecision_self_m2_per_hz > 0: the cooling-curve "
            "fit takes B = pi m w_y^2 S_imp / (2 k_B) from it, and B = 0 has no T_min"
        )
    outputs = []
    for channel, name in (("self-homodyne", "self"), ("forward", "forward")):
        results, curve = _cool_channel(cfg, seed, channel, threads, b_ext)
        header = [
            "gamma_fb_rad_per_s", "alpha_rad_per_s", "nu_low_hz", "nu_high_hz",
            "theta_fb_rad", "t_mode_k", "fitted_a_rad_k_per_s", "t_min_k",
            "gamma_min_rad_per_s", "lock_lost",
        ]
        rows = [
            (
                r["gamma_fb_rad_per_s"], r["alpha_rad_per_s"], r["nu_low_hz"],
                r["nu_high_hz"], r["theta_fb_rad"], r["t_mode_k"],
                curve.coeff_a, curve.t_min, curve.gamma_min, int(r["lock_lost"]),
            )
            for r in results
        ]
        fname = f"cool_sweep_{name}.csv"
        _write_csv(out_dir / fname, header, rows)
        outputs.append(fname)
    return {"outputs": outputs}


def cmd_modes(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Closed-form eigenanalysis vs a generic symmetric eigensolver."""
    wx, wy = cfg.trap.secular_freq_x, cfg.trap.secular_freq_y
    entries = []
    for alpha in cfg.mode_spring_gains:
        sol = radial_modes(wx, wy, alpha)
        mat = np.array(
            [[wx**2 + alpha**2, alpha**2], [alpha**2, wy**2 + alpha**2]]
        )
        vals, vecs = np.linalg.eigh(mat)
        freq_err = max(
            abs(sol.freq_low - math.sqrt(vals[0])) / sol.freq_low,
            abs(sol.freq_high - math.sqrt(vals[1])) / sol.freq_high,
        )
        vec_err = max(
            abs(float(sol.vec_low[0] * vecs[1, 0] - sol.vec_low[1] * vecs[0, 0])),
            abs(float(sol.vec_high[0] * vecs[1, 1] - sol.vec_high[1] * vecs[0, 1])),
        )
        entries.append(
            {
                "alpha_rad_per_s": alpha,
                "nu_low_hz": sol.freq_low / (2.0 * math.pi),
                "nu_high_hz": sol.freq_high / (2.0 * math.pi),
                "theta_fb_rad": sol.theta_fb,
                "vec_low": [float(v) for v in sol.vec_low],
                "vec_high": [float(v) for v in sol.vec_high],
                "oracle_discrepancy": max(freq_err, vec_err),
            }
        )
    _write_json(out_dir / "modes.json", {"modes": entries})
    return {"outputs": ["modes.json"]}


def cmd_efficiency_report(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Closed-form efficiency/noise summary of the configured setup."""
    setup = cfg.setup
    p_ray = rayleigh_scattered_power(cfg.beam, cfg.scatterer)
    s_ba = backaction_psd(p_ray, setup.wavelength)
    s_gas = thermal_force_psd(cfg.bath, cfg.trap.mass)
    # delta_chi straight from the two sensitivities (well-defined up to NA=1)
    chi_m = mirror_sensitivity(setup)
    chi_p = particle_sensitivity(setup, mode="exact")
    if chi_m + chi_p == 0.0:
        raise ZeroDivisionError(
            "delta_chi = 2 (chi_m - chi_p)/(chi_m + chi_p) is undefined: the mirror and "
            "particle sensitivities are both 0 because optics.mirror_field_reflectivity is 0"
        )
    payload = {
        "eta_collection": collection_efficiency(setup.half_aperture, setup.polarization_axis),
        "eta_detection": detection_efficiency(setup),
        "delta_chi": 2.0 * (chi_m - chi_p) / (chi_m + chi_p),
        "p_rayleigh_w": p_ray,
        "s_backaction_n2_per_hz": s_ba,
        "s_gas_n2_per_hz": s_gas,
        # null without back-action (zero beam power): the ratio has no value
        "s_gas_over_s_backaction": s_gas / s_ba if s_ba > 0 else None,
    }
    _write_json(out_dir / "efficiency_report.json", payload)
    return {"outputs": ["efficiency_report.json"]}


def cmd_psd(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Simulate the configured scenario and export the calibrated PSD; the
    manifest records whether the mirror lock was lost."""
    if cfg.detector.mirror_mode != "locked":
        raise ValueError(
            "psd needs detector.mirror_mode 'locked': a ramping mirror records a "
            "fringe scan, not a position"
        )
    slope = _calibration_slope(cfg)
    traj = simulate(
        cfg.trap, cfg.bath, cfg.feedback, cfg.detector, cfg.setup,
        duration=cfg.duration, dt=cfg.dt, seed=seed,
    )
    n0 = int(cfg.transient / cfg.dt)
    q_rec = traj.volts_self[n0:] / slope
    psd = welch_psd(q_rec, traj.sample_rate, segment_len=min(1 << 17, q_rec.size // 4))
    psd.write_csv(out_dir / "psd.csv")
    return {"outputs": ["psd.csv"], "lock_lost": traj.lock_lost}


_COMMANDS = {
    "fringe-scan": cmd_fringe_scan,
    "calibrate": cmd_calibrate,
    "imprecision-sweep": cmd_imprecision_sweep,
    "cool-sweep": cmd_cool_sweep,
    "modes": cmd_modes,
    "efficiency-report": cmd_efficiency_report,
    "psd": cmd_psd,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="selfhomodyne",
        description="Self-homodyne detection and feedback-cooling simulator",
    )
    parser.add_argument("--config", type=Path, default=None, help="JSON config overrides")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="concurrent sweep points")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name)
    args = parser.parse_args(argv)

    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = (
            ScenarioConfig.from_file(args.config)
            if args.config is not None
            else ScenarioConfig.from_dict({})
        )
        seed = cfg.seed if args.seed is None else _seed(args.seed)
        report = _COMMANDS[args.command](cfg, seed, out_dir, args.threads)
        _write_manifest(out_dir, args.command, cfg, seed, report)
    except (FitError, ValueError, ArithmeticError, OSError) as exc:
        _write_json(
            out_dir / "error_manifest.json",
            {"command": args.command, "error": f"{type(exc).__name__}: {exc}"},
        )
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
