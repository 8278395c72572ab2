"""Command-line harness: scenario orchestration with deterministic CSV/JSON
outputs.

Every command is a pure function of (config, seed): outputs are
byte-identical across re-runs.  Each run writes a manifest.json with the
config hash, seed, constants table, and tool version; failures write
error_manifest.json and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .config import _FORWARD_SEED_OFFSET, ConfigError, ScenarioConfig, _seed
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
    _delta_chi,
    backaction_psd,
    collection_efficiency,
    detection_efficiency,
    fringe_slope,
    imprecision,
    particle_sensitivity,  # unused here; perfbench's tracer wraps it at this name
    rayleigh_scattered_power,
)
from .spectral import (
    FitError,
    cooling_curve_fit,
    imprecision_from_floor,
    lorentzian_fit,
    welch_psd,
)
from .spectral import write_csv as _write_csv  # the CSV call point perfbench traces

_FLOOR_BAND = (8000.0, 30000.0)  # resonance-free band for floor extraction [Hz]


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
    # imported here, not with the module: it loads logging, and only a
    # sweep on more than one thread needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda a: point(*a), args))


@contextmanager
def _stage(where: str, errors=(ValueError,)):
    """Re-raise an ``errors`` exception of the enclosed stage as the same
    type, its message prefixed with ``where``: which sweep point failed, and
    in what."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _calibration_slope(cfg: ScenarioConfig) -> float:
    """Volts-per-meter from the fringe-slope rule S = 4 pi A_volts / lambda,
    with the model's fringe amplitude in detector units.  A setup without
    fringe contrast has no slope, and its detector output no position."""
    amp_volts = _effective_visibility(cfg.setup)
    if amp_volts == 0.0:
        raise ValueError(
            "no fringe contrast to calibrate positions with: optics visibility "
            "or mirror_field_reflectivity is 0"
        )
    return fringe_slope(amp_volts, cfg.setup.wavelength)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_FRINGES_RAMPED = 3  # fringes of mirror travel in a calibration scan


def _ramp_run(cfg: ScenarioConfig, seed: int):
    """Mirror-ramp simulation over ``_FRINGES_RAMPED`` fringes of travel,
    modeling the calibration procedure on a pre-cooled particle (initial
    state at rest; thermal forces still act during the scan)."""
    det = dataclasses.replace(cfg.detector, mirror_mode="ramp")
    duration = _FRINGES_RAMPED * (cfg.setup.wavelength / 2.0) / det.ramp_rate
    return simulate(
        cfg.trap, cfg.bath, FeedbackConfig(), det, cfg.setup,
        duration=duration, dt=cfg.dt, seed=seed, initial_state=(0.0, 0.0, 0.0, 0.0),
        self_from=0,
    )


def cmd_fringe_scan(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Ramp the mirror over several fringes and record the detector output.
    The manifest records the fringes the fit found next to those ramped: they
    differ where the fit follows the particle's motion, not the fringes."""
    with _stage("fringe-scan: simulation failed"):
        traj = _ramp_run(cfg, seed)
    disp = cfg.detector.ramp_rate * (np.arange(traj.volts_self.size) * traj.dt)
    if float(np.ptp(traj.volts_self)) < 1e-12 * max(abs(float(traj.volts_self[0])), 1.0):
        visibility, fringes = 0.0, None  # no fringes (e.g. no mirror)
    else:
        with _stage("fringe-scan: calibration failed"):
            result = run_calibration(traj, cfg.setup.wavelength)
        visibility, fringes = result.visibility, result.fringes_covered
    _write_csv(
        out_dir / "fringe_scan.csv", ["mirror_displacement_m", "detector_volts", "visibility"],
        disp, traj.volts_self, visibility,
    )
    return {"outputs": ["fringe_scan.csv"], "fringes_ramped": _FRINGES_RAMPED, "fringes_covered": fringes}


def cmd_calibrate(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Run a fringe scan and fit the volts-per-meter conversion.  A fitted
    slope more than 1% from the model's is an error: the scan starts the
    particle at rest, and motion the bath drives during the scan blurs the
    fringes and lowers the slope."""
    model_slope = _calibration_slope(cfg)
    with _stage("calibrate: simulation failed"):
        traj = _ramp_run(cfg, seed)
    with _stage("calibrate: calibration failed"):
        result = run_calibration(traj, cfg.setup.wavelength)
    deviation = result.volts_per_meter / model_slope - 1.0
    if not abs(deviation) <= 0.01:
        raise ValueError(
            f"calibrate: fitted slope {result.volts_per_meter:.6g} V/m is {100.0 * deviation:+.3g}% "
            f"from the model slope {model_slope:.6g} V/m (bound 1%) at bath pressure "
            f"{cfg.bath.pressure:.3g} mbar: the fringe scan assumes a pre-cooled particle, and "
            "motion the bath drives during the scan blurs the fringes; the fit found "
            f"{result.fringes_covered:.6g} fringes where {_FRINGES_RAMPED} were ramped"
        )
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
    """One imprecision-sweep point: the configured detector with the
    shot-noise floor predicted at ``power``."""
    setup = cfg.setup
    slope = _calibration_slope(cfg)
    eta = detection_efficiency(setup)
    s_pred = imprecision(power, eta, setup.wavelength)
    s_ideal = imprecision(power, 1.0, setup.wavelength)
    det = dataclasses.replace(cfg.detector, imprecision_self=s_pred)
    point = f"imprecision-sweep point {index}: power = {power:.6g} W"
    with _stage(f"{point}: simulation failed"):
        traj = simulate(
            cfg.trap, cfg.bath, FeedbackConfig(), det, setup,
            duration=cfg.duration, dt=cfg.dt, seed=_point_seed(seed, index),
            initial_state=(0.0, 0.0, 0.0, 0.0),
            backaction_force_psd=backaction_psd(power, setup.wavelength), self_from=0,
        )
    # the positions [m], divided in place: no second copy of the series
    q_rec = traj.volts_self
    q_rec /= slope
    with _stage(f"{point}: Welch floor estimate failed"):
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
        *np.array(rows).T,
    )
    return {"outputs": ["imprecision_sweep.csv"]}


def _cool_point(cfg: ScenarioConfig, seed: int, index: int, gfb: float, channel: str):
    """Cooling-sweep point ``index`` of ``channel``: simulate and fit the
    high mode.  Returns the measured cooling rate (total linewidth) [rad/s],
    the spring gain [rad/s], the two mode frequencies [Hz], the mode angle
    [rad], the mode temperature [K], the lock flag, and the fitted linewidth
    and PSD bin [Hz].  The spring gain follows the sweep rule
    alpha = spring_gain_coef * sqrt(gamma_fb) on the self-homodyne channel
    and is 0 on the forward one."""
    slope = _calibration_slope(cfg)
    coef = cfg.spring_gain_coef if channel == "self-homodyne" else 0.0
    alpha = coef * math.sqrt(gfb)
    feedback = dataclasses.replace(
        cfg.feedback, cooling_rate=gfb, spring_gain=alpha, source_channel=channel
    )
    offset = 0 if channel == "self-homodyne" else _FORWARD_SEED_OFFSET
    point = f"cool-sweep {channel} point {index}: gamma_fb = {gfb:.6g} rad/s"
    with _stage(
        f"{point}, alpha = {alpha:.6g} rad/s (spring rule alpha = spring_gain_coef * "
        "sqrt(gamma_fb), 0 on the forward channel)"
    ):
        traj = simulate(
            cfg.trap, cfg.bath, feedback, cfg.detector, cfg.setup,
            duration=cfg.duration, dt=cfg.dt, seed=_point_seed(seed, offset + index),
            self_from=int(cfg.transient / cfg.dt),
        )
    q_rec = traj.volts_self
    q_rec /= slope

    sol = radial_modes(cfg.trap.secular_freq_x, cfg.trap.secular_freq_y, alpha)
    gamma0 = gas_damping_rate(cfg.bath)
    # expected total linewidth sets the fit window; cap it below the mode gap
    theta = sol.theta_fb if channel == "self-homodyne" else math.pi / 2 - sol.theta_fb
    gamma_exp = gamma0 + gfb * math.cos(theta) ** 2
    gap_hz = (sol.freq_high - sol.freq_low) / (2.0 * math.pi)
    half = min(max(6.0 * gamma_exp / (2.0 * math.pi), 150.0), 0.4 * gap_hz)
    f_hi_mode = sol.freq_high / (2.0 * math.pi)
    with _stage(f"{point}: fit of the upper mode failed", (FitError, ValueError)):
        psd = welch_psd(q_rec, traj.sample_rate, segment_len=min(1 << 18, q_rec.size // 4))
        fit = lorentzian_fit(psd, (f_hi_mode - half, f_hi_mode + half))
    t_mode = mode_temperature(
        cfg.trap.mass, 2.0 * math.pi * fit.center, fit.area, sol.theta_fb
    )
    return (
        2.0 * math.pi * fit.fwhm, alpha, sol.freq_low / (2.0 * math.pi), fit.center,
        sol.theta_fb, t_mode, traj.lock_lost, fit.fwhm, psd.resolution,
    )


def cmd_cool_sweep(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Feedback-gain sweep for both detector channels: per-point mode
    analysis, temperature and lock status (1 when |q| passed lambda/4), and
    the sweep-level cooling-curve fit T = A/gamma + B gamma: A is fitted, B
    comes from the imprecision floor.  The manifest lists as
    ``unresolved_fits`` every point whose fitted linewidth is below one PSD
    bin: its rate and temperature are not measured by the spectrum."""
    b_floor = (
        math.pi * cfg.trap.mass * cfg.trap.secular_freq_y**2
        * cfg.detector.imprecision_self / (2.0 * K_B)
    )
    if b_floor <= 0.0:
        raise ValueError(
            "cool-sweep needs detector.imprecision_self_m2_per_hz > 0: the cooling-curve "
            "fit takes B = pi m w_y^2 S_imp / (2 k_B) from it, and B = 0 has no T_min"
        )
    outputs, unresolved = [], []
    for channel, name in (("self-homodyne", "self"), ("forward", "forward")):
        points = [(cfg, seed, i, g, channel) for i, g in enumerate(cfg.cooling_rates)]
        gamma, alpha, nu_low, nu_high, theta, t_mode, lock_lost, fwhm, bins = map(
            np.array, zip(*_sweep(threads, _cool_point, points))
        )
        with _stage(f"cool-sweep {channel}: cooling-curve fit failed"):
            curve = cooling_curve_fit(np.column_stack([gamma, t_mode]), b_floor)
        unresolved += [
            {"channel": channel, "index": int(i), "fwhm_hz": float(fwhm[i]), "bin_hz": float(bins[i])}
            for i in np.flatnonzero(fwhm < bins)
        ]
        table = {
            "gamma_fb_rad_per_s": gamma, "alpha_rad_per_s": alpha, "nu_low_hz": nu_low,
            "nu_high_hz": nu_high, "theta_fb_rad": theta, "t_mode_k": t_mode,
            "fitted_a_rad_k_per_s": curve.coeff_a, "t_min_k": curve.t_min,
            "gamma_min_rad_per_s": curve.gamma_min, "lock_lost": lock_lost,
        }
        fname = f"cool_sweep_{name}.csv"
        _write_csv(out_dir / fname, list(table), *table.values())
        outputs.append(fname)
    return {"outputs": outputs, "unresolved_fits": unresolved}


def cmd_modes(cfg: ScenarioConfig, seed: int, out_dir: Path, threads: int) -> dict:
    """Closed-form eigenanalysis vs a generic symmetric eigensolver."""
    wx, wy = cfg.trap.secular_freq_x, cfg.trap.secular_freq_y
    entries = []
    for alpha in cfg.mode_spring_gains:
        sol = radial_modes(wx, wy, alpha)
        vals, vecs = np.linalg.eigh([[wx**2 + alpha**2, alpha**2], [alpha**2, wy**2 + alpha**2]])
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
    delta_chi = _delta_chi(setup)
    payload = {
        "eta_collection": collection_efficiency(setup.half_aperture),
        "eta_detection": detection_efficiency(setup),
        "delta_chi": delta_chi,
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
    slope = _calibration_slope(cfg)
    with _stage("psd: simulation failed"):
        traj = simulate(
            cfg.trap, cfg.bath, cfg.feedback, cfg.detector, cfg.setup,
            duration=cfg.duration, dt=cfg.dt, seed=seed, self_from=int(cfg.transient / cfg.dt),
        )
    q_rec = traj.volts_self
    q_rec /= slope
    with _stage("psd: Welch estimate failed"):
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # no directory to hold an error manifest
        print(f"error: cannot make the output directory --out {out_dir}: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = (
            ScenarioConfig.from_file(args.config)
            if args.config is not None
            else ScenarioConfig.from_dict({})
        )
        seed = cfg.seed if args.seed is None else _seed(args.seed)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
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
