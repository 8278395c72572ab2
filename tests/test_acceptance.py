"""Acceptance suite: every top-level criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The heavier simulation criteria (7, 9, 10, 11) are seeded
and deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from selfhomodyne.cli import main as cli_main
from selfhomodyne.constants import K_B
from selfhomodyne.langevin import (
    Bath,
    DetectorModel,
    FeedbackConfig,
    run_calibration,
    simulate,
)
from selfhomodyne.modes import TrapConfig, radial_modes
from selfhomodyne.optics import (
    Beam,
    OpticalSetup,
    Scatterer,
    calibration_deviation,
    collection_efficiency,
    detection_efficiency,
    imprecision,
    rayleigh_scattered_power,
)
from selfhomodyne.spectral import CoolingCurveFit, imprecision_from_floor, welch_psd


def check(criterion, condition, detail):
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {criterion:>2}] {status}: {detail}")
    assert condition, f"criterion {criterion}: {detail}"


def sine_amplitude(series, dt, omega):
    """Least-squares amplitude of a sinusoid of known angular frequency."""
    t = np.arange(series.size) * dt
    design = np.column_stack([np.cos(omega * t), np.sin(omega * t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, series, rcond=None)
    return math.hypot(float(coef[0]), float(coef[1]))


def test_criterion_1_calibration_deviation():
    t0 = time.time()
    d18 = calibration_deviation(0.18)
    # 50-point grid over the figure domain 0 < NA < 1, filtered to NA <= 0.6
    grid = np.linspace(0.01, 0.99, 50)
    below = [calibration_deviation(float(na)) for na in grid if na <= 0.6]
    elapsed = time.time() - t0
    check(1, abs(d18 - 0.008) <= 1e-3, f"delta_chi(0.18) = {d18:.4f} (target 0.008 +/- 0.001)")
    check(1, max(below) <= 0.10, f"max delta_chi over grid NA <= 0.6 is {max(below):.4f} <= 0.10")
    check(1, elapsed < 10.0, f"runtime {elapsed:.2f} s < 10 s")


def test_criterion_2_collection_efficiency():
    eta = collection_efficiency(math.asin(0.18))
    check(2, abs(eta - 0.012) <= 1e-3, f"eta_col(NA=0.18) = {eta:.4f} (target 0.012 +/- 0.001)")


def test_criterion_3_detection_efficiency():
    setup = OpticalSetup(
        half_aperture=math.asin(0.18), visibility=0.7, path_efficiency=0.9, detector_qe=0.82
    )
    eta = detection_efficiency(setup)
    tiny = OpticalSetup(half_aperture=1e-12, visibility=1.0, path_efficiency=1.0, detector_qe=1.0)
    full = OpticalSetup(
        half_aperture=math.pi / 2, visibility=1.0, path_efficiency=1.0, detector_qe=1.0
    )
    check(3, abs(eta - 0.021) <= 4e-3, f"eta_det = {eta:.4f} (target 0.021 +/- 0.004)")
    check(3, abs(detection_efficiency(tiny)) <= 1e-12, "eta_det -> 0 at closed aperture")
    check(
        3,
        abs(detection_efficiency(full) - 1.0) <= 1e-12,
        "eta_det -> 1 at full aperture, lossless",
    )


def test_criterion_4_imprecision():
    s = imprecision(84e-9, 0.021, 780e-9)
    sens = math.sqrt(s)
    check(
        4,
        abs(sens - 1.7e-12) / 1.7e-12 <= 0.05,
        f"sqrt(S_imp) = {sens:.3e} m/sqrt(Hz) (target 1.7e-12 +/- 5%)",
    )
    powers = np.logspace(-9, -6, 13)
    vals = np.array([imprecision(float(p), 0.021, 780e-9) for p in powers])
    slopes = np.diff(np.log(vals)) / np.diff(np.log(powers))
    worst = float(np.max(np.abs(slopes + 1.0)))
    check(4, worst < 1e-12, f"log-log slope -1 within {worst:.1e}")


def test_criterion_5_rayleigh_power():
    beam = Beam(power=0.43, waist=0.29e-3, wavelength=780e-9)
    p = rayleigh_scattered_power(beam, Scatterer(radius=150e-9, refractive_index=1.45))
    check(
        5,
        abs(p - 0.09e-6) / 0.09e-6 <= 0.5,
        f"Rayleigh power = {p:.3e} W (target 0.09 uW +/- 50%)",
    )


def test_criterion_6_eigenanalysis():
    rng = np.random.default_rng(1618)
    worst_freq = 0.0
    worst_vec = 0.0
    worst_ident = 0.0
    for _ in range(1000):
        wx = 2 * math.pi * rng.uniform(1e3, 5e3)
        wy = 2 * math.pi * rng.uniform(1e3, 5e3)
        alpha = 2 * math.pi * rng.uniform(50.0, 3e3)
        sol = radial_modes(wx, wy, alpha)
        a2 = alpha * alpha
        mat = np.array([[wx**2 + a2, a2], [a2, wy**2 + a2]])
        vals, vecs = np.linalg.eigh(mat)
        worst_freq = max(
            worst_freq,
            abs(sol.freq_low - math.sqrt(vals[0])) / sol.freq_low,
            abs(sol.freq_high - math.sqrt(vals[1])) / sol.freq_high,
        )
        worst_vec = max(
            worst_vec,
            abs(float(sol.vec_low[0] * vecs[1, 0] - sol.vec_low[1] * vecs[0, 0])),
            abs(float(sol.vec_high[0] * vecs[1, 1] - sol.vec_high[1] * vecs[0, 1])),
        )
        trace = 2 * a2 + wx**2 + wy**2
        det = (wx**2 + a2) * (wy**2 + a2) - a2 * a2
        worst_ident = max(
            worst_ident,
            abs(sol.freq_low**2 + sol.freq_high**2 - trace) / trace,
            abs(sol.freq_low**2 * sol.freq_high**2 - det) / det,
        )
    wx, wy = 2 * math.pi * 2100.0, 2 * math.pi * 3200.0
    bare = radial_modes(wx, wy, 0.0)
    check(6, worst_freq < 1e-10 and worst_vec < 1e-10,
          f"closed form vs eigensolver over 1000 draws: freq {worst_freq:.1e}, vec {worst_vec:.1e}")
    check(6, bare.freq_low == wx and bare.freq_high == wy, "alpha = 0 reproduces bare trap exactly")
    check(6, worst_ident < 1e-12, f"trace/determinant identities within {worst_ident:.1e}")


def test_criterion_7_equipartition():
    t0 = time.time()
    trap = TrapConfig()
    bath = Bath(pressure=2e-8, temperature=300.0)
    setup = OpticalSetup()
    det = DetectorModel(imprecision_self=0.0, imprecision_forward=0.0)
    fb = FeedbackConfig()
    dt = 2.0**-16
    duration = 0.5  # > 1000 periods of the slower radial mode
    n_runs = 768
    tx, ty = [], []
    for seed in range(n_runs):
        traj = simulate(trap, bath, fb, det, setup, duration=duration, dt=dt, seed=seed)
        tx.append(trap.mass * trap.secular_freq_x**2 * float(np.var(traj.x)) / K_B)
        ty.append(trap.mass * trap.secular_freq_y**2 * float(np.var(traj.y)) / K_B)
    tx_mean, ty_mean = float(np.mean(tx)), float(np.mean(ty))
    elapsed = time.time() - t0
    check(
        7,
        abs(tx_mean - 300.0) / 300.0 <= 0.10 and abs(ty_mean - 300.0) / 300.0 <= 0.10,
        f"mode temperatures (Tx, Ty) = ({tx_mean:.1f}, {ty_mean:.1f}) K over "
        f"{n_runs}-run ensemble (target 300 K +/- 10%)",
    )
    check(7, elapsed < 300.0, f"runtime {elapsed:.1f} s < 5 min")


def test_criterion_8_cooling_curve_analytics():
    t0 = time.time()
    mass, wy, s_imp = 2.0e-17, 2 * math.pi * 3200.0, 3.0e-24
    b = math.pi * mass * wy**2 * s_imp / (2 * K_B)
    fit = CoolingCurveFit(coeff_a=112.0, coeff_b=b)
    elapsed = time.time() - t0
    check(
        8,
        abs(fit.t_min - 1e-3) / 1e-3 <= 0.15,
        f"T_min = {fit.t_min * 1e3:.2f} mK (target 1 mK +/- 15%)",
    )
    check(
        8,
        abs(fit.gamma_min - 2 * math.pi * 31e3) / (2 * math.pi * 31e3) <= 0.15,
        f"gamma_min = 2pi x {fit.gamma_min / (2 * math.pi) / 1e3:.1f} kHz "
        "(target 2pi x 31 kHz +/- 15%)",
    )
    check(8, elapsed < 1.0, f"runtime {elapsed:.3f} s < 1 s")


COOL_CONFIG = {
    "scenario_id": "cool-acceptance",
    "bath": {"pressure_mbar": 2e-2},
    "detector": {"imprecision_forward_m2_per_hz": 2.2e-16},
    "sim": {"duration_s": 16.0, "transient_s": 1.0, "seed": 424242},
    "sweeps": {
        "cooling_rates_rad_per_s": [
            0.0,
            2 * math.pi * 20.0,
            2 * math.pi * 40.0,
            2 * math.pi * 80.0,
            2 * math.pi * 160.0,
            2 * math.pi * 320.0,
            2 * math.pi * 640.0,
        ],
        "spring_gain_coef": 250.0,
    },
}


def test_criterion_9_cool_sweep_end_to_end(tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "cool.json"
    cfg_path.write_text(json.dumps(COOL_CONFIG))
    out = tmp_path / "out"
    code = cli_main(["--config", str(cfg_path), "--out", str(out), "cool-sweep"])
    assert code == 0

    def load(name):
        import csv

        with open(out / name, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(v) for v in r] for r in reader]
        return header, rows

    header, rows_self = load("cool_sweep_self.csv")
    _, rows_fwd = load("cool_sweep_forward.csv")
    a_idx = header.index("fitted_a_rad_k_per_s")
    t_idx = header.index("t_mode_k")
    gamma0 = 2 * math.pi * 4.3 * (2e-2 / 1e-2)
    a_target = gamma0 * 300.0
    a_fit = rows_self[0][a_idx]
    temps_self = [r[t_idx] for r in rows_self]
    temps_fwd = [r[t_idx] for r in rows_fwd]
    k_min = int(np.argmin(temps_fwd))
    elapsed = time.time() - t0
    check(
        9,
        abs(a_fit - a_target) / a_target <= 0.10,
        f"fitted A = {a_fit:.0f} rad K/s (target gamma0*T0 = {a_target:.0f} +/- 10%)",
    )
    check(
        9,
        0 < k_min < len(temps_fwd) - 1,
        f"forward channel shows an interior temperature minimum (index {k_min}, "
        f"T = {temps_fwd[k_min]:.1f} K)",
    )
    check(
        9,
        all(b < a for a, b in zip(temps_self, temps_self[1:])),
        "self-homodyne temperatures decrease monotonically below gamma_min",
    )
    unresolved = json.loads((out / "manifest.json").read_text())["unresolved_fits"]
    check(9, unresolved == [], f"every fitted linewidth spans a PSD bin or more ({unresolved})")
    check(9, elapsed < 1800.0, f"runtime {elapsed:.0f} s < 30 min")


def test_criterion_10_calibration_round_trip():
    t0 = time.time()
    setup = OpticalSetup()  # NA = 0.18
    trap = TrapConfig()
    bath = Bath(pressure=0.0, temperature=0.0)  # undamped, noise-free
    fb = FeedbackConfig()
    x0 = 10e-9 * math.sqrt(2.0)  # 10 nm oscillation along the detection axis
    dt = 2.0**-16

    det_ramp = DetectorModel(
        imprecision_self=1e-30, fringe_nonlinearity=True, mirror_mode="ramp", ramp_rate=2e-6
    )
    lam = setup.wavelength
    ramp = simulate(
        trap, bath, fb, det_ramp, setup,
        duration=3.0 * (lam / 2) / 2e-6, dt=dt, seed=7,
        initial_state=(x0, 0.0, 0.0, 0.0),
    )
    slope = run_calibration(ramp, lam).volts_per_meter

    det_lock = DetectorModel(imprecision_self=1e-30, fringe_nonlinearity=True)
    lock = simulate(
        trap, bath, fb, det_lock, setup,
        duration=0.25, dt=dt, seed=8, initial_state=(x0, 0.0, 0.0, 0.0),
    )
    q_rec = lock.volts_self / slope
    amp_rec = sine_amplitude(q_rec, dt, trap.secular_freq_x)
    amp_true = x0 / math.sqrt(2.0)
    rel_err = abs(amp_rec - amp_true) / amp_true
    budget = calibration_deviation(0.18) + 0.01
    elapsed = time.time() - t0
    check(
        10,
        rel_err <= budget,
        f"round-trip amplitude error {rel_err * 100:.2f}% <= delta_chi + 1% = {budget * 100:.2f}%",
    )
    check(10, elapsed < 60.0, f"runtime {elapsed:.1f} s")


def test_criterion_11_channel_floor_ratio():
    t0 = time.time()
    trap = TrapConfig()
    setup = OpticalSetup()
    bath = Bath(pressure=1e-2, temperature=300.0)
    s_self = 3e-20
    det = DetectorModel(imprecision_self=s_self)  # forward floor 38 dB up by default
    fb = FeedbackConfig(cooling_rate=2 * math.pi * 300.0)
    dt = 2.0**-17
    traj = simulate(trap, bath, fb, det, setup, duration=8.0, dt=dt, seed=2024)
    n0 = int(1.0 / dt)
    rho = setup.mirror_reflectivity
    slope = setup.visibility * 2 * rho / (1 + rho * rho) * (
        4 * math.pi / setup.wavelength
    )
    q_self = traj.volts_self[n0:] / slope
    q_fwd = traj.volts_fwd[n0:]
    band = (15000.0, 40000.0)
    floor_self = imprecision_from_floor(welch_psd(q_self, 1 / dt, 1 << 17), band)
    floor_fwd = imprecision_from_floor(welch_psd(q_fwd, 1 / dt, 1 << 17), band)
    ratio_db = 10.0 * math.log10(floor_fwd / floor_self)
    elapsed = time.time() - t0
    check(
        11,
        abs(ratio_db - 38.0) <= 1.0,
        f"extracted floor separation {ratio_db:.2f} dB (target 38 +/- 1 dB)",
    )
    check(11, elapsed < 120.0, f"runtime {elapsed:.1f} s")
