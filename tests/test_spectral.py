"""Tests for PSD estimation and the fitting operations.

Synthetic signals with known spectra serve as oracles: sinusoids carry power
a^2/2, seeded Gaussian noise of variance S*fs/2 has a flat one-sided density
S, and exact model curves must be recovered to numerical precision.  The
numpy Welch estimator is checked against scipy.signal.welch, which the
package itself does not import.
"""

import math

import numpy as np
import pytest
from scipy import signal

from selfhomodyne.constants import K_B
from selfhomodyne.spectral import (
    CoolingCurveFit,
    FitError,
    Psd,
    cooling_curve_fit,
    gaussian_waist_fit,
    imprecision_from_floor,
    lorentzian_fit,
    welch_psd,
)


def white_position_noise(psd_level, fs, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * math.sqrt(psd_level * fs / 2.0)


def lorentz_curve(f, center, fwhm, area, floor):
    half = fwhm / 2.0
    return floor + (1.0 / math.pi) * area * half / ((f - center) ** 2 + half**2)


class TestWelchPsd:
    def test_sinusoid_power(self):
        fs, n = 65536.0, 1 << 18
        t = np.arange(n) / fs
        amp, f0 = 3.2e-9, 2048.0
        x = amp * np.sin(2 * math.pi * f0 * t)
        psd = welch_psd(x, fs, segment_len=1 << 13)
        peak = psd.band(f0 - 50, f0 + 50)
        assert peak.integral() == pytest.approx(amp**2 / 2, rel=0.01, abs=0)

    def test_white_noise_level(self):
        fs, level = 65536.0, 4.0e-24
        x = white_position_noise(level, fs, 1 << 19, seed=42)
        psd = welch_psd(x, fs, segment_len=1 << 12)  # >= 100 averaged segments
        med = float(np.median(psd.values[1:-1]))
        assert med == pytest.approx(level, rel=0.03, abs=0)
        # flat across decades
        lo = float(np.median(psd.band(100, 1000).values))
        hi = float(np.median(psd.band(10000, 30000).values))
        assert lo == pytest.approx(level, rel=0.03, abs=0)
        assert hi == pytest.approx(level, rel=0.03, abs=0)

    def test_dc_series_power_in_zero_bin(self):
        x = np.full(4096, 2.5)
        psd = welch_psd(x, 1000.0, segment_len=512, window="rectangular")
        assert psd.values[0] > 0
        assert np.all(psd.values[1:] < 1e-20 * psd.values[0])

    def test_parseval_on_stationary_signal(self):
        fs = 32768.0
        rng = np.random.default_rng(3)
        # band-limited noise via a smoothing kernel, zero mean
        x = np.convolve(rng.standard_normal(1 << 17), np.ones(8) / 8, mode="same")
        x -= x.mean()
        psd = welch_psd(x, fs, segment_len=1 << 12, window="hann")
        assert psd.integral() == pytest.approx(float(np.var(x)), rel=0.02)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(np.array([]), 1000.0, segment_len=16)

    def test_bad_segment_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(np.ones(64), 1000.0, segment_len=128)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(np.ones(64), 1000.0, segment_len=16, window="kaiser")

    def test_resolution_property(self):
        psd = welch_psd(np.ones(4096), 1024.0, segment_len=512)
        assert psd.resolution == pytest.approx(2.0)

    @pytest.mark.parametrize("n, segment_len", [
        (458752, 114688),  # a cool-sweep point
        (196608, 49152),   # the benchmark psd
        (4096, 512),
        (5000, 512),       # the step does not divide the series
        (4097, 511),       # odd segments
        (1001, 127),
    ])
    @pytest.mark.parametrize("window", ["hann", "rectangular"])
    def test_matches_scipy_welch(self, n, segment_len, window):
        x = np.random.default_rng(n).standard_normal(n) + 0.3
        psd = welch_psd(x, 131072.0, segment_len=segment_len, window=window)
        f, ref = signal.welch(
            x, fs=131072.0, window="hann" if window == "hann" else "boxcar",
            nperseg=segment_len, noverlap=segment_len // 2, detrend=False,
        )
        np.testing.assert_allclose(psd.frequencies, f, rtol=1e-12)
        np.testing.assert_allclose(psd.values, ref, rtol=1e-12, atol=1e-12 * ref.max())


class TestLorentzianFit:
    def test_exact_curve_recovery(self):
        f = np.linspace(2800.0, 3600.0, 1600)
        truth = dict(center=3200.0, fwhm=24.0, area=4.5e-16, floor=3.0e-24)
        psd = Psd(f, lorentz_curve(f, **truth))
        fit = lorentzian_fit(psd, (2800.0, 3600.0))
        assert fit.center == pytest.approx(truth["center"], rel=1e-3)
        assert fit.fwhm == pytest.approx(truth["fwhm"], rel=1e-3)
        assert fit.area == pytest.approx(truth["area"], rel=1e-3, abs=0)
        assert fit.floor == pytest.approx(truth["floor"], rel=1e-3, abs=0)

    def test_noisy_curve_floor_recovery(self):
        rng = np.random.default_rng(11)
        f = np.arange(2000.0, 4400.0, 0.5)
        truth = lorentz_curve(f, 3200.0, 30.0, 2e-16, 5.0e-24)
        # multiplicative scatter mimicking Welch bin statistics (32 averages)
        vals = truth * rng.gamma(32.0, 1.0 / 32.0, f.size)
        fit = lorentzian_fit(Psd(f, vals), (2000.0, 4400.0))
        # the Lorentzian tail is 130x the floor at the band edge, so the data
        # pin the floor only to its fitted standard error (~116%)
        assert abs(fit.floor - 5.0e-24) <= 3 * fit.std_errors()[3]
        assert fit.area == pytest.approx(2e-16, rel=0.1, abs=0)

    def test_narrow_band_rejected(self):
        f = np.linspace(0, 100, 64)
        psd = Psd(f, np.ones_like(f))
        with pytest.raises(ValueError):
            lorentzian_fit(psd, (50.0, 51.0))

    def test_fit_failure_diagnostics(self):
        rng = np.random.default_rng(0)
        f = np.linspace(100.0, 200.0, 64)
        psd = Psd(f, rng.uniform(1.0, 2.0, 64))
        with pytest.raises(FitError, match="did not converge"):
            lorentzian_fit(psd, (100.0, 200.0), max_iterations=4)

    def test_report_dict_fields(self):
        f = np.linspace(2800.0, 3600.0, 800)
        psd = Psd(f, lorentz_curve(f, 3200.0, 24.0, 4.5e-16, 3.0e-24))
        d = lorentzian_fit(psd, (2800.0, 3600.0)).as_dict()
        assert set(d) == {"parameters", "standard_errors", "covariance"}
        assert len(d["covariance"]) == 4


class TestCoolingCurveFit:
    # the published fit: A = 112 rad K, B from the imprecision relation
    # B = pi m w_y^2 S_imp / (2 kB)
    A_PAPER = 112.0
    B_PAPER = math.pi * 2.0e-17 * (2 * math.pi * 3200.0) ** 2 * 3.0e-24 / (2 * K_B)

    def test_paper_minimum_temperature_and_rate(self):
        fit = CoolingCurveFit(self.A_PAPER, self.B_PAPER, "A-and-B", np.zeros((2, 2)))
        assert fit.t_min == pytest.approx(1e-3, rel=0.15)
        assert fit.gamma_min == pytest.approx(2 * math.pi * 31e3, rel=0.15)

    def test_exact_synthetic_recovery(self):
        a_true, b_true = 80.0, 2e-6
        gammas = np.logspace(1, 5, 12)
        temps = a_true / gammas + b_true * gammas
        fit = cooling_curve_fit(np.column_stack([gammas, temps]), mode="A-and-B")
        assert fit.coeff_a == pytest.approx(a_true, rel=1e-6)
        assert fit.coeff_b == pytest.approx(b_true, rel=1e-6)

    def test_a_only_mode_with_external_b(self):
        a_true = 112.0
        gammas = np.logspace(1, 3, 8)  # all far below gamma_min
        temps = a_true / gammas
        fit = cooling_curve_fit(
            np.column_stack([gammas, temps]), mode="A-only", external_b=self.B_PAPER
        )
        assert fit.coeff_a == pytest.approx(a_true, rel=1e-9)
        assert fit.mode == "A-only"
        assert fit.t_min == pytest.approx(1.11e-3, rel=0.01)

    def test_interior_minimum_for_noisy_channel(self):
        # forward-detection shape: positive B produces an interior minimum
        a_true, b_true = 100.0, 6.5e-5
        gammas = np.logspace(2, 4.5, 16)
        temps = a_true / gammas + b_true * gammas
        fit = cooling_curve_fit(np.column_stack([gammas, temps]), mode="A-and-B")
        gmin = fit.gamma_min
        assert gammas.min() < gmin < gammas.max()
        curve = fit.coeff_a / gammas + fit.coeff_b * gammas
        assert np.argmin(curve) not in (0, len(gammas) - 1)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            cooling_curve_fit([(10.0, 1.0), (20.0, 0.5)])

    def test_degenerate_design_rejected(self):
        pts = [(100.0, 1.0)] * 5  # identical abscissae
        with pytest.raises(FitError, match="degenerate"):
            cooling_curve_fit(pts, mode="A-and-B")

    def test_report_dict_fields(self):
        gammas = np.logspace(1, 5, 10)
        temps = 80.0 / gammas + 2e-6 * gammas
        fit = cooling_curve_fit(np.column_stack([gammas, temps]), mode="A-and-B")
        d = fit.as_dict()
        assert set(d) == {"parameters", "mode", "covariance", "derived"}
        assert d["derived"]["t_min_k"] == pytest.approx(fit.t_min)


class TestGaussianWaistFit:
    def test_paper_waist_recovery(self):
        w0 = 0.58e-3 / 2
        z = np.linspace(-0.8e-3, 0.8e-3, 41)
        y = 1.7 * np.exp(-2 * z**2 / w0**2) + 0.05
        got, err = gaussian_waist_fit(z, y)
        assert abs(got - w0) <= max(err, 1e-9 * w0)

    def test_scale_invariance(self):
        w0 = 0.3e-3
        z = np.linspace(-1e-3, 1e-3, 31)
        y = np.exp(-2 * z**2 / w0**2) + 0.1
        w_a, _ = gaussian_waist_fit(z, y)
        w_b, _ = gaussian_waist_fit(z, 10.0 * y)
        assert w_b == pytest.approx(w_a, rel=1e-10, abs=0)

    def test_noise_robustness_monte_carlo(self):
        w0 = 0.29e-3
        z = np.linspace(-0.5e-3, 0.5e-3, 301)
        clean = np.exp(-2 * z**2 / w0**2)
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean + 0.05 * rng.standard_normal(z.size)
            got, _ = gaussian_waist_fit(z, noisy)
            errs.append(abs(got - w0) / w0)
        assert max(errs) < 0.03

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            gaussian_waist_fit([0, 1, 2], [1, 2, 1])


class TestImprecisionFromFloor:
    def test_known_noise_recovery(self):
        fs, level = 65536.0, 3.0e-24
        x = white_position_noise(level, fs, 1 << 18, seed=9)
        psd = welch_psd(x, fs, segment_len=1 << 12)
        got = imprecision_from_floor(psd, (5000.0, 20000.0))
        assert got == pytest.approx(level, rel=0.1, abs=0)

    def test_two_channel_separation_38_db(self):
        fs = 65536.0
        s_self = 3.0e-24
        s_fwd = s_self * 10 ** 3.8
        a = welch_psd(white_position_noise(s_self, fs, 1 << 18, 1), fs, 1 << 12)
        b = welch_psd(white_position_noise(s_fwd, fs, 1 << 18, 2), fs, 1 << 12)
        ratio_db = 10 * math.log10(
            imprecision_from_floor(b, (2000.0, 30000.0))
            / imprecision_from_floor(a, (2000.0, 30000.0))
        )
        assert ratio_db == pytest.approx(38.0, abs=1.0)

    def test_noiseless_signal_floor_negligible(self):
        fs, n = 65536.0, 1 << 17
        t = np.arange(n) / fs
        x = 1e-9 * np.sin(2 * math.pi * 3200.0 * t)
        psd = welch_psd(x, fs, segment_len=1 << 12)
        floor = imprecision_from_floor(psd, (10000.0, 30000.0))
        assert floor < 1e-3 * 3.0e-24

    def test_empty_band_rejected(self):
        psd = welch_psd(np.ones(4096), 1024.0, segment_len=512)
        with pytest.raises(ValueError):
            imprecision_from_floor(psd, (600.0, 700.0))  # above Nyquist


class TestPsdType:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Psd(np.array([0.0, 2.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            Psd(np.zeros(4), np.zeros(5))

    def test_csv_export_roundtrip(self, tmp_path):
        psd = Psd(np.array([0.0, 1.0, 2.0]), np.array([1e-24, 2e-24, 3e-24]))
        path = tmp_path / "psd.csv"
        psd.write_csv(path)
        rows = path.read_text().strip().split("\n")
        assert rows[0].strip() == "f_hz,psd_m2_per_hz"
        assert float(rows[2].split(",")[1]) == 2e-24
