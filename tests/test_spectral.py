"""Tests for PSD estimation and the fitting operations.

Synthetic signals with known spectra serve as oracles: sinusoids carry power
a^2/2, seeded Gaussian noise of variance S*fs/2 has a flat one-sided density
S, and exact model curves must be recovered to numerical precision.  The
numpy Welch estimator is checked against scipy.signal.welch and the numpy
Lorentzian fit against scipy.optimize.curve_fit; the package itself imports
neither.
"""

import csv
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import optimize, signal

from selfhomodyne import spectral
from selfhomodyne.constants import K_B
from selfhomodyne.spectral import (
    CoolingCurveFit,
    FitError,
    Psd,
    cooling_curve_fit,
    imprecision_from_floor,
    lorentzian_fit,
    welch_psd,
    write_csv,
)


def white_position_noise(psd_level, fs, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * math.sqrt(psd_level * fs / 2.0)


def lorentz_curve(f, center, fwhm, area, floor):
    half = fwhm / 2.0
    return floor + (1.0 / math.pi) * area * half / ((f - center) ** 2 + half**2)


def curve_fit_lorentzian(psd, band):
    """lorentzian_fit as computed with scipy's curve_fit (bounded TRF): the
    same ordinate scaling, initial guess, bounds, x_scale = p0, xtol and
    three reweighting passes.  Returns the parameters and covariance."""
    sub = psd.band(*band)
    f, y = sub.frequencies, sub.values / np.max(sub.values)
    floor0 = float(np.median(y))
    peak = int(np.argmax(y))
    fwhm0 = max(np.count_nonzero(y > (y[peak] + floor0) / 2.0) * sub.resolution, sub.resolution)
    area0 = float(np.sum(np.clip(y - floor0, 0.0, None)) * sub.resolution)
    p0 = [float(f[peak]), fwhm0, max(area0, 1e-12), max(floor0, 1e-12)]
    sigma, popt = np.maximum(y, 1e-12), p0
    for _ in range(3):
        popt, pcov = optimize.curve_fit(
            lorentz_curve, f, y, p0=popt, sigma=sigma, maxfev=2000, xtol=1e-10, x_scale=p0,
            bounds=([band[0], 0.0, 0.0, 0.0], [band[1], np.inf, np.inf, np.inf]),
        )
        sigma = np.maximum(lorentz_curve(f, *popt), 1e-12)
    unscale = np.array([1.0, 1.0, np.max(sub.values), np.max(sub.values)])
    return popt * unscale, pcov * np.outer(unscale, unscale)


class TestWelchPsd:
    def test_sinusoid_power(self):
        fs, n = 65536.0, 1 << 18
        t = np.arange(n) / fs
        amp, f0 = 3.2e-9, 2048.0
        x = amp * np.sin(2 * math.pi * f0 * t)
        psd = welch_psd(x, fs, segment_len=1 << 13)
        peak = psd.band(f0 - 50, f0 + 50)
        assert np.sum(peak.values) * peak.resolution == pytest.approx(amp**2 / 2, rel=0.01, abs=0)

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
        # the periodic Hann window's spectrum is N/2 at bin 0 and -N/4 at
        # bins +-1, and 0 elsewhere: one-sided, bin 1 holds half of bin 0
        x = np.full(4096, 2.5)
        psd = welch_psd(x, 1000.0, segment_len=512)
        assert psd.values[0] > 0
        assert psd.values[1] == pytest.approx(0.5 * psd.values[0], rel=1e-12, abs=0)
        assert np.all(psd.values[2:] < 1e-20 * psd.values[0])

    def test_parseval_on_stationary_signal(self):
        fs = 32768.0
        rng = np.random.default_rng(3)
        # band-limited noise via a smoothing kernel, zero mean
        x = np.convolve(rng.standard_normal(1 << 17), np.ones(8) / 8, mode="same")
        x -= x.mean()
        psd = welch_psd(x, fs, segment_len=1 << 12)
        assert np.sum(psd.values) * psd.resolution == pytest.approx(float(np.var(x)), rel=0.02)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(np.array([]), 1000.0, segment_len=16)

    def test_bad_segment_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(np.ones(64), 1000.0, segment_len=128)

    @pytest.mark.parametrize("series", [np.ones((4, 64)), np.array(1.0)], ids=["2-d", "0-d"])
    def test_series_not_1d_rejected(self, series):
        shape = re.escape(str(series.shape))
        with pytest.raises(ValueError, match=f"series must be 1-d, got shape {shape}"):
            welch_psd(series, 1.0, segment_len=16)

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
    @pytest.mark.parametrize("window", ["hann"])  # scipy's name for welch_psd's window
    def test_matches_scipy_welch(self, n, segment_len, window):
        x = np.random.default_rng(n).standard_normal(n) + 0.3
        psd = welch_psd(x, 131072.0, segment_len=segment_len)
        f, ref = signal.welch(
            x, fs=131072.0, window=window,
            nperseg=segment_len, noverlap=segment_len // 2, detrend=False,
        )
        np.testing.assert_allclose(psd.frequencies, f, rtol=1e-12)
        np.testing.assert_allclose(psd.values, ref, rtol=1e-12, atol=1e-12 * ref.max())


def batched_welch(x, fs, n):
    """welch_psd's values as computed with every segment at once: the
    windowed segments, their spectra and |.|^2 as (segments, bins) arrays,
    averaged with np.mean(axis=0)."""
    win = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n) if n > 1 else np.ones(n)
    power = np.abs(np.fft.rfft(sliding_window_view(x, n)[:: n - n // 2] * win, axis=-1))
    values = np.mean(np.square(power, out=power), axis=0)
    values /= fs * np.sum(win * win)
    values[1 : (n + 1) // 2] *= 2.0
    return values


class TestWelchSegmentLoop:
    """welch_psd transforms one segment at a time and sums the periodograms
    in segment order."""

    @pytest.mark.parametrize("n, segment_len", [
        (458752, 114688),  # a cool-sweep point
        (196608, 49152),   # the benchmark psd
        (5000, 512),
        (4097, 511),
        (1001, 2),
    ])
    def test_equals_batched_mean(self, n, segment_len):
        x = np.random.default_rng(n).standard_normal(n) + 0.3
        psd = welch_psd(x, 131072.0, segment_len=segment_len)
        assert np.array_equal(psd.values, batched_welch(x, 131072.0, segment_len))

    @pytest.mark.parametrize("n", [200, 1001, 5000])
    def test_one_sample_segments(self, n):
        # one bin: np.mean sums the n segments pairwise, the loop in order;
        # an in-order sum of n positive terms is within (n - 1) eps of exact
        x = np.random.default_rng(n).standard_normal(n) + 0.3
        psd = welch_psd(x, 131072.0, segment_len=1)
        ref = batched_welch(x, 131072.0, 1)
        np.testing.assert_allclose(psd.values, ref, rtol=n * np.finfo(float).eps, atol=0)

    def test_peak_memory_is_a_few_segments(self):
        segment_len = 1 << 14
        x = np.random.default_rng(2).standard_normal(1 << 17)  # 15 segments
        tracemalloc.start()
        try:
            welch_psd(x, 131072.0, segment_len=segment_len)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * segment_len


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
        with pytest.raises(ValueError, match="PSD band contains no power"):
            lorentzian_fit(Psd(f, np.zeros_like(f)), (10.0, 90.0))

    def test_solver_rejects_non_finite_model(self):
        box = (np.array([-10.0]), np.array([10.0]))
        with pytest.raises(FitError, match="not finite at the initial guess"):
            spectral._least_squares(
                lambda x: np.array([np.nan, 1.0]), lambda x: np.ones((2, 1)), [1.0], [1.0], box
            )
        with pytest.raises(FitError, match="Jacobian is not finite at x = \\[1.0\\]"):
            spectral._least_squares(
                lambda x: x - 2.0, lambda x: np.array([[np.inf]]), [1.0], [1.0], box
            )

    def test_solver_stops_when_every_variable_is_pinned(self):
        # the minimum of (x + 1)^2 lies below the box [0, 10]: from x = 0 the
        # cost gradient points out of the box, so no variable is free to move
        calls = []

        def residuals(x):
            calls.append(x.copy())
            return x + 1.0

        x, r, jac = spectral._least_squares(
            residuals, lambda x: np.ones((1, 1)), [0.0], [1.0], (np.array([0.0]), np.array([10.0]))
        )
        assert x.tolist() == [0.0] and r.tolist() == [1.0] and jac.tolist() == [[1.0]]
        assert len(calls) == 1

    def test_fit_failure_diagnostics(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_NFEV", 4)
        rng = np.random.default_rng(0)
        f = np.linspace(100.0, 200.0, 64)
        psd = Psd(f, rng.uniform(1.0, 2.0, 64))
        with pytest.raises(FitError, match="did not converge in 4 evaluations"):
            lorentzian_fit(psd, (100.0, 200.0))

    # (FWHM in bins, floor over peak height, seed, whether the fitted floor
    # sits at its bound 0): the FWHM spans the cool-sweep benchmark's 7-380
    # bins, and a zero true floor leaves the fit at its bound in three cases
    @pytest.mark.parametrize("fwhm_bins, floor_ratio, seed, floor_at_bound", [
        (7.0, 1e-2, 0, False), (7.0, 0.0, 0, True), (7.0, 0.0, 1, False),
        (20.0, 1e-2, 0, False), (20.0, 0.0, 0, True), (20.0, 0.0, 1, False),
        (60.0, 1e-2, 1, False), (60.0, 0.0, 0, False), (60.0, 0.0, 1, True),
        (150.0, 1e-2, 0, False), (150.0, 0.0, 1, False),
        (380.0, 1e-2, 0, False), (380.0, 0.0, 1, False),
    ])
    def test_matches_curve_fit(self, fwhm_bins, floor_ratio, seed, floor_at_bound):
        """Welch-like bins (chi^2 with 14 degrees of freedom, as 7 averaged
        segments give) around a Lorentzian: every parameter within 0.01
        standard errors, and every standard error within 1%, of curve_fit's."""
        rng = np.random.default_rng(seed)
        res = 131072.0 / 114688  # the cool-sweep bin at 4 s per point
        fwhm, area = fwhm_bins * res, 1e-16
        center = 3200.0 + rng.uniform(-0.5, 0.5) * res
        f = np.arange(0.0, 8000.0, res)
        truth = lorentz_curve(f, center, fwhm, area, floor_ratio * 2.0 * area / (math.pi * fwhm))
        psd = Psd(f, truth * rng.gamma(7.0, 1.0 / 7.0, f.size))
        half = max(6.0 * fwhm, 150.0)
        band = (center - half, center + half)

        fit = lorentzian_fit(psd, band)
        ref, ref_cov = curve_fit_lorentzian(psd, band)
        ref_err = np.sqrt(np.diag(ref_cov))
        got = np.array([fit.center, fit.fwhm, fit.area, fit.floor])
        np.testing.assert_array_less(np.abs(got - ref), 0.01 * ref_err)
        np.testing.assert_allclose(fit.std_errors(), ref_err, rtol=0.01)
        assert (fit.floor == 0.0) is floor_at_bound

    def test_rank_deficient_jacobian(self):
        """A flat band drives the area and the width to their bound 0, where
        the center and width columns of the Jacobian vanish: the fit returns
        the floor with the rank-deficient covariance, and raises no
        LinAlgError."""
        f = np.linspace(100.0, 200.0, 64)
        vals = np.random.default_rng(1).uniform(1.0, 1.01, 64)
        fit = lorentzian_fit(Psd(f, vals), (100.0, 200.0))
        jac = spectral._lorentz_jacobian(f, fit.center, fit.fwhm, fit.area, fit.floor)
        assert np.linalg.matrix_rank(jac) < 4
        assert fit.area == 0.0 and fit.fwhm == 0.0
        assert fit.floor == pytest.approx(np.mean(vals), rel=1e-6)
        assert np.all(np.isfinite(fit.covariance))
        assert fit.std_errors()[3] > 0.0


class TestCoolingCurveFit:
    # the published fit: A = 112 rad K, B from the imprecision relation
    # B = pi m w_y^2 S_imp / (2 kB)
    A_PAPER = 112.0
    B_PAPER = math.pi * 2.0e-17 * (2 * math.pi * 3200.0) ** 2 * 3.0e-24 / (2 * K_B)

    def test_paper_minimum_temperature_and_rate(self):
        fit = CoolingCurveFit(self.A_PAPER, self.B_PAPER)
        assert fit.t_min == pytest.approx(1e-3, rel=0.15)
        assert fit.gamma_min == pytest.approx(2 * math.pi * 31e3, rel=0.15)

    def test_fits_a_with_external_b(self):
        a_true = 112.0
        gammas = np.logspace(1, 3, 8)  # all far below gamma_min
        temps = a_true / gammas
        fit = cooling_curve_fit(np.column_stack([gammas, temps]), self.B_PAPER)
        assert fit.coeff_a == pytest.approx(a_true, rel=1e-9)
        assert fit.coeff_b == self.B_PAPER
        assert fit.t_min == pytest.approx(1.11e-3, rel=0.01)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            cooling_curve_fit([(10.0, 1.0), (20.0, 0.5)], self.B_PAPER)

    @pytest.mark.parametrize("gamma, temp", [(math.nan, 1.0), (20.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_point_rejected(self, gamma, temp):
        # a NaN rate passed the gamma <= 0 check and failed in LAPACK's SVD;
        # an infinite temperature ended as "A and B must be positive, got A = nan"
        points = [(10.0, 1.0), (gamma, temp), (30.0, math.nan), (40.0, 0.25)]
        match = r"point 1 is not finite: \(" + re.escape(f"{gamma!r}, {temp!r})")
        with pytest.raises(ValueError, match=match):
            cooling_curve_fit(points, self.B_PAPER)

    @pytest.mark.parametrize("a, b", [(0.0, 1e-6), (-1.0, 1e-6), (112.0, 0.0), (112.0, -1e-6),
                                      (math.nan, 1e-6)])
    def test_nonpositive_coefficients_rejected(self, a, b):
        with pytest.raises(ValueError, match="A and B must be positive"):
            CoolingCurveFit(a, b)


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
        with pytest.raises(ValueError, match="PSD values must be >= 0"):
            Psd(np.arange(3.0), np.array([1.0, -1e-30, 1.0]))
        # NaN fails the test too, as does the Welch PSD of a series holding one
        with pytest.raises(ValueError, match="PSD values must be >= 0"):
            Psd(np.arange(3.0), np.array([1.0, math.nan, 1.0]))
        with pytest.raises(ValueError, match="PSD values must be >= 0"):
            welch_psd(np.r_[np.ones(50), math.nan, np.ones(50)], 1.0, segment_len=16)
        for bad in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="PSD values must be >= 0 and finite"):
                Psd(np.arange(3.0), np.array([1.0, bad, 1.0]))
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sample_rate must be positive and finite"):
                welch_psd(np.ones(64), rate, segment_len=16)
        for segment_len in (4.0, True, "16"):
            with pytest.raises(ValueError, match="segment_len must be an int"):
                welch_psd(np.ones(64), 1.0, segment_len=segment_len)

    def test_csv_export_roundtrip(self, tmp_path):
        psd = Psd(np.array([0.0, 1.0, 2.0]), np.array([1e-24, 2e-24, 3e-24]))
        path = tmp_path / "psd.csv"
        psd.write_csv(path)
        rows = path.read_text().strip().split("\n")
        assert rows[0].strip() == "f_hz,psd_m2_per_hz"
        assert float(rows[2].split(",")[1]) == 2e-24


class TestWriteCsv:
    @staticmethod
    def reference(path, header, columns, size):
        """What csv.writer writes for the cells f"{v:.17g}"."""
        cells = [c.tolist() if np.ndim(c) else [c] * size for c in columns]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in zip(*cells):
                writer.writerow([f"{v:.17g}" for v in row])

    @pytest.mark.parametrize("batch", [4, spectral._CSV_BATCH])
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch, batch):
        """Float, int and bool arrays and repeated float and int cells give
        the bytes of csv.writer with every cell f"{v:.17g}", on an empty
        table, one that ends on a batch boundary and one that does not."""
        monkeypatch.setattr(spectral, "_CSV_BATCH", batch)
        floats = np.array([
            0.1, -2.5e-24, 1.0 / 3.0, math.nan, math.inf, -math.inf,
            -0.0, 5e-324, 1e308, 0.0, 1e-300,
        ])
        header = ["a_m", "b", "flag", "c_v", "d"]
        for size in (0, 1, 2 * batch, 2 * batch + 3):
            columns = [
                np.resize(floats, size), np.arange(size) - 3, np.arange(size) % 3 == 1,
                1.0 / 3.0, 7,
            ]
            path, ref = tmp_path / f"bulk{size}.csv", tmp_path / f"ref{size}.csv"
            write_csv(path, header, *columns)
            self.reference(ref, header, columns, size)
            assert path.read_bytes() == ref.read_bytes()
            assert path.read_bytes().count(b"\r\n") == size + 1

    def test_bad_columns_rejected(self, tmp_path):
        """A short column, a table of repeated cells alone, or a header of
        another width: nothing is written."""
        path = tmp_path / "bad.csv"
        for header, columns in [
            (["a", "b"], (np.zeros(3), np.zeros(4))),
            (["a", "b"], (1.0, 2.0)),
            (["a"], (np.zeros(3), 1.0)),
        ]:
            with pytest.raises(ValueError, match="a name per column and 1-d arrays of one length"):
                write_csv(path, header, *columns)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\rb"])
    def test_unquotable_header_rejected(self, tmp_path, name):
        """No cell is quoted, so a header cell with a comma, a double quote
        or a line break would not read back as that one cell: nothing is
        written."""
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="holds a comma, a double quote or a line break"):
            write_csv(path, ["t", name], np.zeros(3), np.ones(3))
        assert not path.exists()
