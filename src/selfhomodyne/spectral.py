"""Spectral estimation and fitting: Welch PSDs, Lorentzian resonance fits,
cooling-curve fits, Gaussian beam-waist fits, and noise-floor extraction.

PSDs are one-sided densities: white noise of position PSD S produces a flat
estimate at S, and the integral over frequency reproduces the variance of a
zero-mean signal (Parseval, window-corrected).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, signal

__all__ = [
    "Psd",
    "LorentzianFit",
    "CoolingCurveFit",
    "FitError",
    "welch_psd",
    "lorentzian_fit",
    "cooling_curve_fit",
    "gaussian_waist_fit",
    "imprecision_from_floor",
]


class FitError(RuntimeError):
    """Nonlinear fit failed to converge; carries solver diagnostics."""


@dataclass(frozen=True)
class Psd:
    """One-sided power spectral density on a uniform ascending frequency grid."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if f.ndim != 1 or f.shape != v.shape:
            raise ValueError("frequencies and values must be matching 1-d arrays")
        if f.size >= 2 and not np.all(np.diff(f) > 0):
            raise ValueError("frequency grid must be ascending")
        if np.any(v < 0.0):
            raise ValueError("PSD values must be >= 0")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)

    @property
    def resolution(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def band(self, f_lo: float, f_hi: float) -> "Psd":
        sel = (self.frequencies >= f_lo) & (self.frequencies <= f_hi)
        if not np.any(sel):
            raise ValueError(f"band ({f_lo}, {f_hi}) Hz contains no PSD bins")
        return Psd(self.frequencies[sel], self.values[sel])

    def integral(self) -> float:
        """Total power, integral of the density over the grid."""
        return float(np.sum(self.values) * self.resolution)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f_hz", "psd_m2_per_hz"])
            for f, v in zip(self.frequencies, self.values):
                writer.writerow([f"{f:.17g}", f"{v:.17g}"])


@dataclass(frozen=True)
class LorentzianFit:
    """Lorentzian resonance parameters on a constant floor.

    S(f) = floor + (1/pi) * area * (fwhm/2) / ((f - center)^2 + (fwhm/2)^2)
    so that ``area`` equals the integrated peak power, i.e. the motional
    variance <q^2> for a calibrated one-sided PSD (the peak sits entirely at
    positive frequency, so the full-line Lorentzian integral is the
    one-sided peak power).
    """

    center: float
    fwhm: float
    area: float
    floor: float
    covariance: np.ndarray = field(repr=False)

    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))

    def as_dict(self) -> dict:
        err = self.std_errors()
        return {
            "parameters": {
                "center_hz": self.center,
                "fwhm_hz": self.fwhm,
                "area_m2": self.area,
                "floor_m2_per_hz": self.floor,
            },
            "standard_errors": {
                "center_hz": float(err[0]),
                "fwhm_hz": float(err[1]),
                "area_m2": float(err[2]),
                "floor_m2_per_hz": float(err[3]),
            },
            "covariance": self.covariance.tolist(),
        }


@dataclass(frozen=True)
class CoolingCurveFit:
    """Steady-state temperature vs cooling rate, T = A/gamma + B*gamma.

    In "A-only" mode B is either zero or supplied externally; the derived
    quantities are T_min = 2 sqrt(AB) and gamma_min = sqrt(A/B).
    """

    coeff_a: float
    coeff_b: float
    mode: str
    covariance: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.coeff_a <= 0.0:
            raise ValueError("A must be positive")
        if self.mode == "A-and-B" and self.coeff_b <= 0.0:
            raise ValueError("B must be positive in A-and-B mode")

    @property
    def t_min(self) -> float:
        if self.coeff_b <= 0.0:
            raise ValueError("T_min requires a positive B")
        return 2.0 * math.sqrt(self.coeff_a * self.coeff_b)

    @property
    def gamma_min(self) -> float:
        if self.coeff_b <= 0.0:
            raise ValueError("gamma_min requires a positive B")
        return math.sqrt(self.coeff_a / self.coeff_b)

    def as_dict(self) -> dict:
        out = {
            "parameters": {"a_rad_k_per_s": self.coeff_a, "b_k_s_per_rad": self.coeff_b},
            "mode": self.mode,
            "covariance": self.covariance.tolist(),
        }
        if self.coeff_b > 0.0:
            out["derived"] = {"t_min_k": self.t_min, "gamma_min_rad_per_s": self.gamma_min}
        return out


def welch_psd(
    series,
    sample_rate: float,
    segment_len: int,
    window: str = "hann",
) -> Psd:
    """Averaged one-sided periodogram of a uniformly sampled series.

    Segments overlap by half.  Window is "hann" or "rectangular".  No
    detrending is applied, so a DC component shows up in the zero bin.
    """
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    if not 0 < segment_len <= x.size:
        raise ValueError("segment_len must lie in [1, len(series)]")
    if window not in ("hann", "rectangular"):
        raise ValueError("window must be 'hann' or 'rectangular'")
    win = "hann" if window == "hann" else "boxcar"
    freqs, values = signal.welch(
        x,
        fs=sample_rate,
        window=win,
        nperseg=segment_len,
        noverlap=segment_len // 2,
        detrend=False,
        return_onesided=True,
        scaling="density",
    )
    return Psd(freqs, values)


def _lorentz_model(f, center, fwhm, area, floor):
    half = fwhm / 2.0
    return floor + (1.0 / math.pi) * area * half / ((f - center) ** 2 + half * half)


def lorentzian_fit(psd: Psd, band: tuple[float, float], max_iterations: int = 2000) -> LorentzianFit:
    """Fit a Lorentzian plus constant floor to one resonance inside ``band``.

    Weighted least squares with sigma proportional to the local PSD level
    (Welch bin scatter scales with the level, so raw-scale uniform weights
    would be dominated by the peak).  The weights come from the fitted model,
    refined over a few reweighting passes: weighting by the *data* values
    correlates weights with the noise and biases the peak low when the bin
    scatter is large.  Convergence at relative parameter step 1e-8; failure
    raises FitError with the solver message.
    """
    sub = psd.band(*band)
    f, s = sub.frequencies, sub.values
    if f.size < 8:
        raise ValueError("band too narrow: fewer than 8 PSD bins")

    # normalize the ordinate so all four parameters sit at O(1)-ish scales;
    # PSD floors and peaks can be 10+ orders of magnitude apart
    scale = float(np.max(s))
    if scale <= 0.0:
        raise ValueError("PSD band contains no power")
    y = s / scale

    floor0 = float(np.median(y))
    peak_idx = int(np.argmax(y))
    center0 = float(f[peak_idx])
    above = y > (y[peak_idx] + floor0) / 2.0
    fwhm0 = max(float(np.count_nonzero(above)) * sub.resolution, sub.resolution)
    area0 = float(np.sum(np.clip(y - floor0, 0.0, None)) * sub.resolution)
    p0 = [center0, fwhm0, max(area0, 1e-12), max(floor0, 1e-12)]

    sigma = np.maximum(y, 1e-12)
    popt = None
    try:
        for _ in range(3):
            popt, pcov = optimize.curve_fit(
                _lorentz_model,
                f,
                y,
                p0=p0 if popt is None else popt,
                sigma=sigma,
                absolute_sigma=False,
                maxfev=max_iterations,
                xtol=1e-10,
                x_scale=p0,
                bounds=([band[0], 0.0, 0.0, 0.0], [band[1], np.inf, np.inf, np.inf]),
            )
            sigma = np.maximum(_lorentz_model(f, *popt), 1e-12)
    except RuntimeError as exc:
        raise FitError(
            f"Lorentzian fit did not converge in {max_iterations} evaluations "
            f"(band {band}, p0={p0}): {exc}"
        ) from exc
    unscale = np.array([1.0, 1.0, scale, scale])
    popt = popt * unscale
    pcov = pcov * np.outer(unscale, unscale)
    return LorentzianFit(
        center=float(popt[0]),
        fwhm=float(popt[1]),
        area=float(popt[2]),
        floor=float(popt[3]),
        covariance=pcov,
    )


def cooling_curve_fit(
    points,
    mode: str = "A-and-B",
    external_b: float | None = None,
) -> CoolingCurveFit:
    """Least squares of T = A/gamma + B*gamma (or T = A/gamma).

    ``points`` is a sequence of (gamma [rad/s], T [K]).  In "A-only" mode the
    fit has the single parameter A (valid well below the temperature
    minimum); ``external_b`` then supplies B for the derived T_min/gamma_min.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (gamma, T) points")
    gamma, temp = pts[:, 0], pts[:, 1]
    if np.any(gamma <= 0.0):
        raise ValueError("cooling rates must be positive")

    if mode == "A-only":
        design = (1.0 / gamma)[:, None]
    elif mode == "A-and-B":
        design = np.column_stack([1.0 / gamma, gamma])
    else:
        raise ValueError("mode must be 'A-only' or 'A-and-B'")

    # judge degeneracy on unit-norm columns (the raw 1/gamma and gamma
    # columns are legitimately many orders of magnitude apart)
    col_scale = np.linalg.norm(design, axis=0)
    if np.any(col_scale == 0.0) or np.linalg.cond(design / col_scale) > 1e8:
        raise FitError("degenerate design matrix in cooling-curve fit")
    coef_scaled, *_ = np.linalg.lstsq(design / col_scale, temp, rcond=None)
    coef = coef_scaled / col_scale
    resid = temp - design @ coef
    dof = max(len(gamma) - design.shape[1], 1)
    cov = np.linalg.inv(design.T @ design) * float(resid @ resid) / dof

    if mode == "A-only":
        b = external_b if external_b is not None else 0.0
        return CoolingCurveFit(coeff_a=float(coef[0]), coeff_b=float(b), mode=mode, covariance=cov)
    return CoolingCurveFit(coeff_a=float(coef[0]), coeff_b=float(coef[1]), mode=mode, covariance=cov)


def gaussian_waist_fit(positions, intensities, max_iterations: int = 2000):
    """Fit I(z) = I_pk exp(-2 z^2 / w0^2) + offset and return (w0, w0_err).

    Needs at least 5 samples spanning more than one waist.
    """
    z = np.asarray(positions, dtype=float)
    y = np.asarray(intensities, dtype=float)
    if z.size != y.size or z.size < 5:
        raise ValueError("need at least 5 (position, intensity) samples")

    off0 = float(np.min(y))
    pk0 = float(np.max(y) - off0)
    # second-moment width guess
    wgt = np.clip(y - off0, 0.0, None)
    denom = float(np.sum(wgt))
    w00 = math.sqrt(2.0 * float(np.sum(wgt * z * z)) / denom) if denom > 0 else float(np.ptp(z)) / 4
    w00 = max(w00, float(np.ptp(z)) * 1e-3)

    def model(zz, pk, w0, off):
        return pk * np.exp(-2.0 * zz * zz / (w0 * w0)) + off

    try:
        popt, pcov = optimize.curve_fit(
            model, z, y, p0=[pk0, w00, off0], maxfev=max_iterations, xtol=1e-10
        )
    except RuntimeError as exc:
        raise FitError(f"Gaussian waist fit did not converge: {exc}") from exc
    w0 = abs(float(popt[1]))
    w0_err = float(np.sqrt(pcov[1, 1]))
    return w0, w0_err


def imprecision_from_floor(psd: Psd, floor_band: tuple[float, float]) -> float:
    """Noise-floor estimate: median PSD value inside a band free of
    resonances and drive tones (median for robustness against leakage)."""
    sub = psd.band(*floor_band)
    return float(np.median(sub.values))
