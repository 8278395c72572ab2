"""Spectral estimation and fitting: Welch PSDs, Lorentzian resonance fits,
cooling-curve fits, and noise-floor extraction; and the package's CSV
writer, ``write_csv``.

PSDs are one-sided densities: white noise of position PSD S produces a flat
estimate at S, and the integral over frequency reproduces the variance of a
zero-mean signal (Parseval, window-corrected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Psd",
    "LorentzianFit",
    "CoolingCurveFit",
    "FitError",
    "welch_psd",
    "lorentzian_fit",
    "cooling_curve_fit",
    "imprecision_from_floor",
    "write_csv",
]

_CSV_BATCH = 1 << 12  # rows formatted per write
_MAX_NFEV = 2000  # residual evaluations allowed per Levenberg-Marquardt solve


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
        if not (np.all(v >= 0.0) and np.all(v < math.inf)):
            raise ValueError("PSD values must be >= 0 and finite")
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

    def write_csv(self, path) -> None:
        write_csv(path, ["f_hz", "psd_m2_per_hz"], self.frequencies, self.values)


def write_csv(path, header, *columns) -> None:
    """Write ``header`` and the rows of the numeric ``columns`` as CSV, every
    cell as ``'%.17g'``, lines ended by ``\\r\\n``: the bytes ``csv.writer``
    writes for cells ``f"{v:.17g}"``.  No cell is quoted, so no header cell
    may hold a comma, a double quote or a line break.

    A column is a 1-d numpy array, or one number repeated on every row; the arrays
    must have one length.  Rows are formatted ``_CSV_BATCH`` at a time from
    ``.tolist()`` slices, so a long table costs memory for one batch.
    """
    sizes = {len(c) for c in columns if np.ndim(c)}
    if len(sizes) != 1 or len(header) != len(columns):
        raise ValueError(
            f"need a name per column and 1-d arrays of one length, got {len(header)} names "
            f"for {len(columns)} columns of lengths {sorted(sizes)}"
        )
    quoted = [name for name in header if any(ch in name for ch in ',"\r\n')]
    if quoted:
        raise ValueError(f"header cell {quoted[0]!r} holds a comma, a double quote or a line break")
    (size,) = sizes
    # a repeated number is formatted once, into the row template
    line = ",".join("%.17g" if np.ndim(c) else "%.17g" % c for c in columns) + "\r\n"
    arrays = [c for c in columns if np.ndim(c)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i0 in range(0, size, _CSV_BATCH):
            cells = [c[i0 : i0 + _CSV_BATCH].tolist() for c in arrays]
            fh.write("".join(map(line.__mod__, zip(*cells))))


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


@dataclass(frozen=True)
class CoolingCurveFit:
    """Steady-state temperature vs cooling rate, T = A/gamma + B*gamma, with
    both coefficients positive: the minimum T_min = 2 sqrt(AB) lies at
    gamma_min = sqrt(A/B)."""

    coeff_a: float
    coeff_b: float

    def __post_init__(self):
        if not (self.coeff_a > 0.0 and self.coeff_b > 0.0):
            raise ValueError(
                f"A and B must be positive, got A = {self.coeff_a!r}, B = {self.coeff_b!r}"
            )

    @property
    def t_min(self) -> float:
        return 2.0 * math.sqrt(self.coeff_a * self.coeff_b)

    @property
    def gamma_min(self) -> float:
        return math.sqrt(self.coeff_a / self.coeff_b)


def welch_psd(series, sample_rate: float, segment_len: int) -> Psd:
    """Averaged one-sided periodogram of a uniformly sampled series.

    Segments of ``segment_len`` samples overlap by half (the step is
    segment_len - segment_len // 2) and are weighted by a periodic Hann
    window.  No detrending is applied, so a DC component shows up in the
    zero bin and its neighbour.  The density scaling is 1/(fs sum(win^2)),
    doubled on every bin but DC and, for an even segment, Nyquist: scipy's
    Welch estimator with noverlap = segment_len // 2 and no detrending.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-d, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("empty series")
    if not 0.0 < sample_rate < math.inf:
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate!r}")
    if isinstance(segment_len, (bool, np.bool_)) or not isinstance(segment_len, (int, np.integer)):
        raise ValueError(f"segment_len must be an int, got {segment_len!r}")
    if not 0 < segment_len <= x.size:
        raise ValueError("segment_len must lie in [1, len(series)]")
    n = segment_len
    if n > 1:
        win = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
    else:
        win = np.ones(n)  # a one-sample Hann window is 1, as in scipy
    # one segment at a time, into reused buffers, so the working set is a
    # few segments whatever the length of the series; the periodograms are
    # summed in segment order, as np.mean(axis=0) sums the rows of a 2-d
    # array of them
    segments = sliding_window_view(x, n)[:: n - n // 2]
    windowed = np.empty(n)
    power = np.empty(n // 2 + 1)
    values = np.zeros(n // 2 + 1)
    for segment in segments:
        np.abs(np.fft.rfft(np.multiply(segment, win, out=windowed)), out=power)
        values += np.square(power, out=power)
    values /= len(segments)
    # np.sum, not win @ win: a BLAS dot wakes OpenBLAS worker threads, which
    # keep spinning on the other cores after the call returns
    values /= sample_rate * np.sum(win * win)
    values[1 : (n + 1) // 2] *= 2.0
    return Psd(np.fft.rfftfreq(n, 1.0 / sample_rate), values)


def _least_squares(residuals, jacobian, x0, x_scale, bounds):
    """Minimize sum(residuals(x)**2) by Levenberg-Marquardt; returns the
    solution x and the residuals and their Jacobian there.

    The solver works in the scaled variables z = x / x_scale, with J the
    Jacobian in z.  A trial step solves (J^T J + lam I) dz = -J^T r through
    the SVD of J, so a rank-deficient J gives the minimum-norm step and a
    retry with a new lam costs no new factorization.  Nielsen's rule updates
    lam: a step that lowers the cost is accepted and
    lam *= max(1/3, 1 - (2 rho - 1)^3), where rho is the fall of the cost
    over the fall the linearized model predicts; a rejected step multiplies
    lam by 2, 4, 8, ...  The first lam is 1e-3 s_min^2, Nielsen's start
    taken from the smallest singular value of J rather than the largest:
    the curvatures of the scaled parameters span decades, and a lam set by
    the stiffest would freeze the others.  When lam is 0 (J is rank
    deficient) a rejection sets it to 1e-3 s_max^2.

    Every trial point is projected onto the box ``bounds = (lower, upper)``,
    and a variable at a bound whose cost gradient points out of the box is
    held fixed for that step.

    The stopping rules are those of scipy's ``least_squares`` with its
    default ftol = 1e-8 and the xtol = 1e-10 the fit used with scipy: a
    trial step, accepted or not, ends the fit when it lowers the cost by
    less than ftol of it with rho > 1/4, or when it moves x by less than
    xtol * (xtol + |x|), both norms taken in the unscaled x.  FitError after
    ``_MAX_NFEV`` evaluations of ``residuals``.
    """
    scale = np.asarray(x_scale, dtype=float)
    k = scale.size
    lower, upper = bounds
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r = residuals(x)
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise FitError("residuals are not finite at the initial guess")
    nfev, lam, nu = 1, None, 2.0
    while True:
        jac = jacobian(x)
        if not np.all(np.isfinite(jac)):
            raise FitError(f"Jacobian is not finite at x = {x.tolist()}")
        js = jac * scale
        grad = js.T @ r
        free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
        if not free.any():
            return x, r, jac
        u, s, vt = np.linalg.svd(js[:, free], full_matrices=False)
        sur = s * (u.T @ r)
        if lam is None:
            lam = 1e-3 * s[-1] ** 2
        while True:
            if nfev >= _MAX_NFEV:
                raise FitError(f"did not converge in {_MAX_NFEV} evaluations (x = {x.tolist()})")
            den = s * s + lam
            step = np.zeros(k)
            step[free] = -(vt.T @ np.divide(sur, den, out=np.zeros_like(s), where=den > 0.0))
            x_new = np.clip(x + step * scale, lower, upper)
            r_new = residuals(x_new)
            nfev += 1
            cost_new = float(r_new @ r_new)
            lin = r + js @ ((x_new - x) / scale)
            predicted = cost - float(lin @ lin)
            rho = (cost - cost_new) / predicted if predicted > 0.0 else 0.0
            done = (
                cost - cost_new < 1e-8 * cost and rho > 0.25
                or np.linalg.norm(x_new - x) < 1e-10 * (1e-10 + np.linalg.norm(x))
            )
            if cost_new < cost:
                x, r, cost = x_new, r_new, cost_new
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                if done or cost == 0.0:
                    return x, r, jacobian(x)
                break
            if done:
                return x, r, jac
            lam = lam * nu if lam > 0.0 else 1e-3 * s[0] ** 2
            nu *= 2.0


def _covariance(jac, r) -> np.ndarray:
    """curve_fit's covariance: the pseudo-inverse of jac^T jac, dropping
    singular values at or below eps * max(jac.shape) * s_max, times the
    residual variance chi^2 / (n - k)."""
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    vt = vt[keep]
    return (vt.T / s[keep] ** 2) @ vt * (float(r @ r) / (jac.shape[0] - jac.shape[1]))


def _lorentz_model(f, center, fwhm, area, floor):
    """A peak of zero width adds nothing, even on the bin at its center."""
    half = fwhm / 2.0
    den = (f - center) ** 2 + half * half
    return floor + (area * half / math.pi) / np.where(den > 0.0, den, np.inf)


def _lorentz_jacobian(f, center, fwhm, area, floor):
    """d model / d (center, fwhm, area, floor), one column each."""
    half = fwhm / 2.0
    df = f - center
    den = df * df + half * half
    den = np.where(den > 0.0, den, np.inf)
    peak = area / (math.pi * den * den)
    return np.column_stack(
        [2.0 * half * df * peak, 0.5 * (df * df - half * half) * peak, half / (math.pi * den), np.ones_like(f)]
    )


def lorentzian_fit(psd: Psd, band: tuple[float, float]) -> LorentzianFit:
    """Fit a Lorentzian plus constant floor to one resonance inside ``band``.

    Weighted least squares with sigma proportional to the local PSD level
    (Welch bin scatter scales with the level, so raw-scale uniform weights
    would be dominated by the peak).  The weights come from the fitted model,
    refined over three reweighting passes: weighting by the *data* values
    correlates weights with the noise and biases the peak low when the bin
    scatter is large.

    Each pass is a bounded Levenberg-Marquardt solve (``_least_squares``)
    with the analytic Jacobian, the variables scaled by the initial guess and
    the box center in ``band``, fwhm, area and floor >= 0.  The fit agrees
    with the bounded ``curve_fit`` it replaces to ~1e-3 standard errors, and
    its covariance is curve_fit's (``_covariance``).  A pass that needs more
    than ``_MAX_NFEV`` residual evaluations raises FitError.
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

    bounds = (np.array([band[0], 0.0, 0.0, 0.0]), np.array([band[1], np.inf, np.inf, np.inf]))
    sigma = np.maximum(y, 1e-12)
    popt = p0
    try:
        for _ in range(3):
            popt, r, jac = _least_squares(
                lambda p, sigma=sigma: (_lorentz_model(f, *p) - y) / sigma,
                lambda p, sigma=sigma: _lorentz_jacobian(f, *p) / sigma[:, None],
                popt, p0, bounds,
            )
            sigma = np.maximum(_lorentz_model(f, *popt), 1e-12)
    except FitError as exc:
        raise FitError(f"Lorentzian fit in band {band} (p0={p0}) {exc}") from exc
    pcov = _covariance(jac, r)
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


def cooling_curve_fit(points, b: float) -> CoolingCurveFit:
    """Least squares of T = A/gamma for A, with B given.

    ``points`` is a sequence of (gamma [rad/s], T [K]) well below the
    temperature minimum, where the B*gamma term is negligible; ``b``
    [K s/rad] supplies B for T_min and gamma_min.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (gamma, T) points")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"(gamma, T) point {bad[0]} is not finite: {tuple(pts[bad[0]].tolist())}")
    gamma, temp = pts[:, 0], pts[:, 1]
    if np.any(gamma <= 0.0):
        raise ValueError("cooling rates must be positive")
    # the one-column least squares, A = (w.T)/|u| for u = 1/gamma, w = u/|u|
    u = 1.0 / gamma
    norm = float(np.linalg.norm(u))
    return CoolingCurveFit(coeff_a=float((u / norm) @ temp) / norm, coeff_b=b)


def imprecision_from_floor(psd: Psd, floor_band: tuple[float, float]) -> float:
    """Noise-floor estimate: median PSD value inside a band free of
    resonances and drive tones (median for robustness against leakage)."""
    sub = psd.band(*floor_band)
    return float(np.median(sub.values))
