"""P-value functions, confidence curves and densities.

The upper p-value function H(c) of a hypothesised future total c is a proper
cdf over hypotheses; its alpha/2 and 1-alpha/2 crossings are the two-sided
1-alpha interval endpoints, and the confidence curve C equals H below the
point prediction and 1-H above it (0.5 exactly at the point prediction).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import fdtr, gammaincinv, ndtr, ndtri, stdtr

from .fit import FitResult

__all__ = [
    "CurveTable",
    "pvalue_upper",
    "build_curve",
    "success_confidence",
]

CURVE_METHODS = ("link_pivot", "ci_plug", "f_pivot", "f_pivot_k1", "or_prediction")


@dataclass(frozen=True)
class CurveTable:
    grid: np.ndarray
    H: np.ndarray
    H_minus: np.ndarray
    C: np.ndarray
    density: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.grid)
        if g.ndim != 1 or g.size < 3 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing with >= 3 points")

    @property
    def point_estimate(self) -> float:
        return self.meta["point_estimate"]

    def interval_at(self, level: float) -> tuple[float, float]:
        """Two-sided interval endpoints read from the H = alpha/2 and
        H = 1-alpha/2 crossings (linear interpolation between grid points)."""
        alpha = 1 - level
        return (self._crossing(alpha / 2), self._crossing(1 - alpha / 2))

    def _crossing(self, h: float) -> float:
        H, g = self.H, self.grid
        if h <= H[0]:
            return float(g[0])
        if h >= H[-1]:
            return float(g[-1])
        return float(np.interp(h, H, g))

    def density_mode(self) -> float:
        return float(self.grid[int(np.argmax(self.density))])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["value", "H", "H_minus", "C", "density"])
            for row in zip(self.grid, self.H, self.H_minus, self.C, self.density):
                w.writerow([f"{v:.12g}" for v in row])


# ---------------------------------------------------------------------------
# pivot plumbing: each method yields (H(c) callable, point estimate)

def _combined_se(fit: FitResult, n_future: float, se_kind: str):
    """Link-scale SE of the pivot and its reference distribution.

    Gamma/Weibull sums and odds ratios use Student t with n-1 df; dispersed
    counts use the standard normal with the equal-variance future term.
    """
    n = fit.n_obs
    if fit.family == "quasipoisson":
        return math.sqrt(2.0) * fit.se_g_mu(se_kind), None  # z reference
    se_n = math.sqrt(n) * fit.se_g_mu(se_kind) * math.sqrt(1.0 / n + 1.0 / n_future)
    return se_n, n - 1


def _point_total(fit: FitResult, n_future: float) -> float:
    if fit.family == "binomial_logit":
        return math.exp(fit.mu_hat)
    return n_future * fit.mu_hat


def _H_link_pivot(fit: FitResult, n_future: float, se_kind: str):
    se_n, df = _combined_se(fit, n_future, se_kind)
    log_point = math.log(_point_total(fit, n_future))

    def H(c):
        c = np.asarray(c, dtype=float)
        if np.any(c <= 0):
            raise ValueError("hypothesis must be positive under the log link")
        z = (np.log(c) - log_point) / se_n
        return ndtr(z) if df is None else stdtr(df, z)

    return H


def _H_f_pivot(fit: FitResult, n_future: float, k: float | None = None):
    k = fit.k_hat if k is None else k
    ybar, n = fit.mu_hat, fit.n_obs

    def H(c):
        c = np.asarray(c, dtype=float)
        if np.any(c <= 0):
            raise ValueError("hypothesis must be positive")
        return fdtr(2.0 * n_future * k, 2.0 * n * k, c / (n_future * ybar))

    return H


def _ci_plug_parametric(fit: FitResult, n_future: float, se_kind: str,
                        h_grid: np.ndarray):
    """Hypothesis values c(h) whose CI-plug-in p-value equals h: the h-quantile
    of the sum distribution at the Wald mean limit matched to h."""
    se = fit.se_g_mu(se_kind)
    z = ndtri(h_grid)
    if fit.family == "gamma":
        mu = fit.mu_hat * np.exp(z * se)
        k = fit.k_hat
        return gammaincinv(n_future * k, h_grid) * (mu / k)
    if fit.family == "quasipoisson":
        lam = fit.mu_hat * np.exp(z * se)
        phi = fit.dispersion_scale
        return gammaincinv(lam * n_future / phi, h_grid) * phi
    raise ValueError(f"no sum distribution for family {fit.family!r}")


def _H_ci_plug(fit: FitResult, n_future: float, se_kind: str):
    h_ref = np.concatenate([[1e-9], np.linspace(1e-5, 1 - 1e-5, 4001), [1 - 1e-9]])
    c_ref = _ci_plug_parametric(fit, n_future, se_kind, h_ref)

    def H(c):
        c = np.asarray(c, dtype=float)
        if np.any(c <= 0):
            raise ValueError("hypothesis must be positive")
        # monotone interpolation of h against log c
        out = np.interp(np.log(c), np.log(c_ref), h_ref)
        return float(out) if out.ndim == 0 else out

    return H


def _pivot(fit: FitResult, method: str, n_future: float, se_kind: str):
    if method == "link_pivot":
        return _H_link_pivot(fit, n_future, se_kind)
    if method == "ci_plug":
        return _H_ci_plug(fit, n_future, se_kind)
    if method == "f_pivot":
        return _H_f_pivot(fit, n_future)
    if method == "f_pivot_k1":
        return _H_f_pivot(fit, n_future, k=1.0)
    if method == "or_prediction":
        return _H_link_pivot(fit, n_future, se_kind)
    raise ValueError(f"unknown curve method {method!r}")


def pvalue_upper(fit: FitResult, hypothesis: float, method: str,
                 n_future: float, se_kind: str = "sandwich") -> float:
    """Upper p-value of H0: future total <= hypothesis; 0.5 at the point
    prediction by construction."""
    return float(_pivot(fit, method, n_future, se_kind)(hypothesis))


def build_curve(fit: FitResult, method: str, n_future: float,
                grid: np.ndarray | None = None, n_points: int = 2001,
                se_kind: str = "sandwich") -> CurveTable:
    """Tabulate H, 1-H, the confidence curve, and the confidence density.

    The auto grid spans the 99.8% interval (H crossings at 0.001 and 0.999),
    log-spaced since every target here lives on the positive half-line.
    """
    H_fun = _pivot(fit, method, n_future, se_kind)
    point = _point_total(fit, n_future)
    if grid is None:
        lo = _invert_H(H_fun, 0.001, point)
        hi = _invert_H(H_fun, 0.999, point)
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), n_points))
    else:
        grid = np.asarray(grid, dtype=float)
    H = np.asarray(H_fun(grid), dtype=float)
    H_minus = 1.0 - H
    C = np.where(grid <= point, H, H_minus)
    density = np.gradient(H, grid)
    clamped = int(np.sum(density < 0))
    density = np.maximum(density, 0.0)
    meta = {"method": method, "point_estimate": float(point),
            "n_future": float(n_future), "negative_density_clamped": clamped}
    return CurveTable(grid, H, H_minus, C, density, meta)


def _invert_H(H_fun, h: float, point: float) -> float:
    f = lambda c: float(H_fun(c)) - h
    lo, hi = point, point
    while f(lo) > 0:
        lo /= 2
        if lo < 1e-300:
            raise RuntimeError("p-value function never reaches its lower tail")
    while f(hi) < 0:
        hi *= 2
        if hi > 1e300:
            raise RuntimeError("p-value function never reaches its upper tail")
    if lo == hi:
        return lo
    return float(brentq(f, lo, hi, xtol=1e-12 * max(1.0, point)))


def success_confidence(fit2: FitResult, n: int, m: int, threshold: float,
                       statistic_scale: str = "odds_ratio",
                       se: float | None = None) -> float:
    """Confidence that a future m-subject study clears its success threshold.

    ``odds_ratio`` scale thresholds on the future observed odds ratio (the
    minimum detectable effect); ``z_statistic`` thresholds the future Wald
    z value directly.  This is a confidence level attached to the observable
    outcome, not a probability that the treatment works.
    """
    if fit2.family != "binomial_logit":
        raise ValueError("success confidence requires a binomial-logit fit")
    se = fit2.se_g_mu("model") if se is None else se
    log_or = fit2.mu_hat
    if statistic_scale == "odds_ratio":
        if threshold <= 0:
            raise ValueError("odds-ratio threshold must be positive")
        se_n = math.sqrt(n) * se * math.sqrt(1.0 / n + 1.0 / m)
        return float(stdtr(n - 1, (log_or - math.log(threshold)) / se_n))
    if statistic_scale == "z_statistic":
        stat = (log_or / (se * math.sqrt(n / m)) - threshold) / math.sqrt(m / n + 1.0)
        return float(stdtr(n - 1, stat))
    raise ValueError(f"unknown statistic scale {statistic_scale!r}")
