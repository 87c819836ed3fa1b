"""P-value functions, confidence curves and densities.

The upper p-value function H(c) of a hypothesised future total c is a proper
cdf over hypotheses; its alpha/2 and 1-alpha/2 crossings are the two-sided
1-alpha interval endpoints, and the confidence curve C equals H below the
point prediction and 1-H above it (0.5 exactly at the point prediction).
Each curve method is an ``intervals.METHODS`` pivot: H is its ``pvalue``
and the curve's interval is its ``build``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri, stdtr

from .fit import FitResult
from .intervals import METHODS, Method, UnsupportedTargetError, _combined_se

__all__ = [
    "CurveTable",
    "pvalue_upper",
    "build_curve",
    "success_confidence",
]

# curve method -> the ``intervals.METHODS`` entry whose pivot it draws
CURVE_METHODS = {"link_pivot": "eq1", "ci_plug": "eq2", "f_pivot": "fpivot",
                 "f_pivot_k1": "fpivot_k1", "or_prediction": "eq1"}


@dataclass(frozen=True)
class CurveTable:
    grid: np.ndarray
    H: np.ndarray
    H_minus: np.ndarray
    C: np.ndarray
    density: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_grid(np.asarray(self.grid))

    @property
    def point_estimate(self) -> float:
        return self.meta["point_estimate"]

    def interval_at(self, level: float) -> tuple[float, float]:
        """Two-sided interval endpoints read from the H = alpha/2 and
        H = 1-alpha/2 crossings."""
        alpha = 1 - level
        return (self._crossing(alpha / 2), self._crossing(1 - alpha / 2))

    def _crossing(self, h: float) -> float:
        """The total where H crosses h, clamped to the grid.  On the grid
        segment that brackets h, log c is interpolated linearly against the
        normal score ndtri(H), on which the pivots are near linear; where a
        user grid reaches H = 0 or 1 at an end of that segment, c linearly
        against H."""
        H, g = self.H, self.grid
        if h <= H[0]:
            return float(g[0])
        if h >= H[-1]:
            return float(g[-1])
        i = int(np.searchsorted(H, h))   # H[i-1] < h <= H[i]
        H, g = H[i - 1:i + 1], g[i - 1:i + 1]
        z = ndtri(H)
        if np.isfinite(z).all():
            return float(np.exp(np.interp(ndtri(h), z, np.log(g))))
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
# each curve method reads its p-value function off its ``intervals.METHODS``
# entry

def _method(name: str) -> Method:
    if name not in CURVE_METHODS:
        raise ValueError(f"unknown curve method {name!r}")
    return METHODS[CURVE_METHODS[name]]


def _hypotheses(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c) & (c > 0)):
        raise ValueError("hypothesised totals must be finite and positive")
    return c


def _check_grid(g: np.ndarray) -> None:
    if g.ndim != 1 or g.size < 3 or not np.all(np.diff(g) > 0):
        raise ValueError("grid must be strictly increasing with >= 3 points")


def pvalue_upper(fit: FitResult, hypothesis: float, method: str,
                 n_future: float, se_kind: str = "sandwich") -> float:
    """Upper p-value of H0: future total <= hypothesis; 0.5 at the point
    prediction by construction."""
    H, _ = _method(method).pvalue(fit, n_future, se_kind)
    return float(H(_hypotheses(hypothesis)))


def build_curve(fit: FitResult, method: str, n_future: float,
                grid: np.ndarray | None = None, n_points: int = 2001,
                se_kind: str = "sandwich") -> CurveTable:
    """Tabulate H, 1-H, the confidence curve, and the confidence density.

    The auto grid spans the method's 99.8% interval (its H crossings at
    0.001 and 0.999), log-spaced since every target here lives on the
    positive half-line.  An interval or grid that double precision cannot
    tabulate (too wide, or too narrow for ``n_points`` distinct totals)
    raises ``UnsupportedTargetError``.
    """
    entry = _method(method)
    H_fun, point = entry.pvalue(fit, n_future, se_kind)
    if grid is None:
        iv = entry.build(fit, 0.998, n_future, None, se_kind, "z")
        if not (0 < iv.lower and iv.upper < math.inf):
            raise UnsupportedTargetError("a log-spaced grid cannot span the 99.8% interval "
                                         f"({iv.lower:.6g}, {iv.upper:.6g}): it leaves "
                                         "the range of double precision")
        grid = np.exp(np.linspace(math.log(iv.lower), math.log(iv.upper), n_points))
        if np.any(np.diff(grid) <= 0):   # e.g. a zero SE: counts that fit exactly
            raise UnsupportedTargetError(f"the 99.8% interval ({iv.lower:.6g}, "
                                         f"{iv.upper:.6g}) is too narrow for a grid of "
                                         f"{n_points} distinct totals")
    else:
        grid = _hypotheses(grid)
    _check_grid(grid)
    H = np.asarray(H_fun(grid), dtype=float)
    H_minus = 1.0 - H
    C = np.where(grid <= point, H, H_minus)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            density = np.gradient(H, grid)
    except FloatingPointError as exc:
        raise UnsupportedTargetError("the grid steps are too far apart for a finite-"
                                     "difference density in double precision") from exc
    clamped = int(np.sum(density < 0))
    density = np.maximum(density, 0.0)
    meta = {"method": method, "point_estimate": float(point),
            "n_future": float(n_future), "negative_density_clamped": clamped}
    return CurveTable(grid, H, H_minus, C, density, meta)


def success_confidence(fit2: FitResult, n: int, m: int, threshold: float,
                       statistic_scale: str = "odds_ratio") -> float:
    """Confidence that a future m-subject study clears its success threshold.

    ``odds_ratio`` scale thresholds on the future observed odds ratio (the
    minimum detectable effect); ``z_statistic`` thresholds the future Wald
    z value directly.  This is a confidence level attached to the observable
    outcome, not a probability that the treatment works.
    """
    if fit2.family != "binomial_logit":
        raise ValueError("success confidence requires a binomial-logit fit")
    se = fit2.se_g_mu("model")
    se_n = _combined_se(se, n, m)   # rejects m < 1 on either scale
    log_or = fit2.mu_hat
    if statistic_scale == "odds_ratio":
        if threshold <= 0:
            raise ValueError("odds-ratio threshold must be positive")
        return float(stdtr(n - 1, (log_or - math.log(threshold)) / se_n))
    if statistic_scale == "z_statistic":
        stat = (log_or / (se * math.sqrt(n / m)) - threshold) / math.sqrt(m / n + 1.0)
        return float(stdtr(n - 1, stat))
    raise ValueError(f"unknown statistic scale {statistic_scale!r}")
