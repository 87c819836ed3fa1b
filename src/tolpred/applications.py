"""Application drivers.

Recruitment forecasting with staggered sites and time-varying rates, and
Weibull time-on-treatment bands, on the ``intervals`` formulas.  The
phase-3 success confidence is ``curves.success_confidence``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import intervals
from .dist import critical_value
from .fit import (FitError, FitResult, InsufficientDataError, NonConvergenceError,
                  SurvivalSample, _newton, fit_quasipoisson, link_limit)
from .intervals import IntervalEstimate

__all__ = [
    "RecruitmentSeries",
    "TrendFit",
    "load_recruitment_csv",
    "load_survival_csv",
    "site_day_fit",
    "predict_sitedays",
    "fit_trend",
    "predict_sum_rate",
    "predict_sum_interarrival",
    "solve_target_window",
    "weibull_band_at",
    "weibull_bands",
    "site_dispersion_diagnostic",
]


@dataclass(frozen=True)
class RecruitmentSeries:
    """Per-period recruitment: events, exposure days, active sites, plus an
    optional schedule of active sites for future periods."""

    period: np.ndarray
    events: np.ndarray
    exposure_days: np.ndarray
    active_sites: np.ndarray
    future_period: np.ndarray | None = None
    future_sites: np.ndarray | None = None

    def __post_init__(self):
        per = np.asarray(self.period)
        if per.size == 0:
            raise ValueError("empty series")
        if not np.array_equal(per, np.arange(1, per.size + 1)):
            raise ValueError("periods must be contiguous from 1")
        if np.any(np.asarray(self.events) < 0) or np.any(np.asarray(self.active_sites) < 0):
            raise ValueError("events and active_sites must be nonnegative")
        if np.any(np.asarray(self.exposure_days) <= 0):
            raise ValueError("exposure_days must be positive")
        if (self.future_period is None) != (self.future_sites is None):
            raise ValueError("a schedule needs both future periods and future sites")
        if self.future_period is not None:
            fut = np.asarray(self.future_period)
            if np.shape(self.future_sites) != fut.shape:
                raise ValueError("future periods and future sites differ in length")
            if not np.array_equal(fut, np.arange(per.size + 1, per.size + fut.size + 1)):
                raise ValueError(f"scheduled periods must be contiguous from {per.size + 1}")
            if np.any(np.asarray(self.future_sites) < 0):
                raise ValueError("scheduled active_sites must be nonnegative")

    @property
    def n_periods(self) -> int:
        return int(self.period.size)

    @property
    def site_days(self) -> np.ndarray:
        return self.active_sites * self.exposure_days

    def future_site_days(self) -> float:
        if self.future_sites is None:
            raise ValueError("no future schedule attached")
        return float(np.sum(self.future_sites) * np.mean(self.exposure_days))


def _read_rows(path, columns):
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = set(columns) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"missing columns {sorted(missing)} in {path}")
            rows = []
            for i, row in enumerate(reader, start=2):
                try:
                    vals = [float(row[c]) for c in columns]
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: unparseable row at line {i}") from exc
                if not all(map(math.isfinite, vals)):
                    raise ValueError(f"{path}: non-finite value at line {i}")
                rows.append(vals)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def load_recruitment_csv(path, schedule_path=None) -> RecruitmentSeries:
    arr = _read_rows(path, ["period", "events", "exposure_days", "active_sites"])
    order = np.argsort(arr[:, 0])
    arr = arr[order]
    fut_p = fut_s = None
    if schedule_path is not None:
        sched = _read_rows(schedule_path, ["period", "active_sites"])
        sched = sched[np.argsort(sched[:, 0])]
        fut_p, fut_s = sched[:, 0], sched[:, 1]
    return RecruitmentSeries(arr[:, 0].astype(int), arr[:, 1], arr[:, 2],
                             arr[:, 3], fut_p, fut_s)


def load_survival_csv(path) -> list[SurvivalSample]:
    arr = _read_rows(path, ["time", "event"])
    return [SurvivalSample(t, bool(e)) for t, e in arr]


# ---------------------------------------------------------------------------
# pooled site-day model

def site_day_fit(series: RecruitmentSeries) -> FitResult:
    """Pooled per-site-per-day recruitment rate: total events over total
    site-days, with period-level model and sandwich standard errors."""
    sd = series.site_days
    if np.sum(sd > 0) < 2 or series.events.sum() < 1:
        raise InsufficientDataError("need >= 2 periods with active site-days and >= 1 event")
    keep = sd > 0
    return fit_quasipoisson(series.events[keep], sd[keep])


def predict_sitedays(fit: FitResult, series: RecruitmentSeries,
                     level: float) -> IntervalEstimate:
    """Interval for the additional subjects recruited over the scheduled
    future site-days, via the log-link pivot with the exposure-scaled
    future-variance term."""
    future_sd = series.future_site_days()
    if future_sd <= 0:
        raise ValueError("future schedule has no site-days")
    target = intervals.PredictionTarget(fit.n_obs, future_sd)
    return intervals.predict_sum_link(fit, target, level, variance="scaled")


def site_dispersion_diagnostic(series: RecruitmentSeries) -> dict:
    """Stationarity diagnostic: per-period rates against the pooled rate.

    Reports the Pearson dispersion of period rates around the pooled value;
    values far above 1 indicate the common-mixture assumption is shaky.
    Reported, never enforced.
    """
    sd = series.site_days
    keep = sd > 0
    x, e = series.events[keep], sd[keep]
    theta = x.sum() / e.sum()
    pearson = float(np.sum((x - theta * e) ** 2 / (theta * e)) / max(x.size - 1, 1))
    return {"pooled_rate": float(theta),
            "per_period_rates": (x / e).tolist(),
            "pearson_dispersion": pearson}


# ---------------------------------------------------------------------------
# time-varying trend models

TRANSFORMS = ("log", "root", "identity")


def _transform(name: str, r: float):
    if name == "log":
        return lambda l: np.log(np.asarray(l, dtype=float))
    if name == "root":
        return lambda l: np.asarray(l, dtype=float) ** (1.0 / r)
    if name == "identity":
        return lambda l: np.asarray(l, dtype=float)
    raise ValueError(f"unknown transform {name!r}")


@dataclass(frozen=True)
class TrendFit:
    """Single-regressor quasi-Poisson trend for per-period counts (kind
    'rate') or gamma-type trend for interarrival times (kind 'interarrival')."""

    coef: np.ndarray
    cov: np.ndarray
    link: str
    transform: str
    transform_r: float
    phi: float
    fit_window: tuple[int, int]
    kind: str
    n_obs: int
    exposure_per_period: float = 1.0

    def mean_rate(self, l):
        """Fitted mean per exposure unit (rate) or mean interarrival time."""
        eta = self.coef[0] + self.coef[1] * _transform(self.transform, self.transform_r)(l)
        out = np.exp(eta) if self.link == "log" else eta
        bad = np.ravel(out) <= 0
        if bad.any():
            first = float(np.min(np.ravel(l)[bad]))
            raise FitError(f"fitted mean is not positive at period {first:g}; "
                           f"a log-link trend stays positive (--link log)")
        return out

    def _dmean_dbeta(self, l, mean):
        """Gradient of ``mean = mean_rate(l)`` in the coefficients: d mean /
        d eta is the mean itself on the log link and 1 on the identity link."""
        z = _transform(self.transform, self.transform_r)(l)
        X = np.column_stack([np.ones(np.size(z)), np.atleast_1d(z)])
        return X * mean[:, None] if self.link == "log" else X


def fit_trend(series_or_y, transform: str = "log", link: str = "identity",
              transform_r: float = 20.0, kind: str = "rate") -> TrendFit:
    """Fit the per-period rate trend (quasi-Poisson on counts with exposure)
    or the interarrival trend (log-link gamma-type fit on times vs index)."""
    if kind == "rate":
        series: RecruitmentSeries = series_or_y
        if series.n_periods < 3:
            raise InsufficientDataError("need >= 3 periods for a trend")
        z = _transform(transform, transform_r)(series.period)
        try:
            fr = fit_quasipoisson(series.events, series.exposure_days,
                                  regressors=z, link=link)
        except NonConvergenceError as exc:
            if link == "log":
                raise
            raise NonConvergenceError(
                f"identity-link trend: {exc}; with a period of no events its likelihood "
                "can peak on the boundary, at a fitted rate of 0, where no Wald "
                "covariance holds; a log-link trend stays positive (--link log)") from None
        lo, hi = int(series.period[0]), int(series.period[-1])
        tf = TrendFit(fr.coef, fr.cov_coef, link, transform, transform_r,
                      fr.phi_hat, (lo, hi), "rate", series.n_periods,
                      exposure_per_period=float(np.mean(series.exposure_days)))
        tf.mean_rate(series.period)  # surfaces negative in-window fits
        return tf
    if kind == "interarrival":
        y = np.asarray(series_or_y, dtype=float)
        if y.size < 3:
            raise InsufficientDataError("need >= 3 interarrival times")
        if np.any(y <= 0):
            raise FitError("interarrival times must be positive")
        idx = np.arange(1, y.size + 1)
        z = _transform(transform, transform_r)(idx)
        X = np.column_stack([np.ones(y.size), z])
        if link != "log":
            raise ValueError("interarrival trend implemented for the log link")

        def scoring(beta):
            """Gamma-type log-likelihood sum(-log mu - y/mu), score, Hessian."""
            mu = np.exp(X @ beta)
            return (float(np.sum(-np.log(mu) - y / mu)), X.T @ ((y - mu) / mu),
                    -(X.T @ ((y / mu)[:, None] * X)))

        beta, _, _ = _newton(scoring, np.array([math.log(float(y.mean())), 0.0]), 1e-10)
        mu = np.exp(X @ beta)
        phi = float(np.sum(((y - mu) / mu) ** 2) / max(y.size - 2, 1))
        cov = phi * np.linalg.inv(X.T @ X)
        return TrendFit(beta, cov, "log", transform, transform_r, phi,
                        (1, int(y.size)), "interarrival", int(y.size))
    raise ValueError(f"unknown trend kind {kind!r}")


def _pivot_limits(trend: TrendFit, total, grad, spread, level: float):
    """Link-pivot limits total * exp(-/+ c * se) of summed future means,
    elementwise: ``total`` the summed means, ``grad`` (..., 2) their
    gradient in the coefficients, and ``spread`` the sum whose
    phi-multiple is the future variance.  se is the delta-method SE of the
    summed mean plus the dispersed future-variance term, on the log scale;
    c is z for a rate trend and t on n-1 df for an interarrival trend.
    Call under ``np.errstate``; overflow shows as a non-finite limit."""
    var_mean = ((grad @ trend.cov)[..., None, :] @ grad[..., None])[..., 0, 0]
    var_future = trend.phi * spread
    se_log = np.sqrt(var_mean / total ** 2 + var_future / total ** 2)
    c = (critical_value(level) if trend.kind == "rate"
         else critical_value(level, "t", trend.n_obs - 1))
    return link_limit(total, -c * se_log, "log"), link_limit(total, c * se_log, "log")


def _not_finite(h: int) -> FitError:
    return FitError(f"the prediction over horizon {h} leaves double precision "
                    f"(its total, variance or limits are not finite)")


def _sum_prediction(trend: TrendFit, periods, exposure: float,
                    level: float) -> IntervalEstimate:
    """Link pivot for a summed future quantity, ``exposure`` units per
    period: ``_pivot_limits`` of one window."""
    periods = np.atleast_1d(np.asarray(periods, dtype=float))
    if periods.size == 0:
        raise ValueError("empty prediction range")
    with np.errstate(all="ignore"):
        rate = trend.mean_rate(periods)
        m = rate * exposure      # mean contribution per period
        total = np.sum(m)
        grad = (trend._dmean_dbeta(periods, rate) * exposure).sum(axis=0)
        # quasi-Poisson: var = phi * mean; interarrival: phi * mean^2 per time
        spread = total if trend.kind == "rate" else np.sum(m ** 2)
        lower, upper = _pivot_limits(trend, total, grad, spread, level)
    if not np.isfinite([total, lower, upper]).all():
        raise _not_finite(periods.size)
    return IntervalEstimate(float(lower), float(upper), level, "link_pivot", "future_sum")


def predict_sum_rate(trend: TrendFit, l_range, level: float,
                     extrapolation: str = "model") -> IntervalEstimate:
    """Prediction interval for the summed counts over future periods.

    ``extrapolation='constant'`` freezes the mean at the last fitted period
    (the linear-extension variant) instead of extending the model curve.
    """
    if trend.kind != "rate":
        raise ValueError("predict_sum_rate applies to rate trends")
    l_range = np.asarray(list(l_range), dtype=float)
    if extrapolation == "constant":
        l_range = np.full(l_range.size, float(trend.fit_window[1]))
    return _sum_prediction(trend, l_range, trend.exposure_per_period, level)


def predict_sum_interarrival(trend: TrendFit, i_range, level: float) -> IntervalEstimate:
    """Interval for the remaining time to recruit subjects over ``i_range``,
    Student-t pivot with n-1 degrees of freedom."""
    if trend.kind != "interarrival":
        raise ValueError("needs an interarrival trend")
    return _sum_prediction(trend, list(i_range), 1.0, level)


def solve_target_window(trend: TrendFit, target_subjects: float, level: float,
                        max_horizon: int = 100_000):
    """Smallest number of future periods h whose cumulative mean meets the
    target (the point), and the first h whose interval upper (h_lo) and
    lower (h_hi) limit reaches it.

    One pass doubles h.  At each h, ``np.cumsum`` of the future means gives
    the total of every window up to h; once the last total reaches the
    target, the cumulative mean gradient and ``_pivot_limits`` give every
    window's limits as well, and the pass stops when the last lower limit
    reaches it.  Each answer is the first window of its table that reaches
    the target, checked against its definition at h and h-1 (the cumulative
    mean, ``predict_sum_rate``'s limits) and stepped by one where
    running-sum rounding disagrees, so it matches ``recruit --mode trend``
    and a solve makes at most four ``predict_sum_rate`` calls.

    Raises ``FitError`` when the target is not reached within
    ``max_horizon`` periods, at the first period the doubling reaches whose
    fitted mean is not positive, and at the first doubled h whose total or
    lower limit is not finite.
    """
    if not (math.isfinite(target_subjects) and target_subjects >= 0):
        raise ValueError("target must be finite and nonnegative")
    if target_subjects == 0:
        return 0, (0, 0)
    d, e = trend.fit_window[1], trend.exposure_per_period
    h = 1
    while True:
        l = np.arange(d + 1.0, d + h + 1.0)
        with np.errstate(all="ignore"):
            rate = trend.mean_rate(l)
            total = np.cumsum(rate * e)
            reached = total[-1] >= target_subjects
            if reached:     # the limits only once the mean reaches the target
                grad = np.cumsum(trend._dmean_dbeta(l, rate) * e, axis=0)
                lower, upper = _pivot_limits(trend, total, grad, total, level)
        if not math.isfinite(total[-1]) or (reached and not math.isfinite(lower[-1])):
            raise _not_finite(h)
        if reached and lower[-1] >= target_subjects:
            break
        h *= 2
        if h > max_horizon:
            raise FitError(f"target not reached within {max_horizon} periods")

    def first(table, value):
        """The first h of ``table`` to reach the target, stepped by one until
        its definition ``value`` reaches the target at h and not at h - 1."""
        reaches = lambda h: value(h) >= target_subjects
        h = int(np.argmax(table >= target_subjects)) + 1
        while not reaches(h):
            h += 1
        while h > 1 and reaches(h - 1):
            h -= 1
        return h

    mean = lambda h: float(np.sum(trend.mean_rate(np.arange(d + 1, d + h + 1)) * e))
    window = lambda h: predict_sum_rate(trend, range(d + 1, d + h + 1), level)
    return first(total, mean), (first(upper, lambda h: window(h).upper),
                                first(lower, lambda h: window(h).lower))


# ---------------------------------------------------------------------------
# time-on-treatment bands

def weibull_band_at(fit: FitResult, p: float, level: float,
                    band: str = "tolerance",
                    events_future: int | None = None) -> IntervalEstimate:
    """Limits for the p-th time-on-treatment quantile.

    'tolerance' bounds the population percentile; 'repeated' widens the SE by
    sqrt(n)*sqrt(1/n + 1/m) to cover the percentile estimate a repeated
    experiment with m events would report; 'subject' is the subject-level
    prediction from quantiles at the mean confidence limits.
    """
    if not (0 < p < 1):
        raise ValueError("p must be in (0,1)")
    if fit.family != "weibull":
        raise ValueError("needs a Weibull fit")
    n = fit.n_obs
    if band == "subject":
        iv = intervals._plugci_sum(fit, *fit.ci_mu(level, "model", "z"), 1, level)
        return replace(iv, target="future_observation")
    c = critical_value(level, "t", n - 1)
    if band == "repeated":
        if events_future is None or events_future < 1:
            raise ValueError("repeated-experiment band needs events_future >= 1")
        c = c * intervals._combined_se(1.0, n, events_future)   # sqrt(n) * sqrt(1/n + 1/m)
        target = "observable_estimate"
        method = "percentile_prediction"
    elif band == "tolerance":
        target = "population_percentile"
        method = "percentile_tolerance"
    else:
        raise ValueError(f"unknown band {band!r}")
    return IntervalEstimate(intervals._delta_limit(fit, p, 1, -c),
                            intervals._delta_limit(fit, p, 1, c),
                            level, method, target, content_p=p)


def weibull_bands(fit: FitResult, p_grid, level: float, band: str = "tolerance",
                  events_future: int | None = None) -> list[IntervalEstimate]:
    return [weibull_band_at(fit, p, level, band, events_future) for p in p_grid]
