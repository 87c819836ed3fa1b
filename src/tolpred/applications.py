"""Application drivers.

Recruitment forecasting with staggered sites and time-varying rates,
Weibull time-on-treatment bands with a Kaplan-Meier overlay, and the
phase-3 success adapter (thin wrappers over ``intervals`` and ``curves``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import intervals
from .dist import critical_value
from .fit import (FitError, FitResult, InsufficientDataError, SurvivalSample,
                  fit_quasipoisson)
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
    "combine_link_pivots",
    "site_dispersion_diagnostic",
    "make_recruitment_fixture",
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

    @property
    def n_periods(self) -> int:
        return int(self.period.size)

    @property
    def site_days(self) -> np.ndarray:
        return self.active_sites * self.exposure_days

    def future_site_days(self, days_per_period: float | None = None) -> float:
        if self.future_sites is None:
            raise ValueError("no future schedule attached")
        if days_per_period is None:
            days_per_period = float(np.mean(self.exposure_days))
        return float(np.sum(self.future_sites) * days_per_period)


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


def predict_sitedays(fit: FitResult, series: RecruitmentSeries, level: float,
                     days_per_period: float | None = None,
                     se_kind: str = "sandwich") -> IntervalEstimate:
    """Interval for the additional subjects recruited over the scheduled
    future site-days, via the log-link pivot with the exposure-scaled
    future-variance term."""
    future_sd = series.future_site_days(days_per_period)
    if future_sd <= 0:
        raise ValueError("future schedule has no site-days")
    target = intervals.PredictionTarget(fit.n_obs, future_sd)
    return intervals.predict_sum_link(fit, target, level, se_kind=se_kind,
                                      variance="scaled")


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

    def eta(self, l):
        z = _transform(self.transform, self.transform_r)(l)
        return self.coef[0] + self.coef[1] * z

    def mean_rate(self, l):
        """Fitted mean per exposure unit (rate) or mean interarrival time."""
        eta = self.eta(l)
        out = np.exp(eta) if self.link == "log" else eta
        bad = np.ravel(out) <= 0
        if bad.any():
            first = float(np.min(np.ravel(l)[bad]))
            raise FitError(f"fitted mean is not positive at period {first:g}; "
                           f"a log-link trend stays positive (--link log)")
        return out

    def _dmean_dbeta(self, l):
        z = _transform(self.transform, self.transform_r)(l)
        X = np.column_stack([np.ones(np.size(z)), np.atleast_1d(z)])
        eta = X @ self.coef
        hp = np.exp(eta) if self.link == "log" else np.ones_like(eta)
        return X * hp[:, None]


def fit_trend(series_or_y, transform: str = "log", link: str = "identity",
              transform_r: float = 20.0, kind: str = "rate") -> TrendFit:
    """Fit the per-period rate trend (quasi-Poisson on counts with exposure)
    or the interarrival trend (log-link gamma-type fit on times vs index)."""
    if kind == "rate":
        series: RecruitmentSeries = series_or_y
        if series.n_periods < 3:
            raise InsufficientDataError("need >= 3 periods for a trend")
        z = _transform(transform, transform_r)(series.period)
        fr = fit_quasipoisson(series.events, series.exposure_days,
                              regressors=z, link=link)
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
        # gamma-type scoring: solve X'((y - mu)/mu) = 0 for log-link mean
        beta = np.array([math.log(float(y.mean())), 0.0])
        for _ in range(200):
            mu = np.exp(X @ beta)
            score = X.T @ ((y - mu) / mu)
            step = np.linalg.solve(X.T @ ((y / mu)[:, None] * X), score)
            beta = beta + step
            if np.linalg.norm(score) <= 1e-10:
                break
        else:
            raise FitError("interarrival trend scoring did not converge")
        mu = np.exp(X @ beta)
        p = 2
        phi = float(np.sum(((y - mu) / mu) ** 2) / max(y.size - p, 1))
        cov = phi * np.linalg.inv(X.T @ X)
        return TrendFit(beta, cov, "log", transform, transform_r, phi,
                        (1, int(y.size)), "interarrival", int(y.size))
    raise ValueError(f"unknown trend kind {kind!r}")


def _pivot_limits(trend: TrendFit, total, grad, spread, level: float,
                  crit: str, df: int | None, exp=np.exp):
    """Link-pivot limits total * exp(-/+ c * se) of summed future means,
    elementwise: ``total`` the summed means, ``grad`` (..., 2) their
    gradient in the coefficients, and ``spread`` the sum whose
    phi-multiple is the future variance.  se is the delta-method SE of the
    summed mean plus the dispersed future-variance term, on the log scale.
    Call under ``np.errstate``; overflow shows as a non-finite limit.  The
    running-sum tables take numpy's ``exp``; one window passes libm's,
    which ``predict_sum_rate`` has always used (they can differ by an ulp)."""
    var_mean = ((grad @ trend.cov)[..., None, :] @ grad[..., None])[..., 0, 0]
    var_future = trend.phi * spread
    se_log = np.sqrt(var_mean / total ** 2 + var_future / total ** 2)
    c = critical_value(level, crit, df)
    return total * exp(-c * se_log), total * exp(c * se_log)


def _not_finite(h: int) -> FitError:
    return FitError(f"the prediction over horizon {h} leaves double precision "
                    f"(its total, variance or limits are not finite)")


def _sum_prediction(trend: TrendFit, periods, exposures, level: float,
                    crit: str, df: int | None) -> IntervalEstimate:
    """Link pivot for a summed future quantity: ``_pivot_limits`` of one
    window."""
    periods = np.atleast_1d(np.asarray(periods, dtype=float))
    exposures = np.broadcast_to(np.atleast_1d(np.asarray(exposures, dtype=float)),
                                periods.shape)
    if periods.size == 0:
        raise ValueError("empty prediction range")
    try:
        with np.errstate(all="ignore"):
            m = trend.mean_rate(periods) * exposures      # mean contribution per period
            total = np.sum(m)
            grad = (trend._dmean_dbeta(periods) * exposures[:, None]).sum(axis=0)
            # quasi-Poisson: var = phi * mean; interarrival: phi * mean^2 per time
            spread = total if trend.kind == "rate" else np.sum(m ** 2)
            lower, upper = _pivot_limits(trend, total, grad, spread, level, crit, df,
                                         exp=math.exp)
    except OverflowError:
        raise _not_finite(periods.size) from None
    if not np.isfinite([total, lower, upper]).all():
        raise _not_finite(periods.size)
    return IntervalEstimate(float(lower), float(upper), level, "link_pivot", "future_sum")


def predict_sum_rate(trend: TrendFit, l_range, level: float,
                     exposure: float | None = None,
                     extrapolation: str = "model") -> IntervalEstimate:
    """Prediction interval for the summed counts over future periods.

    ``extrapolation='constant'`` freezes the mean at the last fitted period
    (the linear-extension variant) instead of extending the model curve.
    """
    if trend.kind != "rate":
        raise ValueError("predict_sum_rate applies to rate trends")
    l_range = np.asarray(list(l_range), dtype=float)
    if l_range.size == 0:
        raise ValueError("empty prediction range")
    e = trend.exposure_per_period if exposure is None else exposure
    if extrapolation == "constant":
        last = float(trend.fit_window[1])
        l_range = np.full(l_range.size, last)
    return _sum_prediction(trend, l_range, [e] * l_range.size, level, "z", None)


def predict_sum_interarrival(trend: TrendFit, i_range, level: float) -> IntervalEstimate:
    """Interval for the remaining time to recruit subjects over ``i_range``,
    Student-t pivot with n-1 degrees of freedom."""
    if trend.kind != "interarrival":
        raise ValueError("needs an interarrival trend")
    i_range = np.asarray(list(i_range), dtype=float)
    return _sum_prediction(trend, i_range, np.ones(i_range.size), level,
                           "t", trend.n_obs - 1)


def solve_target_window(trend: TrendFit, target_subjects: float, level: float,
                        max_horizon: int = 100_000,
                        exposure: float | None = None):
    """Smallest number of future periods h whose cumulative mean meets the
    target (the point), and the first h whose interval upper (h_lo) and
    lower (h_hi) limit reaches it.

    Each search doubles h, then bisects, on running sums: each future
    period's mean and mean gradient is computed once, as far as the doubling
    reaches, and ``np.cumsum`` gives the total and, through
    ``_pivot_limits``, the limits of every window at once.  Each answer is
    then checked against its definition at h and h-1 (the cumulative mean,
    ``predict_sum_rate``'s limits) and stepped by one where running-sum
    rounding disagrees, so it matches ``recruit --mode trend`` and a solve
    makes at most four ``predict_sum_rate`` calls.

    Raises ``FitError`` when the target is not reached within
    ``max_horizon`` periods, at the first period the doubling reaches whose
    fitted mean is not positive, and at the first horizon read whose total
    or limit is not finite.
    """
    if target_subjects < 0:
        raise ValueError("target must be nonnegative")
    if target_subjects == 0:
        return 0, (0, 0)
    d = trend.fit_window[1]
    e = trend.exposure_per_period if exposure is None else exposure
    means, tables = np.empty(0), {}

    def reaches(name):
        def holds(h):
            nonlocal means
            if h > means.size:          # extend the means to horizon h
                l = np.arange(d + means.size + 1.0, d + h + 1.0)
                with np.errstate(all="ignore"):
                    means = np.concatenate([means, trend.mean_rate(l) * e])
                tables.clear()
            if name not in tables:      # every window's value, from running sums
                total = np.cumsum(means)
                tables["mean"] = total.tolist()
                if name != "mean":
                    l = np.arange(d + 1.0, d + means.size + 1.0)
                    with np.errstate(all="ignore"):
                        grad = np.cumsum(trend._dmean_dbeta(l) * e, axis=0)
                        limits = _pivot_limits(trend, total, grad, total, level, "z", None)
                    tables["lower"], tables["upper"] = (a.tolist() for a in limits)
            value = tables[name][h - 1]
            if not math.isfinite(value):
                raise _not_finite(h)
            return value >= target_subjects
        return holds

    def first_h(predicate):
        lo, hi = 1, 1
        while not predicate(hi):
            hi *= 2
            if hi > max_horizon:
                raise FitError(f"target not reached within {max_horizon} periods")
        while lo < hi:
            mid = (lo + hi) // 2
            if predicate(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def settle(h, holds):
        while not holds(h):
            h += 1
        while h > 1 and holds(h - 1):
            h -= 1
        return h

    def by_definition(name):
        def holds(h):
            if name == "mean":
                value = float(np.sum(trend.mean_rate(np.arange(d + 1, d + h + 1)) * e))
            else:
                value = getattr(predict_sum_rate(trend, range(d + 1, d + h + 1), level,
                                                 exposure=e), name)
            return value >= target_subjects
        return holds

    point, h_lo, h_hi = (settle(first_h(reaches(name)), by_definition(name))
                         for name in ("mean", "upper", "lower"))
    return point, (h_lo, h_hi)


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
        alpha = 1 - level
        mu_lo, mu_hi = fit.ci_mu(level, "model", "z")
        return IntervalEstimate(intervals._sum_quantile(fit, alpha / 2, 1, mu=mu_lo),
                                intervals._sum_quantile(fit, 1 - alpha / 2, 1, mu=mu_hi),
                                level, "ci_plug_prediction", "future_observation")
    q = intervals._sum_quantile(fit, p, 1)
    se = intervals._delta_se(fit, p, 1)
    if band == "repeated":
        if events_future is None or events_future < 1:
            raise ValueError("repeated-experiment band needs events_future >= 1")
        se = se * math.sqrt(n) * math.sqrt(1.0 / n + 1.0 / events_future)
        target = "observable_estimate"
        method = "percentile_prediction"
    elif band == "tolerance":
        target = "population_percentile"
        method = "percentile_tolerance"
    else:
        raise ValueError(f"unknown band {band!r}")
    t = critical_value(level, "t", n - 1)
    return IntervalEstimate(q * math.exp(-t * se / q), q * math.exp(t * se / q),
                            level, method, target, content_p=p)


def weibull_bands(fit: FitResult, p_grid, level: float, band: str = "tolerance",
                  events_future: int | None = None) -> list[IntervalEstimate]:
    return [weibull_band_at(fit, p, level, band, events_future) for p in p_grid]


# ---------------------------------------------------------------------------
# generic pivot combination (e.g. enrollment + attrition)

def combine_link_pivots(g_point1: float, se1: float, g_point2: float, se2: float,
                        level: float, link: str = "log",
                        crit: str = "z", df: int | None = None) -> IntervalEstimate:
    """Combine two independent link-scale pivots by variance addition:
    g^{-1}{ (g1 + g2) +/- c * sqrt(se1^2 + se2^2) }."""
    if se1 < 0 or se2 < 0:
        raise ValueError("standard errors must be nonnegative")
    se = math.sqrt(se1 ** 2 + se2 ** 2)
    c = critical_value(level, crit, df)
    center = g_point1 + g_point2
    if link == "log":
        return IntervalEstimate(math.exp(center - c * se), math.exp(center + c * se),
                                level, "combined_pivot", "future_sum")
    return IntervalEstimate(center - c * se, center + c * se, level,
                            "combined_pivot", "future_sum")


# ---------------------------------------------------------------------------
# synthetic fixture

def make_recruitment_fixture(seed: int = 38, n_periods: int = 31,
                             fit_months: int = 12) -> RecruitmentSeries:
    """31-month synthetic recruitment series with a ramp-up shaped like a
    staggered multi-site study: mean monthly rate a*log(l)+b (increasing,
    concave), sites opening over the first 10 months, Poisson counts with
    mild extra dispersion.  Values are synthetic; only the shape matters.
    """
    gen = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    months = np.arange(1, n_periods + 1)
    mean_rate = 5.0 * np.log(months) + 4.0
    mult = gen.gamma(50.0, 1.0 / 50.0, size=n_periods)  # mild overdispersion
    events = gen.poisson(mean_rate * mult).astype(float)
    sites = np.minimum(months, 10) * 2
    exposure = np.full(n_periods, 30.0)
    future = np.arange(n_periods + 1, n_periods + 19)
    return RecruitmentSeries(months, events, exposure, sites.astype(float),
                             future, np.full(future.size, 20.0))
