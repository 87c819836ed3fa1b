"""Interval constructors.

Normal-theory exact and CI-plug-in forms, the link-pivot and CI-plug-in
prediction intervals for sums, three approximate tolerance intervals
(delta-method, noncentral-t, CI-plug-in), the F-pivot and plug-in
comparators, the dispersed-count predictors, and the future-study
odds-ratio predictor.  ``METHODS`` maps each coverage-table method name to
its constructor, for the pivots its upper p-value function and for the
quantile intervals the arguments of their endpoint quantiles; the coverage
lab, the CLI and the confidence curves all dispatch through it.

The gamma-path constructors compute elementwise: a ``FitResult`` whose
numeric fields are per-run arrays yields per-run endpoints.  Every
sum-distribution quantile goes through ``_sum_quantile``, which keeps the
quantiles at the fitted shape in the fit's memo, so constructors and levels
that need the same one share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special
from scipy.special import betaincinv, fdtr, fdtri, gammainc, gammaincinv, nctdtrit, ndtr, ndtri, stdtr

from .dist import critical_value
from .fit import FitResult, link_limit

__all__ = [
    "UnsupportedTargetError",
    "IntervalEstimate",
    "PredictionTarget",
    "se_from_ci",
    "normal_exact_prediction",
    "normal_exact_tolerance",
    "normal_approx_prediction",
    "normal_approx_tolerance",
    "predict_sum_link",
    "predict_sum_link_from",
    "predict_sum_plugci",
    "predict_sum_plugci_gamma",
    "predict_count_plugci",
    "predict_sum_fpivot",
    "predict_sum_plugin",
    "tolerance_delta",
    "tolerance_nct",
    "tolerance_plugci",
    "kris_count_cdf",
    "predict_count_kris",
    "predict_or_from",
    "Method",
    "METHODS",
]


def _any(cond) -> bool:
    """Truth of a scalar comparison, or of any element of an array one; a
    plain comparison stays a plain ``bool`` test."""
    return cond.any() if isinstance(cond, np.ndarray) else cond


class UnsupportedTargetError(ValueError):
    """The method has no formula for this fit and target; another method or
    target is needed, not other data."""


@dataclass(frozen=True)
class IntervalEstimate:
    """Interval endpoints with their level and construction; the endpoints
    are per-run arrays when the fit's numeric fields are."""

    lower: float
    upper: float
    level: float
    method: str
    target: str
    sided: str = "two"
    content_p: float | None = None

    def __post_init__(self):
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must be in (0,1)")
        # per-run arrays keep their NaN rows: the lab masks failed fits
        for end in (self.lower, self.upper):
            if not isinstance(end, np.ndarray) and math.isnan(end):
                raise FloatingPointError(f"NaN endpoint in ({self.lower}, {self.upper})")
        if _any(self.lower > self.upper + 1e-12):
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def rounded(self):
        """Integer-rounded count endpoints: floor(lower), ceil(upper)."""
        return math.floor(self.lower), math.ceil(self.upper)

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


@dataclass(frozen=True)
class PredictionTarget:
    """Observed sample size and the size of what is being predicted:
    N-n remaining observations, m future subjects, or future exposure."""

    n: int
    future_units: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 observed")
        if self.future_units <= 0:
            raise ValueError("future_units must be positive")


def se_from_ci(point: float, lower: float, upper: float, level: float = 0.95,
               crit: str = "z", df: int | None = None, side: str = "symmetric",
               link: str = "log") -> float:
    """Back out the link-scale SE implied by a reported confidence interval.

    ``side`` picks which half-width to use when the reported CI is not
    symmetric around the point estimate on the link scale (rounding, or a
    likelihood-ratio interval): 'lower', 'upper', or 'symmetric' (average).
    """
    if link not in ("log", "identity"):
        raise ValueError(f"link must be 'log' or 'identity', got {link!r}")
    if side not in ("lower", "upper", "symmetric"):
        raise ValueError(f"side must be 'lower', 'upper' or 'symmetric', got {side!r}")
    g = math.log if link == "log" else (lambda v: v)
    c = critical_value(level, crit, df)
    w_lo = g(point) - g(lower)
    w_hi = g(upper) - g(point)
    w = {"lower": w_lo, "upper": w_hi, "symmetric": 0.5 * (w_lo + w_hi)}[side]
    if w <= 0:
        raise ValueError("confidence limits do not bracket the point estimate")
    return w / c


# ---------------------------------------------------------------------------
# normal theory

def normal_exact_prediction(ybar: float, s: float, n: int, level: float,
                            sigma_known: float | None = None) -> IntervalEstimate:
    """ybar +/- t_{n-1} * s * sqrt(1/n + 1); z and sigma when sigma is known."""
    if n < 2:
        raise ValueError("need n >= 2")
    if sigma_known is not None:
        c, sd = critical_value(level), sigma_known
    else:
        if s <= 0:
            raise ValueError("s must be positive")
        c, sd = critical_value(level, "t", n - 1), s
    half = c * sd * math.sqrt(1.0 / n + 1.0)
    return IntervalEstimate(link_limit(ybar, -half, "identity"),
                            link_limit(ybar, half, "identity"), level,
                            "normal_exact_prediction", "future_observation")


def normal_exact_tolerance(ybar: float, s: float, n: int, p: float, level: float,
                           sided: str = "two") -> IntervalEstimate:
    """Noncentral-t tolerance limits for normal data.

    Two-sided covers the middle 100p% using noncentrality z_{(1+-p)/2}*sqrt(n);
    one-sided bounds the 100p-th percentile with nu = -z_p*sqrt(n).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rootn = math.sqrt(n)
    alpha = 1 - level
    if sided == "two":
        lo = ybar + nctdtrit(n - 1, ndtri((1 - p) / 2) * rootn, alpha / 2) * s / rootn
        hi = ybar + nctdtrit(n - 1, ndtri((1 + p) / 2) * rootn, 1 - alpha / 2) * s / rootn
        return IntervalEstimate(lo, hi, level, "normal_exact_tolerance",
                                "middle_content", sided=sided, content_p=p)
    nu = -ndtri(p) * rootn
    if sided == "upper":
        hi = ybar + nctdtrit(n - 1, -nu, 1 - alpha) * s / rootn
        return IntervalEstimate(-math.inf, hi, level, "normal_exact_tolerance",
                                "population_percentile", sided=sided, content_p=p)
    lo = ybar + nctdtrit(n - 1, nu, alpha) * s / rootn
    return IntervalEstimate(lo, math.inf, level, "normal_exact_tolerance",
                            "population_percentile", sided=sided, content_p=p)


def _normal_mean_ci(ybar: float, s: float, n: int, level: float):
    """The t interval ybar -/+ t_{n-1} * s/sqrt(n) for a normal mean."""
    t = critical_value(level, "t", n - 1)
    return (link_limit(ybar, -t * s / math.sqrt(n), "identity"),
            link_limit(ybar, t * s / math.sqrt(n), "identity"))


def normal_approx_prediction(ybar: float, s: float, n: int, level: float) -> IntervalEstimate:
    """CI-plug-in prediction: (mu_lower + z_{a/2}*s, mu_upper + z_{1-a/2}*s).

    Conservative relative to the exact form since 1/sqrt(n)+1 > sqrt(1/n+1).
    """
    alpha = 1 - level
    mu_lo, mu_hi = _normal_mean_ci(ybar, s, n, level)
    return IntervalEstimate(mu_lo + ndtri(alpha / 2) * s, mu_hi + ndtri(1 - alpha / 2) * s,
                            level, "normal_approx_prediction", "future_observation")


def normal_approx_tolerance(ybar: float, s: float, n: int, p: float, level: float) -> IntervalEstimate:
    """CI-plug-in tolerance using the chi-square upper limit for sigma."""
    alpha = 1 - level
    mu_lo, mu_hi = _normal_mean_ci(ybar, s, n, level)
    sigma_up = s * math.sqrt((n - 1) / (2 * gammaincinv((n - 1) / 2, alpha)))
    return IntervalEstimate(mu_lo + ndtri((1 - p) / 2) * sigma_up,
                            mu_hi + ndtri((1 + p) / 2) * sigma_up,
                            level, "normal_approx_tolerance", "middle_content",
                            content_p=p)


# ---------------------------------------------------------------------------
# link-pivot prediction for sums

def _combined_se(se: float, n: int, n_future: float) -> float:
    """Link-scale SE of a future estimate against the observed one,
    sqrt(n) * se * sqrt(1/n + 1/n_future), for n_future >= 1 future units."""
    if n_future < 1:
        raise ValueError("need at least one future observation")
    return math.sqrt(n) * se * math.sqrt(1.0 / n + 1.0 / n_future)


def _link_pivot(fit: FitResult, n_future: float, se_kind: str,
                variance: str = "equal"):
    """A fit's link pivot ``(scale, centre, link, se_n, df)``: limits
    ``scale * link_limit(centre, -/+ c * se_n, link)`` with c from t_df (None:
    the standard normal), point prediction scale * centre.  (scale, centre)
    is (n_future, mu_hat) on the identity link, (1, n_future * mu_hat) on the
    log link, and (1, exp(mu_hat)) for a binomial-logit fit's odds ratio.

    Sums of ``n_future`` observations and future odds ratios use
    sqrt(n) * se * sqrt(1/n + 1/n_future) on t_{n-1}; quasi-Poisson counts
    over future exposure use sqrt(2) * se (``variance='scaled'``:
    se * sqrt(1 + E_obs/E_future)) on z.
    """
    se = fit.se_g_mu(se_kind)
    if fit.family == "quasipoisson":
        if variance == "equal":
            se_n = math.sqrt(2.0) * se
        else:
            se_n = se * math.sqrt(1.0 + fit.exposure_total / n_future)
        df = None
    else:
        se_n, df = _combined_se(se, fit.n_obs, n_future), fit.n_obs - 1
    if fit.family == "binomial_logit":
        return 1.0, math.exp(fit.mu_hat), "log", se_n, df
    if fit.link == "identity":
        return n_future, fit.mu_hat, "identity", se_n, df
    return 1.0, n_future * fit.mu_hat, "log", se_n, df


def _link_pvalue(fit: FitResult, n_future: float, se_kind: str):
    """Upper p-value function of the link pivot, on its link scale, and its
    point prediction."""
    scale, centre, link, se_n, df = _link_pivot(fit, n_future, se_kind)
    cdf = ndtr if df is None else (lambda x: stdtr(df, x))
    point = scale * centre
    if link == "identity":
        return (lambda c: cdf((c / scale - centre) / se_n)), point
    log_point = math.log(point)
    return (lambda c: cdf((np.log(c) - log_point) / se_n)), point


def predict_sum_link_from(mu_hat: float, se_g_mu: float, n: int, n_future: float,
                          level: float, link: str = "log") -> IntervalEstimate:
    """(N-n) * g^{-1}{ g(mu_hat) +/- t_{n-1} * se_n } with the combined SE
    se_n = sqrt(n) * se(g{mu_hat}) * sqrt(1/n + 1/(N-n)): ``predict_sum_link``
    on the fit these summaries describe."""
    fit = FitResult("gamma", link, mu_hat, n, se_g_mu_model=se_g_mu)
    return predict_sum_link(fit, PredictionTarget(n, n_future), level, se_kind="model")


def predict_sum_link(fit: FitResult, target: PredictionTarget, level: float,
                     se_kind: str = "sandwich",
                     variance: str = "equal") -> IntervalEstimate:
    """Link-pivot prediction interval for the sum of future observations,
    on the fit's link scale: g^{-1}{ g(point) -/+ c * se_n } for the log
    link and ``target.future_units`` * (mu_hat -/+ c * se_n) for the
    identity link; on a binomial-logit fit, for the odds ratio a future
    study of ``target.future_units`` subjects will observe.

    Gamma/Weibull/odds-ratio targets use a Student t with n-1 df.  For
    quasi-Poisson exposure targets ``target.future_units`` is future
    exposure; the pivot is standard normal and the default future-variance
    term replicates sqrt(se^2 + se^2) (``variance='scaled'`` uses
    se^2 * E_obs/E_future instead).  See ``_link_pivot``.  An identity-link
    lower limit <= 0 raises ``UnsupportedTargetError``.
    """
    scale, centre, link, se_n, df = _link_pivot(fit, target.future_units, se_kind, variance)
    c = critical_value(level) if df is None else critical_value(level, "t", df)
    labels = (("or_prediction", "observable_estimate") if fit.family == "binomial_logit"
              else ("link_pivot", "future_sum"))
    with np.errstate(over="ignore"):   # an infinite limit fails the output checks
        lower = scale * link_limit(centre, -c * se_n, link)
        upper = scale * link_limit(centre, c * se_n, link)
    if link == "identity" and _any(lower <= 0):
        raise UnsupportedTargetError(f"the lower limit {np.nanmin(lower):.6g} of a positive "
                                     "sum is <= 0; the log link keeps every limit positive")
    return IntervalEstimate(lower, upper, level, *labels)


# ---------------------------------------------------------------------------
# CI-plug-in prediction (quantiles of the sum distribution at the mu limits)

# the families the CI-plug-in prediction is defined for (a Weibull fit's
# single-observation form is ``applications.weibull_band_at``'s subject band)
_PLUGCI = ("gamma", "quasipoisson")


def _check_mean_limits(mu_lower, mu_upper):
    """The lower mean limit, checked.  Limits out of order raise.  No sum
    distribution has a mean <= 0, so no plug-in quantile exists at a lower
    mean limit <= 0, which an identity-link Wald interval can reach and a
    log-link one underflow to: a scalar one raises, and the runs of per-run
    limits that have one get a NaN limit, so their interval is unusable."""
    if _any(mu_lower > mu_upper):
        raise ValueError("mu CI out of order")
    if np.ndim(mu_lower):
        return np.where(mu_lower > 0, mu_lower, np.nan)
    if mu_lower <= 0:
        raise UnsupportedTargetError(
            f"the lower mean limit {mu_lower:.6g} is <= 0, where the sum "
            "distribution is undefined; the log link keeps every mean limit positive")
    return mu_lower


def _quantile_interval(fit: FitResult, ends, n_future: float, level: float, *labels, **kw):
    """The sum-distribution quantiles at the ``Method.ends`` pair ``ends``."""
    return IntervalEstimate(*(_sum_quantile(fit, prob, n_future, mu, k) for prob, mu, k in ends),
                            level, *labels, **kw)


def _central_ends(level: float, mu_lo=None, mu_hi=None):
    """The alpha/2 and 1-alpha/2 ends at the fitted shape and at the mean
    limits, the lower one checked (None: at the fitted mean)."""
    alpha = 1 - level
    if mu_lo is not None:
        mu_lo = _check_mean_limits(mu_lo, mu_hi)
    return (alpha / 2, mu_lo, None), (1 - alpha / 2, mu_hi, None)


def _plugci_sum(fit: FitResult, mu_lo, mu_hi, n_future: float,
                level: float) -> IntervalEstimate:
    """CI-plug-in prediction: the alpha/2 and 1-alpha/2 quantiles of the sum
    distribution at the lower and upper mean limits."""
    return _quantile_interval(fit, _central_ends(level, mu_lo, mu_hi), n_future, level,
                              "ci_plug_prediction", "future_sum")


def predict_sum_plugci_gamma(mu_lower: float, mu_upper: float, k: float,
                             n_future: float, level: float) -> IntervalEstimate:
    """Gamma((N-n)k, mu/k) quantiles evaluated at the mu confidence limits."""
    fit = FitResult("gamma", "log", mu_hat=None, n_obs=None, k_hat=k)
    return _plugci_sum(fit, mu_lower, mu_upper, n_future, level)


def predict_count_plugci(count_lower: float, count_upper: float,
                         dispersion_scale: float, level: float) -> IntervalEstimate:
    """Dispersed-count variant via the gamma approximation
    Gamma(shape=count/phi, scale=phi), phi the reported dispersion scale."""
    if dispersion_scale <= 0:
        raise ValueError("the dispersion scale must be positive")
    fit = FitResult("quasipoisson", "log", mu_hat=None, n_obs=None,
                    phi_hat=dispersion_scale ** 2)   # whose square root is exact
    return _plugci_sum(fit, count_lower, count_upper, 1, level)


def _plugci_ends(fit: FitResult, level: float, se_kind: str, crit: str):
    """eq2's ends: the central quantiles at the fit's Wald mean limits."""
    if fit.family not in _PLUGCI:
        raise ValueError(f"no sum distribution for family {fit.family!r}")
    return _central_ends(level, *fit.ci_mu(level, se_kind=se_kind, crit=crit))


def predict_sum_plugci(fit: FitResult, target: PredictionTarget, level: float,
                       se_kind: str = "sandwich", crit: str = "z") -> IntervalEstimate:
    """CI-plug-in prediction from a fit: Wald CI for mu on the link scale,
    then sum-distribution quantiles at the limits."""
    return _quantile_interval(fit, _plugci_ends(fit, level, se_kind, crit),
                              target.future_units, level, "ci_plug_prediction", "future_sum")


def _monotone_cubic(x: np.ndarray, y: np.ndarray) -> Callable:
    """Monotone cubic Hermite interpolant of increasing y on strictly
    increasing x (Fritsch & Carlson 1980, SIAM J. Numer. Anal. 17(2)) with
    PCHIP's slopes: Fritsch-Butland harmonic means inside, shape-preserving
    three-point ends.  Clamped to y[0] and y[-1] outside [x[0], x[-1]], and
    linear on fewer than 3 nodes."""
    if x.size < 3:
        return lambda t: np.interp(t, x, y)
    h = np.diff(x)
    d = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    m = np.empty_like(x)
    m[1:-1] = (w1 + w2) / (w1 / d[:-1] + w2 / d[1:])
    m[0] = max(((2 * h[0] + h[1]) * d[0] - h[0] * d[1]) / (h[0] + h[1]), 0.0)
    m[-1] = max(((2 * h[-1] + h[-2]) * d[-1] - h[-1] * d[-2]) / (h[-1] + h[-2]), 0.0)
    c2 = (3 * d - 2 * m[:-1] - m[1:]) / h
    c3 = (m[:-1] + m[1:] - 2 * d) / h ** 2

    def interpolant(t):
        t = np.clip(t, x[0], x[-1])
        i = np.searchsorted(x[1:-1], t, side="right")   # the segment, 0 .. x.size - 2
        t = t - x[i]
        return y[i] + t * (m[i] + t * (c2[i] + t * c3[i]))
    return interpolant


def _plugci_pvalue(fit: FitResult, n_future: float, se_kind: str):
    """Upper p-value function of the CI-plug-in prediction and its point
    prediction.  H has no closed form, so it is tabulated on the
    normal-score scale, where the Wald pivot is linear: at 201 nodes z
    uniform over [ndtri(1e-9), -ndtri(1e-9)], c(z) is the ndtr(z)-quantile
    of the sum distribution at the Wald mean limit ``fit.mu_limit(z)``,
    dropped where not positive (an identity-link limit <= 0, or a quantile
    that underflows) or not above every earlier node.  H(c) = ndtr(z), with
    z a monotone cubic in log c between nodes, whose error falls as the cube
    of the node spacing, clamped at the end nodes, so H stays within
    [1e-9, 1 - 1e-9]."""
    if fit.family not in _PLUGCI:
        raise ValueError(f"no sum distribution for family {fit.family!r}")
    z_ref = np.linspace(ndtri(1e-9), -ndtri(1e-9), 201)
    mu = fit.mu_limit(z_ref, se_kind)
    # k passed: the fit's memo keys scalar probabilities only
    c_ref = _sum_quantile(fit, ndtr(z_ref), n_future, mu=mu, k=fit.k_hat)
    log_c_ref = np.log(c_ref, where=c_ref > 0, out=np.full_like(c_ref, -np.inf))
    keep = log_c_ref > np.maximum.accumulate(np.r_[-np.inf, log_c_ref[:-1]])
    z_of_log_c = _monotone_cubic(log_c_ref[keep], z_ref[keep])
    return (lambda c: ndtr(z_of_log_c(np.log(c)))), n_future * fit.mu_hat


# ---------------------------------------------------------------------------
# comparators

def predict_sum_fpivot(ybar: float, n: int, n_future: float, k: float,
                       level: float) -> IntervalEstimate:
    """F-pivot interval ((N-n)*ybar*f_{a/2}, (N-n)*ybar*f_{1-a/2}) with
    df 2(N-n)k and 2nk; exact for exponential data when k=1.  f_{1-a/2} is
    1/F(2nk, 2(N-n)k)'s a/2 quantile, infinite where 1 - a/2 rounds to 1."""
    if _any(ybar <= 0) or _any(k <= 0):
        raise ValueError("ybar and k must be positive")
    alpha = 1 - level
    d1, d2 = 2.0 * n_future * k, 2.0 * n * k
    lo = n_future * ybar * fdtri(d1, d2, alpha / 2)
    hi = (n_future * ybar / fdtri(d2, d1, alpha / 2) if 1 - alpha / 2 < 1
          else n_future * ybar * fdtri(d1, d2, 1.0))
    return IntervalEstimate(lo, hi, level, "f_pivot", "future_sum")


def _fpivot_pvalue(fit: FitResult, n_future: float, se_kind: str,
                   k: float | None = None):
    """Upper p-value function of the F pivot (shape ``k``, default k_hat)
    and its point prediction."""
    k = fit.k_hat if k is None else k
    d1, d2, point = 2.0 * n_future * k, 2.0 * fit.n_obs * k, n_future * fit.mu_hat
    return (lambda c: fdtr(d1, d2, c / point)), point


def predict_sum_plugin(fit: FitResult, target: PredictionTarget,
                       level: float) -> IntervalEstimate:
    """Central quantile interval of the plug-in sum distribution,
    Gamma((N-n)k_hat, mu_hat/k_hat) for a gamma fit (one observation of a
    Weibull fit)."""
    return _quantile_interval(fit, _central_ends(level), target.future_units, level,
                              "plug_in", "future_sum")


# ---------------------------------------------------------------------------
# tolerance intervals for the sum distribution

def _unit_quantile(family: str, prob: float, n_future: float, k: float) -> float:
    """Quantile of the sum (or single-observation) distribution at unit
    scale: Gamma(n_future * k, 1), or Weibull(1, k) for one observation."""
    if family == "gamma":
        return gammaincinv(n_future * k, prob)
    if family == "weibull":
        if n_future != 1:
            raise UnsupportedTargetError(
                "weibull sum quantiles only defined for single observations")
        return (-math.log1p(-prob)) ** (1 / k)
    raise ValueError(f"no sum distribution for family {family!r}")


def _sum_quantile(fit: FitResult, prob: float, n_future: float,
                  mu: float | None = None, k: float | None = None) -> float:
    """Quantile of the sum (or single-observation) distribution at (mu, k):
    the unit-scale quantile times the scale mu/k (gamma) or mu/Gamma(1+1/k)
    (Weibull).  At the fitted shape the unit-scale quantile depends on
    neither mu nor the level, so each fit computes it once.  A quasi-Poisson
    count over exposure n_future is Gamma(mu * n_future / phi, phi), phi the
    dispersion scale, at a mean limit ``mu`` only (no plug-in or delta form)."""
    if fit.family == "quasipoisson" and mu is not None:
        phi = fit.dispersion_scale
        return gammaincinv(mu * n_future / phi, prob) * phi
    mu = fit.mu_hat if mu is None else mu
    if k is None:
        k, key = fit.k_hat, ("quantile", prob, n_future)
        if key not in fit._memo:
            fit._memo[key] = _unit_quantile(fit.family, prob, n_future, k)
        q = fit._memo[key]
    else:
        q = _unit_quantile(fit.family, prob, n_future, k)
    return q * (mu / k if fit.family == "gamma" else mu / special.gamma(1 + 1 / k))


def _sum_cdf(fit: FitResult, t, n_future: float, mu, k, prob: float):
    """Cdf at ``t`` of a gamma fit's sum distribution at (mu, k) as in
    ``_sum_quantile``, its inverse in t; NaN where the ``prob`` quantile is
    not a finite number.  Gamma(a, 1)'s quantiles below prob 1 lie under
    2a + 100 (a Chernoff bound), so the quantile is computed only where
    scale * (2a + 100) exceeds 1e308; elsewhere it is finite, or NaN with
    the cdf."""
    if fit.family != "gamma":
        raise ValueError(f"no sum cdf for family {fit.family!r}")
    shape = fit.k_hat if k is None else k
    a, scale = n_future * shape, (fit.mu_hat if mu is None else mu) / shape
    f = gammainc(a, t / scale)
    if prob >= 1 or _any(scale * (2 * a + 100) > 1e308):
        f = np.where(np.isfinite(_sum_quantile(fit, prob, n_future, mu, k)), f, np.nan)
    return f


def _delta_se(fit: FitResult, prob: float, n_future: float):
    """Delta-method SE of the sum quantile at the fit, computed once per fit.

    Both sum distributions are linear in mu (gamma through scale=mu/k,
    Weibull through lam=mu/Gamma(1+1/k)), so dq/dmu = q/mu exactly; dq/dk
    is a central finite difference.
    """
    key = ("delta_se", prob, n_future)
    if key not in fit._memo:
        mu, k = fit.mu_hat, fit.k_hat
        h_k = np.maximum(1e-4 * np.abs(k), 1e-6)
        d_mu = _sum_quantile(fit, prob, n_future) / mu
        d_k = (_sum_quantile(fit, prob, n_future, k=k + h_k)
               - _sum_quantile(fit, prob, n_future, k=k - h_k)) / (2 * h_k)
        cov = 0.0 if fit.cov_mu_k is None else fit.cov_mu_k
        var = (d_mu * fit.se_mu) ** 2 + (d_k * fit.se_k) ** 2 + 2.0 * d_mu * d_k * cov
        if _any(var < 0):
            raise ValueError("negative delta-method variance; covariance is not PSD")
        fit._memo[key] = np.sqrt(var)
    return fit._memo[key]


def _delta_limit(fit: FitResult, prob: float, n_future: float, c: float):
    """Delta-method limit exp{ log(q) + c * se/q } = q * exp(c * se/q) of the
    sum quantile q at ``prob``, se its delta-method SE."""
    q = _sum_quantile(fit, prob, n_future)
    return link_limit(q, c * _delta_se(fit, prob, n_future) / q, "log")


def tolerance_delta(fit: FitResult, p: float, level: float,
                    n_future: float) -> IntervalEstimate:
    """Delta-method percentile tolerance interval for the middle 100p%.

    Endpoints exp{ log(q_hat) -/+ t_{n-1} * se/q_hat } with the quantile SE
    propagated through central finite differences and the (mu, k) covariance.
    """
    t = critical_value(level, "t", fit.n_obs - 1)
    return IntervalEstimate(_delta_limit(fit, (1 - p) / 2, n_future, -t),
                            _delta_limit(fit, (1 + p) / 2, n_future, t), level,
                            "delta_tolerance", "middle_content", content_p=p)


def tolerance_nct(fit: FitResult, p: float, level: float,
                  n_future: float) -> IntervalEstimate:
    """Noncentral-t tolerance interval assuming the sum distribution is
    approximately normal; noncentrality z_{(1-+p)/2} * sqrt(n)/sqrt(N-n)."""
    n = fit.n_obs
    alpha = 1 - level
    center = n_future * fit.mu_hat
    spread = n_future * fit.se_mu
    rho = math.sqrt(n) / math.sqrt(n_future)
    lo = center + nctdtrit(n - 1, ndtri((1 - p) / 2) * rho, alpha / 2) * spread
    hi = center + nctdtrit(n - 1, ndtri((1 + p) / 2) * rho, 1 - alpha / 2) * spread
    return IntervalEstimate(lo, hi, level, "nct_tolerance",
                            "middle_content", content_p=p)


def tolerance_plugci(fit: FitResult, p: float, level: float, n_future: float,
                     se_kind: str = "sandwich", crit: str = "z") -> IntervalEstimate:
    """CI-plug-in tolerance (q_{(1-p)/2}(mu_l, k_l), q_{(1+p)/2}(mu_u, k_l)).

    The lower k limit is used because the sum variance decreases in k; it is
    the Wald limit k*exp(-c*se_k/k) at the same critical value ``crit`` as
    the mean limits.  A fit with no shape estimate (quasi-Poisson) raises
    ``UnsupportedTargetError``.
    """
    return _quantile_interval(fit, _tolerance_plugci_ends(fit, level, p, se_kind, crit),
                              n_future, level, "ci_plug_tolerance", "middle_content",
                              content_p=p)


def _tolerance_plugci_ends(fit: FitResult, level: float, p: float, se_kind: str, crit: str):
    """eq5's ends: the (1-p)/2 and (1+p)/2 quantiles at the fit's Wald mean
    limits, the lower one checked, and its lower Wald shape limit."""
    if fit.k_hat is None:
        raise UnsupportedTargetError(f"a {fit.family} fit has no shape estimate")
    mu_lo, mu_hi = fit.ci_mu(level, se_kind=se_kind, crit=crit)
    mu_lo = _check_mean_limits(mu_lo, mu_hi)
    c = critical_value(level, crit, fit.n_obs - 1)
    k_lower = link_limit(fit.k_hat, -c * fit.se_k / fit.k_hat, "log")
    return ((1 - p) / 2, mu_lo, k_lower), ((1 + p) / 2, mu_hi, k_lower)


# ---------------------------------------------------------------------------
# dispersed-count joint-sampling predictor

def kris_count_cdf(x, lam: float, e_obs: float, e_future: float,
                   dispersion_scale: float):
    """Upper p-value function of the joint-sampling count pivot with a
    dispersion parameter (the Krishnamoorthy-Peng construction)."""
    x = np.asarray(x, dtype=float)
    num = lam * e_future * e_obs - e_obs * x
    den = np.sqrt(dispersion_scale * (e_future * e_obs * (lam * e_obs + x)))
    out = 1.0 - ndtr(num / den)
    return float(out) if out.ndim == 0 else out


def predict_count_kris(fit: FitResult, future_exposure: float,
                       level: float) -> IntervalEstimate:
    """Prediction interval for a future count from the dispersed
    joint-sampling pivot, in closed form: squared, both cdf equations read
    a*x^2 - b*(2*a*L + z^2*phi)*x + a*b*L*(L*b - z^2*phi) = 0 (a, b the
    observed and future exposures, L the rate, phi the dispersion scale, z
    the critical value); the limits are its roots, the lower one clamped at
    0 when the cdf at 0 already reaches alpha/2."""
    if fit.family != "quasipoisson":
        raise ValueError("count prediction requires a quasi-Poisson fit")
    lam, a, b = fit.mu_hat, fit.exposure_total, future_exposure
    if lam <= 0 or a <= 0 or b <= 0:
        raise ValueError("rate and exposures must be positive")
    z2phi = critical_value(level) ** 2 * fit.dispersion_scale
    # larger root times a, summed without cancellation; smaller root = c/big
    big = 0.5 * (b * (2 * a * lam + z2phi)
                 + math.sqrt(z2phi * b * (4 * a * lam * b + z2phi * b + 4 * a * a * lam)))
    c = a * b * lam * (lam * b - z2phi)
    return IntervalEstimate(max(c / big, 0.0), big / a, level,
                            "kris_peng_count", "future_sum")


# ---------------------------------------------------------------------------
# odds-ratio prediction for a future study

def predict_or_from(log_or: float, se_log_or: float, n: int, m: int,
                    level: float) -> IntervalEstimate:
    """exp( log(rho_hat) +/- t_{n-1} * sqrt(n) * se * sqrt(1/n + 1/m) ):
    ``predict_sum_link`` on the binomial-logit fit these summaries describe."""
    fit = FitResult("binomial_logit", "logit", log_or, n, se_g_mu_model=se_log_or)
    return predict_sum_link(fit, PredictionTarget(n, m), level, se_kind="model")


# ---------------------------------------------------------------------------
# method table shared by the coverage lab and the CLI

@dataclass(frozen=True)
class Method:
    """One coverage-table method: what it predicts ('prediction' of the
    future sum or 'tolerance' for the middle content of its distribution),
    its constructor ``build(fit, level, n_future, p, se_kind, crit)`` and,
    for the pivots whose intervals are crossings of an upper p-value
    function, ``pvalue(fit, n_future, se_kind) -> (H, point)`` with H
    defined on positive hypothesised totals.  ``families`` lists the fit
    families the constructor has a formula for (None: any fit).
    ``se_kind`` sets the link-scale SE of eq1 and the Wald mean limits of
    eq2 and eq5, and ``crit`` those mean limits' and the eq5 shape limit's
    critical value; the other methods carry their own convention.  The
    quantile intervals (plugin, eq2, eq5) give ``ends(fit, level, n_future,
    p, se_kind, crit) -> ((p_lo, mu_lo, k_lo), (p_hi, mu_hi, k_hi))``, the
    ``_sum_quantile`` arguments of their endpoints (None: the fitted value),
    so they hold t_lo and t_hi exactly where p_lo <= F(t_lo; mu_lo, k_lo)
    and F(t_hi; mu_hi, k_hi) <= p_hi, F the cdf ``_sum_cdf``."""

    kind: str
    build: Callable[..., IntervalEstimate]
    pvalue: Callable | None = None
    families: tuple | None = None
    ends: Callable | None = None


def _target(fit: FitResult, n_future: float) -> PredictionTarget:
    return PredictionTarget(fit.n_obs, n_future)


# the families whose fits carry a shape estimate
_SHAPED = ("gamma", "weibull")

METHODS = {
    "eq1": Method("prediction", lambda fit, level, n_future, p, se_kind, crit:
                  predict_sum_link(fit, _target(fit, n_future), level, se_kind=se_kind),
                  _link_pvalue),
    "eq2": Method("prediction", lambda fit, level, n_future, p, se_kind, crit:
                  predict_sum_plugci(fit, _target(fit, n_future), level,
                                     se_kind=se_kind, crit=crit), _plugci_pvalue,
                  families=_PLUGCI, ends=lambda fit, level, n_future, p, se_kind, crit:
                  _plugci_ends(fit, level, se_kind, crit)),
    "fpivot": Method("prediction", lambda fit, level, n_future, p, se_kind, crit:
                     predict_sum_fpivot(fit.mu_hat, fit.n_obs, n_future, fit.k_hat, level),
                     _fpivot_pvalue, families=_SHAPED),
    "fpivot_k1": Method("prediction", lambda fit, level, n_future, p, se_kind, crit:
                        predict_sum_fpivot(fit.mu_hat, fit.n_obs, n_future, 1.0, level),
                        lambda fit, n_future, se_kind: _fpivot_pvalue(fit, n_future,
                                                                      se_kind, 1.0),
                        families=("gamma",)),
    "plugin": Method("prediction", lambda fit, level, n_future, p, se_kind, crit:
                     predict_sum_plugin(fit, _target(fit, n_future), level),
                     families=_SHAPED, ends=lambda fit, level, *_: _central_ends(level)),
    "kris": Method("prediction", lambda fit, level, n_future, p, se_kind, crit:
                   predict_count_kris(fit, n_future, level), families=("quasipoisson",)),
    "eq3": Method("tolerance", lambda fit, level, n_future, p, se_kind, crit:
                  tolerance_delta(fit, p, level, n_future), families=_SHAPED),
    "eq4": Method("tolerance", lambda fit, level, n_future, p, se_kind, crit:
                  tolerance_nct(fit, p, level, n_future),
                  families=("gamma", "quasipoisson", "weibull")),
    "eq5": Method("tolerance", lambda fit, level, n_future, p, se_kind, crit:
                  tolerance_plugci(fit, p, level, n_future, se_kind=se_kind, crit=crit),
                  families=_SHAPED, ends=lambda fit, level, n_future, p, se_kind, crit:
                  _tolerance_plugci_ends(fit, level, p, se_kind, crit)),
}
