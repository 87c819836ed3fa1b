"""Maximum-likelihood fitters.

Every interval constructor downstream consumes a :class:`FitResult`: point
estimates, link-scale standard errors (model-based and sandwich), and the
covariance pieces needed for delta-method tolerance limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .dist import critical_value

__all__ = [
    "FitError",
    "InsufficientDataError",
    "DegenerateDataError",
    "SeparationError",
    "NonConvergenceError",
    "FitResult",
    "SurvivalSample",
    "KaplanMeier",
    "fit_gamma_rows",
    "fit_gamma_intercept",
    "fit_quasipoisson",
    "fit_binomial_logit",
    "fit_weibull_censored",
    "km_estimator",
    "profile_lr_ci",
    "gamma_shape_mle",
    "link_limit",
]


class FitError(RuntimeError):
    pass


class InsufficientDataError(FitError):
    pass


class DegenerateDataError(FitError):
    pass


class SeparationError(FitError):
    """A zero cell in the 2x2 table; the MLE is on the boundary."""


class NonConvergenceError(FitError):
    """An iterative solver stopped short of its convergence test."""


def link_limit(point, step, link: str):
    """Wald limit g^{-1}(g(point) + step), elementwise: ``point * exp(step)``
    on the log link, ``point + step`` otherwise."""
    return point * np.exp(step) if link == "log" else point + step


@dataclass(frozen=True)
class FitResult:
    """Fitted model summary.

    ``mu_hat`` is the fitted mean in outcome units (log odds ratio for the
    binomial-logit family).  ``se_g_mu_*`` are standard errors of g{mu_hat}
    on the link scale; ``se_mu``/``se_k``/``cov_mu_k`` are on the natural
    (estimation) scale and feed the delta-method tolerance limits.
    ``phi_hat`` is deviance/(n-p); ``dispersion_scale`` is its square root,
    the value statistical packages report as "Scale" and the convention the
    dispersed-count interval formulas take as input.

    ``_memo`` keeps what the interval constructors derive from the fit
    alone, never from the level or the SE convention: the unit-scale sum
    quantiles and the delta-method quantile SEs, keyed by
    ``(kind, prob, n_future)``.  ``dataclasses.replace`` starts an empty one.
    """

    family: str
    link: str
    mu_hat: float
    n_obs: int
    k_hat: float | None = None
    phi_hat: float | None = None
    se_mu: float | None = None
    se_g_mu_model: float | None = None
    se_g_mu_sandwich: float | None = None
    se_k: float | None = None
    cov_mu_k: float | None = None
    exposure_total: float | None = None
    loglik: float | None = None
    lam_hat: float | None = None               # weibull scale parameter
    data: tuple | None = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dispersion_scale(self) -> float | None:
        return None if self.phi_hat is None else math.sqrt(self.phi_hat)

    def se_g_mu(self, kind: str = "sandwich") -> float:
        se = self.se_g_mu_sandwich if kind == "sandwich" else self.se_g_mu_model
        if se is None:
            raise FitError(f"no {kind} SE available for this fit")
        return se

    def mu_limit(self, z, se_kind: str = "sandwich"):
        """Wald limit g^{-1}(g(mu_hat) + z * se) of the mean, elementwise in z."""
        return link_limit(self.mu_hat, z * self.se_g_mu(se_kind), self.link)

    def ci_mu(self, level: float, se_kind: str = "sandwich", crit: str = "z"):
        """Wald CI for mu, transformed back from the link scale."""
        c = critical_value(level, crit, self.n_obs - 1)
        return self.mu_limit(-c, se_kind), self.mu_limit(c, se_kind)


# the gamma shape Newton's residual stop (relative to max(1, s)) and its cap
SHAPE_TOL, SHAPE_MAX_ITER = 1e-12, 100


def _shape_from_s(s):
    """Solve log(k) - digamma(k) = s (s > 0, elementwise) for the gamma shape k.

    Newton from the Greenwood-Durand moment start; globally convergent in
    practice.  Each element stops after the step taken at its first residual
    within ``SHAPE_TOL * max(1, s)``, so its root does not depend on the
    other elements; each iteration works on the elements still iterating
    only, and an element still iterating after ``SHAPE_MAX_ITER`` is NaN.
    The stop is relative since digamma(k) is about -s for large s: the
    residual's rounding error, about 1e-16 * s, outgrows 1e-12 near s = 1e5.
    """
    s = np.asarray(s, dtype=float)
    k = np.ravel((3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s))
    rows, k_a, s_a = np.arange(k.size), k.copy(), s.ravel()   # still iterating
    for _ in range(SHAPE_MAX_ITER):
        f = np.log(k_a) - special.digamma(k_a) - s_a
        fp = 1.0 / k_a - special.zeta(2.0, k_a)
        k_a = k_a - f / fp
        k_a = np.where(k_a > 0, k_a, np.nan)  # zeta(2, k < 0) sums about |k| terms
        going = ~(np.abs(f) <= SHAPE_TOL * np.maximum(1.0, s_a))
        if not going.all():
            k[rows[~going]] = k_a[~going]
            rows, k_a, s_a = rows[going], k_a[going], s_a[going]
        if not rows.size:
            break
    k[rows] = np.nan
    return k.reshape(s.shape)


def gamma_shape_mle(y: np.ndarray):
    """ML shape of a gamma sample (vectorized over the leading axis of 2-D input):
    the root of log(k) - digamma(k) = log(mean) - mean(log); NaN where the
    shape Newton does not converge."""
    y = np.asarray(y, dtype=float)
    s = np.log(y.mean(axis=-1)) - np.log(y).mean(axis=-1)
    if np.any(s <= 0):
        raise DegenerateDataError("all observations equal; gamma shape diverges")
    return _shape_from_s(s)


def _gamma_g(s, k):
    """g(s, k) = k log k - lgamma(k) - k (s + 1): a gamma sample's
    log-likelihood per observation plus mean(log y), at shape k and
    s = log(mu/ybar) + log(ybar) - mean(log y) + ybar/mu - 1."""
    return k * np.log(k) - special.gammaln(k) - k * (s + 1.0)


def fit_gamma_rows(y, link: str = "log"):
    """Intercept-only gamma fits of the rows of a 2-D array: a gamma
    ``FitResult`` whose numeric fields are per-row arrays, and the mask of
    rows that fit.

    mu_hat is the row mean exactly and k_hat the ML shape.  The model-based
    SE of log(mu_hat) is 1/sqrt(n*k_hat), the sandwich SE the
    GEE-independence form sqrt(sum((y-ybar)^2))/(n*ybar), and the SE of
    k_hat comes from the observed information n*(trigamma(k) - 1/k).  A row
    fits when log(ybar) > mean(log y) and every SE is finite and positive;
    the six per-row fields of the other rows are NaN, which every interval
    constructor's input check lets through.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[1]
    ybar = y.mean(axis=1)
    buf = np.log(y)   # one (rows x n) scratch array: log y, then squared deviations
    s = np.log(ybar) - buf.mean(axis=1)
    ss = np.sum(np.square(np.subtract(y, ybar[:, None], out=buf), out=buf), axis=1)
    del buf   # freed before the shape Newton's temporaries
    ok = s > 0
    k = np.full(ybar.shape, np.nan)
    k[ok] = _shape_from_s(s[ok])
    se_log_model = 1.0 / np.sqrt(n * k)
    se_log_sand = np.sqrt(ss) / (n * ybar)
    se_k = 1.0 / np.sqrt(n * (special.zeta(2.0, k) - 1.0 / k))
    for se in (se_log_model, se_log_sand, se_k):
        ok &= (se > 0) & (se < np.inf)
    ybar, k, se_log_model, se_log_sand, se_k = (
        np.where(ok, v, np.nan) for v in (ybar, k, se_log_model, se_log_sand, se_k))
    fit = FitResult(
        family="gamma",
        link=link,
        mu_hat=ybar,
        k_hat=k,
        se_mu=ybar * se_log_model,
        se_g_mu_model=se_log_model if link == "log" else ybar * se_log_model,
        se_g_mu_sandwich=se_log_sand if link == "log" else ybar * se_log_sand,
        se_k=se_k,
        cov_mu_k=0.0,  # mean and shape are information-orthogonal at the MLE
        n_obs=n,
    )
    return fit, ok


def fit_gamma_intercept(data, link: str = "log") -> FitResult:
    """Intercept-only gamma fit of one sample: the one-row case of
    :func:`fit_gamma_rows`, with its data and its log-likelihood attached:
    n * (g(s, k_hat) - mean(log y)), g of :func:`_gamma_g` at
    s = log(ybar) - mean(log y)."""
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise InsufficientDataError("need at least 2 observations")
    if np.any(y <= 0):
        raise FitError("gamma data must be strictly positive")
    if np.ptp(y) == 0:
        raise DegenerateDataError("all observations equal")
    with np.errstate(divide="ignore", invalid="ignore"):   # checked just below
        rows, ok = fit_gamma_rows(y[None, :], link)
        row = {name: float(getattr(rows, name)[0]) for name in (
            "mu_hat", "k_hat", "se_mu", "se_g_mu_model", "se_g_mu_sandwich", "se_k")}
        mean_log = float(np.log(y).mean())
        s = math.log(row["mu_hat"]) - mean_log
        loglik = float(y.size * (_gamma_g(s, row["k_hat"]) - mean_log))
    if not (ok[0] and math.isfinite(loglik)):
        raise FitError("gamma fit is not finite: the shape, the mean, an SE or "
                       "the log-likelihood leaves the range of double precision")
    return replace(rows, **row, loglik=loglik, data=(tuple(y),))


# Newton's iteration cap and the most step halvings in one iteration
NEWTON_MAX_ITER, NEWTON_MAX_HALVINGS = 200, 30


def _newton(f, theta, tol: float):
    """Maximise a log-likelihood by Newton steps with step halving, which
    keeps scoring inside the parameter space (Marschner 2011, glm2).

    ``f(theta) -> (loglik, grad, hess)``, loglik -inf where a fitted mean is
    <= 0.  Each step theta - scale * solve(hess, grad) takes the first scale
    1, 1/2, ... whose loglik is finite and at most 1e-12 * max(1, |loglik|)
    below the current one.  Stops after the step taken at the first
    ||grad|| <= ``tol`` and returns (theta, loglik, hess) there; a singular
    Hessian, failed halvings or the iteration cap raise NonConvergenceError.
    """
    cause = f"no convergence in {NEWTON_MAX_ITER} iterations"
    with np.errstate(over="ignore", invalid="ignore"):   # a trial may overflow
        ll, grad, hess = f(theta)
        for it in range(1, NEWTON_MAX_ITER + 1):
            done = np.linalg.norm(grad) <= tol
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                cause = "singular Hessian"
                break
            for halving in range(NEWTON_MAX_HALVINGS + 1):
                trial = theta - 0.5 ** halving * step
                ll2, grad2, hess2 = f(trial)
                if math.isfinite(ll2) and ll2 >= ll - 1e-12 * max(1.0, abs(ll)):
                    break
            else:
                cause = f"{NEWTON_MAX_HALVINGS} step halvings found no finite, no lower likelihood"
                break
            theta, ll, grad, hess = trial, ll2, grad2, hess2
            if done:
                return theta, ll, hess
        norm = np.linalg.norm(grad)
    raise NonConvergenceError(f"Newton stopped at iteration {it}: {cause} "
                              f"(score norm {norm:.3g})")


# smallest quasi-Poisson dispersion reported: keeps phi_hat, and the SEs and
# count intervals built from it, positive when the counts fit exactly
PHI_FLOOR = 1e-8


def _dispersion(x: np.ndarray, mu: np.ndarray, p: int) -> float:
    """phi_hat: the Poisson deviance over n - p, at least PHI_FLOOR."""
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0) / mu), 0.0)
    return max(float(2.0 * np.sum(term - (x - mu))) / max(x.size - p, 1), PHI_FLOOR)


def fit_quasipoisson(events, exposure, link: str = "log") -> FitResult:
    """Intercept-only quasi-Poisson fit of event counts with exposure offsets:
    lambda_hat = sum(events)/sum(exposure) exactly and phi_hat = deviance/(n-1).
    """
    x = np.asarray(events, dtype=float)
    e = np.asarray(exposure, dtype=float)
    if x.shape != e.shape:
        raise FitError("events and exposure lengths differ")
    if np.any(e <= 0):
        raise FitError("exposures must be positive")
    if x.sum() < 1:
        raise InsufficientDataError("no events observed")
    lam = float(x.sum() / e.sum())
    mu = lam * e
    phi = _dispersion(x, mu, 1)
    se_log_model = math.sqrt(phi / x.sum())
    se_log_sand = math.sqrt(float(np.sum((x - mu) ** 2))) / x.sum()
    return FitResult(
        family="quasipoisson",
        link=link,
        mu_hat=lam,
        phi_hat=phi,
        se_mu=lam * se_log_model,
        se_g_mu_model=se_log_model if link == "log" else lam * se_log_model,
        se_g_mu_sandwich=se_log_sand if link == "log" else lam * se_log_sand,
        n_obs=x.size,
        exposure_total=float(e.sum()),
    )


def fit_binomial_logit(y, trt, continuity: bool = False) -> FitResult:
    """Two-arm binomial fit; mu_hat is the log odds ratio (treated vs control).

    Closed-form 2x2 MLE; SE = sqrt(1/a+1/b+1/c+1/d).  ``y`` and ``trt`` must
    be 0/1 (FitError otherwise).  A zero cell raises SeparationError unless
    ``continuity`` adds the 0.5 correction.
    """
    y, trt = np.asarray(y), np.asarray(trt)
    if y.shape != trt.shape:
        raise FitError("y and trt lengths differ")
    if not np.all(np.isin(y, (0, 1)) & np.isin(trt, (0, 1))):
        raise FitError("binomial y and trt must be 0 or 1")
    y, trt = y.astype(int), trt.astype(int)
    if not (np.any(trt == 1) and np.any(trt == 0)):
        raise InsufficientDataError("both arms must contain subjects")
    a = float(np.sum((trt == 1) & (y == 1)))
    b = float(np.sum((trt == 1) & (y == 0)))
    c = float(np.sum((trt == 0) & (y == 1)))
    d = float(np.sum((trt == 0) & (y == 0)))
    if min(a, b, c, d) == 0:
        if not continuity:
            raise SeparationError(f"zero cell in 2x2 table ({a:.0f},{b:.0f},{c:.0f},{d:.0f})")
        a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
    log_or = math.log(a * d / (b * c))
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    return FitResult(
        family="binomial_logit",
        link="logit",
        mu_hat=log_or,
        se_g_mu_model=se,
        se_g_mu_sandwich=se,
        n_obs=y.size,
    )


@dataclass(frozen=True)
class SurvivalSample:
    time: float
    event: bool

    def __post_init__(self):
        if self.time <= 0:
            raise FitError("survival times must be positive")


def _weibull_score_hessian(a: float, b: float, t: np.ndarray, ev: np.ndarray):
    """Loglik, gradient, Hessian in (a, b) = (log scale, log shape).  A sum
    that overflows is infinite; ``_newton`` rejects such a trial point
    without a warning."""
    lam, k = math.exp(a), math.exp(b)
    u = np.log(t) - a
    z = np.exp(np.clip(k * u, -700, 700))
    r = float(ev.sum())
    ll = float(np.sum(ev * (math.log(k) - np.log(t) + k * u)) - z.sum())
    sz, szu, szu2 = float(z.sum()), float((z * u).sum()), float((z * u * u).sum())
    l_a = -k * r + k * sz
    l_k = r / k + float((ev * u).sum()) - szu
    l_aa = -k * k * sz
    l_ak = (sz - r) + k * szu
    l_kk = -r / (k * k) - szu2
    grad = np.array([l_a, k * l_k])
    hess = np.array([
        [l_aa, k * l_ak],
        [k * l_ak, k * l_k + k * k * l_kk],
    ])
    return ll, grad, hess


def fit_weibull_censored(data) -> FitResult:
    """Weibull MLE under right censoring, Newton in (log scale, log shape).

    Exposed in the (mean mu, shape k) parameterization with
    mu = scale * Gamma(1 + 1/k); the covariance comes from the observed
    information at the optimum.
    """
    t = np.array([s.time for s in data], dtype=float)
    ev = np.array([1.0 if s.event else 0.0 for s in data])
    if ev.sum() < 2:
        raise InsufficientDataError("need at least 2 events")
    # moment-flavored start from the event times
    te = t[ev == 1]
    sd_log = float(np.std(np.log(te))) or 1.0
    b = math.log(max(1.2 / sd_log, 0.2))
    a = math.log(float(np.mean(t)))
    (a, b), ll, hess = _newton(lambda ab: _weibull_score_hessian(*ab, t, ev),
                               np.array([a, b]), 1e-9)
    lam, k = math.exp(a), math.exp(b)
    cov_ab = np.linalg.inv(-hess)
    g1k = special.gamma(1 + 1 / k)
    mu = lam * g1k
    psi = special.digamma(1 + 1 / k)
    # Jacobian of (mu, k) wrt (a, b)
    J = np.array([[mu, -mu * psi / k], [0.0, k]])
    cov_nat = J @ cov_ab @ J.T
    se_mu = math.sqrt(cov_nat[0, 0])
    return FitResult(
        family="weibull",
        link="log",
        mu_hat=mu,
        k_hat=k,
        se_mu=se_mu,
        se_g_mu_model=se_mu / mu,
        se_g_mu_sandwich=se_mu / mu,
        se_k=math.sqrt(cov_nat[1, 1]),
        cov_mu_k=float(cov_nat[0, 1]),
        n_obs=t.size,
        loglik=ll,
        lam_hat=lam,
    )


@dataclass(frozen=True)
class KaplanMeier:
    """Product-limit estimator as a right-continuous step function."""

    times: np.ndarray      # distinct event times, ascending
    survival: np.ndarray   # S(t) just after each event time

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right")
        vals = np.concatenate([[1.0], self.survival])
        out = vals[idx]
        return float(out) if out.ndim == 0 else out


def km_estimator(data) -> KaplanMeier:
    if len(data) == 0:
        raise InsufficientDataError("empty survival sample")
    t = np.array([s.time for s in data], dtype=float)
    ev = np.array([bool(s.event) for s in data])
    event_times, d = np.unique(t[ev], return_counts=True)
    # subjects still at risk at each event time: those with t >= it
    at_risk = t.size - np.searchsorted(np.sort(t), event_times, side="left")
    return KaplanMeier(event_times, np.cumprod(1.0 - d / at_risk))


def _profile(y, mu_hat: float, k_hat: float, param: str):
    """``profile(x) -> (deviance, slope)``, elementwise in the value x of
    ``param`` ("mu" or "k") for a gamma sample: the profile deviance
    2*(l_max - l) with the other parameter at its profile MLE, and its
    derivative in log x, in closed form by the envelope theorem.

    Both come from n, ybar and mean(log y) alone: l/n + mean(log y) is
    g(s(mu), k) = k log k - lgamma(k) - k (s(mu) + 1), where
    s(mu) = log(mu/ybar) + log(ybar) - mean(log y) + ybar/mu - 1 is the
    fit's own s at mu = ybar.  At fixed mu, k solves log(k) - digamma(k) =
    s(mu) and dD/dlog mu = 2 n k (1 - ybar/mu); at fixed k, mu is mu_hat and
    dD/dlog k = -2 n k (log k - digamma(k) - s(mu_hat)).
    """
    y = np.asarray(y, dtype=float)
    n, ybar = y.size, y.mean()
    s_ybar = math.log(ybar) - np.log(y).mean()
    s_at = lambda mu: np.log(mu / ybar) + s_ybar + (ybar / mu - 1.0)
    s_hat = s_at(mu_hat)
    lmax = _gamma_g(s_hat, k_hat)

    if param == "mu":
        def profile(mu):
            s = s_at(mu)
            k = _shape_from_s(s)
            return 2.0 * n * (lmax - _gamma_g(s, k)), 2.0 * n * k * (1.0 - ybar / mu)
    else:
        def profile(k):
            return (2.0 * n * (lmax - _gamma_g(s_hat, k)),
                    -2.0 * n * k * (np.log(k) - special.digamma(k) - s_hat))
    return profile


def _profile_deviance(y: np.ndarray, mu_hat: float, k_hat: float):
    """``deviance(mu, k)``: the profile deviance of :func:`_profile` at the
    parameter not passed as None."""
    at_mu, at_k = (_profile(y, mu_hat, k_hat, param) for param in ("mu", "k"))
    return lambda mu, k: float(at_mu(mu)[0] if k is None else at_k(k)[0])


def _bracketed_limit(profile, center: float, target: float, direction: int) -> float:
    """The profile limit on one side (``direction`` -1 or +1) of ``center``,
    solved in u = log(x / center): steps of 0.5, 0.8, 1.28, ... out from
    u = 0 until the deviance exceeds ``target``, then brentq to 1e-12 in u.
    The fallback of :func:`profile_lr_ci`'s Newton.
    """
    dev = lambda u: float(profile(center * np.exp(u))[0]) - target
    u, step = 0.0, 0.5
    with np.errstate(all="ignore"):   # a step out of the domain ends the search
        for _ in range(200):
            u_new = u + direction * step
            d = dev(u_new)
            if not math.isfinite(d):
                break
            if d > 0:
                return float(center * np.exp(brentq(dev, min(u, u_new), max(u, u_new),
                                                     xtol=1e-12)))
            u, step = u_new, step * 1.6
    raise NonConvergenceError("profile deviance never crossed the target")


# profile_lr_ci's Newton: its step cap and its stop on |step| in log x
PROFILE_MAX_ITER, PROFILE_TOL = 12, 1e-11


def profile_lr_ci(fit: FitResult, param: str, level: float):
    """Profile likelihood-ratio CI endpoints (lower, upper) for mu or k of a
    gamma fit: the two roots of profile deviance == the chi-square(1)
    quantile of ``level``.

    One vectorized Newton iteration solves both limits together in
    u = log(x / center), from the Wald limits u = -+sqrt(target) * se
    (se = 1/sqrt(n k_hat) for mu, se_k/k_hat for k), with the closed-form
    slope of :func:`_profile`; each limit stops after the step taken at its
    first |step| <= ``PROFILE_TOL``.  A limit still moving after
    ``PROFILE_MAX_ITER`` steps, not finite, or not on its own side of the
    center goes to :func:`_bracketed_limit`: at levels near 0 the deviance
    lies below the rounding error of l_max - l and Newton cannot resolve it.
    Both solves are in log x, so the limits scale with the data.  A level
    <= 1e-12 returns (center, center); a NaN level or one outside [0, 1)
    raises ValueError.
    """
    if fit.family != "gamma":
        raise FitError("profile LR CI implemented for gamma fits")
    if param not in ("mu", "k"):
        raise FitError(f"unknown parameter {param!r}")
    if not 0.0 <= level < 1.0:
        raise ValueError(f"level must be in [0, 1), got {level!r}")
    center = fit.mu_hat if param == "mu" else fit.k_hat
    if level <= 1e-12:
        return center, center

    target = 2 * special.gammaincinv(0.5, level)
    se = 1.0 / math.sqrt(fit.n_obs * fit.k_hat) if param == "mu" else fit.se_k / fit.k_hat
    profile = _profile(fit.data[0], fit.mu_hat, fit.k_hat, param)
    side = np.array([-1.0, 1.0])
    u, going = side * math.sqrt(target) * se, np.ones(2, dtype=bool)
    with np.errstate(all="ignore"):   # a step that leaves the domain is NaN and falls back
        for _ in range(PROFILE_MAX_ITER):
            dev, slope = profile(center * np.exp(u[going]))
            step = (dev - target) / slope
            u[going] -= step
            going[going] = ~(np.abs(step) <= PROFILE_TOL)
            if not going.any():
                break
    solved = ~going & np.isfinite(u) & (side * u > 0)
    return tuple(float(center * np.exp(u[i])) if solved[i]
                 else _bracketed_limit(profile, center, target, int(side[i]))
                 for i in range(2))
