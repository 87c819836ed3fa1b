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
    def __init__(self, msg, trace=None):
        super().__init__(msg)
        self.trace = trace or []


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
    cov_log_params: np.ndarray | None = None   # weibull: cov of (log lam, log k)
    coef: np.ndarray | None = None             # regression fits
    cov_coef: np.ndarray | None = None
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

    def ci_g_mu(self, level: float, se_kind: str = "sandwich", crit: str = "z"):
        """Wald CI for g{mu} on the link scale."""
        half = critical_value(level, crit, self.n_obs - 1) * self.se_g_mu(se_kind)
        g = np.log(self.mu_hat) if self.link == "log" else self.mu_hat
        return g - half, g + half

    def mu_limit(self, z, se_kind: str = "sandwich"):
        """Wald limit g^{-1}(g(mu_hat) + z * se) of the mean, elementwise in z."""
        step = z * self.se_g_mu(se_kind)
        return self.mu_hat * np.exp(step) if self.link == "log" else self.mu_hat + step

    def ci_mu(self, level: float, se_kind: str = "sandwich", crit: str = "z"):
        """Wald CI for mu, transformed back from the link scale."""
        c = critical_value(level, crit, self.n_obs - 1)
        return self.mu_limit(-c, se_kind), self.mu_limit(c, se_kind)


def _shape_from_s(s, tol: float = 1e-12, max_iter: int = 100):
    """Solve log(k) - digamma(k) = s (s > 0, elementwise) for the gamma shape k.

    Newton from the Greenwood-Durand moment start; globally convergent in
    practice.  Each element stops after the step taken at its first residual
    within ``tol``, so its root does not depend on the other elements.
    """
    k = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    active = np.ones(np.shape(s), dtype=bool)
    for _ in range(max_iter):
        f = np.log(k) - special.digamma(k) - s
        fp = 1.0 / k - special.zeta(2.0, k)
        k = np.where(active, k - f / fp, k)
        k = np.where(k > 0, k, np.nan)  # zeta(2, k < 0) sums about |k| terms
        active &= ~(np.abs(f) <= tol)
        if not active.any():
            break
    return k


def gamma_shape_mle(y: np.ndarray, tol: float = 1e-12, max_iter: int = 100):
    """ML shape of a gamma sample (vectorized over the leading axis of 2-D input):
    the root of log(k) - digamma(k) = log(mean) - mean(log)."""
    y = np.asarray(y, dtype=float)
    s = np.log(y.mean(axis=-1)) - np.log(y).mean(axis=-1)
    if np.any(s <= 0):
        raise DegenerateDataError("all observations equal; gamma shape diverges")
    return _shape_from_s(s, tol, max_iter)


def _gamma_loglik(y: np.ndarray, mu: float, k: float, log_y=None) -> float:
    log_y = np.log(y) if log_y is None else log_y
    return float(
        np.sum(
            k * np.log(k / mu)
            - special.gammaln(k)
            + (k - 1) * log_y
            - k * y / mu
        )
    )


def fit_gamma_rows(y, link: str = "log"):
    """Intercept-only gamma fits of the rows of a 2-D array: a gamma
    ``FitResult`` whose numeric fields are per-row arrays, and the mask of
    rows that fit.

    mu_hat is the row mean exactly and k_hat the ML shape.  The model-based
    SE of log(mu_hat) is 1/sqrt(n*k_hat), the sandwich SE the
    GEE-independence form sqrt(sum((y-ybar)^2))/(n*ybar), and the SE of
    k_hat comes from the observed information n*(trigamma(k) - 1/k).  A row
    fits when log(ybar) > mean(log y) and every SE is finite and positive;
    the fields of the other rows are meaningless.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[1]
    ybar = y.mean(axis=1)
    s = np.log(ybar) - np.log(y).mean(axis=1)
    ok = s > 0
    k = np.full(ybar.shape, np.nan)
    k[ok] = _shape_from_s(s[ok])
    se_log_model = 1.0 / np.sqrt(n * k)
    se_log_sand = np.sqrt(np.sum((y - ybar[:, None]) ** 2, axis=1)) / (n * ybar)
    se_k = 1.0 / np.sqrt(n * (special.zeta(2.0, k) - 1.0 / k))
    for se in (se_log_model, se_log_sand, se_k):
        ok &= (se > 0) & (se < np.inf)
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
    :func:`fit_gamma_rows`, with its log-likelihood and data attached."""
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
        loglik = _gamma_loglik(y, row["mu_hat"], row["k_hat"])
    if not (ok[0] and math.isfinite(loglik)):
        raise FitError("gamma fit is not finite: the shape, the mean, an SE or "
                       "the log-likelihood leaves the range of double precision")
    return replace(rows, **row, loglik=loglik, data=(tuple(y),))


# smallest quasi-Poisson dispersion reported: keeps phi_hat, and the SEs and
# count intervals built from it, positive when the counts fit exactly
PHI_FLOOR = 1e-8


def _poisson_deviance(x: np.ndarray, mu: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0) / mu), 0.0)
    return float(2.0 * np.sum(term - (x - mu)))


def fit_quasipoisson(events, exposure, regressors=None, link: str = "log") -> FitResult:
    """Quasi-Poisson fit of event counts with exposure offsets.

    Intercept-only: lambda_hat = sum(events)/sum(exposure) exactly and
    phi_hat = deviance/(n-p).  With a single regressor, Fisher scoring to
    gradient norm <= 1e-10.
    """
    x = np.asarray(events, dtype=float)
    e = np.asarray(exposure, dtype=float)
    if x.shape != e.shape:
        raise FitError("events and exposure lengths differ")
    if np.any(e <= 0):
        raise FitError("exposures must be positive")
    if x.sum() < 1:
        raise InsufficientDataError("no events observed")
    n = x.size

    if regressors is None:
        lam = float(x.sum() / e.sum())
        mu = lam * e
        p = 1
        dev = _poisson_deviance(x, mu)
        phi = max(dev / max(n - p, 1), PHI_FLOOR)
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
            n_obs=n,
            exposure_total=float(e.sum()),
            data=(tuple(x), tuple(e)),
        )

    # single-regressor GLM for the rate: mean count = exposure * h(b0 + b1*z)
    z = np.asarray(regressors, dtype=float)
    if z.shape != x.shape:
        raise FitError("regressor length differs from events")
    X = np.column_stack([np.ones(n), z])
    h = (lambda eta: np.exp(eta)) if link == "log" else (lambda eta: eta)
    hp = (lambda eta: np.exp(eta)) if link == "log" else (lambda eta: np.ones_like(eta))
    rate0 = x.sum() / e.sum()
    beta = np.array([math.log(rate0), 0.0]) if link == "log" else np.array([rate0, 0.0])
    trace = []
    for _ in range(200):
        eta = X @ beta
        m = h(eta)
        if np.any(m <= 0):
            raise NonConvergenceError("nonpositive fitted rate during scoring", trace)
        mu = e * m
        w = (e * hp(eta)) ** 2 / mu
        score = X.T @ ((e * hp(eta)) * (x - mu) / mu)
        info = X.T @ (w[:, None] * X)
        step = np.linalg.solve(info, score)
        beta = beta + step
        trace.append(beta.copy())
        if np.linalg.norm(score) <= 1e-10:
            break
    else:
        raise NonConvergenceError("Fisher scoring did not converge", trace)
    eta = X @ beta
    mu = e * h(eta)
    p = 2
    dev = _poisson_deviance(x, mu)
    phi = max(dev / max(n - p, 1), PHI_FLOOR)
    cov = phi * np.linalg.inv(X.T @ (((e * hp(eta)) ** 2 / mu)[:, None] * X))
    return FitResult(
        family="quasipoisson",
        link=link,
        mu_hat=float(h(beta[0])) if link == "log" else float(beta[0]),
        phi_hat=phi,
        n_obs=n,
        exposure_total=float(e.sum()),
        coef=beta,
        cov_coef=cov,
        data=(tuple(x), tuple(e), tuple(z)),
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
        data=((a, b, c, d),),
    )


@dataclass(frozen=True)
class SurvivalSample:
    time: float
    event: bool

    def __post_init__(self):
        if self.time <= 0:
            raise FitError("survival times must be positive")


def _weibull_score_hessian(a: float, b: float, t: np.ndarray, ev: np.ndarray):
    """Loglik, gradient, Hessian in (a, b) = (log scale, log shape)."""
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
    ll, grad, hess = _weibull_score_hessian(a, b, t, ev)
    for _ in range(100):
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise NonConvergenceError("singular Hessian in Weibull fit")
        scale = 1.0
        for _ in range(30):  # step halving
            ll2, grad2, hess2 = _weibull_score_hessian(a - scale * step[0], b - scale * step[1], t, ev)
            if np.isfinite(ll2) and ll2 >= ll - 1e-12:
                break
            scale *= 0.5
        a, b = a - scale * step[0], b - scale * step[1]
        ll, grad, hess = ll2, grad2, hess2
        if np.linalg.norm(grad) <= 1e-9:
            break
    else:
        raise NonConvergenceError("Weibull Newton did not converge")
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
        cov_log_params=cov_ab,
        data=(tuple(t), tuple(ev)),
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
    order = np.argsort(t, kind="stable")
    t, ev = t[order], ev[order]
    event_times = np.unique(t[ev])
    surv, s = [], 1.0
    for et in event_times:
        at_risk = float(np.sum(t >= et))
        d = float(np.sum((t == et) & ev))
        s *= 1.0 - d / at_risk
        surv.append(s)
    return KaplanMeier(event_times, np.asarray(surv))


def _profile_deviance(y: np.ndarray, mu_hat: float, k_hat: float):
    """``deviance(mu, k)``: 2*(l_max - l_profile) of a gamma sample with the
    parameter passed as None profiled out.  l_max, log y, mean(log y) and
    ybar are computed once, not per evaluation."""
    log_y = np.log(y)
    lmax = _gamma_loglik(y, mu_hat, k_hat, log_y)
    mean_log, ybar = log_y.mean(), y.mean()

    def deviance(mu, k):
        if k is None:  # fixed mu: log(k) - digamma(k) = s(mu), the fit's own s at mu = ybar
            k = _shape_from_s(np.log(mu) - mean_log + (ybar / mu - 1.0))
        else:  # fixed k: mu profile-MLE is ybar for every k
            mu = mu_hat
        return 2.0 * (lmax - _gamma_loglik(y, mu, k, log_y))

    return deviance


def _gamma_profile_deviance(y: np.ndarray, mu: float | None, k: float | None,
                            mu_hat: float, k_hat: float) -> float:
    """Deviance 2*(l_max - l_profile) profiling out the other parameter."""
    return _profile_deviance(y, mu_hat, k_hat)(mu, k)


def profile_lr_ci(fit: FitResult, param: str, level: float):
    """Profile likelihood-ratio CI endpoints for mu or k of a gamma fit.

    Endpoints solve profile deviance == chi-square(1) quantile of ``level``
    by bracketed root-finding; returns (lower, upper).
    """
    if fit.family != "gamma":
        raise FitError("profile LR CI implemented for gamma fits")
    y = np.asarray(fit.data[0], dtype=float)
    target = 2 * special.gammaincinv(0.5, level)
    deviance = _profile_deviance(y, fit.mu_hat, fit.k_hat)

    if param == "mu":
        dev = lambda m: deviance(m, None) - target
        center = fit.mu_hat
    elif param == "k":
        dev = lambda kk: deviance(None, kk) - target
        center = fit.k_hat
    else:
        raise FitError(f"unknown parameter {param!r}")

    if level <= 1e-12:
        return center, center

    def bracket(direction: int) -> float:
        step = 0.5 * center
        x = center
        for _ in range(200):
            x_new = x + direction * step
            if x_new <= 0:
                x_new = x / 2 if direction < 0 else x * 2
            if dev(x_new) > 0:
                return float(brentq(dev, min(x_new, x), max(x_new, x),
                                   xtol=1e-12, rtol=1e-10))
            x = x_new
            step *= 1.6
        raise NonConvergenceError("profile deviance never crossed the target")

    return bracket(-1), bracket(+1)
