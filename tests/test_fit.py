import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import optimize, special, stats

from tolpred import dist, fit
from tolpred.dist import RngStream
from tolpred.fit import (DegenerateDataError, FitError, InsufficientDataError,
                         NonConvergenceError, SeparationError, SurvivalSample,
                         fit_binomial_logit, fit_gamma_intercept, fit_quasipoisson,
                         fit_weibull_censored, gamma_shape_mle, km_estimator,
                         profile_lr_ci)


def gamma_sample(n, seed=1, k=4.0, mu=2.5):
    return dist.sample(dist.gamma(k, mu / k), RngStream(seed), n)


# ---------------------------------------------------------------------------
# gamma intercept


def test_gamma_mu_is_sample_mean():
    y = gamma_sample(57)
    fr = fit_gamma_intercept(y)
    assert fr.mu_hat == pytest.approx(float(np.mean(y)), rel=1e-15)


def test_gamma_shape_vs_independent_maximizer():
    y = gamma_sample(10 ** 4, seed=3)
    fr = fit_gamma_intercept(y)

    def neg_profile(k):
        mu = y.mean()
        return -np.sum(k * np.log(k / mu) - special.gammaln(k)
                       + (k - 1) * np.log(y) - k * y / mu)

    res = optimize.minimize_scalar(neg_profile, bounds=(0.5, 20.0),
                                   method="bounded",
                                   options={"xatol": 1e-10})
    assert fr.k_hat == pytest.approx(res.x, abs=1e-6)


def test_gamma_sandwich_se_closed_form():
    y = gamma_sample(20, seed=4)
    fr = fit_gamma_intercept(y)
    n, ybar = y.size, y.mean()
    assert fr.se_g_mu_sandwich == pytest.approx(
        math.sqrt(np.sum((y - ybar) ** 2)) / (n * ybar), rel=1e-14)
    assert fr.se_g_mu_model == pytest.approx(1 / math.sqrt(n * fr.k_hat), rel=1e-14)


def test_gamma_se_kinds_converge_large_n():
    y = gamma_sample(10 ** 5, seed=5)
    fr = fit_gamma_intercept(y)
    ratio = fr.se_g_mu_sandwich / fr.se_g_mu_model
    assert 0.97 < ratio < 1.03


def test_gamma_identity_link_mu_invariant():
    y = gamma_sample(40, seed=6)
    assert fit_gamma_intercept(y, link="identity").mu_hat == \
        fit_gamma_intercept(y, link="log").mu_hat


def test_gamma_errors():
    with pytest.raises(InsufficientDataError):
        fit_gamma_intercept([1.0])
    with pytest.raises(DegenerateDataError):
        fit_gamma_intercept([2.0, 2.0, 2.0])
    with pytest.raises(FitError):
        fit_gamma_intercept([1.0, -1.0, 2.0])


def test_gamma_overflow_is_fit_error():
    # the sample sum overflows: the mean is inf and the shape and SEs NaN
    with np.errstate(all="ignore"), pytest.raises(FitError, match="not finite"):
        fit_gamma_intercept([1e308, 1.5e308])


def test_gamma_shape_step_below_zero_is_fit_error():
    # s is rounding noise here, at or below the solver's floor SHAPE_FLOOR,
    # so the shape is NaN, and the fit says its shape is not finite
    y = np.array([1.0, 1.0000001])
    with np.errstate(all="ignore"):
        assert np.isnan(gamma_shape_mle(y))
        with pytest.raises(FitError, match="not finite"):
            fit_gamma_intercept(y)


ROW_ARRAYS = ("mu_hat", "k_hat", "se_mu", "se_g_mu_model", "se_g_mu_sandwich", "se_k")


@pytest.mark.parametrize("link", ["log", "identity"])
def test_gamma_rows_are_the_scalar_fits(link):
    gen = np.random.default_rng(11)
    for rows, n in ((1, 2), (9, 3), (40, 20), (25, 79)):
        y = gen.gamma(gen.uniform(0.3, 6.0, size=(rows, 1)), 2.0, size=(rows, n))
        rf, ok = fit.fit_gamma_rows(y, link)
        assert ok.all()
        for i, row in enumerate(y):
            want = fit_gamma_intercept(row, link)
            for name in ("family", "link", "n_obs", "cov_mu_k"):
                assert getattr(rf, name) == getattr(want, name), name
            for name in ROW_ARRAYS:
                assert getattr(rf, name)[i] == getattr(want, name), name
            sand = math.sqrt(np.sum((row - row.mean()) ** 2)) / (n * row.mean())
            assert rf.se_g_mu_sandwich[i] == (sand if link == "log" else row.mean() * sand)
        if rows < 3:
            continue
        # a constant row, one whose draws underflowed to 0 and one whose
        # spread underflows are masked and NaN in every per-row field; the
        # other rows of the same array fit as before
        bad = y.copy()
        bad[0], bad[1] = 2.5, 0.0
        bad[-1] = np.linspace(1e-320, 3e-310, n)
        with np.errstate(all="ignore"):
            rf2, ok2 = fit.fit_gamma_rows(bad, link)
        assert not ok2[[0, 1, -1]].any() and ok2[2:-1].all()
        for name in ROW_ARRAYS:
            assert np.isnan(getattr(rf2, name)[[0, 1, -1]]).all(), name
            assert np.array_equal(getattr(rf2, name)[2:-1], getattr(rf, name)[2:-1])


def test_gamma_loglik_is_the_summed_log_density():
    gen = np.random.default_rng(23)
    for _ in range(200):
        k, mu = 10 ** gen.uniform(-1.5, 2.5), 10 ** gen.uniform(-5, 5)
        fr = fit_gamma_intercept(gen.gamma(k, mu / k, size=int(gen.integers(2, 501))))
        y = np.asarray(fr.data[0])
        want = stats.gamma(fr.k_hat, scale=fr.mu_hat / fr.k_hat).logpdf(y).sum()
        assert fr.loglik == pytest.approx(want, rel=1e-10)


def test_gamma_shape_mle_score_solved():
    y = gamma_sample(200, seed=7)
    k = float(gamma_shape_mle(y))
    s = math.log(y.mean()) - np.mean(np.log(y))
    assert abs(math.log(k) - special.digamma(k) - s) < 1e-10


def test_gamma_shape_secant_stops_at_large_s(monkeypatch):
    # near k = 1e-5 the residual's rounding is about 1e-11, which an absolute
    # 1e-12 stop never meets; each secant step calls digamma once
    calls, digamma = [0], special.digamma

    def counted(k):
        calls[0] += 1
        return digamma(k)

    monkeypatch.setattr(special, "digamma", counted)
    s = np.array([1e5, 1e6])
    k = fit._shape_from_s(s)
    assert calls[0] < 10
    assert np.all(np.abs(np.log(k) - digamma(k) - s) <= 1e-15 * s)


def test_gamma_shape_newton_at_its_cap_is_nan_and_masked(monkeypatch):
    # four iterations solve s = 0.05 but not s = 1, and one solves no s
    monkeypatch.setattr(fit, "SHAPE_MAX_ITER", 4)
    k = fit._shape_from_s(np.array([0.05, 1.0]))
    assert np.isfinite(k[0]) and np.isnan(k[1])
    monkeypatch.setattr(fit, "SHAPE_MAX_ITER", 1)
    y = gamma_sample(20)
    with np.errstate(invalid="ignore"):
        rows, ok = fit.fit_gamma_rows(y[None, :])
        assert np.isnan(gamma_shape_mle(y))
        with pytest.raises(FitError, match="not finite"):
            fit_gamma_intercept(y)
    assert np.isnan(rows.k_hat[0]) and not ok[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(math.log(1e-12), math.log(1e7)).map(math.exp), min_size=1, max_size=40))
def test_gamma_shape_roots_meet_the_stop_rule(s):
    # every root is finite and its residual is within the stop rule's
    s = np.array(s)
    k = fit._shape_from_s(s)
    assert np.isfinite(k).all() and (k > 0).all()
    assert (np.abs(np.log(k) - special.digamma(k) - s) <= fit.SHAPE_TOL * np.maximum(1.0, s)).all()


@pytest.mark.parametrize("cap", [4, fit.SHAPE_MAX_ITER])
def test_gamma_shape_of_a_stack_is_each_row_alone(monkeypatch, cap):
    # NaN s, s at the rounding floor and rows still iterating at the cap are
    # NaN among the others; every row's root is bit for bit its own solve
    monkeypatch.setattr(fit, "SHAPE_MAX_ITER", cap)
    gen = np.random.default_rng(37)
    s = np.exp(gen.uniform(math.log(1e-16), math.log(1e8), 600))
    s[gen.choice(s.size, 60, replace=False)] = np.nan
    s[:3] = fit.SHAPE_FLOOR, fit.SHAPE_FLOOR / 2, np.nextafter(fit.SHAPE_FLOOR, 1.0)
    k = fit._shape_from_s(s.reshape(20, 30))
    assert k.shape == (20, 30)
    alone = np.array([fit._shape_from_s(np.array([v]))[0] for v in s])
    assert_array_equal(k.ravel(), alone)
    noise = np.isnan(s) | (s <= fit.SHAPE_FLOOR)
    assert np.isnan(alone[noise]).all()
    assert np.isnan(alone[~noise]).any() if cap == 4 else np.isfinite(alone[~noise]).all()


def test_gamma_shape_agrees_with_mpmath():
    mpmath = pytest.importorskip("mpmath")
    s = np.exp(np.linspace(math.log(1e-2), math.log(1e6), 61))
    k = fit._shape_from_s(s)
    with mpmath.workdps(40):
        for si, ki in zip(s, k):
            root = mpmath.findroot(lambda x: mpmath.log(x) - mpmath.digamma(x) - si, ki)
            assert abs(ki / float(root) - 1.0) <= 1e-12, si


# ---------------------------------------------------------------------------
# quasi-Poisson


def test_quasipoisson_rate_exact():
    fr = fit_quasipoisson([3, 7, 5], [10.0, 20.0, 15.0])
    assert fr.mu_hat == pytest.approx(15.0 / 45.0, rel=1e-15)
    assert fr.mu_hat * fr.exposure_total == pytest.approx(15.0, rel=1e-14)


def test_quasipoisson_no_events():
    with pytest.raises(InsufficientDataError):
        fit_quasipoisson([0, 0], [1.0, 1.0])


def test_quasipoisson_degenerate_dispersion_floor():
    fr = fit_quasipoisson([2, 4, 6], [1.0, 2.0, 3.0])
    assert fr.mu_hat == pytest.approx(2.0)
    assert 0 < fr.phi_hat <= 1e-8


def test_quasipoisson_phi_matches_formula_oracle():
    gen = np.random.default_rng(8)
    e = gen.uniform(5, 15, size=12)
    x = gen.negative_binomial(5, 5 / (5 + 2.0 * e)).astype(float)
    x[x == 0] = 1.0
    fr = fit_quasipoisson(x, e)
    lam = x.sum() / e.sum()
    mu = lam * e
    dev = 2.0 * np.sum(x * np.log(x / mu) - (x - mu))
    assert fr.phi_hat == pytest.approx(dev / (x.size - 1), abs=1e-10)
    assert fr.dispersion_scale == pytest.approx(math.sqrt(dev / (x.size - 1)))


@pytest.mark.parametrize("hess, cause", [
    (-10.0, "iteration 200: no convergence in 200 iterations"),   # steps of 0.1x
    (0.0, "iteration 1: singular Hessian"),
    (1.0, "iteration 1: 30 step halvings"),   # every step moves away from 0
])
def test_newton_names_why_it_stopped(hess, cause):
    # loglik -x^2/2, maximal at x = 0, with a wrong constant Hessian
    def f(theta):
        return -0.5 * float(theta @ theta), -theta, np.array([[hess]])

    with pytest.raises(NonConvergenceError, match=cause + ".*score norm"):
        fit._newton(f, np.array([1.0]), 1e-10)


# ---------------------------------------------------------------------------
# binomial logit


def test_binomial_balanced_table():
    y = [1] * 8 + [0] * 8 + [1] * 8 + [0] * 8
    trt = [1] * 16 + [0] * 16
    fr = fit_binomial_logit(y, trt)
    assert fr.mu_hat == pytest.approx(0.0, abs=1e-14)
    assert fr.se_g_mu_model == pytest.approx(math.sqrt(4 / 8))


def test_binomial_closed_form_cells():
    a, b, c, d = 15, 45, 6, 34
    y = [1] * a + [0] * b + [1] * c + [0] * d
    trt = [1] * (a + b) + [0] * (c + d)
    fr = fit_binomial_logit(y, trt)
    assert fr.mu_hat == pytest.approx(math.log(a * d / (b * c)), rel=1e-12)
    assert fr.se_g_mu_model == pytest.approx(
        math.sqrt(1 / a + 1 / b + 1 / c + 1 / d), rel=1e-12)


def test_binomial_wald_ci_consistency():
    y = [1] * 15 + [0] * 45 + [1] * 6 + [0] * 34
    trt = [1] * 60 + [0] * 40
    fr = fit_binomial_logit(y, trt)
    lo, hi = fr.ci_mu(0.95, crit="z")
    z = stats.norm.ppf(0.975)
    assert lo == pytest.approx(fr.mu_hat - z * fr.se_g_mu_model)
    assert hi == pytest.approx(fr.mu_hat + z * fr.se_g_mu_model)


def test_binomial_separation():
    y = [1] * 10 + [0] * 5 + [0] * 10
    trt = [1] * 15 + [0] * 10
    with pytest.raises(SeparationError):
        fit_binomial_logit(y, trt)
    fr = fit_binomial_logit(y, trt, continuity=True)
    assert math.isfinite(fr.mu_hat)


def test_binomial_one_arm_missing():
    with pytest.raises(InsufficientDataError):
        fit_binomial_logit([1, 0, 1], [1, 1, 1])


def test_binomial_outcomes_must_be_binary():
    # without its odd fifth row each 2x2 table has no zero cell
    for y, trt in (([1, 0, 1, 0, 2, 1, 0], [1, 1, 0, 0, 1, 1, 0]),
                   ([1, 0, 1, 0, 1, 1, 0], [1, 1, 0, 0, 2, 1, 0]),
                   ([1, 0, 1, 0, 0.5, 1, 0], [1, 1, 0, 0, 1, 1, 0])):
        with pytest.raises(FitError, match="0 or 1"):
            fit_binomial_logit(y, trt)


# ---------------------------------------------------------------------------
# Weibull with censoring


def weibull_censored_sample(n=500, k=1.5, lam=10.0, cens=12.0, seed=10):
    t = dist.sample(dist.weibull(k, lam), RngStream(seed), n)
    event = t <= cens
    return [SurvivalSample(min(ti, cens), bool(ev)) for ti, ev in zip(t, event)]


def censored_loglik(params, data):
    lam, k = params
    ll = 0.0
    for s in data:
        z = (s.time / lam) ** k
        if s.event:
            ll += math.log(k / lam) + (k - 1) * math.log(s.time / lam) - z
        else:
            ll += -z
    return ll


def test_weibull_uncensored_k1_is_exponential_mean():
    gen = np.random.default_rng(11)
    t = gen.exponential(5.0, size=2000)
    data = [SurvivalSample(ti, True) for ti in t]
    fr = fit_weibull_censored(data)
    # shape near 1 and mean near the sample mean for exponential data
    assert fr.k_hat == pytest.approx(1.0, abs=0.06)
    assert fr.mu_hat == pytest.approx(t.mean(), rel=0.02)


def test_weibull_vs_grid_polish_oracle():
    data = weibull_censored_sample()
    fr = fit_weibull_censored(data)
    res = optimize.minimize(lambda p: -censored_loglik(p, data),
                            x0=[8.0, 1.2], method="Nelder-Mead",
                            options={"xatol": 1e-9, "fatol": 1e-12,
                                     "maxiter": 5000})
    lam_o, k_o = res.x
    assert fr.lam_hat == pytest.approx(lam_o, abs=1e-5)
    assert fr.k_hat == pytest.approx(k_o, abs=1e-5)
    assert fr.mu_hat == pytest.approx(lam_o * special.gamma(1 + 1 / k_o), rel=1e-5)


def test_weibull_hessian_matches_numeric():
    from tolpred.fit import _weibull_score_hessian
    data = weibull_censored_sample(n=200, seed=12)
    t = np.array([s.time for s in data])
    ev = np.array([1.0 if s.event else 0.0 for s in data])
    fr = fit_weibull_censored(data)
    a, b = math.log(fr.lam_hat), math.log(fr.k_hat)
    _, grad, hess = _weibull_score_hessian(a, b, t, ev)
    assert np.linalg.norm(grad) < 1e-8
    h = 1e-5
    num = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            pp = [a, b]
            pp[i] += h
            pm = [a, b]
            pm[i] -= h
            gp = _weibull_score_hessian(pp[0], pp[1], t, ev)[1][j]
            gm = _weibull_score_hessian(pm[0], pm[1], t, ev)[1][j]
            num[i, j] = (gp - gm) / (2 * h)
    assert_allclose(num, hess, rtol=1e-4, atol=1e-4)


def test_weibull_all_censored():
    with pytest.raises(InsufficientDataError):
        fit_weibull_censored([SurvivalSample(1.0, False)] * 10)


def test_survival_sample_positive_time():
    with pytest.raises(FitError):
        SurvivalSample(0.0, True)


# ---------------------------------------------------------------------------
# Kaplan-Meier


def test_km_single_event():
    km = km_estimator([SurvivalSample(1.0, True)])
    assert km(0.5) == 1.0
    assert km(1.0) == 0.0


def test_km_all_censored():
    km = km_estimator([SurvivalSample(t, False) for t in (1.0, 2.0, 3.0)])
    assert km(10.0) == 1.0


def test_km_uncensored_equals_one_minus_ecdf():
    t = np.array([3.0, 1.0, 4.0, 1.5, 2.0])
    km = km_estimator([SurvivalSample(ti, True) for ti in t])
    grid = np.array([0.5, 1.0, 1.7, 2.5, 3.5, 4.0])
    ecdf = np.array([(t <= g).mean() for g in grid])
    assert_allclose(km(grid), 1 - ecdf, atol=1e-14)


def test_km_hand_computed_fixture():
    # events at 2 (of 6 at risk), 4 (of 4 at risk), 5 (of 2 at risk);
    # censored at 3 and 6; two subjects share t=5 (one event, one censored)
    data = [SurvivalSample(2.0, True), SurvivalSample(3.0, False),
            SurvivalSample(4.0, True), SurvivalSample(5.0, True),
            SurvivalSample(5.0, False), SurvivalSample(6.0, False)]
    km = km_estimator(data)
    assert km(2.0) == pytest.approx(5 / 6)
    assert km(4.0) == pytest.approx(5 / 6 * 3 / 4)
    assert km(5.0) == pytest.approx(5 / 6 * 3 / 4 * 2 / 3)


def test_km_hand_computed_tied_events():
    # two events at 1 (of 6 at risk), one at 3 (of 3 at risk), and at 4 one
    # event and one censoring (of 2 at risk); censored at 2
    data = [SurvivalSample(1.0, True), SurvivalSample(2.0, False),
            SurvivalSample(1.0, True), SurvivalSample(4.0, False),
            SurvivalSample(3.0, True), SurvivalSample(4.0, True)]
    km = km_estimator(data)
    assert_allclose(km.times, [1.0, 3.0, 4.0], rtol=0)
    assert km(1.0) == pytest.approx(4 / 6)
    assert km(2.5) == pytest.approx(4 / 6)
    assert km(3.0) == pytest.approx(4 / 6 * 2 / 3)
    assert km(4.0) == pytest.approx(4 / 6 * 2 / 3 * 1 / 2)


def test_km_equals_the_product_limit_loop():
    # the loop the one-pass estimator replaced, as the reference: rounded
    # times give tied events and censorings; the arithmetic is the same,
    # so the survival values are equal, not close
    gen = np.random.default_rng(5)
    for _ in range(50):
        n = int(gen.integers(1, 60))
        t = np.round(gen.exponential(5.0, n), 1) + 1.0
        ev = gen.random(n) < 0.6
        km = km_estimator([SurvivalSample(float(a), bool(b)) for a, b in zip(t, ev)])
        times, surv, s = np.unique(t[ev]), [], 1.0
        for et in times:
            s *= 1.0 - float(np.sum((t == et) & ev)) / float(np.sum(t >= et))
            surv.append(s)
        np.testing.assert_array_equal(km.times, times)
        np.testing.assert_array_equal(km.survival, np.asarray(surv, dtype=float))


def test_km_empty():
    with pytest.raises(InsufficientDataError):
        km_estimator([])


# ---------------------------------------------------------------------------
# profile likelihood-ratio CI


def test_profile_ci_matches_deviance_at_endpoints():
    y = gamma_sample(30, seed=13)
    fr = fit_gamma_intercept(y)
    target = stats.chi2.ppf(0.95, 1)
    for param in ("mu", "k"):
        lo, hi = profile_lr_ci(fr, param, 0.95)
        center = fr.mu_hat if param == "mu" else fr.k_hat
        assert lo < center < hi
        deviance = fit._profile_deviance(y, fr.mu_hat, fr.k_hat)
        for endpoint in (lo, hi):
            if param == "mu":
                dev = deviance(endpoint, None)
            else:
                dev = deviance(None, endpoint)
            assert dev == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("n, k, seed", [(8, 0.5, 21), (30, 4.0, 22), (200, 1.5, 23)])
def test_k_profile_matches_independent_maximizer(n, k, seed):
    y = gamma_sample(n, seed=seed, k=k)
    fr = fit_gamma_intercept(y)

    def loglik(mu, kk):
        return np.sum(kk * np.log(kk / mu) - special.gammaln(kk)
                      + (kk - 1) * np.log(y) - kk * y / mu)

    lmax = loglik(fr.mu_hat, fr.k_hat)
    for mu in fr.mu_hat * np.array([0.5, 0.8, 0.97, 1.03, 1.3, 2.0]):
        res = optimize.minimize_scalar(lambda logk: -loglik(mu, math.exp(logk)),
                                       bounds=(math.log(fr.k_hat) - 6, math.log(fr.k_hat) + 6),
                                       method="bounded", options={"xatol": 1e-12})
        want = 2.0 * (lmax + res.fun)
        got = fit._profile_deviance(y, fr.mu_hat, fr.k_hat)(mu, None)
        assert got == pytest.approx(want, abs=1e-9)


def test_k_profile_at_the_fitted_mean_is_the_fit():
    gen = np.random.default_rng(24)
    for _ in range(300):
        y = gen.gamma(gen.uniform(0.3, 5.0), 1.0, size=int(gen.integers(5, 61)))
        fr = fit_gamma_intercept(y)
        mu = fr.mu_hat
        s = np.log(mu) - np.log(y).mean() + (y.mean() / mu - 1.0)
        assert fit._shape_from_s(s) == pytest.approx(fr.k_hat, abs=1e-12)
        assert fit._profile_deviance(y, mu, fr.k_hat)(mu, None) == pytest.approx(0.0, abs=1e-12)


def test_profile_ci_collapses_at_zero_level():
    y = gamma_sample(25, seed=14)
    fr = fit_gamma_intercept(y)
    lo, hi = profile_lr_ci(fr, "mu", 1e-13)
    assert lo == pytest.approx(fr.mu_hat)
    assert hi == pytest.approx(fr.mu_hat)


def test_profile_ci_close_to_wald_large_n():
    y = gamma_sample(10 ** 4, seed=15)
    fr = fit_gamma_intercept(y)
    lo, hi = profile_lr_ci(fr, "mu", 0.95)
    wlo, whi = fr.ci_mu(0.95, se_kind="model", crit="z")
    assert lo == pytest.approx(wlo, rel=0.02)
    assert hi == pytest.approx(whi, rel=0.02)


@pytest.mark.parametrize("c", [1e-13, 1e-9, 1e6])
def test_profile_ci_is_scale_equivariant(c):
    y = gamma_sample(20, seed=16)
    base, scaled = fit_gamma_intercept(y), fit_gamma_intercept(c * y)
    assert_allclose(profile_lr_ci(scaled, "mu", 0.95),
                    c * np.array(profile_lr_ci(base, "mu", 0.95)), rtol=1e-12)
    assert_allclose(profile_lr_ci(scaled, "k", 0.95), profile_lr_ci(base, "k", 0.95),
                    rtol=1e-12)


@pytest.mark.parametrize("level", [-0.5, 1.0, 1.5, math.nan])
def test_profile_ci_rejects_a_level_outside_0_1(level):
    fr = fit_gamma_intercept(gamma_sample(20, seed=17))
    for param in ("mu", "k"):
        with pytest.raises(ValueError, match="level must be in"):
            profile_lr_ci(fr, param, level)


def _bracketed_reference(fr, param, level):
    # steps of 0.5, 0.8, 1.28, ... out from u = log(x / center) = 0 until the
    # deviance exceeds the target, then brentq to 1e-12 in u
    center = fr.mu_hat if param == "mu" else fr.k_hat
    profile = fit._profile(fr.data[0], fr.mu_hat, fr.k_hat, param)
    target = 2 * special.gammaincinv(0.5, level)
    dev = lambda u: float(profile(center * np.exp(u))[0]) - target
    limits = []
    for side in (-1, 1):
        u, step = 0.0, 0.5
        while dev(u + side * step) <= 0:
            u, step = u + side * step, step * 1.6
        limits.append(center * math.exp(optimize.brentq(
            dev, *sorted((u, u + side * step)), xtol=1e-12)))
    return limits


def test_profile_ci_newton_matches_the_bracketed_path():
    gen = np.random.default_rng(25)
    for _ in range(200):
        k = math.exp(gen.uniform(math.log(0.1), math.log(100.0)))
        y = gen.gamma(k, math.exp(gen.uniform(-3, 3)) / k, size=int(gen.integers(3, 201)))
        fr = fit_gamma_intercept(y)
        for param in ("mu", "k"):
            for level in (0.8, 0.95, 0.99):
                assert_allclose(profile_lr_ci(fr, param, level),
                                _bracketed_reference(fr, param, level), rtol=1e-9)


def test_profile_ci_falls_back_to_brackets_near_level_0():
    fr = fit_gamma_intercept(gamma_sample(20, seed=18))
    for param, center in (("mu", fr.mu_hat), ("k", fr.k_hat)):
        lo, hi = profile_lr_ci(fr, param, 1e-6)
        assert math.isfinite(lo) and math.isfinite(hi) and lo < center < hi


def test_profile_ci_closes_limits_below_the_deviance_rounding():
    # at these levels the target lies below the rounding error of the
    # deviance, which reads 0 near the center, so Newton steps from the Wald
    # limits only creep outward; each limit still closes, around the center
    gen = np.random.default_rng(7)
    for _ in range(100):
        k = math.exp(gen.uniform(math.log(0.05), math.log(200)))
        y = gen.gamma(k, math.exp(gen.uniform(-3, 3)) / k,
                      size=round(math.exp(gen.uniform(math.log(2), math.log(1000)))))
        fr = fit_gamma_intercept(y)
        for level in (1e-11, 1e-9, 1e-6):
            for param, center in (("mu", fr.mu_hat), ("k", fr.k_hat)):
                lo, hi = profile_lr_ci(fr, param, level)
                assert lo < center < hi


def test_profile_ci_solves_a_stress_corpus():
    # n log-uniform in 2-1000, k in 0.05-200, mu in e^-3..e^3, the six
    # levels in turn: every limit is finite, on its side of the center, and
    # at the target to the deviance's rounding floor
    gen = np.random.default_rng(2026)
    for case in range(600):
        n = round(math.exp(gen.uniform(math.log(2), math.log(1000))))
        k, mu = math.exp(gen.uniform(math.log(0.05), math.log(200))), math.exp(gen.uniform(-3, 3))
        level = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)[case % 6]
        fr = fit_gamma_intercept(gen.gamma(k, mu / k, size=n))
        target = 2 * special.gammaincinv(0.5, level)
        deviance = fit._profile_deviance(fr.data[0], fr.mu_hat, fr.k_hat)
        for param, center in (("mu", fr.mu_hat), ("k", fr.k_hat)):
            lo, hi = profile_lr_ci(fr, param, level)
            assert lo < center < hi
            for limit in (lo, hi):
                dev = deviance(limit, None) if param == "mu" else deviance(None, limit)
                assert abs(dev - target) <= 1e-8 * target


@pytest.mark.parametrize("seed", range(1, 6))
def test_profile_ci_mu_takes_a_few_shape_solves(monkeypatch, seed):
    fr = fit_gamma_intercept(gamma_sample(20, seed=seed, k=4))
    calls = []
    shape_from_s = fit._shape_from_s
    monkeypatch.setattr(fit, "_shape_from_s", lambda s: calls.append(s) or shape_from_s(s))
    profile_lr_ci(fr, "mu", 0.95)
    assert len(calls) <= 6
