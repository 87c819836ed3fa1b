import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from tolpred import applications, dist, intervals
from tolpred.dist import RngStream
from tolpred.fit import (FitResult, SurvivalSample, fit_binomial_logit, fit_gamma_intercept,
                         fit_gamma_rows, fit_quasipoisson, fit_weibull_censored, link_limit)
from tolpred.intervals import (IntervalEstimate, PredictionTarget,
                               normal_approx_prediction, normal_approx_tolerance,
                               normal_exact_prediction, normal_exact_tolerance,
                               predict_count_kris, predict_count_plugci,
                               predict_or_from, predict_sum_fpivot,
                               predict_sum_link, predict_sum_link_from,
                               predict_sum_plugci, predict_sum_plugci_gamma,
                               predict_sum_plugin, se_from_ci, tolerance_delta,
                               tolerance_nct, tolerance_plugci)


def gamma_fit(n=20, seed=1, k=4.0, mu=2.5):
    y = dist.sample(dist.gamma(k, mu / k), RngStream(seed), n)
    return fit_gamma_intercept(y)


# ---------------------------------------------------------------------------
# value objects


def test_interval_ordering_enforced():
    with pytest.raises(ValueError):
        IntervalEstimate(2.0, 1.0, 0.95, "m", "t")
    for lo, hi in ((math.nan, 1.0), (1.0, np.float64("nan")), (math.nan, math.nan)):
        with pytest.raises(FloatingPointError):
            IntervalEstimate(lo, hi, 0.95, "m", "t")
    # per-run arrays keep their failed (NaN) rows for the lab to mask
    iv = IntervalEstimate(np.array([1.0, math.nan]), np.array([2.0, math.nan]),
                          0.95, "m", "t")
    assert np.isnan(iv.lower[1])


def test_interval_rounding():
    iv = IntervalEstimate(209.7, 367.1, 0.95, "m", "future_sum")
    assert iv.rounded() == (209, 368)


def test_target_validation():
    with pytest.raises(ValueError):
        PredictionTarget(1, 10)
    with pytest.raises(ValueError):
        PredictionTarget(5, 0)


def test_se_from_ci_sides():
    # asymmetric-on-log-scale reported CI: sides give different SEs
    lo = se_from_ci(2.61, 2.13, 3.19, crit="z", side="lower")
    hi = se_from_ci(2.61, 2.13, 3.19, crit="z", side="upper")
    sym = se_from_ci(2.61, 2.13, 3.19, crit="z", side="symmetric")
    assert lo == pytest.approx(0.1037, abs=2e-4)
    assert min(lo, hi) < sym < max(lo, hi)
    t_se = se_from_ci(3.75, 1.03, 14.05, crit="t", df=99, side="upper")
    assert t_se == pytest.approx(0.6657, abs=2e-4)


@pytest.mark.parametrize("bad", ["tee", "student", "Z", "", "sandwitch"])
@pytest.mark.parametrize("call", [
    lambda bad: dist.critical_value(0.95, bad, 5),
    lambda bad: se_from_ci(2.0, 1.0, 4.0, crit=bad, df=5),
    lambda bad: gamma_fit().se_g_mu(bad),
    lambda bad: intervals.METHODS["eq2"].build(gamma_fit(), 0.95, 10, None, bad, "z"),
    lambda bad: intervals.METHODS["eq2"].build(gamma_fit(), 0.95, 10, None, "model", bad),
], ids=["critical_value", "se_from_ci", "se_g_mu", "build_se_kind", "build_crit"])
def test_unknown_convention_strings_raise(call, bad):
    # an unknown crit or SE kind names the accepted values instead of
    # falling back to z or the model SE
    with pytest.raises(ValueError, match=r"must be '(z' or 't|model' or 'sandwich)', got"):
        call(bad)


@pytest.mark.parametrize("bad", ["lgo", "Log", "logit", ""])
@pytest.mark.parametrize("call", [
    lambda bad: se_from_ci(2.0, 1.0, 4.0, link=bad),
    lambda bad: link_limit(2.0, 0.5, bad),
], ids=["se_from_ci", "link_limit"])
def test_unknown_link_raises(call, bad):
    # before: any link other than 'log' was taken as the identity link
    with pytest.raises(ValueError, match=r"link must be 'log' or 'identity', got"):
        call(bad)


@pytest.mark.parametrize("bad", ["lowr", "Lower", "both", ""])
def test_unknown_ci_side_raises(bad):
    # before: any side other than 'lower'/'upper' was taken as 'symmetric'
    with pytest.raises(ValueError, match=r"side must be 'lower', 'upper' or 'symmetric', got"):
        se_from_ci(2.0, 1.0, 4.0, side=bad)


@pytest.mark.parametrize("call", [
    lambda fit: intervals.METHODS["eq2"].pvalue(fit, 10, "model"),
    lambda fit: intervals.METHODS["eq2"].build(fit, 0.95, 10, None, "model", "z"),
    lambda fit: intervals.METHODS["eq2"].ends(fit, 0.95, 10, None, "model", "z"),
], ids=["pvalue", "build", "ends"])
def test_plugci_checks_the_family_before_the_mean_limits(call):
    # a binomial-logit fit is named as the unsupported family, and a fit
    # whose link no mean limit has is never asked for one
    trt = np.r_[np.ones(60), np.zeros(40)]
    binomial = fit_binomial_logit(np.r_[np.ones(15), np.zeros(45), np.ones(6), np.zeros(34)], trt)
    with pytest.raises(ValueError, match="no sum distribution for family 'binomial_logit'"):
        call(binomial)
    weibull = replace(gamma_fit(), family="weibull", link="lgo")
    with pytest.raises(ValueError, match="no sum distribution for family 'weibull'"):
        call(weibull)


def test_t_critical_value_needs_df():
    for call in (lambda: dist.critical_value(0.95, "t"),
                 lambda: se_from_ci(2.0, 1.0, 4.0, crit="t")):
        with pytest.raises(ValueError, match="degrees of freedom"):
            call()


# ---------------------------------------------------------------------------
# normal theory


def test_normal_exact_prediction_arithmetic():
    iv = normal_exact_prediction(0.0, 1.0, 20, 0.95)
    t19 = stats.t.ppf(0.975, 19)
    assert t19 == pytest.approx(2.0930, abs=1e-4)
    assert iv.upper == pytest.approx(t19 * math.sqrt(1.05), abs=1e-9)
    assert iv.lower == pytest.approx(-iv.upper)


def test_normal_exact_prediction_known_sigma_limit():
    iv = normal_exact_prediction(0.0, 1.0, 10 ** 6, 0.95, sigma_known=1.0)
    assert iv.width == pytest.approx(2 * stats.norm.ppf(0.975), abs=1e-3)


def test_normal_exact_prediction_coverage():
    gen = np.random.default_rng(21)
    n, reps = 15, 10 ** 4
    y = gen.normal(size=(reps, n))
    future = gen.normal(size=reps)
    ybar, s = y.mean(axis=1), y.std(axis=1, ddof=1)
    half = stats.t.ppf(0.975, n - 1) * s * math.sqrt(1 / n + 1)
    cover = np.mean((ybar - half <= future) & (future <= ybar + half))
    assert abs(cover - 0.95) < 3 * math.sqrt(0.95 * 0.05 / reps)


def test_normal_tolerance_central_reduction():
    # nu = 0: noncentral quantile equals the central t quantile
    iv = normal_exact_tolerance(0.0, 1.0, 20, 1e-12, 0.95)
    assert iv.lower == pytest.approx(stats.t.ppf(0.025, 19) / math.sqrt(20), abs=1e-6)


def test_normal_tolerance_mc_coverage():
    gen = np.random.default_rng(22)
    n, reps, p = 20, 4000, 0.90
    q_lo, q_hi = stats.norm.ppf([(1 - p) / 2, (1 + p) / 2])
    y = gen.normal(size=(reps, n))
    ybar, s = y.mean(axis=1), y.std(axis=1, ddof=1)
    nct_lo = stats.nct.ppf(0.025, n - 1, stats.norm.ppf((1 - p) / 2) * math.sqrt(n))
    nct_hi = stats.nct.ppf(0.975, n - 1, stats.norm.ppf((1 + p) / 2) * math.sqrt(n))
    lo = ybar + nct_lo * s / math.sqrt(n)
    hi = ybar + nct_hi * s / math.sqrt(n)
    cover = np.mean((lo <= q_lo) & (q_hi <= hi))
    assert abs(cover - 0.95) < 3 * math.sqrt(0.95 * 0.05 / reps)
    # spot-check the constructor agrees with the direct formula
    iv = normal_exact_tolerance(float(ybar[0]), float(s[0]), n, p, 0.95)
    assert iv.lower == pytest.approx(float(lo[0]))
    assert iv.upper == pytest.approx(float(hi[0]))


def test_normal_one_sided_tolerance():
    iv = normal_exact_tolerance(0.0, 1.0, 25, 0.9, 0.95, sided="upper")
    assert iv.lower == -math.inf
    # one-sided upper limit exceeds the plug-in percentile
    assert iv.upper > stats.norm.ppf(0.9)


def test_normal_one_sided_lower_tolerance_mirrors_the_upper():
    upper = normal_exact_tolerance(10.0, 2.0, 25, 0.9, 0.95, sided="upper")
    lower = normal_exact_tolerance(10.0, 2.0, 25, 0.9, 0.95, sided="lower")
    assert lower.upper == math.inf and lower.target == "population_percentile"
    assert 10.0 - lower.lower == pytest.approx(upper.upper - 10.0, rel=1e-14)
    # the tabulated one-sided factor for n 25, p 0.9 at 95% confidence
    assert (10.0 - lower.lower) / 2.0 == pytest.approx(1.838, abs=5e-4)


def test_normal_approx_wider_than_exact():
    # algebraic identity behind the conservativeness claim
    for n in (1, 2, 5, 20, 100, 10 ** 6):
        assert (1 / math.sqrt(n) + 1) / math.sqrt(1 / n + 1) > 1.0
    # constructor comparison (mean CI uses t, future term uses z, so the
    # identity kicks in once the t quantile has settled down)
    for n in (5, 20, 100, 10 ** 6):
        exact = normal_exact_prediction(0.0, 1.0, n, 0.95)
        approx = normal_approx_prediction(0.0, 1.0, n, 0.95)
        ratio = approx.width / exact.width
        assert ratio > 1.0
        if n == 10 ** 6:
            assert ratio < 1.001


def test_normal_approx_tolerance_conservative():
    gen = np.random.default_rng(23)
    n, reps, p = 20, 4000, 0.90
    q_lo, q_hi = stats.norm.ppf([(1 - p) / 2, (1 + p) / 2])
    covered = 0
    y = gen.normal(size=(reps, n))
    for row in y:
        iv = normal_approx_tolerance(float(row.mean()), float(row.std(ddof=1)),
                                     n, p, 0.95)
        covered += iv.lower <= q_lo and q_hi <= iv.upper
    assert covered / reps >= 0.95 - 1e-9


# ---------------------------------------------------------------------------
# sum prediction, worked numbers


def test_link_pivot_worked_numbers():
    se = se_from_ci(2.61, 2.13, 3.19, crit="z", side="lower")
    iv = predict_sum_link_from(2.61, se, 20, 280, 0.95)
    assert iv.lower == pytest.approx(583, abs=1)
    assert iv.upper == pytest.approx(914, abs=1)


def test_plugci_worked_numbers():
    iv = predict_sum_plugci_gamma(2.13, 3.19, 5.22, 280, 0.95)
    assert iv.lower == pytest.approx(566, abs=1)
    assert iv.upper == pytest.approx(940, abs=1)


def test_plugci_count_worked_numbers():
    iv = predict_count_plugci(2.20 * 104.29, 3.28 * 104.29, 0.46, 0.95)
    assert iv.lower == pytest.approx(210, abs=1)
    assert iv.upper == pytest.approx(367, abs=1)


def test_plugci_rejects_mean_limit_at_or_below_zero():
    # an identity-link Wald mean limit can reach 0 or below, where no sum
    # distribution exists, and so can the identity link pivot's lower limit;
    # the log-link fit of the same data stays positive
    y = np.array([0.2, 3.0, 0.5])
    events, exposure = np.array([0, 9, 0]), np.ones(3)
    for link in ("identity", "log"):
        fr = fit_gamma_intercept(y, link=link)
        qp = fit_quasipoisson(events, exposure, link=link)
        calls = (lambda: predict_sum_plugci(fr, PredictionTarget(3, 5), 0.95),
                 lambda: tolerance_plugci(fr, 0.5, 0.95, 5),
                 lambda: predict_sum_plugci(qp, PredictionTarget(3, 1), 0.95),
                 lambda: predict_sum_link(fr, PredictionTarget(3, 5), 0.95),
                 lambda: predict_sum_link(qp, PredictionTarget(3, 5), 0.95))
        for call in calls:
            if link == "log":
                assert 0 < call().lower
            else:
                with pytest.raises(intervals.UnsupportedTargetError, match="log link"):
                    call()
    for build in (lambda lo: predict_count_plugci(lo, 5.0, 0.46, 0.95),
                  lambda lo: predict_sum_plugci_gamma(lo, 3.0, 5.22, 280, 0.95)):
        for lo in (0.0, -0.1):
            with pytest.raises(intervals.UnsupportedTargetError):
                build(lo)
    with pytest.raises(intervals.UnsupportedTargetError, match="log link"):
        predict_sum_link_from(0.1, 1.0, 10, 10, 0.95, "identity")


def test_plugci_tolerance_needs_a_shape_estimate():
    qp = fit_quasipoisson([3, 7, 5], [10.0, 20.0, 15.0])
    with pytest.raises(intervals.UnsupportedTargetError, match="no shape estimate"):
        tolerance_plugci(qp, 0.5, 0.95, 5)


@pytest.mark.xfail(strict=True, reason=(
    "eq5 puts both ends at the lower shape limit, and the upper quantile of "
    "Gamma(a, mu/k) at a fixed mean is not monotone in k at small a: here its "
    "upper end falls from 0.038004 at level 0.9 to 0.035240 at 0.99"))
def test_plugci_tolerance_nests_in_the_level():
    # a higher level's interval contains the lower level's
    fr = fit_gamma_intercept(np.random.default_rng(0).gamma(0.1, 1.0, 20))
    low, high = (tolerance_plugci(fr, 0.5, level, 1) for level in (0.9, 0.99))
    assert high.lower <= low.lower * (1 + 1e-12) and low.upper <= high.upper * (1 + 1e-12)


def test_count_link_pivot_sqrt2():
    events = np.array([2, 3, 4, 2, 3, 2, 4])
    exposure = np.full(7, 104.29 / 7)
    fr = fit_quasipoisson(events, exposure)
    iv = predict_sum_link(fr, PredictionTarget(7, 104.29), 0.95,
                          se_kind="model")
    lam_tot = fr.mu_hat * 104.29
    z = stats.norm.ppf(0.975)
    expected = lam_tot * math.exp(z * math.sqrt(2) * fr.se_g_mu_model)
    assert iv.upper == pytest.approx(expected, rel=1e-12)
    # scaled variant coincides when observed and future exposures match
    iv2 = predict_sum_link(fr, PredictionTarget(7, 104.29), 0.95,
                           se_kind="model", variance="scaled")
    assert iv2.upper == pytest.approx(iv.upper, rel=1e-12)


def test_link_pivot_future_limit():
    # as the future share vanishes, width/(N-n) approaches the t CI width
    fr = gamma_fit()
    se = fr.se_g_mu_sandwich
    t = stats.t.ppf(0.975, fr.n_obs - 1)
    iv = predict_sum_link(fr, PredictionTarget(fr.n_obs, 10 ** 8), 0.95)
    log_half = math.log(iv.upper / (10 ** 8 * fr.mu_hat))
    assert log_half == pytest.approx(t * se, rel=1e-3)


def test_plugci_degenerate_ci_equals_plugin():
    fr = gamma_fit()
    tgt = PredictionTarget(fr.n_obs, 280)
    plug = predict_sum_plugin(fr, tgt, 0.95)
    degen = predict_sum_plugci_gamma(fr.mu_hat, fr.mu_hat, fr.k_hat, 280, 0.95)
    assert degen.lower == pytest.approx(plug.lower, rel=1e-12)
    assert degen.upper == pytest.approx(plug.upper, rel=1e-12)


def test_plugci_contains_plugin():
    fr = gamma_fit(seed=31)
    tgt = PredictionTarget(fr.n_obs, 280)
    plug = predict_sum_plugin(fr, tgt, 0.95)
    eq2 = predict_sum_plugci(fr, tgt, 0.95)
    assert eq2.lower <= plug.lower
    assert eq2.upper >= plug.upper


def test_point_prediction_centering():
    fr = gamma_fit(seed=32)
    tgt = PredictionTarget(fr.n_obs, 280)
    point = 280 * fr.mu_hat
    for iv in (predict_sum_link(fr, tgt, 0.95),
               predict_sum_plugci(fr, tgt, 0.95),
               predict_sum_plugin(fr, tgt, 0.95),
               predict_sum_fpivot(fr.mu_hat, fr.n_obs, 280, fr.k_hat, 0.95)):
        assert iv.lower <= point <= iv.upper


def test_fpivot_exact_coverage_exponential():
    reps, n, N = 10 ** 4, 20, 300
    gen = np.random.default_rng(33)
    y = gen.exponential(2.5, size=(reps, n))
    future = gen.gamma(N - n, 2.5, size=reps)
    ybar = y.mean(axis=1)
    f_lo = stats.f.ppf(0.025, 2 * (N - n), 2 * n)
    f_hi = stats.f.ppf(0.975, 2 * (N - n), 2 * n)
    cover = np.mean(((N - n) * ybar * f_lo <= future)
                    & (future <= (N - n) * ybar * f_hi))
    assert abs(cover - 0.95) < 3 * math.sqrt(0.95 * 0.05 / reps)


def test_fpivot_collapses_at_level_zero():
    fr = gamma_fit()
    iv = predict_sum_fpivot(fr.mu_hat, fr.n_obs, 280, 1.0, 1e-9)
    med = 280 * fr.mu_hat * stats.f.ppf(0.5, 2 * 280, 2 * fr.n_obs)
    assert iv.lower == pytest.approx(med, rel=1e-4)
    assert iv.upper == pytest.approx(med, rel=1e-4)


@pytest.mark.parametrize("n_future, k", [(280, 4.0), (280, 1.0), (1, 1.0)])
@pytest.mark.parametrize("level", [1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
def test_fpivot_upper_end_keeps_its_tail_at_extreme_levels(n_future, k, level):
    # at (d1, d2) = (2240, 160), (560, 40) and (2, 40) the upper tail of F
    # beyond the upper end is alpha/2 itself: 1 - alpha/2 is never rounded
    iv = predict_sum_fpivot(1.0, 20, n_future, k, level)
    tail = special.fdtrc(2 * n_future * k, 2 * 20 * k, iv.upper / n_future)
    assert tail == pytest.approx((1 - level) / 2, rel=1e-12, abs=0)


def test_plugin_level_zero_is_median():
    fr = gamma_fit()
    iv = predict_sum_plugin(fr, PredictionTarget(fr.n_obs, 280), 1e-12)
    med = stats.gamma.ppf(0.5, 280 * fr.k_hat, scale=fr.mu_hat / fr.k_hat)
    assert iv.lower == pytest.approx(med, rel=1e-6)


# ---------------------------------------------------------------------------
# tolerance intervals


def test_delta_zero_variance_equals_plugin_percentiles():
    fr = gamma_fit(seed=34)
    frozen = FitResult(family="gamma", link="log", mu_hat=fr.mu_hat,
                       k_hat=fr.k_hat, se_mu=0.0, se_k=0.0, cov_mu_k=0.0,
                       se_g_mu_model=fr.se_g_mu_model,
                       se_g_mu_sandwich=fr.se_g_mu_sandwich, n_obs=fr.n_obs)
    iv = tolerance_delta(frozen, 0.5, 0.95, 280)
    assert iv.lower == pytest.approx(
        stats.gamma.ppf(0.25, 280 * fr.k_hat, scale=fr.mu_hat / fr.k_hat))
    assert iv.upper == pytest.approx(
        stats.gamma.ppf(0.75, 280 * fr.k_hat, scale=fr.mu_hat / fr.k_hat))


def test_delta_se_vs_bootstrap():
    fr = gamma_fit(n=100, seed=35)
    from tolpred.intervals import _delta_se, _sum_quantile
    prob, n_fut = 0.25, 200
    se_delta = _delta_se(fr, prob, n_fut)
    gen = np.random.default_rng(36)
    reps = 2000
    boot_q = np.empty(reps)
    for b in range(reps):
        yb = gen.gamma(fr.k_hat, fr.mu_hat / fr.k_hat, size=fr.n_obs)
        frb = fit_gamma_intercept(yb)
        boot_q[b] = _sum_quantile(frb, prob, n_fut)
    ratio = se_delta / boot_q.std(ddof=1)
    assert 0.9 < ratio < 1.1


MEMO_CALLS = [(name, level) for name in ("eq2", "plugin", "eq3", "eq5")
              for level in (0.8, 0.95)]


def _table_endpoints(fit, name, level):
    iv = intervals.METHODS[name].build(fit, level, 280, 0.5, "model", "t")
    return iv.lower, iv.upper


def test_memo_order_leaves_endpoints_bit_identical():
    y = dist.sample(dist.gamma(4.0, 2.5 / 4.0), RngStream(40), 50 * 20).reshape(50, 20)
    fresh = {call: _table_endpoints(fit_gamma_rows(y)[0], *call) for call in MEMO_CALLS}
    shared, _ = fit_gamma_rows(y)
    for call in reversed(MEMO_CALLS):
        np.testing.assert_array_equal(_table_endpoints(shared, *call), fresh[call])
    # eq2 and plugin share their quantiles, eq3 its quantiles and SEs
    assert len(shared._memo) == 2 * 2 + 2 * 2
    fit = fit_gamma_rows(y)[0]
    for level in (0.8, 0.95):
        mu_lo, mu_hi = fit.ci_mu(level, "model", "t")
        want = predict_sum_plugci_gamma(mu_lo, mu_hi, fit.k_hat, 280, level)
        np.testing.assert_array_equal(fresh[("eq2", level)], (want.lower, want.upper))


def test_replace_starts_an_empty_memo():
    fr = gamma_fit(seed=41)
    tolerance_delta(fr, 0.5, 0.95, 280)
    zero = replace(fr, se_mu=0.0, se_k=0.0)
    iv = tolerance_delta(zero, 0.5, 0.95, 280)
    assert (iv.lower, iv.upper) == (intervals._sum_quantile(fr, 0.25, 280),
                                    intervals._sum_quantile(fr, 0.75, 280))


def test_memo_is_invisible_to_equality_and_repr():
    fr = gamma_fit(seed=42)
    before = repr(fr)
    tolerance_delta(fr, 0.5, 0.95, 280)
    assert fr._memo
    assert fr == replace(fr)
    assert repr(fr) == before


def test_nct_tolerance_centered_and_ordered():
    fr = gamma_fit(n=100, seed=37)
    iv = tolerance_nct(fr, 0.5, 0.95, 200)
    assert iv.lower < 200 * fr.mu_hat < iv.upper


def test_nct_reduces_to_central_t():
    # at vanishing content the noncentralities vanish and the interval is the
    # central-t band around the point prediction
    fr = gamma_fit(seed=38)
    iv = tolerance_nct(fr, 1e-12, 0.95, 280)
    t = stats.t.ppf(0.975, fr.n_obs - 1)
    assert iv.upper - iv.lower == pytest.approx(2 * t * 280 * fr.se_mu, rel=1e-6)


def test_plugci_tolerance_monotone_in_k_lower():
    # a larger shape SE lowers the shape limit k_lower and nothing else
    fr = gamma_fit(seed=39)
    wide = tolerance_plugci(replace(fr, se_k=2 * fr.se_k), 0.5, 0.95, 280)
    narrow = tolerance_plugci(replace(fr, se_k=0.0), 0.5, 0.95, 280)
    assert wide.lower <= narrow.lower
    assert wide.upper >= narrow.upper


@pytest.mark.parametrize("crit", ["z", "t"])
def test_plugci_tolerance_shape_limit_at_crit(crit):
    # the lower shape limit uses the same critical value as the mean limits
    fr = gamma_fit(seed=41)
    q = 0.975
    c = stats.t.ppf(q, fr.n_obs - 1) if crit == "t" else stats.norm.ppf(q)
    got = tolerance_plugci(fr, 0.5, 0.95, 280, se_kind="model", crit=crit)
    k_lower = fr.k_hat * math.exp(-c * fr.se_k / fr.k_hat)
    mu_lo, mu_hi = fr.ci_mu(0.95, se_kind="model", crit=crit)
    want = stats.gamma.ppf([0.25, 0.75], 280 * k_lower, scale=[mu_lo / k_lower, mu_hi / k_lower])
    assert got.lower == pytest.approx(want[0], rel=1e-12)
    assert got.upper == pytest.approx(want[1], rel=1e-12)


def test_plugci_tolerance_degenerate_is_plugin_pair():
    # with zero SEs the mean limits are mu_hat and the shape limit k_hat
    fr = replace(gamma_fit(seed=40), se_g_mu_sandwich=0.0, se_k=0.0)
    iv = tolerance_plugci(fr, 0.5, 0.95, 280)
    assert iv.lower == pytest.approx(
        stats.gamma.ppf(0.25, 280 * fr.k_hat, scale=fr.mu_hat / fr.k_hat))
    assert iv.upper == pytest.approx(
        stats.gamma.ppf(0.75, 280 * fr.k_hat, scale=fr.mu_hat / fr.k_hat))


# ---------------------------------------------------------------------------
# dispersed counts


def qp_fit(lam=2.69, e_total=104.29, phi_scale=0.46, n_obs=14):
    se_log = math.sqrt(phi_scale ** 2 / (lam * e_total))
    return FitResult(family="quasipoisson", link="log", mu_hat=lam,
                     phi_hat=phi_scale ** 2, se_g_mu_model=se_log,
                     se_g_mu_sandwich=se_log, n_obs=n_obs,
                     exposure_total=e_total)


def test_kris_count_matches_poisson_when_phi_one():
    lam, e = 5.0, 100.0  # lam*E = 500
    fr = qp_fit(lam=lam, e_total=e, phi_scale=1.0)
    iv = predict_count_kris(fr, e, 0.95)
    # joint-sampling Poisson prediction oracle: X ~ Poisson(lam*E_o) observed,
    # Y ~ Poisson(lam*E_f); normal approximation to the exact pivot
    x_obs = lam * e
    half = stats.norm.ppf(0.975) * math.sqrt(2 * x_obs)
    assert iv.lower == pytest.approx(x_obs - half, abs=2.0)
    assert iv.upper == pytest.approx(x_obs + half, abs=2.0)


def test_kris_count_cdf_monotone():
    fr = qp_fit()
    from tolpred.intervals import kris_count_cdf
    xs = np.linspace(1, 900, 200)
    vals = kris_count_cdf(xs, fr.mu_hat, fr.exposure_total, 104.29,
                          fr.dispersion_scale)
    assert np.all(np.diff(vals) >= 0)
    central = np.linspace(230, 330, 100)  # within a few sd of the mean count
    vc = kris_count_cdf(central, fr.mu_hat, fr.exposure_total, 104.29,
                        fr.dispersion_scale)
    assert np.all(np.diff(vc) > 0)


def test_kris_count_interval_brackets_point():
    fr = qp_fit()
    iv = predict_count_kris(fr, 104.29, 0.95)
    assert iv.lower < 2.69 * 104.29 < iv.upper


@pytest.mark.parametrize("case", ["regular", "zero_lower"])
def test_kris_limits_solve_cdf_equations(case):
    from tolpred.intervals import kris_count_cdf
    if case == "regular":
        fr, e_future = qp_fit(), 104.29
    else:
        # cdf(0) = 0.34 here, so no count solves cdf = alpha/2
        fr = fit_quasipoisson([0, 3, 0, 5, 0, 1], [10.0] * 6)
        e_future = 2.0
    iv = predict_count_kris(fr, e_future, 0.95)
    cdf = lambda x: kris_count_cdf(x, fr.mu_hat, fr.exposure_total, e_future,
                                   fr.dispersion_scale)
    assert abs(cdf(iv.upper) - 0.975) <= 1e-10
    if case == "regular":
        assert abs(cdf(iv.lower) - 0.025) <= 1e-10
    else:
        assert iv.lower == 0.0 and cdf(0.0) >= 0.025
    assert iv.lower < fr.mu_hat * e_future < iv.upper


def test_kris_requires_quasipoisson():
    with pytest.raises(ValueError):
        predict_count_kris(gamma_fit(), 100.0, 0.95)


# ---------------------------------------------------------------------------
# odds-ratio prediction


def test_or_prediction_worked_numbers():
    se = se_from_ci(3.75, 1.03, 14.05, crit="t", df=99, side="upper")
    iv = predict_or_from(math.log(3.75), se, 100, 600, 0.95)
    assert iv.lower == pytest.approx(0.90, abs=0.02)
    assert iv.upper == pytest.approx(15.62, abs=0.02)


def test_or_prediction_m_to_infinity():
    se, n = 0.4, 50
    iv = predict_or_from(0.7, se, n, 10 ** 9, 0.95)
    t = stats.t.ppf(0.975, n - 1)
    assert math.log(iv.upper) == pytest.approx(0.7 + t * se, abs=1e-3)


def test_or_prediction_m_equals_n_width():
    se, n = 0.4, 50
    iv = predict_or_from(0.0, se, n, n, 0.95)
    t = stats.t.ppf(0.975, n - 1)
    assert math.log(iv.upper) - math.log(iv.lower) == pytest.approx(
        2 * t * math.sqrt(2) * se, rel=1e-12)


# ---------------------------------------------------------------------------
# each summary-statistic form is its fit form


@pytest.mark.parametrize("level", [0.8, 0.95])
def test_summary_forms_are_their_fit_forms(level):
    # endpoints and labels equal exactly: each summary form is its fit form
    y = dist.sample(dist.gamma(4.0, 2.5 / 4.0), RngStream(8), 20)
    for link in ("log", "identity"):
        fr = fit_gamma_intercept(y, link=link)
        want = predict_sum_link(fr, PredictionTarget(20, 280), level, se_kind="model")
        got = predict_sum_link_from(fr.mu_hat, fr.se_g_mu("model"), 20, 280, level, link)
        assert got == want
    gen = np.random.default_rng(9)
    trt = np.repeat([0, 1], 60)
    b = fit_binomial_logit((gen.uniform(size=120) < np.where(trt, 0.6, 0.35)).astype(int), trt)
    want = predict_sum_link(b, PredictionTarget(b.n_obs, 600), level, se_kind="model")
    assert (want.method, want.target) == ("or_prediction", "observable_estimate")
    assert predict_or_from(b.mu_hat, b.se_g_mu("model"), b.n_obs, 600, level) == want
    g = fit_gamma_intercept(y)
    qp = fit_quasipoisson([3, 5, 2, 8, 4, 6], [10.0, 12.5, 9.0, 15.0, 11.0, 13.0])
    for se_kind, crit in (("model", "t"), ("sandwich", "z")):
        want = predict_sum_plugci(g, PredictionTarget(20, 280), level, se_kind, crit)
        mu_lo, mu_hi = g.ci_mu(level, se_kind, crit)
        assert predict_sum_plugci_gamma(mu_lo, mu_hi, g.k_hat, 280, level) == want
        want = predict_sum_plugci(qp, PredictionTarget(6, 100.0), level, se_kind, crit)
        mu_lo, mu_hi = qp.ci_mu(level, se_kind, crit)
        got = predict_count_plugci(mu_lo * 100.0, mu_hi * 100.0, qp.dispersion_scale, level)
        assert got == want
    t = 12.0 * gen.weibull(1.4, size=60)
    w = fit_weibull_censored([SurvivalSample(min(v, 20.0), v <= 20.0) for v in t])
    mu_lo, mu_hi = w.ci_mu(level, "model", "z")
    alpha = 1 - level
    band = applications.weibull_band_at(w, 0.5, level, band="subject")
    assert (band.lower, band.upper, band.method, band.target) == (
        intervals._sum_quantile(w, alpha / 2, 1, mu=mu_lo),
        intervals._sum_quantile(w, 1 - alpha / 2, 1, mu=mu_hi),
        "ci_plug_prediction", "future_observation")


# ---------------------------------------------------------------------------
# property-based checks


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(0.5, 20.0), se=st.floats(0.01, 0.6),
       n=st.integers(3, 200), n_fut=st.integers(1, 500))
def test_link_pivot_properties(mu, se, n, n_fut):
    iv90 = predict_sum_link_from(mu, se, n, n_fut, 0.90)
    iv95 = predict_sum_link_from(mu, se, n, n_fut, 0.95)
    point = n_fut * mu
    assert iv95.lower <= iv90.lower <= point <= iv90.upper <= iv95.upper
    assert iv95.width > iv90.width
    assert iv95.lower > 0


@settings(max_examples=25, deadline=None)
@given(level=st.floats(0.5, 0.99), k=st.floats(0.5, 8.0),
       mu=st.floats(0.5, 10.0))
def test_fpivot_width_increases_with_level(level, k, mu):
    iv_lo = predict_sum_fpivot(mu, 20, 100, k, level)
    iv_hi = predict_sum_fpivot(mu, 20, 100, k, min(level + 0.005, 0.995))
    assert iv_hi.width >= iv_lo.width


@settings(max_examples=200, deadline=None)
@given(k=st.floats(0.05, 1000.0), mu=st.floats(1e-6, 1e6), n_fut=st.integers(1, 5000),
       p=st.floats(1e-6, 1 - 1e-6))
def test_sum_cdf_inverts_sum_quantile(k, mu, n_fut, p):
    # on a gamma fit, the only family _sum_cdf serves, at the fitted (mu, k)
    # and at given ones
    fit = FitResult("gamma", "log", 2 * mu, 20, k_hat=2 * k)
    for mu_k in ((None, None), (mu, k), (mu, None)):
        t = intervals._sum_quantile(fit, p, n_fut, *mu_k)
        assert intervals._sum_cdf(fit, t, n_fut, *mu_k, p) == pytest.approx(p, rel=0, abs=1e-10)
