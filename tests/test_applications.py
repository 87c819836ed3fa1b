import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import optimize

from tolpred import applications as app
from tolpred import intervals
from tolpred.fit import (FitError, InsufficientDataError, SurvivalSample,
                         fit_gamma_intercept, fit_weibull_censored)

from recruitment_fixture import make_recruitment_fixture


def simple_series(**kw):
    base = dict(period=np.arange(1, 7), events=np.array([3., 5., 4., 6., 5., 7.]),
                exposure_days=np.full(6, 30.0), active_sites=np.array([2., 2., 4., 4., 6., 6.]),
                future_period=np.array([7., 8.]), future_sites=np.array([6., 6.]))
    base.update(kw)
    return app.RecruitmentSeries(**base)


def weibull_fit(seed=5, n=60, k=1.4, scale=12.0, censor=20.0):
    gen = np.random.default_rng(seed)
    t = scale * gen.weibull(k, size=n)
    data = [SurvivalSample(min(x, censor), x <= censor) for x in t]
    return fit_weibull_censored(data)


# ---------------------------------------------------------------------------
# series and loaders


def test_series_validation():
    with pytest.raises(ValueError):
        simple_series(period=np.array([1, 2, 4, 5, 6, 7]))
    with pytest.raises(ValueError):
        simple_series(events=np.array([3., -1., 4., 6., 5., 7.]))
    with pytest.raises(ValueError):
        simple_series(exposure_days=np.zeros(6))
    with pytest.raises(ValueError):
        app.RecruitmentSeries(np.array([]), np.array([]), np.array([]), np.array([]))
    # each column holds one value per period: a short column must not index
    # out of range, nor a 1-element one broadcast
    for column in [dict(events=np.array([3., 5., 4., 6., 5.])),
                   dict(exposure_days=np.array([30.0])),
                   dict(active_sites=np.full(7, 2.0))]:
        with pytest.raises(ValueError, match="one value per period"):
            simple_series(**column)
    # the schedule follows the observed rules, from the period after the last
    for future_period, future_sites in [
            (np.array([7., 8.]), np.array([-10., 30.])),    # negative sites
            (np.array([2., 40.]), np.array([10., 10.])),    # inside the window, gap
            (np.array([7., 7., 8.]), np.array([6., 6., 6.])),   # period listed twice
            (np.array([8., 9.]), np.array([6., 6.])),       # not from period 7
            (np.array([7., 8.]), np.array([6.])),           # lengths differ
            (np.array([7., 8.]), None),                     # periods without sites
            (None, np.array([6., 6.]))]:                    # sites without periods
        with pytest.raises(ValueError):
            simple_series(future_period=future_period, future_sites=future_sites)


def test_series_site_days_and_schedule():
    s = simple_series()
    assert_allclose(s.site_days, s.active_sites * 30.0)
    assert s.future_site_days() == pytest.approx(12 * 30.0)
    bare = simple_series(future_period=None, future_sites=None)
    with pytest.raises(ValueError):
        bare.future_site_days()


def test_load_recruitment_csv(tmp_path):
    p = tmp_path / "recruit.csv"
    p.write_text("period,events,exposure_days,active_sites\n"
                 "2,5,30,2\n1,3,30,2\n3,4,30,4\n")
    sched = tmp_path / "sched.csv"
    sched.write_text("period,active_sites\n5,6\n4,6\n")
    s = app.load_recruitment_csv(p, sched)
    assert_allclose(s.period, [1, 2, 3])          # reordered by period
    assert_allclose(s.events, [3, 5, 4])
    assert_allclose(s.future_period, [4, 5])
    assert_allclose(s.future_sites, [6, 6])


def test_load_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("period,events\n1,3\n")
    with pytest.raises(ValueError):
        app.load_recruitment_csv(p)
    p.write_text("period,events,exposure_days,active_sites\n1,x,30,2\n")
    with pytest.raises(ValueError):
        app.load_recruitment_csv(p)
    p.write_text("period,events,exposure_days,active_sites\n")
    with pytest.raises(ValueError):
        app.load_recruitment_csv(p)


def test_load_survival_csv(tmp_path):
    p = tmp_path / "surv.csv"
    p.write_text("time,event\n3.5,1\n7.0,0\n")
    data = app.load_survival_csv(p)
    assert data[0].time == 3.5 and data[0].event
    assert data[1].time == 7.0 and not data[1].event


# ---------------------------------------------------------------------------
# pooled site-day model


def test_site_day_fit_pooled_rate():
    s = simple_series()
    fr = app.site_day_fit(s)
    assert fr.mu_hat == pytest.approx(s.events.sum() / s.site_days.sum(), rel=1e-12)


def test_site_day_fit_requires_data():
    s = simple_series(events=np.zeros(6))
    with pytest.raises(InsufficientDataError):
        app.site_day_fit(s)


def test_predict_sitedays_center_and_scaling():
    s = simple_series()
    fr = app.site_day_fit(s)
    iv = app.predict_sitedays(fr, s, 0.95)
    total = s.future_site_days() * fr.mu_hat
    # the log-link pivot is centred at the scheduled-site-days point total
    assert math.sqrt(iv.lower * iv.upper) == pytest.approx(total, rel=1e-12)
    doubled = simple_series(future_sites=np.array([12., 12.]))
    iv2 = app.predict_sitedays(fr, doubled, 0.95)
    assert math.sqrt(iv2.lower * iv2.upper) == pytest.approx(2 * total, rel=1e-12)
    # more future exposure means relatively tighter limits
    assert iv2.upper / (2 * total) < iv.upper / total


def test_predict_sitedays_needs_schedule():
    s = simple_series(future_sites=np.array([0., 0.]))
    fr = app.site_day_fit(s)
    with pytest.raises(ValueError):
        app.predict_sitedays(fr, s, 0.95)


def test_dispersion_diagnostic_keys_and_equal_rates():
    s = simple_series(events=np.array([2., 2., 4., 4., 6., 6.]))  # rate constant
    d = app.site_dispersion_diagnostic(s)
    assert set(d) == {"pooled_rate", "per_period_rates", "pearson_dispersion"}
    assert d["pearson_dispersion"] == pytest.approx(0.0, abs=1e-12)
    assert d["pooled_rate"] == pytest.approx(24.0 / s.site_days.sum())


# ---------------------------------------------------------------------------
# trend models


def test_fit_trend_flat_series_slope_zero():
    s = simple_series(events=np.full(6, 5.0), active_sites=np.full(6, 2.0))
    tr = app.fit_trend(s, transform="log", link="identity")
    assert tr.coef[1] == pytest.approx(0.0, abs=1e-8)
    assert tr.mean_rate(3.0) == pytest.approx(5.0 / 30.0, rel=1e-8)


def test_fit_trend_recovers_truth():
    gen = np.random.default_rng(11)
    months = np.arange(1, 25)
    a, b = 4.0, 6.0
    mean = a * np.log(months) + b
    events = gen.poisson(mean * 30.0).astype(float)
    s = app.RecruitmentSeries(months, events, np.full(24, 30.0),
                              np.full(24, 1.0))
    tr = app.fit_trend(s, transform="log", link="identity")
    se = np.sqrt(np.diag(tr.cov))
    assert abs(tr.coef[1] - a) < 3 * se[1]
    assert abs(tr.coef[0] - b) < 3 * se[0]


# each --transform's regressor, the root one with exponent 1/20
TRANSFORM_Z = {"log": np.log, "root": lambda l: l ** (1 / 20), "identity": lambda l: l}


@pytest.mark.parametrize("transform", TRANSFORM_Z)
@pytest.mark.parametrize("link", ["log", "identity"])
def test_rate_trend_maximises_the_poisson_likelihood(link, transform):
    gen = np.random.default_rng(9)
    months = np.arange(1, 25)
    x, e = gen.poisson(6.0 * np.sqrt(months)).astype(float), np.full(24, 30.0)
    tr = app.fit_trend(app.RecruitmentSeries(months, x, e, np.ones(24)),
                       transform=transform, link=link)
    # an independent maximiser: BFGS on the standardised regressor
    zz = TRANSFORM_Z[transform](months.astype(float))
    zbar, sd = zz.mean(), zz.std()
    X = np.column_stack([np.ones(24), (zz - zbar) / sd])
    h = np.exp if link == "log" else (lambda eta: eta)

    def nll(c):
        mu = e * h(X @ c)
        if not np.all(mu > 0):
            return math.inf, np.zeros(2)
        d = mu if link == "log" else e
        return (-float(np.sum(x * np.log(mu) - mu)) / x.sum(),
                -(X.T @ (d * (x - mu) / mu)) / x.sum())

    rate = x.sum() / e.sum()
    c = optimize.minimize(nll, [math.log(rate) if link == "log" else rate, 0.0],
                          jac=True, method="BFGS", options={"gtol": 1e-13}).x
    assert_allclose(tr.coef, [c[0] - c[1] * zbar / sd, c[1] / sd], rtol=1e-6)
    mu = e * tr.mean_rate(months)
    deviance = 2.0 * np.sum(x * np.log(x / mu) - (x - mu))
    assert tr.phi == pytest.approx(deviance / 22, rel=1e-12)


def test_fit_trend_validation():
    short = app.RecruitmentSeries(np.array([1, 2]), np.array([3., 4.]),
                                  np.full(2, 30.0), np.full(2, 2.0))
    with pytest.raises(InsufficientDataError):
        app.fit_trend(short)
    with pytest.raises(ValueError):
        app.fit_trend(simple_series(), transform="spline")
    with pytest.raises(InsufficientDataError, match="no events observed"):
        app.fit_trend(simple_series(events=np.zeros(6)))
    with pytest.raises(InsufficientDataError):
        app.fit_trend(np.array([1.0, 2.0]), link="log", kind="interarrival")
    with pytest.raises(FitError):
        app.fit_trend(np.array([1.0, -2.0, 3.0]), link="log", kind="interarrival")
    with pytest.raises(ValueError):
        app.fit_trend(np.ones(5), kind="interarrival")  # identity link unsupported


# 12 months of 30 days, two sites opening a month over the first 10 months;
# full scoring steps of these identity-link fits reach a rate <= 0
HALVING_TRENDS = [[2, 7, 8, 11, 14, 11, 11, 12, 21, 12, 21, 34],
                  [3, 4, 8, 5, 10, 8, 11, 10, 18, 15, 21, 19]]


@pytest.mark.parametrize("events", HALVING_TRENDS)
def test_identity_trend_halves_its_steps_to_an_interior_optimum(events):
    months = np.arange(1, 13)
    x, e = np.array(events, dtype=float), np.full(12, 30.0)
    s = app.RecruitmentSeries(months, x, e, np.minimum(months, 10) * 2.0)
    tr = app.fit_trend(s, transform="log", link="identity")
    rates = tr.mean_rate(months)
    assert np.all(rates > 0)
    X = np.column_stack([np.ones(12), np.log(months)])
    score = X.T @ (e * (x - e * rates) / (e * rates))
    assert np.linalg.norm(score) < 1e-9
    assert 0.04 < tr.coef[0] < 0.07   # the intercept is a rate per day


def test_fixture_trend_increasing():
    s = make_recruitment_fixture()
    tr = app.fit_trend(s, transform="log", link="identity")
    rates = tr.mean_rate(np.arange(1.0, 32.0))
    assert np.all(np.diff(rates) > 0)
    assert np.all(np.diff(np.diff(rates)) < 0)     # concave ramp-up


def test_predict_sum_rate_center_additive():
    s = make_recruitment_fixture()
    tr = app.fit_trend(s, transform="log", link="identity")
    iv = app.predict_sum_rate(tr, range(32, 44), 0.95)
    total = float(np.sum(tr.mean_rate(np.arange(32.0, 44.0)) * tr.exposure_per_period))
    assert math.sqrt(iv.lower * iv.upper) == pytest.approx(total, rel=1e-12)


def test_predict_sum_rate_constant_extension_lower():
    s = make_recruitment_fixture()
    tr = app.fit_trend(s, transform="log", link="identity")
    model = app.predict_sum_rate(tr, range(32, 44), 0.95)
    const = app.predict_sum_rate(tr, range(32, 44), 0.95, extrapolation="constant")
    # increasing trend: freezing the rate at the last fitted month predicts less
    gm = lambda iv: math.sqrt(iv.lower * iv.upper)
    assert gm(const) < gm(model)


def test_predict_sum_rate_validation():
    s = make_recruitment_fixture()
    tr = app.fit_trend(s, transform="log", link="identity")
    with pytest.raises(ValueError):
        app.predict_sum_rate(tr, [], 0.95)
    with pytest.raises(ValueError):
        app.predict_sum_interarrival(tr, range(5), 0.95)


def test_interarrival_flat_trend_reduces_to_link_pivot():
    # zero-slope trend with only intercept variance must reproduce the
    # equal-variance log-link prediction pivot exactly
    gen = np.random.default_rng(4)
    y = gen.gamma(5.0, 0.5, size=20)
    g = fit_gamma_intercept(y)
    se_log = g.se_g_mu("model")
    tr = app.TrendFit(coef=np.array([math.log(g.mu_hat), 0.0]),
                      cov=np.array([[se_log ** 2, 0.0], [0.0, 0.0]]),
                      link="log", transform="log",
                      phi=1.0 / g.k_hat, fit_window=(1, 20),
                      kind="interarrival", n_obs=20)
    got = app.predict_sum_interarrival(tr, range(21, 301), 0.95)
    want = intervals.predict_sum_link(g, intervals.PredictionTarget(20, 280),
                                      0.95, se_kind="model")
    assert got.lower == pytest.approx(want.lower, rel=1e-10)
    assert got.upper == pytest.approx(want.upper, rel=1e-10)


def test_interarrival_constant_times_collapse():
    tr = app.fit_trend(np.full(10, 2.0), link="log", kind="interarrival")
    assert tr.coef[1] == pytest.approx(0.0, abs=1e-10)
    iv = app.predict_sum_interarrival(tr, range(11, 21), 0.95)
    assert iv.lower == pytest.approx(20.0, rel=1e-8)
    assert iv.upper == pytest.approx(20.0, rel=1e-8)


@pytest.mark.parametrize("target", [10.0, 300.0, 5000.0])
@pytest.mark.parametrize("transform", app.TRANSFORMS)
@pytest.mark.parametrize("link", ["identity", "log"])
def test_solve_target_window(monkeypatch, link, transform, target):
    s = make_recruitment_fixture()
    tr = app.fit_trend(s, transform=transform, link=link)
    assert app.solve_target_window(tr, 0, 0.95) == (0, (0, 0))
    for bad in (-1, math.nan, math.inf):
        with pytest.raises(ValueError):
            app.solve_target_window(tr, bad, 0.95)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return predict(*args, **kwargs)

    predict = app.predict_sum_rate
    monkeypatch.setattr(app, "predict_sum_rate", counted)
    point, (h_lo, h_hi) = app.solve_target_window(tr, target, 0.95)
    monkeypatch.undo()
    assert 0 < len(calls) <= 4     # running sums, then a check at h and h - 1
    assert h_lo <= point <= h_hi
    d = tr.fit_window[1]
    e = tr.exposure_per_period
    window = lambda h: app.predict_sum_rate(tr, range(d + 1, d + h + 1), 0.95)
    definitions = [
        (point, lambda h: float(np.sum(tr.mean_rate(np.arange(d + 1.0, d + h + 1.0)) * e))),
        (h_lo, lambda h: window(h).upper),
        (h_hi, lambda h: window(h).lower),
    ]
    for h, value in definitions:   # each horizon is the first that reaches
        assert value(h) >= target
        assert h == 1 or value(h - 1) < target


@settings(max_examples=100, deadline=None)
@given(events=st.lists(st.integers(0, 60), min_size=12, max_size=12),
       link=st.sampled_from(["identity", "log"]), transform=st.sampled_from(app.TRANSFORMS),
       target=st.floats(0.0, 5.0).map(lambda x: 10.0 ** x),
       level=st.sampled_from([0.8, 0.95, 0.99]))
def test_any_window_solve_is_the_first_reaching_horizon_or_a_fit_error(
        events, link, transform, target, level):
    """On any 12-month series the solve returns, for the cumulative mean and
    each interval limit, the first horizon that reaches the target, after at
    most four ``predict_sum_rate`` calls; or it raises ``FitError``."""
    s = app.RecruitmentSeries(np.arange(1, 13), np.asarray(events, float),
                              np.full(12, 30.0), np.full(12, 10.0))
    try:
        tr = app.fit_trend(s, transform=transform, link=link)
        with mock.patch.object(app, "predict_sum_rate", wraps=app.predict_sum_rate) as spy:
            point, (h_lo, h_hi) = app.solve_target_window(tr, target, level)
    except FitError:
        return
    assert spy.call_count <= 4 and h_lo <= point <= h_hi
    d, e = tr.fit_window[1], tr.exposure_per_period
    window = lambda h: app.predict_sum_rate(tr, range(d + 1, d + h + 1), level)
    definitions = [
        (point, lambda h: float(np.sum(tr.mean_rate(np.arange(d + 1.0, d + h + 1.0)) * e))),
        (h_lo, lambda h: window(h).upper),
        (h_hi, lambda h: window(h).lower),
    ]
    for h, value in definitions:
        assert value(h) >= target
        assert h == 1 or value(h - 1) < target


def test_solve_target_window_horizon_guard():
    s = simple_series(events=np.full(6, 1.0), active_sites=np.full(6, 2.0))
    tr = app.fit_trend(s, transform="log", link="identity")
    with mock.patch.object(app, "MAX_HORIZON", 50), pytest.raises(FitError):
        app.solve_target_window(tr, 10_000.0, 0.95)
    # the last doubling stops at the cap: a window of 40 periods is found
    # although the doubling jumps from 32 to 64
    flat = app.TrendFit(np.array([math.log(1 / 30), 0.0]), np.zeros((2, 2)), "log", "log",
                        1e-8, (1, 6), "rate", 6, exposure_per_period=30.0)
    with mock.patch.object(app, "MAX_HORIZON", 50):
        assert app.solve_target_window(flat, 40.0, 0.95)[0] == 40


def fault_series(events, sites):
    n = len(events)
    return app.RecruitmentSeries(np.arange(1, n + 1), np.asarray(events, float),
                                 np.full(n, 30.0), np.asarray(sites, float))


@pytest.mark.parametrize("transform, period", [("log", 728), ("root", 284)])
def test_nonpositive_mean_names_the_first_period(transform, period):
    s = fault_series([14, 10, 4, 29, 37, 10, 1, 3], [20, 20, 0, 0, 0, 0, 5, 1])
    tr = app.fit_trend(s, transform=transform, link="identity")
    with pytest.raises(FitError) as err:
        app.solve_target_window(tr, 600.0, 0.95)
    assert str(err.value) == (f"fitted mean is not positive at period {period}; "
                              f"a log-link trend stays positive (--link log)")


def test_overflowing_sum_is_a_fit_error_naming_the_horizon():
    s = fault_series([10, 0, 1, 10, 19], [0, 20, 5, 1, 0])
    tr = app.fit_trend(s, transform="identity", link="log")
    d = tr.fit_window[1]
    assert math.isfinite(app.predict_sum_rate(tr, range(d + 1, d + 19), 0.95).upper)
    with pytest.raises(FitError, match="horizon 2000 leaves double precision"):
        app.predict_sum_rate(tr, range(d + 1, d + 2001), 0.95)
    with pytest.raises(FitError, match="horizon 1024 leaves double precision"):
        app.solve_target_window(tr, 10.0, 0.95)


# ---------------------------------------------------------------------------
# time-on-treatment bands


def test_weibull_band_validation():
    fr = weibull_fit()
    with pytest.raises(ValueError):
        app.weibull_band_at(fr, 1.5, 0.95)
    with pytest.raises(ValueError):
        app.weibull_band_at(fr, 0.5, 0.95, band="credible")
    with pytest.raises(ValueError):
        app.weibull_band_at(fr, 0.5, 0.95, band="repeated")  # needs events_future
    g = fit_gamma_intercept(np.random.default_rng(1).gamma(4, 1, 30))
    with pytest.raises(ValueError):
        app.weibull_band_at(g, 0.5, 0.95)


def test_weibull_band_brackets_quantile_and_orders():
    fr = weibull_fit()
    for p in (0.25, 0.5, 0.75):
        q = intervals._sum_quantile(fr, p, 1)
        tol = app.weibull_band_at(fr, p, 0.95)
        rep = app.weibull_band_at(fr, p, 0.95, band="repeated", events_future=40)
        assert tol.lower < q < tol.upper
        # the repeated-experiment band anticipates a new estimate, so it is wider
        assert rep.lower < tol.lower and tol.upper < rep.upper


def test_weibull_bands_monotone_in_p():
    fr = weibull_fit()
    grid = [0.1, 0.25, 0.5, 0.75, 0.9]
    bands = app.weibull_bands(fr, grid, 0.95)
    centers = [math.sqrt(b.lower * b.upper) for b in bands]
    assert np.all(np.diff(centers) > 0)
    assert [b.content_p for b in bands] == grid


def test_weibull_subject_band_covers_bulk():
    fr = weibull_fit()
    sub = app.weibull_band_at(fr, 0.5, 0.95, band="subject")
    # subject-level band must contain the central quantiles
    assert sub.lower < intervals._sum_quantile(fr, 0.1, 1)
    assert sub.upper > intervals._sum_quantile(fr, 0.9, 1)


def test_weibull_band_se_is_delta_se():
    fr = weibull_fit()
    p, level = 0.5, 0.9
    q = intervals._sum_quantile(fr, p, 1)
    se = intervals._delta_se(fr, p, 1)
    from scipy import stats
    t = stats.t.ppf(0.95, fr.n_obs - 1)
    band = app.weibull_band_at(fr, p, level)
    assert band.lower == pytest.approx(q * math.exp(-t * se / q), rel=1e-12)
    assert band.upper == pytest.approx(q * math.exp(t * se / q), rel=1e-12)


# ---------------------------------------------------------------------------
# fixture


def test_fixture_shape():
    s = make_recruitment_fixture()
    assert s.n_periods == 31
    assert np.all(s.events >= 0)
    assert s.future_period[0] == 32 and s.future_period[-1] == 49
    assert np.all(s.future_sites == 20.0)
    again = make_recruitment_fixture()
    assert_allclose(s.events, again.events)


def test_weibull_plugin_is_the_fitted_weibull_quantile_interval():
    # the plug-in interval of one future observation from a Weibull fit is
    # the central interval of Weibull(lam_hat, k_hat), not a gamma one
    fr = weibull_fit()
    iv = intervals.METHODS["plugin"].build(fr, 0.9, 1, None, "model", "t")
    from scipy import stats
    want = stats.weibull_min.ppf([0.05, 0.95], fr.k_hat, scale=fr.lam_hat)
    assert (iv.lower, iv.upper) == pytest.approx(tuple(want), rel=1e-10)
    with pytest.raises(intervals.UnsupportedTargetError):
        intervals.METHODS["plugin"].build(fr, 0.9, 5, None, "model", "t")
