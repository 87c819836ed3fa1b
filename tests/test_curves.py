import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from tolpred import curves, dist, intervals
from tolpred.curves import build_curve, pvalue_upper, success_confidence
from tolpred.dist import RngStream
from tolpred.fit import FitResult, fit_gamma_intercept, fit_quasipoisson


def gamma_fit(n=20, seed=1, k=4.0, mu=2.5, link="log"):
    y = dist.sample(dist.gamma(k, mu / k), RngStream(seed), n)
    return fit_gamma_intercept(y, link=link)


def worked_fit():
    """Fit carrying the recruitment-example summary statistics."""
    se = intervals.se_from_ci(2.61, 2.13, 3.19, crit="z", side="lower")
    return FitResult(family="gamma", link="log", mu_hat=2.61, k_hat=5.22,
                     se_g_mu_model=se, se_g_mu_sandwich=se, n_obs=20,
                     se_mu=2.61 * se, se_k=1.55, cov_mu_k=0.0)


def or_fit():
    se = intervals.se_from_ci(3.75, 1.03, 14.05, crit="t", df=99, side="upper")
    return FitResult(family="binomial_logit", link="logit",
                     mu_hat=math.log(3.75), se_g_mu_model=se,
                     se_g_mu_sandwich=se, n_obs=100)


# ---------------------------------------------------------------------------
# p-value function


def test_pvalue_half_at_point_prediction():
    fr = gamma_fit()
    point = 280 * fr.mu_hat
    for method in ("link_pivot", "ci_plug"):
        assert pvalue_upper(fr, point, method, 280) == pytest.approx(0.5, abs=2e-3)
    # the F reference has median below 1, so its p-value at the point
    # prediction sits slightly under one half
    for method in ("f_pivot", "f_pivot_k1"):
        got = pvalue_upper(fr, point, method, 280)
        assert 0.45 < got < 0.5


def test_pvalue_at_interval_endpoints():
    fr = worked_fit()
    assert pvalue_upper(fr, 583.0, "link_pivot", 280) == pytest.approx(0.025, abs=1e-3)
    assert pvalue_upper(fr, 914.0, "link_pivot", 280) == pytest.approx(0.975, abs=1e-3)


def test_pvalue_success_threshold():
    fr = or_fit()
    # p-value testing that the future study's observed odds ratio clears 1.71
    assert pvalue_upper(fr, 1.71, "or_prediction", 600) == pytest.approx(0.14, abs=0.01)


@pytest.mark.parametrize("hypothesis", [-1.0, math.nan, math.inf])
def test_pvalue_domain(hypothesis):
    fr = gamma_fit()
    for method in ("link_pivot", "ci_plug", "f_pivot", "f_pivot_k1"):
        with pytest.raises(ValueError, match="finite and positive"):
            pvalue_upper(fr, hypothesis, method, 280)


# ---------------------------------------------------------------------------
# curve tables


@pytest.mark.parametrize("method", ["link_pivot", "ci_plug", "f_pivot", "f_pivot_k1"])
def test_curve_invariants(method):
    fr = gamma_fit(seed=2)
    table = build_curve(fr, method, 280)
    assert np.all(np.diff(table.H) >= 0)
    np.testing.assert_allclose(table.H + table.H_minus, 1.0, atol=1e-12)
    assert np.all(table.density >= 0)
    # C peaks at the grid point nearest the point prediction
    i_point = int(np.argmin(np.abs(table.grid - table.point_estimate)))
    i_max = int(np.argmax(table.C))
    assert abs(i_max - i_point) <= 1
    if method in ("link_pivot", "ci_plug"):
        assert table.C[i_max] == pytest.approx(0.5, abs=2e-3)
    else:
        # F reference: H at the point prediction is near, not exactly, 0.5
        assert table.C[i_max] == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("kwargs, message", [
    ({"grid": [1.0, math.nan, 3.0, 4.0]}, "finite and positive"),
    ({"grid": [1.0, 2.0, 3.0, math.inf]}, "finite and positive"),
    ({"n_points": 0}, "strictly increasing"),
    ({"n_points": 2}, "strictly increasing"),
    ({"grid": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}, "strictly increasing"),
    ({"grid": [1.0, 3.0, 2.0]}, "strictly increasing"),
], ids=["nan", "inf", "0_points", "2_points", "2d", "unordered"])
def test_malformed_grid_is_a_value_error(kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_curve(gamma_fit(), "link_pivot", 280, **kwargs)


def test_curve_table_rejects_a_nan_grid():
    g = np.array([1.0, math.nan, 3.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        curves.CurveTable(g, g, g, g, g)


def qp_fit(link="log"):
    events = [12, 7, 9, 15, 4, 11, 8, 10]
    exposure = [3.1, 2.4, 2.9, 3.8, 1.6, 3.3, 2.2, 3.0]
    return fit_quasipoisson(events, exposure, link=link)


@pytest.mark.parametrize("family, method, n_future", [
    ("gamma", "link_pivot", 280), ("gamma", "ci_plug", 280),
    ("gamma", "f_pivot", 280), ("gamma", "f_pivot_k1", 280),
    ("gamma", "or_prediction", 280), ("quasipoisson", "link_pivot", 12.5),
    ("quasipoisson", "ci_plug", 12.5), ("binomial", "or_prediction", 600),
    ("gamma_identity", "link_pivot", 280), ("gamma_identity", "ci_plug", 280),
])
def test_curve_crossings_match_interval(family, method, n_future):
    fr = {"gamma": lambda: gamma_fit(seed=3), "quasipoisson": qp_fit,
          "binomial": or_fit,
          "gamma_identity": lambda: fit_gamma_intercept(
              dist.sample(dist.gamma(4.0, 2.5 / 4.0), RngStream(3), 20),
              link="identity")}[family]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = build_curve(fr, method, n_future)
    entry = intervals.METHODS[curves.CURVE_METHODS[method]]
    # the auto grid spans the method's own 99.8% interval
    wide = entry.build(fr, 0.998, n_future, None, "sandwich", "z")
    np.testing.assert_allclose([table.grid[0], table.grid[-1]],
                               [wide.lower, wide.upper], rtol=1e-12)
    iv = entry.build(fr, 0.95, n_future, None, "sandwich", "z")
    np.testing.assert_allclose(table.interval_at(0.95), [iv.lower, iv.upper], rtol=1e-5)


def test_ci_plug_table_skips_underflowing_quantiles():
    # at future exposure 0.003 the count quantiles at h = 1e-9 underflow to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = build_curve(qp_fit(), "ci_plug", 0.003)
    assert np.all(np.isfinite(table.H)) and np.all(np.diff(table.H) >= 0)


def _exact_plugci_H(fr, c, n_future):
    """The exact ci_plug H at each c: the h whose plug-in quantile c(h), at
    the Wald mean limit ``fr.mu_limit(ndtri(h))``, equals c (bisection in h)."""
    def quantile(h):
        with np.errstate(invalid="ignore"):
            mu = fr.mu_limit(special.ndtri(h))
            if fr.family == "gamma":
                q = special.gammaincinv(n_future * fr.k_hat, h) * (mu / fr.k_hat)
            else:
                phi = fr.dispersion_scale
                q = special.gammaincinv(mu * n_future / phi, h) * phi
        return np.where(mu > 0, np.nan_to_num(q, nan=0.0), 0.0)
    lo, hi = np.full(c.shape, 1e-12), np.full(c.shape, 1 - 1e-12)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = quantile(mid) < c
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _plugci_fits():
    for link in ("log", "identity"):
        for seed in (1, 2, 3):
            yield gamma_fit(seed=seed, link=link), 280.0
        yield qp_fit(link), 12.5


def test_ci_plug_table_tracks_the_exact_pvalue():
    # H is tabulated on the normal score, where the Wald pivot is exactly
    # linear: every grid point within 2e-6 of the exact H
    for fr, n_future in _plugci_fits():
        table = build_curve(fr, "ci_plug", n_future)
        exact = _exact_plugci_H(fr, table.grid, n_future)
        assert np.max(np.abs(table.H - exact)) < 2e-6, (fr.family, fr.link)


def test_ci_plug_cubic_table_is_within_1e_7_of_the_exact_pvalue():
    # a monotone cubic in log c between the 201 nodes; linear interpolation
    # between 1001 nodes read up to 7.3e-7
    for fr, n_future in _plugci_fits():
        table = build_curve(fr, "ci_plug", n_future)
        exact = _exact_plugci_H(fr, table.grid, n_future)
        assert np.max(np.abs(table.H - exact)) < 1e-7, (fr.family, fr.link)


def test_ci_plug_lower_crossing_at_a_small_count_shape():
    # negative-binomial counts of mean 0.3 per unit over 12 exposures, an
    # identity-link fit, a future exposure of 0.5: mu*E/phi is far below 1,
    # so log c is far from linear in the normal score.  Linear interpolation
    # between 1001 nodes read lower crossings up to 4.9e-3 off eq2.
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        exposure = rng.uniform(5, 15, 12)
        counts = rng.negative_binomial(5, 5 / (5 + 0.3 * exposure))
        fr = fit_quasipoisson(counts, exposure, link="identity")
        try:
            table = build_curve(fr, "ci_plug", 0.5)
            iv = intervals.predict_sum_plugci(fr, intervals.PredictionTarget(fr.n_obs, 0.5),
                                              0.99)
        except intervals.UnsupportedTargetError:   # a lower mean limit <= 0, or
            continue                                # a grid too wide for a density
        assert table.interval_at(0.99)[0] == pytest.approx(iv.lower, rel=1e-3, abs=0), seed
        checked += 1
    assert checked >= 35


@pytest.mark.parametrize("nodes", ["one", "two", "three", "tied"])
def test_ci_plug_table_on_few_or_tied_nodes(monkeypatch, nodes):
    # quantiles dropped (<= 0) down to 1-3 surviving nodes, or every other
    # node tying its predecessor: linear below 3 nodes, no division by a zero
    # step, and H finite and monotone either way
    real = intervals._sum_quantile

    def degraded(*args, **kwargs):
        c = real(*args, **kwargs)
        if nodes == "tied":
            c[1::2] = c[:-1:2]
            return c
        kept = {"one": [100], "two": [90, 110], "three": [80, 100, 120]}[nodes]
        return np.where(np.isin(np.arange(c.size), kept), c, 0.0)
    monkeypatch.setattr(intervals, "_sum_quantile", degraded)
    fr = gamma_fit(seed=3)
    point = 280 * fr.mu_hat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = build_curve(fr, "ci_plug", 280, grid=np.geomspace(point / 2, point * 2, 401))
    assert np.all(np.isfinite(table.H)) and np.all(np.diff(table.H) >= 0)


def test_ci_plug_crossings_match_the_closed_form_interval():
    for fr, n_future in _plugci_fits():
        table = build_curve(fr, "ci_plug", n_future)
        target = intervals.PredictionTarget(fr.n_obs, n_future)
        for level in (0.8, 0.9, 0.95, 0.99):
            iv = intervals.predict_sum_plugci(fr, target, level)
            np.testing.assert_allclose(table.interval_at(level), [iv.lower, iv.upper],
                                       rtol=2e-6, err_msg=f"{fr.family} {fr.link} {level}")


@pytest.mark.parametrize("link", ["log", "identity"])
def test_ci_plug_on_a_grid_wider_than_its_table(link):
    fr = gamma_fit(seed=3, link=link)
    point = 280 * fr.mu_hat
    grid = np.geomspace(point * 1e-3, point * 1e3, 601)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = build_curve(fr, "ci_plug", 280, grid=grid)
    z_end = special.ndtri(1e-9)
    assert np.all(np.isfinite(table.H)) and np.all(np.diff(table.H) >= 0)
    assert special.ndtr(z_end) <= table.H[0] and table.H[-1] <= special.ndtr(-z_end)
    assert table.H[0] < 1e-8 and table.H[-1] > 1 - 1e-8   # the grid passes both ends


def test_small_future_crossings_on_the_normal_score_scale():
    # one future unit: c is far from linear in H between grid points, but
    # log c is near linear in ndtri(H)
    fr = fit_gamma_intercept(dist.sample(dist.gamma(4.0, 0.625), RngStream(8), 20))
    table = build_curve(fr, "link_pivot", 1)
    iv = intervals.predict_sum_link(fr, intervals.PredictionTarget(fr.n_obs, 1), 0.99)
    np.testing.assert_allclose(table.interval_at(0.99), [iv.lower, iv.upper], rtol=5e-7)


def test_crossings_on_a_grid_whose_H_is_zero_or_one():
    # every node of this coarse grid has H exactly 0 or 1: no finite normal
    # score, so the crossings fall back to c linear in H
    table = build_curve(gamma_fit(seed=8), "f_pivot", 280,
                        grid=np.array([1e-3, 1.0, 1e6, 1e9]))
    assert set(table.H) == {0.0, 1.0}
    np.testing.assert_allclose(table.interval_at(0.95), [1 + 0.025 * (1e6 - 1),
                                                         1 + 0.975 * (1e6 - 1)])


def test_crossings_in_a_segment_that_reaches_H_one():
    # H = (1.3e-27, 1.5e-21, 1, 1): both crossings lie in the segment
    # (1, 1e6), whose upper node has no finite normal score
    fr = fit_gamma_intercept(dist.sample(dist.gamma(4.0, 0.625), RngStream(8), 20))
    table = build_curve(fr, "link_pivot", 280, grid=np.array([1e-3, 1.0, 1e6, 1e9]))
    assert 0 < table.H[1] < table.H[2] == 1
    lo, hi = table.interval_at(0.95)
    assert 1 < lo < hi < 1e6


def test_crossings_outside_the_grid_clamp_to_its_ends():
    # H < 0.025 on the first grid, so both crossings clamp to its last node;
    # H is about 1 on the second, so both clamp to its first
    fr = fit_gamma_intercept(dist.sample(dist.gamma(4.0, 0.625), RngStream(8), 20))
    assert build_curve(fr, "link_pivot", 280, grid=[40, 50, 60]).interval_at(0.95) == (60, 60)
    high = build_curve(fr, "link_pivot", 280, grid=[1e4, 1e5, 1e6])
    assert high.H[0] > 0.975 and high.interval_at(0.95) == (1e4, 1e4)


def test_curve_level_nesting():
    fr = gamma_fit(seed=4)
    table = build_curve(fr, "link_pivot", 280)
    lo1, hi1 = table.interval_at(0.99)
    lo2, hi2 = table.interval_at(0.90)
    assert lo1 < lo2 < hi2 < hi1


def test_curve_grid_refinement_stability():
    fr = gamma_fit(seed=5)
    coarse = build_curve(fr, "link_pivot", 280, n_points=501)
    fine = build_curve(fr, "link_pivot", 280, n_points=1001)
    step = float(np.max(np.diff(coarse.grid)))
    for level in (0.8, 0.95):
        for a, b in zip(coarse.interval_at(level), fine.interval_at(level)):
            assert abs(a - b) < step


def test_curve_density_integrates_to_one():
    fr = gamma_fit(seed=6)
    table = build_curve(fr, "link_pivot", 280)
    integral = np.trapezoid(table.density, table.grid)
    assert 0.99 <= integral <= 1.005


def test_curve_density_mode_near_median():
    fr = gamma_fit(seed=7)
    table = build_curve(fr, "link_pivot", 280)
    med = table._crossing(0.5)
    step = np.max(np.diff(table.grid))
    # log-normal pivot density: mode sits just below the median
    assert abs(table.density_mode() - med) < 0.1 * med + step


def test_four_curve_worked_example():
    fr = worked_fit()
    eq1 = build_curve(fr, "link_pivot", 280)
    eq2 = build_curve(fr, "ci_plug", 280)
    lo1, hi1 = eq1.interval_at(0.95)
    lo2, hi2 = eq2.interval_at(0.95)
    assert lo1 == pytest.approx(583.8, abs=1.5)
    assert hi1 == pytest.approx(914.9, abs=1.5)
    iv2 = intervals.predict_sum_plugci(fr, intervals.PredictionTarget(20, 280), 0.95)
    assert lo2 == pytest.approx(iv2.lower, abs=0.5)
    assert hi2 == pytest.approx(iv2.upper, abs=0.5)
    fk = build_curve(fr, "f_pivot", 280)
    ivf = intervals.predict_sum_fpivot(fr.mu_hat, 20, 280, fr.k_hat, 0.95)
    lof, hif = fk.interval_at(0.95)
    step = np.max(np.diff(fk.grid))
    assert abs(lof - ivf.lower) < step and abs(hif - ivf.upper) < step
    f1 = build_curve(fr, "f_pivot_k1", 280)
    iv1 = intervals.predict_sum_fpivot(fr.mu_hat, 20, 280, 1.0, 0.95)
    lo_, hi_ = f1.interval_at(0.95)
    step = np.max(np.diff(f1.grid))
    assert abs(lo_ - iv1.lower) < step and abs(hi_ - iv1.upper) < step


def test_curve_csv_roundtrip(tmp_path):
    fr = gamma_fit(seed=8)
    table = build_curve(fr, "link_pivot", 280, n_points=51)
    path = tmp_path / "curve.csv"
    table.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "value,H,H_minus,C,density"
    arr = np.loadtxt(lines[1:], delimiter=",")
    np.testing.assert_allclose(arr[:, 0], table.grid, rtol=1e-10)
    np.testing.assert_allclose(arr[:, 1], table.H, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# success confidence


def test_success_confidence_half_at_point():
    fr = or_fit()
    assert success_confidence(fr, 100, 600, 3.75) == pytest.approx(0.5, abs=1e-12)


def test_success_confidence_worked_value():
    fr = or_fit()
    assert success_confidence(fr, 100, 600, 1.71) == pytest.approx(0.86, abs=0.01)


def test_success_confidence_z_scale():
    fr = or_fit()
    got = success_confidence(fr, 100, 600, 1.96, statistic_scale="z_statistic")
    assert got == pytest.approx(0.86, abs=0.015)


def test_success_confidence_validation():
    fr = or_fit()
    with pytest.raises(ValueError):
        success_confidence(fr, 100, 600, -1.0)
    with pytest.raises(ValueError):
        success_confidence(gamma_fit(), 100, 600, 1.71)
    for scale in ("odds_ratio", "z_statistic"):
        with pytest.raises(ValueError, match="at least one future"):
            success_confidence(fr, 100, 0, 1.71, statistic_scale=scale)
