import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

import tolpred
from tolpred import dist
from tolpred.dist import DistSpec, ParameterDomainError, RngStream


CONTINUOUS_SPECS = [
    dist.normal(0.0, 1.0),
    dist.normal(-3.0, 2.5),
    DistSpec("student_t", {"df": 7.0}),
    DistSpec("noncentral_t", {"df": 19.0, "nc": 2.5}),
    DistSpec("chi_square", {"df": 4.0}),
    dist.f_dist(5.5, 12.0),
    dist.gamma(4.0, 2.5 / 4.0),
    dist.exponential(2.5),
    dist.weibull(1.5, 10.0),
]


def test_unknown_family_rejected():
    with pytest.raises(ParameterDomainError):
        DistSpec("cauchy", {})


@pytest.mark.parametrize("family,params", [
    ("normal", {"mean": 0.0, "sd": 0.0}),
    ("gamma", {"shape": -1.0, "scale": 1.0}),
    ("f", {"df1": 2.0, "df2": 0.0}),
    ("binomial", {"n": 2.5, "p": 0.3}),
    ("binomial", {"n": 4, "p": 1.2}),
    ("exponential", {"mean": 0.0}),
])
def test_bad_parameters_rejected(family, params):
    with pytest.raises(ParameterDomainError):
        DistSpec(family, params)


def test_normal_cdf_at_mean():
    assert dist.cdf(dist.normal(0, 1), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_exponential_median_closed_form():
    spec = dist.gamma(1.0, 2.5)
    assert dist.cdf(spec, 2.5 * math.log(2)) == pytest.approx(0.5, abs=1e-12)


def test_f_cdf_against_quadrature_oracle():
    # independent oracle: integrate the F density numerically
    d1, d2 = 560.0, 40.0
    val, err = integrate.quad(lambda x: stats.f.pdf(x, d1, d2), 0.0, 1.0,
                              limit=400, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    assert dist.cdf(dist.f_dist(d1, d2), 1.0) == pytest.approx(val, abs=1e-9)


def test_standard_normal_975_quantile():
    assert dist.quantile(dist.normal(0, 1), 0.975) == pytest.approx(1.959964, abs=1e-6)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.95, 0.999])
def test_critical_value_matches_reference_quantiles(level):
    q = 1 - (1 - level) / 2
    assert dist.critical_value(level) == pytest.approx(stats.norm.ppf(q), rel=1e-14)
    for df in (1, 19, 299):
        assert dist.critical_value(level, "t", df) == pytest.approx(
            stats.t.ppf(q, df), rel=1e-14)


def test_gamma_quantile_recruitment_sum():
    # total-time lower limit for 280 future arrivals at the lower mean limit
    q = dist.quantile(dist.gamma(280 * 5.22, 2.13 / 5.22), 0.025)
    assert q == pytest.approx(566.2, abs=0.5)


def test_poisson_quantile_brute_force():
    lam = 3.0
    spec = DistSpec("poisson", {"lam": lam})
    # direct cumulative summation oracle
    pmf = [math.exp(-lam) * lam ** i / math.factorial(i) for i in range(50)]
    cum = np.cumsum(pmf)
    expected = int(np.searchsorted(cum, 0.5))
    assert dist.quantile(spec, 0.5) == expected
    # the binomial quantile takes the same ceil-and-step path
    for n, pr in ((10, 0.3), (1, 0.5), (40, 0.97), (12, 0.0), (12, 1.0)):
        spec = DistSpec("binomial", {"n": n, "p": pr})
        pmf = [math.comb(n, i) * pr ** i * (1 - pr) ** (n - i) for i in range(n + 1)]
        cum = np.cumsum(pmf)
        for q in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert dist.quantile(spec, q) == min(int(np.searchsorted(cum, q)), n)


def test_quantile_domain_errors():
    with pytest.raises(ParameterDomainError):
        dist.quantile(dist.normal(0, 1), 0.0)
    with pytest.raises(ParameterDomainError):
        dist.quantile(dist.normal(0, 1), 1.0)


@pytest.mark.parametrize("spec", CONTINUOUS_SPECS,
                         ids=[s.family + str(i) for i, s in enumerate(CONTINUOUS_SPECS)])
def test_cdf_quantile_roundtrip(spec):
    p = np.arange(0.01, 1.0, 0.01)
    back = dist.cdf(spec, dist.quantile(spec, p))
    assert_allclose(back, p, atol=1e-9)


def _stats_oracle(spec):
    p = spec.params
    return {
        "normal": lambda: stats.norm(p["mean"], p["sd"]),
        "student_t": lambda: stats.t(p["df"]),
        "noncentral_t": lambda: stats.nct(p["df"], p["nc"]),
        "chi_square": lambda: stats.chi2(p["df"]),
        "f": lambda: stats.f(p["df1"], p["df2"]),
        "gamma": lambda: stats.gamma(p["shape"], scale=p["scale"]),
        "exponential": lambda: stats.expon(scale=p["mean"]),
        "weibull": lambda: stats.weibull_min(p["shape"], scale=p["scale"]),
    }[spec.family]()


@pytest.mark.parametrize("spec", CONTINUOUS_SPECS,
                         ids=[s.family + str(i) for i, s in enumerate(CONTINUOUS_SPECS)])
def test_kernel_equals_scipy_stats(spec):
    # the special-function kernel is exactly what scipy.stats evaluates
    ref = _stats_oracle(spec)
    p = np.arange(0.01, 1.0, 0.01)
    q = dist.quantile(spec, p)
    assert_array_equal(q, ref.ppf(p))
    x = np.concatenate([q, [-1.0, 0.0]])
    assert_array_equal(dist.cdf(spec, x), ref.cdf(x))


DISCRETE_SPECS = [
    DistSpec("poisson", {"lam": 3.7}),
    DistSpec("binomial", {"n": 12, "p": 0.3}),
]


@pytest.mark.parametrize("spec", DISCRETE_SPECS, ids=lambda s: s.family)
def test_discrete_kernel_equals_scipy_stats(spec):
    # the quantile is scipy's exactly; so is the poisson cdf, while SciPy
    # evaluates the binomial cdf with boost, which differs from bdtr by up
    # to a few 1e-12 relative
    p = spec.params
    ref = (stats.poisson(p["lam"]) if spec.family == "poisson"
           else stats.binom(p["n"], p["p"]))
    prob = np.arange(0.01, 1.0, 0.01)
    q = dist.quantile(spec, prob)
    assert_array_equal(q, ref.ppf(prob))
    # integers, points between them, and points below the support
    x = np.concatenate([np.arange(0.0, 31.0), np.arange(0.5, 31.0), [-1.0, -0.5]])
    got, want = dist.cdf(spec, x), ref.cdf(x)
    if spec.family == "poisson":
        assert_array_equal(got, want)
    else:
        assert_allclose(got, want, rtol=5e-12, atol=0)
    assert dist.cdf(spec, 2.5) == dist.cdf(spec, 2.0)


def _native_draws(spec, gen, count):
    """The documented draws of ``sample``: the generator's own sampler for
    normal, gamma, poisson, binomial and weibull, -mean*log(U) for the
    exponential, and the quantile of the stream's uniforms otherwise."""
    p = spec.params
    native = {
        "normal": lambda: gen.normal(p["mean"], p["sd"], size=count),
        "gamma": lambda: gen.gamma(p["shape"], p["scale"], size=count),
        "poisson": lambda: gen.poisson(p["lam"], size=count).astype(float),
        "binomial": lambda: gen.binomial(p["n"], p["p"], size=count).astype(float),
        "weibull": lambda: p["scale"] * gen.weibull(p["shape"], size=count),
        "exponential": lambda: -p["mean"] * np.log(gen.random(count)),
    }.get(spec.family, lambda: dist.quantile(spec, gen.random(count)))
    return native()


@pytest.mark.parametrize("spec", CONTINUOUS_SPECS + DISCRETE_SPECS,
                         ids=lambda s: s.family)
def test_every_family_samples_its_documented_draws(spec):
    draws = dist.sample(spec, RngStream(3, 2), 1000)
    assert_array_equal(draws, dist.sample(spec, RngStream(3, 2), 1000))
    assert_array_equal(draws, _native_draws(spec, RngStream(3, 2).generator(), 1000))
    assert draws.dtype == np.float64


def test_every_family_is_sampled():
    assert {s.family for s in CONTINUOUS_SPECS + DISCRETE_SPECS} == set(dist.FAMILIES)


def test_negative_sample_count_rejected():
    with pytest.raises(ParameterDomainError):
        dist.sample(dist.normal(0.0, 1.0), RngStream(1), -1)


def _loaded_by_import_tolpred(module: str) -> str:
    src = str(Path(tolpred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, tolpred; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    assert _loaded_by_import_tolpred("scipy.stats") == "False"


def test_import_leaves_scipy_interpolate_unloaded():
    # the ci_plug p-value interpolant is numpy only
    assert _loaded_by_import_tolpred("scipy.interpolate") == "False"


def test_f_reciprocal_symmetry():
    d1, d2 = 7.3, 21.0
    p = np.arange(0.05, 1.0, 0.05)
    q = dist.quantile(dist.f_dist(d1, d2), p)
    mirrored = dist.quantile(dist.f_dist(d2, d1), 1.0 - p)
    assert_allclose(1.0 / q, mirrored, rtol=1e-9)


# ---------------------------------------------------------------------------
# noncentral t against an independent quadrature oracle


def nct_cdf_oracle(x, df, nc):
    """P(T <= x) where T = (Z + nc)/sqrt(V/df): integrate the normal cdf
    against the chi density of sqrt(V)."""

    def integrand(s):
        chi_log_pdf = ((1 - df / 2) * math.log(2) + (df - 1) * math.log(s)
                       - s * s / 2 - math.lgamma(df / 2))
        return math.exp(chi_log_pdf) * stats.norm.cdf(x * s / math.sqrt(df) - nc)

    val, err = integrate.quad(integrand, 0.0, math.inf, limit=400,
                              epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return val


@pytest.mark.parametrize("df", [5.0, 19.0, 199.0])
@pytest.mark.parametrize("nc", [-40.0, -12.0, -1.645 * math.sqrt(20), 0.5, 8.0, 40.0])
def test_noncentral_t_cdf_vs_quadrature(df, nc):
    for x in (nc - 2.0, nc, nc + 1.5):
        got = dist.noncentral_t_cdf(x, df, nc)
        want = nct_cdf_oracle(x, df, nc)
        assert got == pytest.approx(want, abs=1e-8)


def test_noncentral_t_reduces_to_central():
    x = np.linspace(-10, 10, 81)
    assert_allclose(dist.noncentral_t_cdf(x, 12.0, 0.0), stats.t.cdf(x, 12.0),
                    atol=1e-10)


def test_noncentral_t_quantile_roundtrip():
    nc = stats.norm.ppf(0.95) * math.sqrt(20)
    q = dist.noncentral_t_quantile(0.975, 19.0, nc)
    assert dist.noncentral_t_cdf(q, 19.0, nc) == pytest.approx(0.975, abs=1e-8)


def test_noncentral_t_domain():
    with pytest.raises(ParameterDomainError):
        dist.noncentral_t_cdf(0.0, -1.0, 0.0)


@pytest.mark.parametrize("nc", [math.inf, -math.inf, math.nan])
def test_noncentral_t_rejects_a_non_finite_noncentrality(nc):
    for helper in (dist.noncentral_t_cdf, dist.noncentral_t_quantile):
        with pytest.raises(ParameterDomainError):
            helper(0.5, 5.0, nc)


# ---------------------------------------------------------------------------
# sampling


def test_sample_empty():
    out = dist.sample(dist.gamma(4, 0.625), RngStream(1), 0)
    assert out.size == 0


def test_sample_reproducible_and_streams_differ():
    spec = dist.gamma(4, 0.625)
    a = dist.sample(spec, RngStream(7, 3), 100)
    b = dist.sample(spec, RngStream(7, 3), 100)
    c = dist.sample(spec, RngStream(7, 4), 100)
    assert_allclose(a, b)
    assert not np.allclose(a, c)


def test_gamma_sample_mean_clt_bound():
    draws = dist.sample(dist.gamma(4.0, 2.5 / 4.0), RngStream(11), 10 ** 6)
    # sd of Gamma(4, 2.5/4) is 1.25; 3 sd / 1000 = 0.00375
    assert abs(draws.mean() - 2.5) < 3 * 1.25 / 1000


def test_exponential_inversion_matches_uniforms():
    rng = RngStream(5, 2)
    draws = dist.sample(dist.exponential(2.5), rng, 50)
    u = rng.uniforms(50)
    assert_allclose(draws, -2.5 * np.log(u), rtol=1e-12)


@pytest.mark.parametrize("spec", [
    dist.normal(1.0, 2.0),
    dist.gamma(4.0, 0.625),
    dist.exponential(3.0),
    dist.weibull(1.5, 10.0),
    DistSpec("student_t", {"df": 6.0}),
    dist.f_dist(8.0, 30.0),
])
def test_sampling_ks(spec):
    draws = dist.sample(spec, RngStream(42, hash(spec.family) % 1000), 10 ** 5)
    stat = stats.kstest(draws, lambda x: dist.cdf(spec, x)).statistic
    # 0.001-level critical value of the one-sample KS statistic
    crit = 1.949 / math.sqrt(10 ** 5)
    assert stat < crit


def test_substream_distinct():
    base = RngStream(3, 0)
    ids = {base.substream(i).stream_id for i in range(1000)}
    assert len(ids) == 1000


def test_substream_keys_do_not_collide():
    # a flat id stream_id*1_000_003 + idx + 1 gave both of these 1_000_004
    a = RngStream(3, 0).substream(1_000_003).uniforms(8)
    b = RngStream(3, 1).substream(0).uniforms(8)
    assert not np.array_equal(a, b)


def test_substream_is_a_child_of_its_root():
    # root streams draw from SeedSequence((seed, stream_id)); children sit in
    # numpy's spawn tree, so child 0 does not replay its root, as a child
    # keyed by a zero-padded longer entropy tuple would
    root = RngStream(3)
    want = np.random.default_rng(np.random.SeedSequence((3, 0))).random(8)
    assert_allclose(root.uniforms(8), want, rtol=0)
    child = np.random.default_rng(np.random.SeedSequence((3, 0)).spawn(1)[0])
    assert_allclose(root.substream(0).uniforms(8), child.random(8), rtol=0)
    assert not np.array_equal(root.substream(0).uniforms(8), root.uniforms(8))
