"""Synthetic recruitment series shared by the application and CLI tests."""

import numpy as np

from tolpred.applications import RecruitmentSeries


def make_recruitment_fixture(seed: int = 38, n_periods: int = 31) -> RecruitmentSeries:
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
