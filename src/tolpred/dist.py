"""Probability kernel: cdf/quantile/sampling for the distribution families
used by the interval constructors, the noncentral t, and the two-sided
critical values of the normal and Student-t pivots.

The kernel is ``scipy.special``: each cdf and quantile is the ufunc that
SciPy's distribution objects evaluate, on the same arguments, so results
are theirs bit for bit without loading SciPy's statistics package.

All functions are pure; randomness is isolated in :class:`RngStream`, a value
object whose (seed, stream_id) pair fully determines the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import (bdtr, bdtrik, chdtr, expm1, fdtr, fdtri, gammainc,
                           gammaincinv, log1p, nctdtr, nctdtrit, ndtr, ndtri,
                           pdtr, pdtrik, stdtr, stdtrit)

__all__ = [
    "ParameterDomainError",
    "DistSpec",
    "RngStream",
    "cdf",
    "quantile",
    "sample",
    "noncentral_t_cdf",
    "noncentral_t_quantile",
    "critical_value",
]


class ParameterDomainError(ValueError):
    """A distribution parameter or function argument is outside its domain."""


def _discrete(cdf_at, inverse):
    """(cdf, quantile) of an integer-valued family from its cdf at integers
    and the real-valued inverse; the quantile is scipy's ceil-and-step."""
    def cdf_(x, p):
        k = np.floor(x)
        return np.where(k < 0, 0.0, cdf_at(np.maximum(k, 0.0), p))[()]

    def quantile_(q, p):
        k = np.ceil(inverse(q, p))
        below = np.maximum(k - 1, 0.0)
        return np.where(cdf_at(below, p) >= q, below, k)

    return cdf_, quantile_


# family -> (cdf(x, params), quantile(q, params)); the families on [0, inf)
# see x clipped at 0, where their cdf is 0
_KERNEL = {
    "normal": (lambda x, p: ndtr((x - p["mean"]) / p["sd"]),
               lambda q, p: ndtri(q) * p["sd"] + p["mean"]),
    "student_t": (lambda x, p: stdtr(p["df"], x), lambda q, p: stdtrit(p["df"], q)),
    "noncentral_t": (lambda x, p: nctdtr(p["df"], p["nc"], x),
                     lambda q, p: nctdtrit(p["df"], p["nc"], q)),
    "chi_square": (lambda x, p: chdtr(p["df"], np.maximum(x, 0.0)),
                   lambda q, p: 2 * gammaincinv(p["df"] / 2, q)),
    "f": (lambda x, p: fdtr(p["df1"], p["df2"], np.maximum(x, 0.0)),
          lambda q, p: fdtri(p["df1"], p["df2"], q)),
    "gamma": (lambda x, p: gammainc(p["shape"], np.maximum(x, 0.0) / p["scale"]),
              lambda q, p: gammaincinv(p["shape"], q) * p["scale"]),
    "exponential": (lambda x, p: -expm1(-(np.maximum(x, 0.0) / p["mean"])),
                    lambda q, p: -log1p(-q) * p["mean"]),
    "poisson": _discrete(lambda k, p: pdtr(k, p["lam"]),
                         lambda q, p: pdtrik(q, p["lam"])),
    # bdtrik is NaN at p=0, where all the mass sits at 0
    "binomial": _discrete(lambda k, p: bdtr(np.minimum(k, p["n"]), int(p["n"]), p["p"]),
                          lambda q, p: np.nan_to_num(bdtrik(q, int(p["n"]), p["p"]))),
    "weibull": (lambda x, p: -expm1(-(np.maximum(x, 0.0) / p["scale"]) ** p["shape"]),
                lambda q, p: (-log1p(-q)) ** (1.0 / p["shape"]) * p["scale"]),
}
FAMILIES = tuple(_KERNEL)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterDomainError(msg)


@dataclass(frozen=True)
class DistSpec:
    """Tagged distribution descriptor.

    Parameter conventions:
      normal(mean, sd); student_t(df); noncentral_t(df, nc);
      chi_square(df); f(df1, df2), non-integer df permitted;
      gamma(shape, scale); exponential(mean);
      poisson(lam); binomial(n, p); weibull(shape, scale).
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _require(self.family in FAMILIES, f"unknown family {self.family!r}")
        p = self.params
        fam = self.family
        if fam == "normal":
            _require(p["sd"] > 0, "normal sd must be > 0")
        elif fam == "student_t":
            _require(p["df"] > 0, "t df must be > 0")
        elif fam == "noncentral_t":
            _require(p["df"] > 0, "noncentral t df must be > 0")
            _require(math.isfinite(p["nc"]), "noncentrality must be finite")
        elif fam == "chi_square":
            _require(p["df"] > 0, "chi-square df must be > 0")
        elif fam == "f":
            _require(p["df1"] > 0 and p["df2"] > 0, "F df must be > 0")
        elif fam == "gamma":
            _require(p["shape"] > 0 and p["scale"] > 0, "gamma shape/scale must be > 0")
        elif fam == "exponential":
            _require(p["mean"] > 0, "exponential mean must be > 0")
        elif fam == "poisson":
            _require(p["lam"] > 0, "poisson rate must be > 0")
        elif fam == "binomial":
            _require(int(p["n"]) == p["n"] and p["n"] >= 1, "binomial n must be integer >= 1")
            _require(0.0 <= p["p"] <= 1.0, "binomial p must be in [0,1]")
        elif fam == "weibull":
            _require(p["shape"] > 0 and p["scale"] > 0, "weibull shape/scale must be > 0")


# convenience constructors

def normal(mean: float, sd: float) -> DistSpec:
    return DistSpec("normal", {"mean": mean, "sd": sd})


def gamma(shape: float, scale: float) -> DistSpec:
    return DistSpec("gamma", {"shape": shape, "scale": scale})


def exponential(mean: float) -> DistSpec:
    return DistSpec("exponential", {"mean": mean})


def f_dist(df1: float, df2: float) -> DistSpec:
    return DistSpec("f", {"df1": df1, "df2": df2})


def weibull(shape: float, scale: float) -> DistSpec:
    return DistSpec("weibull", {"shape": shape, "scale": scale})


def cdf(spec: DistSpec, x) -> float | np.ndarray:
    """Cumulative distribution function, vectorized over ``x``."""
    return _KERNEL[spec.family][0](np.asarray(x, dtype=float), spec.params)


def quantile(spec: DistSpec, p) -> float | np.ndarray:
    """Inverse cdf; for discrete families, the smallest x with cdf(x) >= p."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ParameterDomainError("quantile probability must be in (0,1)")
    out = _KERNEL[spec.family][1](p, spec.params)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    A root stream (integer ``stream_id``) draws from numpy's
    ``SeedSequence((seed, stream_id))``.  ``substream(i)`` is child ``i`` of
    its stream's seed sequence in numpy's spawn tree (``spawn_key``), and
    its ``stream_id`` is the tuple ``(root id, *spawn key)``, so every node
    of the tree has its own id and statistically independent draws.  The
    child index travels in the spawn key, not in a longer entropy tuple:
    numpy pads short entropy with zeros, so ``SeedSequence((s, 0, 0))``
    equals ``SeedSequence((s, 0))`` and child 0 would replay its root.
    """

    seed: int
    stream_id: int | tuple = 0

    @property
    def _path(self) -> tuple:
        return self.stream_id if isinstance(self.stream_id, tuple) else (self.stream_id,)

    def generator(self) -> np.random.Generator:
        root, *key = self._path
        return np.random.default_rng(np.random.SeedSequence((self.seed, root),
                                                            spawn_key=key))

    def substream(self, idx: int) -> "RngStream":
        return RngStream(self.seed, (*self._path, idx))

    def uniforms(self, count: int) -> np.ndarray:
        return self.generator().random(count)


def sample(spec: DistSpec, rng: RngStream, count: int) -> np.ndarray:
    """Draw ``count`` variates; identical (seed, stream_id) reproduce draws.

    Exponential draws use inversion (-mean*log(U)) so they line up with the
    stream's uniforms; other families use the generator's native samplers.
    """
    if count < 0:
        raise ParameterDomainError("count must be >= 0")
    if count == 0:
        return np.empty(0)
    gen = rng.generator()
    p = spec.params
    fam = spec.family
    if fam == "exponential":
        return -p["mean"] * np.log(gen.random(count))
    if fam == "gamma":
        return gen.gamma(p["shape"], p["scale"], size=count)
    if fam == "normal":
        return gen.normal(p["mean"], p["sd"], size=count)
    if fam == "poisson":
        return gen.poisson(p["lam"], size=count).astype(float)
    if fam == "binomial":
        return gen.binomial(int(p["n"]), p["p"], size=count).astype(float)
    if fam == "weibull":
        return p["scale"] * gen.weibull(p["shape"], size=count)
    # remaining families via inversion of uniforms
    return np.asarray(quantile(spec, gen.random(count)))


def noncentral_t_cdf(x, df: float, nc: float) -> float | np.ndarray:
    """Noncentral-t cdf; reduces exactly to the central t at nc=0."""
    if df <= 0:
        raise ParameterDomainError("df must be > 0")
    return stdtr(df, x) if nc == 0.0 else nctdtr(df, nc, x)


def noncentral_t_quantile(p, df: float, nc: float) -> float | np.ndarray:
    """Inverse of :func:`noncentral_t_cdf`."""
    if df <= 0:
        raise ParameterDomainError("df must be > 0")
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ParameterDomainError("probability must be in (0,1)")
    out = stdtrit(df, p) if nc == 0.0 else nctdtrit(df, nc, p)
    return float(out) if out.ndim == 0 else out


def critical_value(level: float, crit: str = "z", df: float | None = None) -> float:
    """Two-sided critical value: the 1-(1-level)/2 quantile of the standard
    normal (``crit='z'``) or of Student t with ``df`` degrees of freedom
    (``crit='t'``)."""
    q = 1 - (1 - level) / 2
    return stdtrit(df, q) if crit == "t" else ndtri(q)
