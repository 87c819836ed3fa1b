"""Probability kernel: cdf/quantile/sampling for the distribution families
used by the interval constructors, the noncentral t, and the two-sided
critical values of the normal and Student-t pivots.

The kernel is ``scipy.special``: each family's row in ``_KERNEL`` holds its
parameter domain, its cdf and quantile (the ufuncs SciPy's distribution
objects evaluate, on the same arguments) and its sampler, so results are
SciPy's bit for bit without loading its statistics package.  Two exceptions:
SciPy evaluates the binomial cdf with boost, which differs from ``bdtr`` by
up to a few 1e-12 relative, and the noncentral t at nc = 0 is the central t,
whose quantile differs from ``nctdtrit``'s in the last few bits.

All functions are pure; randomness is isolated in :class:`RngStream`, a value
object whose (seed, stream_id) pair fully determines the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import (bdtr, bdtrik, chdtr, expm1, fdtr, fdtri, gammainc,
                           gammaincinv, log1p, nctdtr, nctdtrit, ndtr, ndtri,
                           pdtr, pdtrik, stdtr, stdtrit)

__all__ = [
    "ParameterDomainError",
    "DistSpec",
    "RngStream",
    "normal",
    "gamma",
    "exponential",
    "f_dist",
    "weibull",
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


class _Row(NamedTuple):
    """A family's kernel row: whether its params lie in the domain, its
    cdf(x, params) and quantile(q, params), and its native sampler
    draw(gen, params, count), or None to draw by inverting the uniforms."""

    domain: Callable
    cdf: Callable
    quantile: Callable
    draw: Callable | None = None


def _positive(*names):
    return lambda p: all(p[name] > 0 for name in names)


# the families on [0, inf) see x clipped at 0, where their cdf is 0; the
# noncentral t is exactly the central t at nc = 0
_KERNEL = {
    "normal": _Row(_positive("sd"), lambda x, p: ndtr((x - p["mean"]) / p["sd"]),
                   lambda q, p: ndtri(q) * p["sd"] + p["mean"],
                   lambda gen, p, m: gen.normal(p["mean"], p["sd"], size=m)),
    "student_t": _Row(_positive("df"), lambda x, p: stdtr(p["df"], x),
                      lambda q, p: stdtrit(p["df"], q)),
    "noncentral_t": _Row(
        lambda p: p["df"] > 0 and math.isfinite(p["nc"]),
        lambda x, p: stdtr(p["df"], x) if p["nc"] == 0 else nctdtr(p["df"], p["nc"], x),
        lambda q, p: stdtrit(p["df"], q) if p["nc"] == 0 else nctdtrit(p["df"], p["nc"], q)),
    "chi_square": _Row(_positive("df"), lambda x, p: chdtr(p["df"], np.maximum(x, 0.0)),
                       lambda q, p: 2 * gammaincinv(p["df"] / 2, q)),
    "f": _Row(_positive("df1", "df2"), lambda x, p: fdtr(p["df1"], p["df2"], np.maximum(x, 0.0)),
              lambda q, p: fdtri(p["df1"], p["df2"], q)),
    "gamma": _Row(_positive("shape", "scale"),
                  lambda x, p: gammainc(p["shape"], np.maximum(x, 0.0) / p["scale"]),
                  lambda q, p: gammaincinv(p["shape"], q) * p["scale"],
                  lambda gen, p, m: gen.gamma(p["shape"], p["scale"], size=m)),
    # drawn by inversion, -mean*log(U), so the draws line up with the uniforms
    "exponential": _Row(_positive("mean"), lambda x, p: -expm1(-(np.maximum(x, 0.0) / p["mean"])),
                        lambda q, p: -log1p(-q) * p["mean"],
                        lambda gen, p, m: -p["mean"] * np.log(gen.random(m))),
    "poisson": _Row(_positive("lam"), *_discrete(lambda k, p: pdtr(k, p["lam"]),
                                                 lambda q, p: pdtrik(q, p["lam"])),
                    lambda gen, p, m: gen.poisson(p["lam"], size=m).astype(float)),
    # bdtrik is NaN at p=0, where all the mass sits at 0
    "binomial": _Row(
        lambda p: int(p["n"]) == p["n"] and p["n"] >= 1 and 0.0 <= p["p"] <= 1.0,
        *_discrete(lambda k, p: bdtr(np.minimum(k, p["n"]), int(p["n"]), p["p"]),
                   lambda q, p: np.nan_to_num(bdtrik(q, int(p["n"]), p["p"]))),
        lambda gen, p, m: gen.binomial(int(p["n"]), p["p"], size=m).astype(float)),
    "weibull": _Row(_positive("shape", "scale"),
                    lambda x, p: -expm1(-(np.maximum(x, 0.0) / p["scale"]) ** p["shape"]),
                    lambda q, p: (-log1p(-q)) ** (1.0 / p["shape"]) * p["scale"],
                    lambda gen, p, m: p["scale"] * gen.weibull(p["shape"], size=m)),
}
FAMILIES = tuple(_KERNEL)


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
        if self.family not in _KERNEL:
            raise ParameterDomainError(f"unknown family {self.family!r}")
        if not _KERNEL[self.family].domain(self.params):
            raise ParameterDomainError(f"{self.family} params {self.params} are out of domain")


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
    return _KERNEL[spec.family].cdf(np.asarray(x, dtype=float), spec.params)


def quantile(spec: DistSpec, p) -> float | np.ndarray:
    """Inverse cdf; for discrete families, the smallest x with cdf(x) >= p."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ParameterDomainError("quantile probability must be in (0,1)")
    out = _KERNEL[spec.family].quantile(p, spec.params)
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

    Each family draws with its kernel row's sampler, or by inversion of the
    stream's uniforms where the row has none.
    """
    if count < 0:
        raise ParameterDomainError("count must be >= 0")
    if count == 0:
        return np.empty(0)
    gen = rng.generator()
    draw = _KERNEL[spec.family].draw
    if draw is None:
        return np.asarray(quantile(spec, gen.random(count)))
    return draw(gen, spec.params, count)


def noncentral_t_cdf(x, df: float, nc: float) -> float | np.ndarray:
    """Noncentral-t cdf; reduces exactly to the central t at nc=0."""
    return cdf(DistSpec("noncentral_t", {"df": df, "nc": nc}), x)


def noncentral_t_quantile(p, df: float, nc: float) -> float | np.ndarray:
    """Inverse of :func:`noncentral_t_cdf`."""
    return quantile(DistSpec("noncentral_t", {"df": df, "nc": nc}), p)


def critical_value(level: float, crit: str = "z", df: float | None = None) -> float:
    """Two-sided critical value: the 1-(1-level)/2 quantile of the standard
    normal (``crit='z'``) or of Student t with ``df`` degrees of freedom
    (``crit='t'``).  Any other ``crit``, or 't' without ``df``, raises
    ``ValueError``."""
    q = 1 - (1 - level) / 2
    if crit == "z":
        return ndtri(q)
    if crit != "t":
        raise ValueError(f"crit must be 'z' or 't', got {crit!r}")
    if df is None:
        raise ValueError("crit 't' needs its degrees of freedom df")
    return stdtrit(df, q)
