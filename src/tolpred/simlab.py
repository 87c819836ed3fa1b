"""Monte-Carlo coverage harness.

Reproduces the gamma coverage tables (seven interval methods, prediction and
tolerance targets) and the doubly stochastic Poisson-gamma site process in
which per-site rates are drawn once and held fixed while exponential
interarrivals accumulate to a study-level stream.

A cell streams through chunks of whole blocks of runs, each holding about
``_CHUNK_VALUES`` sample values.  The calling thread draws each chunk and
hands it to a thread pool with one worker per usable CPU, which fits it with
``fit.fit_gamma_rows`` (whose fields are per-run arrays), builds its
endpoints with the ``intervals.METHODS`` constructors for every method and
level, and keeps only its covered and usable counts; scipy's special
functions and numpy's array loops release the GIL, so the workers overlap.
At most one chunk per worker is in flight, so lab memory does not grow with
``n_runs``.  Run r depends only on (seed, r) and the counts are integers
added in chunk order, so the cells depend neither on the chunking nor on the
worker count.
"""

from __future__ import annotations

import contextvars
import io
import json
import math
import os
from collections import deque
from dataclasses import dataclass, asdict

import numpy as np

from . import dist, intervals
from .dist import RngStream
from .fit import FitResult, fit_gamma_rows

__all__ = [
    "ScenarioSpec",
    "CoverageCell",
    "CoverageReport",
    "run_gamma_coverage",
    "run_poisson_gamma",
    "emit_table",
    "METHOD_ORDER",
]

PREDICTION_METHODS = ("eq1", "eq2", "fpivot", "fpivot_k1", "plugin")
TOLERANCE_METHODS = ("eq3", "eq4", "eq5")
METHOD_ORDER = ("eq1", "eq2", "fpivot", "plugin", "eq3", "eq4", "eq5", "fpivot_k1")
METHOD_LABELS = {
    "eq1": "Link pivot",
    "eq2": "CI plug-in prediction",
    "fpivot": "F pivot",
    "fpivot_k1": "F pivot (k=1)",
    "plugin": "Plug-in",
    "eq3": "Delta tolerance",
    "eq4": "Noncentral-t tolerance",
    "eq5": "CI plug-in tolerance",
}
# the lab's convention for the eq2/eq5 mean and shape limits: model-based SE
# with the t critical value on n-1 df; it reproduces the published coverage
# columns
SE_KIND = "model"
CRIT = "t"
# runs drawn per generator: block b of a scenario holds runs
# b*BLOCK .. (b+1)*BLOCK - 1
BLOCK = 1024
# sample values per chunk of runs: a cell streams through chunks of whole
# blocks, so its memory does not grow with n_runs
_CHUNK_VALUES = 2 ** 16


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell: data process, sample sizes, methods, levels."""

    data_process: str                      # "gamma_fixed" | "poisson_gamma_sites"
    n: int
    N: int
    methods: tuple = ("eq1",)
    levels: tuple = (0.95,)
    content_p: float = 0.5
    n_runs: int = 10_000
    seed: int = 1
    k: float | None = None                 # gamma_fixed
    mu: float | None = None
    alpha: float | None = None             # poisson_gamma_sites
    beta: float | None = None
    n_sites: int | None = None
    fixed_rates: bool = False              # draw site rates once, reuse per trial

    def __post_init__(self):
        if not (2 <= self.n < self.N):
            raise ValueError("need 2 <= n < N")
        if self.n_runs < 1:
            raise ValueError("n_runs >= 1")
        if any(not (0 < lv < 1) for lv in self.levels):
            raise ValueError("levels must lie in (0,1)")
        if self.data_process == "gamma_fixed":
            if self.k is None or self.mu is None:
                raise ValueError("gamma_fixed needs k and mu")
        elif self.data_process == "poisson_gamma_sites":
            if self.alpha is None or self.beta is None or self.n_sites is None:
                raise ValueError("poisson_gamma_sites needs alpha, beta, n_sites")
        else:
            raise ValueError(f"unknown data process {self.data_process!r}")
        unknown = set(self.methods) - set(PREDICTION_METHODS) - set(TOLERANCE_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")

    @classmethod
    def from_json(cls, text_or_path) -> "ScenarioSpec":
        if isinstance(text_or_path, str) and text_or_path.lstrip().startswith("{"):
            raw = json.loads(text_or_path)
        else:
            with open(text_or_path) as fh:
                raw = json.load(fh)
        raw.pop("schema_version", None)
        for key in ("methods", "levels"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)

    def to_json(self) -> str:
        d = {"schema_version": 1, **asdict(self)}
        d["methods"] = list(self.methods)
        d["levels"] = list(self.levels)
        return json.dumps(d, indent=2)


@dataclass(frozen=True)
class CoverageCell:
    method: str
    level: float
    observed: float
    mc_se: float
    n_runs: int
    n_failed: int = 0

    def within(self, reference: float, n_se: float = 3.0) -> bool:
        return abs(self.observed - reference) <= n_se * max(self.mc_se, 1e-12)


@dataclass(frozen=True)
class CoverageReport:
    spec: ScenarioSpec
    cells: tuple

    def cell(self, method: str, level: float) -> CoverageCell:
        for c in self.cells:
            if c.method == method and abs(c.level - level) < 1e-12:
                return c
        raise KeyError((method, level))

    @property
    def failure_flagged(self) -> bool:
        return any(c.n_failed > 0.001 * self.spec.n_runs for c in self.cells)


def _chunks(spec: ScenarioSpec):
    """The run ranges a cell streams through: whole blocks holding about
    ``_CHUNK_VALUES`` sample values each (at least one block), the last one
    cut at ``n_runs``."""
    step = BLOCK * max(1, _CHUNK_VALUES // (BLOCK * spec.n))
    return [range(start, min(start + step, spec.n_runs))
            for start in range(0, spec.n_runs, step)]


def _blocks(seed: int, runs: range):
    """(generator, rows) for each block of ``BLOCK`` runs in ``runs``, which
    starts on a block boundary; ``rows`` index the range's own arrays.
    Block b draws from ``RngStream(seed).substream(b)``, and every block
    draws as if full and is then cut to the range, so run r depends only on
    (seed, r)."""
    base = RngStream(seed)
    for start in range(runs.start, runs.stop, BLOCK):
        stop = min(start + BLOCK, runs.stop)
        yield (base.substream(start // BLOCK).generator(),
               slice(start - runs.start, stop - runs.start))


def _draw_gamma_runs(spec: ScenarioSpec, runs: range | None = None):
    """The gamma samples, one row per run, and the realized future totals of
    the runs in ``runs`` (default: all of them)."""
    runs = range(spec.n_runs) if runs is None else runs
    n, n_fut = spec.n, spec.N - spec.n
    scale = spec.mu / spec.k
    y = np.empty((len(runs), n))
    future = np.empty(len(runs))
    for gen, rows in _blocks(spec.seed, runs):
        m = rows.stop - rows.start
        y[rows] = gen.gamma(spec.k, scale, size=(BLOCK, n))[:m]
        # the future total of n_fut iid gammas is itself gamma distributed
        future[rows] = gen.gamma(n_fut * spec.k, scale, size=BLOCK)[:m]
    return y, future


def _fixed_rates(spec: ScenarioSpec):
    """The site rates of a fixed-rate cell, drawn once from a root stream of
    their own (root 1: apart from the blocks, which are children of root
    0); None when every trial draws its own."""
    if not spec.fixed_rates:
        return None
    return RngStream(spec.seed, 1).generator().gamma(spec.alpha, spec.beta,
                                                     size=spec.n_sites)


def _draw_site_runs(spec: ScenarioSpec, runs: range | None = None, fixed=None):
    """The first n study-level interarrivals of the runs in ``runs`` (default:
    all of them) and the sum of the remaining N - n.  Per-trial site rates
    come from the run's block; fixed rates are ``fixed``, or
    ``_fixed_rates(spec)`` when not given."""
    runs = range(spec.n_runs) if runs is None else runs
    fixed = _fixed_rates(spec) if fixed is None else fixed
    n = spec.n
    y = np.empty((len(runs), n))
    future = np.empty(len(runs))
    for gen, rows in _blocks(spec.seed, runs):
        m = rows.stop - rows.start
        lam = fixed if fixed is not None else gen.gamma(spec.alpha, spec.beta,
                                                       size=(BLOCK, spec.n_sites))
        total = lam.sum(axis=-1, keepdims=True)[:m]
        gaps = gen.random((BLOCK, spec.N))[:m]
        np.divide(np.log(gaps, out=gaps), -total, out=gaps)   # in place: -log(u) / total
        y[rows] = gaps[:, :n]
        future[rows] = gaps[:, n:].sum(axis=1)
    return y, future


def _endpoints(method: str, fit: FitResult, level: float, spec: ScenarioSpec):
    iv = intervals.METHODS[method].build(fit, level, spec.N - spec.n, spec.content_p,
                                         SE_KIND, CRIT)
    return iv.lower, iv.upper


def _workers() -> int:
    """The CPUs this process may run on: one pool worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_counts(spec: ScenarioSpec, keys, y, future, tolerance_target):
    """(covered, usable) runs of one chunk for each (method, level) in
    ``keys``.  A prediction interval covers when it contains the run's
    future total; a tolerance interval when it contains both
    ``tolerance_target`` quantiles."""
    fit, ok = fit_gamma_rows(y)
    counts = []
    for method, level in keys:
        lo, hi = _endpoints(method, fit, level, spec)
        t_lo, t_hi = (tolerance_target if method in TOLERANCE_METHODS
                      else (future, future))
        use = ok & np.isfinite(lo) & np.isfinite(hi)
        counts.append((int(np.count_nonzero((lo <= t_lo) & (t_hi <= hi) & use)),
                       int(np.count_nonzero(use))))
    return counts


def _stream(spec: ScenarioSpec, chunks, tolerance_target=None) -> CoverageReport:
    """Coverage counts of every method x level, accumulated over ``chunks``
    of (samples, future totals).  The chunks are drawn on the calling thread
    and counted on a pool of ``_workers()`` threads, at most one chunk per
    worker in flight; the counts are added in chunk order, and an exception
    in a chunk stops the submitting and propagates."""
    # imported here, so that importing tolpred loads no thread pool module
    from concurrent.futures import ThreadPoolExecutor

    totals = {(method, level): [0, 0] for method in spec.methods for level in spec.levels}
    keys = list(totals)

    def add(done):
        for total, (covered, used) in zip(totals.values(), done.result()):
            total[0] += covered
            total[1] += used

    workers = _workers()
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for y, future in chunks:
            # each task runs in a copy of the caller's context, so the
            # caller's np.errstate holds in the workers too
            pending.append(pool.submit(contextvars.copy_context().run, _chunk_counts,
                                       spec, keys, y, future, tolerance_target))
            if len(pending) == workers:
                add(pending.popleft())
        while pending:
            add(pending.popleft())
    return _aggregate(spec, totals)


def _aggregate(spec, totals):
    cells = []
    for (method, level), (n_covered, n_used) in totals.items():
        obs = n_covered / n_used if n_used else float("nan")
        mc_se = math.sqrt(max(obs * (1 - obs), 1e-12) / n_used) if n_used else float("nan")
        cells.append(CoverageCell(method, level, obs, mc_se, n_used,
                                  n_failed=int(spec.n_runs - n_used)))
    return CoverageReport(spec, tuple(cells))


def run_gamma_coverage(spec: ScenarioSpec) -> CoverageReport:
    """Coverage under a fixed Gamma(k, mu/k) process.

    Prediction methods must contain the realized future total; a middle-p
    tolerance interval covers only if both true quantiles of the future-sum
    distribution lie inside it.
    """
    if spec.data_process != "gamma_fixed":
        raise ValueError("run_gamma_coverage needs a gamma_fixed scenario")
    future_sum = dist.gamma((spec.N - spec.n) * spec.k, spec.mu / spec.k)
    q_true = dist.quantile(future_sum,
                           [(1 - spec.content_p) / 2, (1 + spec.content_p) / 2])
    return _stream(spec, (_draw_gamma_runs(spec, runs) for runs in _chunks(spec)),
                   tuple(q_true))


def run_poisson_gamma(spec: ScenarioSpec) -> CoverageReport:
    """Coverage under the staggered-site process: site rates lambda_j drawn
    from Gamma(alpha, beta) (once, or per trial), sites run as independent
    Poisson streams, and the merged study-level interarrivals are predicted.

    Conditional on the rates, the merged stream is Poisson with the summed
    rate, so study-level interarrivals are exponential.
    """
    if spec.data_process != "poisson_gamma_sites":
        raise ValueError("run_poisson_gamma needs a poisson_gamma_sites scenario")
    if set(spec.methods) & set(TOLERANCE_METHODS):
        raise ValueError("tolerance targets are undefined for the site process")
    fixed = _fixed_rates(spec)   # once per cell, shared by every chunk
    return _stream(spec, (_draw_site_runs(spec, runs, fixed) for runs in _chunks(spec)))


def emit_table(report: CoverageReport, fmt: str = "text") -> str:
    """Render a CoverageReport; rows follow the canonical method order."""
    ordered = sorted(report.cells,
                     key=lambda c: (METHOD_ORDER.index(c.method), c.level))
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("method,level,observed,mc_se,n_runs,n_failed\n")
        for c in ordered:
            buf.write(f"{c.method},{c.level:g},{c.observed:.6f},"
                      f"{c.mc_se:.6f},{c.n_runs},{c.n_failed}\n")
        return buf.getvalue()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"{'Method':<24}{'Nominal':>9}{'Observed':>10}{'MC SE':>9}{'Runs':>8}"]
    for c in ordered:
        lines.append(f"{METHOD_LABELS[c.method]:<24}{c.level:>9.3f}"
                     f"{c.observed:>10.4f}{c.mc_se:>9.4f}{c.n_runs:>8}")
    return "\n".join(lines) + "\n"
