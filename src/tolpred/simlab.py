"""Monte-Carlo coverage harness.

Reproduces the gamma coverage tables (seven interval methods, prediction and
tolerance targets) and the doubly stochastic Poisson-gamma site process in
which per-site rates are drawn once and held fixed while exponential
interarrivals accumulate to a study-level stream.  One engine,
``run_coverage``, runs any data process of the ``PROCESSES`` table.

A cell streams through chunks of whole blocks of runs, each holding about
``_CHUNK_VALUES`` sample values.  The calling thread makes the process's
block draw, which holds what the cell's runs share, and queues every chunk
at once, as its run range alone, on a thread pool with one worker per usable
CPU.  A worker draws its chunk block by block, fits it with
``fit.fit_gamma_rows`` (whose fields are per-run arrays), scores every
method and level with ``intervals.METHODS`` (the F pivot by its p-value,
plugin, eq2 and eq5 by their sum cdf at the targets and eq3 by a screened SE
with exact ends near its targets, each exact, the rest by their endpoints; a
run is usable where its endpoints are finite, so for the F pivot none where
1-(1-level)/2 rounds to 1), and keeps only its covered and usable counts;
scipy's special functions, numpy's generators and its array loops release
the GIL, so the workers overlap.  Only running chunks hold samples, at most
one per worker, so lab memory does not grow with ``n_runs``.  Run r depends
only on (seed, r) and the counts are integers added in chunk order, so the
cells depend neither on the chunking nor on the worker count.
"""

from __future__ import annotations

import contextvars
import io
import json
import math
import numbers
import os
from dataclasses import dataclass, asdict, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import dist, intervals
from .dist import RngStream, critical_value
from .fit import fit_gamma_rows

__all__ = [
    "ScenarioSpec",
    "CoverageCell",
    "CoverageReport",
    "Process",
    "PROCESSES",
    "run_coverage",
    "run_gamma_coverage",
    "run_poisson_gamma",
    "emit_table",
    "METHOD_ORDER",
]

METHOD_LABELS = {   # the lab's methods and their table labels, in print order
    "eq1": "Link pivot",
    "eq2": "CI plug-in prediction",
    "fpivot": "F pivot",
    "plugin": "Plug-in",
    "eq3": "Delta tolerance",
    "eq4": "Noncentral-t tolerance",
    "eq5": "CI plug-in tolerance",
    "fpivot_k1": "F pivot (k=1)",
}
METHOD_ORDER = tuple(METHOD_LABELS)
# the lab's methods of each kind, in the method table's order
PREDICTION_METHODS, TOLERANCE_METHODS = (
    tuple(m for m, e in intervals.METHODS.items() if m in METHOD_ORDER and e.kind == kind)
    for kind in ("prediction", "tolerance"))
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


# the least value of each integer field, and the fields that are positive
# finite numbers
_LEAST_INTEGER = {"n": 2, "N": 1, "n_runs": 1, "seed": 0, "n_sites": 1}
_POSITIVE = ("k", "mu", "alpha", "beta")


def _number(val, kind=numbers.Real) -> bool:
    """Whether ``val`` is a number of ``kind``; JSON's true and false are not."""
    return isinstance(val, kind) and not isinstance(val, bool)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell: data process, sample sizes, methods, levels."""

    data_process: str                      # a ``PROCESSES`` key
    n: int
    N: int
    methods: tuple = ("eq1",)
    levels: tuple = (0.95,)
    content_p: float = 0.5
    n_runs: int = 10_000
    seed: int = 1
    k: float | None = None                 # the process's fields: see PROCESSES
    mu: float | None = None
    alpha: float | None = None
    beta: float | None = None
    n_sites: int | None = None
    fixed_rates: bool = False              # draw site rates once, reuse per trial

    def __post_init__(self):
        process = PROCESSES.get(self.data_process)
        if process is None:
            raise ValueError(f"unknown data process {self.data_process!r}")
        if any(getattr(self, name) is None for name in process.fields):
            raise ValueError(f"{self.data_process} needs {', '.join(process.fields)}")
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None and f.default is None:   # a field of another process
                continue
            least = _LEAST_INTEGER.get(f.name)
            if least is not None and not (_number(val, numbers.Integral) and val >= least):
                raise ValueError(f"{f.name} must be an integer of at least {least}, got {val!r}")
            if f.name in _POSITIVE and not (_number(val) and 0 < val < math.inf):
                raise ValueError(f"{f.name} must be a positive finite number, got {val!r}")
        if self.n >= self.N:
            raise ValueError("need n < N")
        if not all(_number(p) and 0 < p < 1 for p in (self.content_p, *self.levels)):
            raise ValueError("levels and content_p must lie in (0,1)")
        if not isinstance(self.fixed_rates, bool):
            raise ValueError(f"fixed_rates must be true or false, got {self.fixed_rates!r}")
        unknown = set(self.methods) - set(METHOD_ORDER)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if process.tolerance_target is None and set(self.methods) & set(TOLERANCE_METHODS):
            raise ValueError(f"tolerance targets are undefined for {self.data_process}")

    @classmethod
    def from_json(cls, text_or_path) -> "ScenarioSpec":
        if isinstance(text_or_path, str) and text_or_path.lstrip().startswith("{"):
            raw = json.loads(text_or_path)
        else:
            with open(text_or_path) as fh:
                raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("a scenario must be a JSON object")
        if (version := raw.pop("schema_version", 1)) != 1 or type(version) is not int:
            raise ValueError(f"unknown schema_version {version!r}: this tolpred reads 1")
        for key in ("methods", "levels"):
            if key in raw:
                raw[key] = tuple(raw[key])
                # a cell without methods only draws and fits: not a scenario
                if not raw[key]:
                    raise ValueError(f"a scenario needs at least one of its {key}")
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


def _draw_runs(spec: ScenarioSpec, runs: range, draw):
    """The samples, one row per run, and the future totals of the runs in
    ``runs``, which starts on a block boundary.  ``draw(gen)``, a process's
    block draw, draws the samples and future totals of one whole block of
    ``BLOCK`` runs from ``gen``.  Block b draws from
    ``RngStream(seed).substream(b)``, and every block draws in full and is
    then cut to the range, so run r depends only on (seed, r)."""
    y = np.empty((len(runs), spec.n))
    future = np.empty(len(runs))
    base = RngStream(spec.seed)
    for start in range(runs.start, runs.stop, BLOCK):
        i, m = start - runs.start, min(BLOCK, runs.stop - start)
        sample, total = draw(base.substream(start // BLOCK).generator())
        y[i:i + m], future[i:i + m] = sample[:m], total[:m]
    return y, future


def _gamma_block(spec: ScenarioSpec):
    """The block draw of gamma samples and their realized future totals;
    the future total of N - n iid gammas is itself gamma distributed."""
    scale = spec.mu / spec.k
    return lambda gen: (gen.gamma(spec.k, scale, size=(BLOCK, spec.n)),
                        gen.gamma((spec.N - spec.n) * spec.k, scale, size=BLOCK))


def _site_block(spec: ScenarioSpec):
    """The block draw of the first n study-level interarrivals and the sum
    of the remaining N - n.  Fixed site rates are drawn here, once per
    cell, from a root stream of their own (root 1: apart from the blocks,
    which are children of root 0); per-trial rates come from the block's
    generator.  A block draws its uniforms in row slices of at most
    ``_CHUNK_VALUES`` values (at least one row), so one draw holds at most
    max(``_CHUNK_VALUES``, N) doubles; PCG64 fills rows in order, so the
    slices draw the stream one whole-block call would."""
    fixed = (RngStream(spec.seed, 1).generator().gamma(spec.alpha, spec.beta, size=spec.n_sites)
             if spec.fixed_rates else None)
    rows = max(1, _CHUNK_VALUES // spec.N)

    def draw(gen):
        lam = fixed if fixed is not None else gen.gamma(spec.alpha, spec.beta,
                                                       size=(BLOCK, spec.n_sites))
        total = np.broadcast_to(lam.sum(axis=-1, keepdims=True), (BLOCK, 1))
        sample, rest = np.empty((BLOCK, spec.n)), np.empty(BLOCK)
        for i in range(0, BLOCK, rows):
            gaps = gen.random((min(rows, BLOCK - i), spec.N))
            np.divide(np.log(gaps, out=gaps), -total[i:i + rows], out=gaps)   # -log(u) / total
            sample[i:i + rows], rest[i:i + rows] = gaps[:, :spec.n], gaps[:, spec.n:].sum(axis=1)
        return sample, rest

    return draw


class Process(NamedTuple):
    """A data process of the lab: the ``ScenarioSpec`` fields it needs;
    ``block(spec)``, run once per cell on the calling thread, which draws
    what the cell's runs share and returns its block draw
    ``draw(gen) -> (samples, future totals)`` of one whole block of
    ``BLOCK`` runs, called on the pool threads, several at once, so it must
    be safe to call concurrently; and ``tolerance_target(spec)``, the two
    quantiles a tolerance interval must contain, or None when the process
    has none."""

    fields: tuple
    block: Callable
    tolerance_target: Callable | None


PROCESSES = {
    # iid Gamma(k, mu/k) observations; the future total is gamma too, and a
    # tolerance interval must hold the quantiles bounding its middle content_p
    "gamma_fixed": Process(("k", "mu"), _gamma_block,
                           lambda spec: tuple(dist.quantile(
                               dist.gamma((spec.N - spec.n) * spec.k, spec.mu / spec.k),
                               [(1 - spec.content_p) / 2, (1 + spec.content_p) / 2]))),
    # site rates from Gamma(alpha, beta), once per cell or per trial; given the
    # rates, the merged stream is Poisson, so its interarrivals are exponential
    "poisson_gamma_sites": Process(("alpha", "beta", "n_sites"), _site_block, None),
}


# the methods scored by their exact upper p-value function H: an interval of
# H's (1-level)/2 and 1-(1-level)/2 crossings holds t exactly when H(t) lies
# between them, so one fdtr per run replaces the F pivot's two fdtri per
# level; a run is usable where H(t) is finite and 1-(1-level)/2 below 1.
# eq2's p-value is a table, not exact; the methods with ``Method.ends`` are
# scored by their sum cdf, one gammainc per gammaincinv
_BY_PVALUE = ("fpivot",)


def _workers() -> int:
    """The CPUs this process may run on: one pool worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


# eq3's screen: its dq/dk's worst error in the gate, measured and rounded
# up, and the safety factor its margins take
_EQ3_RHO, _EQ3_RHO_Q, _EQ3_SAFETY = 2.5e-4, 1e-8, 100.0


def _eq3_ends(fit, ok, level, n_future, p, targets):
    """eq3's (lower, upper) ends of each run from its screened SE (README,
    "Simulation lab").  The runs of ``ok`` outside the gate, (N - n) k_hat in
    [0.1, 1e5] and k_hat >= 0.01, or within their margin of a target or of
    overflow, take ``METHODS["eq3"].build`` on a fit of those runs alone.
    The margin bounds the log end's move under a dq/dk error of
    e = SAFETY (RHO |dq/dk| + RHO_Q q/k) se_k: c/q e (2|g| + e)/se, with
    g = se_k dq/dk (the lab's fits have no (mu, k) covariance), plus rounding."""
    c, k, a = critical_value(level, "t", fit.n_obs - 1), fit.k_hat, n_future * fit.k_hat
    exact, ends = ~((a >= 0.1) & (a <= 1e5) & (k >= 0.01)), []
    with np.errstate(all="ignore"):   # the runs the screen cannot decide go exact
        for prob, sign, t in zip(((1 - p) / 2, (1 + p) / 2), (-1, 1), np.log(targets)):
            q, (se, d_k) = (intervals._sum_quantile(fit, prob, n_future),
                            intervals._delta_se(fit, prob, n_future, screened=True))
            e = _EQ3_SAFETY * (_EQ3_RHO * np.abs(d_k) + _EQ3_RHO_Q * q / k) * fit.se_k
            r, log_q = c * se / q, np.log(q)
            m = (c * e * (2 * np.abs(d_k) * fit.se_k + e) / (q * se)
                 + 1e-13 * (1 + np.abs(log_q) + r + abs(t)))
            log_end = log_q + sign * r
            exact |= ~((np.abs(log_end - t) > m) & (np.abs(log_end) + m < 700))
            ends.append(q * np.exp(sign * r))
    if (rows := np.flatnonzero(exact & ok)).size:
        sub = {f: v[rows] for f, v in vars(fit).items() if isinstance(v, np.ndarray)}
        iv = intervals.METHODS["eq3"].build(replace(fit, **sub), level, n_future, p, SE_KIND, CRIT)
        ends[0][rows], ends[1][rows] = iv.lower, iv.upper
    return ends


def _chunk_counts(spec: ScenarioSpec, keys, y, future, tolerance_target):
    """The (covered, usable) run counts of one chunk, a row for each
    (method, level) in ``keys``.  A prediction interval covers when it contains the run's
    future total; a tolerance interval when it contains both
    ``tolerance_target`` quantiles: lo <= t_lo and t_hi <= hi, or the same
    test of probabilities and p-values or cdfs.  A run is usable where its
    fit is and all four are finite."""
    fit, ok = fit_gamma_rows(y)
    n_future = spec.N - spec.n
    counts = np.zeros((len(keys), 2), dtype=np.int64)
    h = {m: intervals.METHODS[m].pvalue(fit, n_future, SE_KIND)[0](future)
         for m in _BY_PVALUE if m in spec.methods}
    for row, (method, level) in zip(counts, keys):
        entry = intervals.METHODS[method]
        targets = tolerance_target if entry.kind == "tolerance" else (future, future)
        if method in h:   # H at the future total between H's two crossings
            tail = (1 - level) / 2   # no upper crossing where 1 - tail rounds to 1
            lo, hi = tail, 1 - tail if 1 - tail < 1 else math.nan
            t_lo = t_hi = h[method]
        elif entry.ends:   # the cdf at each target against its end's probability
            ends = entry.ends(fit, level, n_future, spec.content_p, SE_KIND, CRIT)
            (lo, *_), (hi, *_) = ends
            t_lo, t_hi = (intervals._sum_cdf(fit, t, n_future, mu, k, prob)
                          for t, (prob, mu, k) in zip(targets, ends))
        elif method == "eq3":   # screened ends, exact near the targets
            lo, hi = _eq3_ends(fit, ok, level, n_future, spec.content_p, targets)
            t_lo, t_hi = targets
        else:
            iv = entry.build(fit, level, n_future, spec.content_p, SE_KIND, CRIT)
            lo, hi, (t_lo, t_hi) = iv.lower, iv.upper, targets
        use = ok & np.isfinite(lo) & np.isfinite(hi) & np.isfinite(t_lo) & np.isfinite(t_hi)
        row[:] = np.count_nonzero((lo <= t_lo) & (t_hi <= hi) & use), np.count_nonzero(use)
    return counts


def run_coverage(spec: ScenarioSpec) -> CoverageReport:
    """Coverage of every method x level of ``spec`` under its data process.
    The calling thread makes the process's block draw and queues each
    chunk's run range on a pool of ``_workers()`` threads, each of which
    draws and counts one chunk at a time, so at most ``_workers()`` chunks
    of samples are live.  The counts are added in chunk order; an exception
    in a chunk cancels the chunks not yet started and propagates."""
    # imported here, so that importing tolpred loads no thread pool module
    from concurrent.futures import ThreadPoolExecutor

    process = PROCESSES[spec.data_process]
    target = process.tolerance_target(spec) if process.tolerance_target else None
    draw = process.block(spec)
    keys = list(dict.fromkeys((m, level) for m in spec.methods for level in spec.levels))
    totals = np.zeros((len(keys), 2), dtype=np.int64)   # covered and usable runs

    def count(runs):
        return _chunk_counts(spec, keys, *_draw_runs(spec, runs, draw), target)

    with ThreadPoolExecutor(_workers()) as pool:
        # each task runs in a copy of the caller's context, so the caller's
        # np.errstate holds in the workers too
        pending = [pool.submit(contextvars.copy_context().run, count, runs)
                   for runs in _chunks(spec)]
        try:
            for chunk in pending:
                totals += chunk.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    cells = []
    for (method, level), (n_covered, n_used) in zip(keys, totals.tolist()):
        obs = n_covered / n_used if n_used else float("nan")
        mc_se = math.sqrt(max(obs * (1 - obs), 1e-12) / n_used) if n_used else float("nan")
        cells.append(CoverageCell(method, level, obs, mc_se, n_used,
                                  n_failed=int(spec.n_runs - n_used)))
    return CoverageReport(spec, tuple(cells))


def run_gamma_coverage(spec: ScenarioSpec) -> CoverageReport:
    """``run_coverage`` of a gamma_fixed scenario."""
    if spec.data_process != "gamma_fixed":
        raise ValueError("run_gamma_coverage needs a gamma_fixed scenario")
    return run_coverage(spec)


def run_poisson_gamma(spec: ScenarioSpec) -> CoverageReport:
    """``run_coverage`` of a poisson_gamma_sites scenario."""
    if spec.data_process != "poisson_gamma_sites":
        raise ValueError("run_poisson_gamma needs a poisson_gamma_sites scenario")
    return run_coverage(spec)


def _nominal(level) -> str:
    """A level to three decimals where that reads back as the level, else
    its shortest repr, so distinct levels print apart."""
    text = f"{level:.3f}"
    return text if float(text) == level else repr(float(level))


def emit_table(report: CoverageReport, fmt: str = "text") -> str:
    """Render a CoverageReport; rows follow the canonical method order.  A
    cell with no usable run leaves its observed coverage and MC SE empty.
    The CSV prints each level's shortest repr, which reads back as it."""
    ordered = sorted(report.cells,
                     key=lambda c: (METHOD_ORDER.index(c.method), c.level))
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("method,level,observed,mc_se,n_runs,n_failed\n")
        for c in ordered:
            cover = f"{c.observed:.6f},{c.mc_se:.6f}" if c.n_runs else ","
            buf.write(f"{c.method},{float(c.level)!r},{cover},{c.n_runs},{c.n_failed}\n")
        return buf.getvalue()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    nominal = [_nominal(c.level) for c in ordered]
    width = max([9, *map(len, nominal)])
    lines = [f"{'Method':<24}{'Nominal':>{width}}{'Observed':>10}{'MC SE':>9}{'Runs':>8}"]
    for c, level in zip(ordered, nominal):
        cover = f"{c.observed:>10.4f}{c.mc_se:>9.4f}" if c.n_runs else " " * (10 + 9)
        lines.append(f"{METHOD_LABELS[c.method]:<24}{level:>{width}}{cover}{c.n_runs:>8}")
    return "\n".join(lines) + "\n"
