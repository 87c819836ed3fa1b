"""Monte-Carlo coverage harness.

Reproduces the gamma coverage tables (seven interval methods, prediction and
tolerance targets) and the doubly stochastic Poisson-gamma site process in
which per-site rates are drawn once and held fixed while exponential
interarrivals accumulate to a study-level stream.  One engine,
``run_coverage``, runs any data process of the ``PROCESSES`` table.

A cell streams through chunks of whole blocks of runs: as few as keep a
chunk within ``_CHUNK_VALUES`` sample values, rounded up to a multiple of
the worker count, with the blocks split evenly between them.  The calling
thread makes the process's block draw, which holds what the cell's runs
share, and queues every chunk at once, as its run range alone, on a thread
pool with one worker per usable CPU.  A worker draws its chunk in place,
fits it with ``fit.fit_gamma_rows`` (per-run fields), scores every method
and level, keeps only its covered and usable counts.  A gamma fit takes the
``_SCORERS`` table, whose tables all index one lattice of the shape, nodes
exp(0.01 j): the F pivot brackets its p-value by ``betaincinv`` nodes,
plugin, eq2 and eq5 their quantiles by ``gammaincinv`` nodes, and eq3 reads
its ends from every other node; where they cannot tell, the exact p-value,
sum cdf or eq3 build decides.  Any other method or family takes its
``intervals.METHODS`` endpoints.  A process's cells share one node store,
which computes each node once.  A run is usable where its endpoints are
finite.  The workers overlap only in scipy's special functions and numpy's
generators, which release the GIL (README, "Simulation lab").  Only running
chunks hold samples, at most one per worker, so lab memory does not grow
with ``n_runs``.  Run r depends only on (seed, r), a table node only on its
table's key and index, every bracket and table decides a run as its exact
path would, and the counts are integers added in chunk order, so the cells
depend neither on the chunking nor on the worker count.
"""

from __future__ import annotations

import contextvars
import io
import json
import math
import numbers
import os
import threading
from dataclasses import dataclass, asdict, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import dist, intervals
from .dist import RngStream, critical_value
from .fit import FitResult, fit_gamma_rows

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
_CHUNK_VALUES = 2 ** 18


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
    """The run ranges a cell streams through: whole blocks, split as evenly
    as blocks allow into a multiple of ``_workers()`` chunks (fewer where
    the blocks run out), the fewest that keep every chunk of more than one
    block within ``_CHUNK_VALUES`` sample values; the last cut at
    ``n_runs``."""
    blocks, workers = -(-spec.n_runs // BLOCK), _workers()
    most = max(1, _CHUNK_VALUES // (BLOCK * spec.n))   # blocks per chunk
    count = min(blocks, workers * -(-blocks // (most * workers)))
    return [range(i * blocks // count * BLOCK, min((i + 1) * blocks // count * BLOCK, spec.n_runs))
            for i in range(count)]


def _draw_runs(spec: ScenarioSpec, runs: range, draw):
    """The samples, one row per run, and the future totals of the runs in
    ``runs``, which starts on a block boundary.  ``draw(gen, out)``, a
    process's block draw, draws the samples of one whole block of ``BLOCK``
    runs from ``gen`` into ``out`` and returns their future totals.  Block b
    draws from ``RngStream(seed).substream(b)``, and every block draws in
    full and is then cut to the range, so run r depends only on (seed, r)."""
    blocks = range(runs.start, runs.stop, BLOCK)
    y, future = np.empty((len(blocks) * BLOCK, spec.n)), np.empty(len(blocks) * BLOCK)
    base = RngStream(spec.seed)
    for i, start in enumerate(blocks):
        rows = slice(i * BLOCK, (i + 1) * BLOCK)
        future[rows] = draw(base.substream(start // BLOCK).generator(), y[rows])
    return y[:len(runs)], future[:len(runs)]


def _gamma_block(spec: ScenarioSpec):
    """The block draw of gamma samples and their realized future totals;
    the future total of N - n iid gammas is itself gamma distributed.  The
    samples are numpy's gamma(k, scale), scale * standard_gamma(k), in place."""
    scale = spec.mu / spec.k

    def draw(gen, out):
        np.multiply(gen.standard_gamma(spec.k, out=out), scale, out=out)
        return gen.gamma((spec.N - spec.n) * spec.k, scale, size=BLOCK)

    return draw


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

    def draw(gen, out):
        lam = fixed if fixed is not None else gen.gamma(spec.alpha, spec.beta,
                                                       size=(BLOCK, spec.n_sites))
        total = np.broadcast_to(lam.sum(axis=-1, keepdims=True), (BLOCK, 1))
        rest = np.empty(BLOCK)
        for i in range(0, BLOCK, rows):
            gaps = gen.random((min(rows, BLOCK - i), spec.N))
            np.divide(np.log(gaps, out=gaps), -total[i:i + rows], out=gaps)   # -log(u) / total
            out[i:i + rows], rest[i:i + rows] = gaps[:, :spec.n], gaps[:, spec.n:].sum(axis=1)
        return rest

    return draw


class Process(NamedTuple):
    """A data process of the lab: the ``ScenarioSpec`` fields it needs;
    ``block(spec)``, run once per cell on the calling thread, which draws
    what the cell's runs share and returns its block draw
    ``draw(gen, out) -> future totals`` of one whole block of ``BLOCK``
    runs, its samples drawn into ``out``, called on the pool threads,
    several at once, so it must be safe to call concurrently; and
    ``tolerance_target(spec)``, the two quantiles a tolerance interval must
    contain, or None when the process has none."""

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


def _workers() -> int:
    """The CPUs this process may run on: one pool worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


# the tables' node spacing in log shape; the brackets' probability slack, far
# beyond gammaincinv's and gammainc's rounding (gammaincinv: under 3e-12 relative
# below 0.5, 3e-15 absolute above); eq3's error factor; the store's cap in values
_BRACKET_STEP, _BRACKET_SLACK, _EQ3_SAFETY, _NODE_CAP = 0.01, 1e-9, 100.0, 2 ** 20


def _node_tables():
    """A store of quantile tables: ``nodes(key, j0, j1, f)`` is f(j) at the
    lattice indices j = j0..j1 (the last axis) of ``key``'s table, one run
    of indices grown by one call of f under one lock, so each node is
    computed once, whatever the order, until the store holds ``_NODE_CAP``
    values and starts over (``nodes.tables``: key -> (first index, values))."""
    lock, tables = threading.Lock(), {}

    def nodes(key, j0, j1, f):
        with lock:
            start, v = tables.get(key, (j0, None))
            stop = start if v is None else start + v.shape[-1]
            left, right = np.arange(j0, start), np.arange(stop, j1 + 1)
            if left.size or right.size:
                new = f(np.concatenate((left, right)))
                parts = (new,) if v is None else (new[..., :left.size], v, new[..., left.size:])
                if sum(w.size for _, w in tables.values()) + new.size > _NODE_CAP:
                    tables.clear()   # start over, from this table alone
                start, v = tables[key] = min(start, j0), np.concatenate(parts, axis=-1)
            return v[..., j0 - start:j1 + 1 - start]

    nodes.tables = tables
    return nodes


_NODES = _node_tables()   # the process's store, shared by every cell


def _lattice(fit, k):
    """The lattice of the shapes ``k``, which the fit keeps with k: u = log(k)
    / _BRACKET_STEP, the nodes j0..j1 around the finite u, their count, and
    each shape's segment 1 + floor(u) - j0, clipped to 0..j1 - j0 + 1."""
    if fit._memo.get(id(k), (None,))[0] is not k:
        u = np.log(k) / _BRACKET_STEP
        live = u[np.isfinite(u)]
        j0, j1 = (math.floor(live.min()), math.floor(live.max()) + 1) if live.size else (0, 0)
        fit._memo[id(k)] = k, u, j0, j1, live.size, np.fmin(
            np.fmax(np.floor(u) - (j0 - 1), 0), j1 - j0 + 1).astype(np.intp)
    return fit._memo[id(k)][1:]


def _gamma_nodes(prob, k, n_future):
    """Unit gamma quantiles at prob (1 -/+ slack) of n_future * k, rising in k."""
    return np.array([intervals._unit_quantile("gamma", prob * (1 + s), n_future, k)
                     for s in (-_BRACKET_SLACK, _BRACKET_SLACK)])


def _bracket(fit, prob, k, nodes, table, *args):
    """Bounds lo <= x <= hi on a quantile x at ``prob`` of each shape of
    ``k``: the lower row of ``table(prob, k, *args)`` at the node below the
    shape on the fit's ``_lattice`` of k, the upper row at the node above
    (the slack covers rounding, log(k)'s included).  Past the nodes one
    bound is left; none at prob 1, or without a table (kept by the fit, from
    the store ``nodes``) where the nodes outnumber a quarter of the shapes."""
    _, j0, j1, live, i = _lattice(fit, k)
    if prob >= 1 or j1 - j0 >= live // 4:
        return 0.0, np.inf
    key = (table, prob, *args)
    if key + (j0, j1) not in fit._memo:
        low, high = nodes(key, j0, j1, lambda j: table(prob, np.exp(j * _BRACKET_STEP), *args))
        tiny = np.finfo(float).tiny   # a subnormal or NaN node bounds nothing
        fit._memo[key + (j0, j1)] = (np.append(0.0, np.where(low > tiny, low, 0.0)),
                                     np.append(np.where(high > tiny, high, np.inf), np.inf))
    low, high = fit._memo[key + (j0, j1)]
    return low[i], high[i]


def _holds(lo, hi, t_lo, t_hi):
    """Whether lo <= t_lo and t_hi <= hi, and whether all four are finite."""
    finite = np.isfinite(lo) & np.isfinite(hi) & np.isfinite(t_lo) & np.isfinite(t_hi)
    return (lo <= t_lo) & (t_hi <= hi), finite


def _build_holds(method, fit, ok, level, n_future, p, targets, nodes):
    """The endpoint scorer, exact for every method and family: whether the
    method table's interval of each run holds its targets, and is usable."""
    iv = intervals.METHODS[method].build(fit, level, n_future, p, SE_KIND, CRIT)
    return _holds(iv.lower, iv.upper, *targets)


def _fpivot_nodes(prob, k, n_future, n):
    """The F pivot's (lower, upper) rows at the shapes ``k``: H(t) = I_y(a,
    b), a = (N - n) k, b = n k, y = t / (t + n mu), and Beta(a, b) grows
    with a and shrinks with b, so the y quantiles at prob (1 -/+ slack) of
    (a, b at the next node up) and of (a, b at the next node down)."""
    return np.array([intervals.betaincinv(n_future * k, n * k * math.exp(-s * _BRACKET_STEP),
                                          prob * (1 + s * _BRACKET_SLACK)) for s in (-1, 1)])


def _rows(fit, rows):
    """The fit of the runs ``rows`` alone."""
    return replace(fit, **{f: v[rows] for f, v in vars(fit).items() if isinstance(v, np.ndarray)})


def _pvalue_holds(method, fit, ok, level, n_future, p, targets, nodes):
    """Whether each run's interval of H's (1-level)/2 and 1-(1-level)/2
    crossings holds its future total t, and is usable (H(t) finite and
    1-(1-level)/2 below 1), H the F pivot's exact upper p-value: by the
    ``_fpivot_nodes`` brackets where they place y inside both crossings or
    outside one, else by H."""
    t, tail, n = targets[0], (1 - level) / 2, fit.n_obs
    y = np.where(np.isfinite(fit.k_hat), t / (t + n * fit.mu_hat), np.nan)
    (lo, hi), (lo_up, hi_up) = (_bracket(fit, q, fit.k_hat, nodes, _fpivot_nodes, n_future, n)
                                for q in (tail, 1 - tail))
    held, use = (y > hi) & (y < lo_up), np.full(y.shape, 1 - tail < 1)
    if (rows := np.flatnonzero(~(held | (y < lo) | (y > hi_up)))).size:
        h = intervals.METHODS[method].pvalue(_rows(fit, rows), n_future, SE_KIND)[0](t[rows])
        held[rows], use[rows] = (tail <= h) & (h <= 1 - tail), np.isfinite(h) & (1 - tail < 1)
    return held, use


def _ends_hold(method, fit, ok, level, n_future, p, targets, nodes):
    """Whether each run's ``Method.ends`` pair holds its two targets (lower
    end at or below its target, upper at or above) and is usable, as the sum
    cdf ``intervals._sum_cdf`` decides: by the end's ``_bracket`` where x = t
    k / mu lies outside it, else (or near overflow) by the cdf of those runs."""
    held, use = True, True
    ends = intervals.METHODS[method].ends(fit, level, n_future, p, SE_KIND, CRIT)
    for t, (prob, mu, k), lower in zip(targets, ends, (True, False)):
        mu, shape = fit.mu_hat if mu is None else mu, fit.k_hat if k is None else k
        x = t / (scale := mu / shape)
        lo, hi = _bracket(fit, prob, shape, nodes, _gamma_nodes, n_future)
        above, below = x > hi, x < lo
        holds, usable = above if lower else below, np.ones(np.shape(x), dtype=bool)
        rows = np.flatnonzero(~((above | below) & (scale * (2 * n_future * shape + 100) <= 1e308)))
        if rows.size:
            f = intervals._sum_cdf(fit, t if np.ndim(t) == 0 else t[rows], n_future,
                                   mu[rows], shape[rows], prob)
            holds[rows], usable[rows] = prob <= f if lower else f <= prob, np.isfinite(f)
        held, use = held & holds, use & usable
    return held, use


def _eq3_table(fit, prob, n_future, nodes):
    """eq3's log q and se/q at ``prob`` of each run, and error bounds on
    them, which the fit keeps: L = log q and G = |dq/dk| k/q at mean 1 on
    every other node of the fit's shape ``_lattice``, linear in log k in
    between, from the method table's own ``_sum_quantile`` and ``_delta_se``
    at the nodes and the segments' midpoints (store ``nodes``); a segment's
    error bound is SAFETY times the largest error at its own and its
    neighbours' midpoints.  The lab's fits have no (mu, k) covariance, so
    se/q = hypot(se_mu/mu, G se_k/k), within eG se_k/k under an error eG."""
    key = ("eq3_table", prob, n_future)
    if key not in fit._memo:
        u, j0, j1 = _lattice(fit, fit.k_hat)[:3]   # halved exactly: 0.02 == 2 * 0.01
        u, j0, j1 = u / 2, j0 // 2, max((j1 - 1) // 2 + 1, j0 // 2 + 1)

        def table(i):   # L and G at exp(i * _BRACKET_STEP): nodes and midpoints
            k = np.exp(i * _BRACKET_STEP)
            at = FitResult("gamma", "log", np.ones_like(k), fit.n_obs, k_hat=k,
                           se_mu=np.zeros_like(k), se_k=np.ones_like(k), cov_mu_k=0.0)
            q = intervals._sum_quantile(at, prob, n_future)
            q[~((q > 1e-290) & (q < 1e290))] = np.nan   # no table of rounded quantiles
            return np.array([np.log(q), intervals._delta_se(at, prob, n_future) * k / q])

        j = np.fmin(np.fmax(np.floor(u), j0), j1 - 1).astype(np.intp) - j0
        w = u - j0 - j
        runs = []
        for v in nodes(("eq3", prob, n_future), 2 * j0, 2 * j1, table):
            e = np.abs(v[1::2] - (v[:-1:2] + v[2::2]) / 2)   # at the midpoints
            e = np.maximum(e, np.maximum(np.append(e[1:], 0), np.append(0, e[:-1])))
            runs += [v[::2][j] + w * (v[2::2] - v[:-1:2])[j], _EQ3_SAFETY * e[j]]
        log_q, e_q, g, e_g = runs
        g_k = fit.se_k / fit.k_hat
        log_q, s, e_s = log_q + np.log(fit.mu_hat), np.hypot(fit.se_mu / fit.mu_hat, g * g_k), e_g * g_k
        rounds = ~(np.abs(log_q + np.log(s)) < 230)   # where eq3's squared SE terms round
        e_q[rounds] = e_s[rounds] = np.inf
        fit._memo[key] = log_q, s, e_q, e_s
    return fit._memo[key]


def _eq3_ends(fit, ok, level, n_future, p, targets, nodes):
    """eq3's (lower, upper) ends of each run from its tables, log q -/+ c
    se/q (README, "Simulation lab").  Under the tables' errors the log end
    moves by at most e_q + c e_s; that bound plus rounding is a run's
    margin.  The runs of ``ok`` within their margin of a target or of
    overflow take ``METHODS["eq3"].build`` on a fit of those runs alone."""
    c = critical_value(level, "t", fit.n_obs - 1)
    exact, ends = np.zeros_like(ok), []
    with np.errstate(all="ignore"):   # the runs the tables cannot decide go exact
        for prob, sign, t in zip(((1 - p) / 2, (1 + p) / 2), (-1, 1), np.log(targets)):
            log_q, s, e_q, e_s = _eq3_table(fit, prob, n_future, nodes)
            log_end = log_q + sign * c * s
            m = e_q + c * e_s + 1e-13 * (1 + np.abs(log_end) + c * s + abs(t))
            exact |= ~((np.abs(log_end - t) > m) & (np.abs(log_end) + m < 700))
            ends.append(np.exp(log_end))
    if (rows := np.flatnonzero(exact & ok)).size:
        iv = intervals.METHODS["eq3"].build(_rows(fit, rows), level, n_future, p, SE_KIND, CRIT)
        ends[0][rows], ends[1][rows] = iv.lower, iv.upper
    return ends


# the scorers ``(method, fit, ok, level, n_future, p, targets, nodes) -> (held,
# usable)`` of a gamma fit; other families and methods take ``_build_holds``
_SCORERS = {"fpivot": _pvalue_holds,
            "eq3": lambda method, fit, ok, level, n_future, p, targets, nodes: _holds(
                *_eq3_ends(fit, ok, level, n_future, p, targets, nodes), *targets),
            **{m: _ends_hold for m, e in intervals.METHODS.items() if e.ends}}


def _chunk_counts(spec: ScenarioSpec, keys, y, future, tolerance_target, nodes):
    """The (covered, usable) run counts of one chunk, a row for each
    (method, level) in ``keys``, with the tables of the store ``nodes``.  A
    prediction interval covers when it contains the run's future total; a
    tolerance interval when it contains both ``tolerance_target`` quantiles.
    A gamma fit's methods take their ``_SCORERS`` entries, others ``_build_holds``."""
    fit, ok = fit_gamma_rows(y)
    scorers = _SCORERS if fit.family == "gamma" else {}
    counts = np.zeros((len(keys), 2), dtype=np.int64)
    for row, (method, level) in zip(counts, keys):
        targets = tolerance_target if intervals.METHODS[method].kind == "tolerance" else (future, future)
        held, use = scorers.get(method, _build_holds)(
            method, fit, ok, level, spec.N - spec.n, spec.content_p, targets, nodes)
        row[:] = np.count_nonzero(held & use & ok), np.count_nonzero(use & ok)
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
        return _chunk_counts(spec, keys, *_draw_runs(spec, runs, draw), target, _NODES)

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
