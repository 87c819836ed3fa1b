import json
import math
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import gammaincinv

from tolpred import dist, intervals, simlab
from tolpred.fit import FitResult, fit_gamma_intercept, fit_gamma_rows
from tolpred.simlab import (CoverageCell, ScenarioSpec, emit_table, run_coverage,
                            run_gamma_coverage, run_poisson_gamma)


def gamma_spec(**kw):
    base = dict(data_process="gamma_fixed", n=20, N=300, k=4.0, mu=2.5,
                methods=("eq1",), levels=(0.95,), n_runs=500, seed=7)
    base.update(kw)
    return ScenarioSpec(**base)


def site_spec(**kw):
    base = dict(data_process="poisson_gamma_sites", n=20, N=300,
                alpha=4.0, beta=0.033 / 4, n_sites=20,
                methods=("eq1",), levels=(0.95,), n_runs=500, seed=7)
    base.update(kw)
    return ScenarioSpec(**base)


def draw_runs(spec):
    """Every run's sample and future total, from the process's block draw."""
    block = simlab.PROCESSES[spec.data_process].block(spec)
    return simlab._draw_runs(spec, range(spec.n_runs), block)


# ---------------------------------------------------------------------------
# scenario spec


def test_spec_validation():
    with pytest.raises(ValueError):
        gamma_spec(n=300)                      # n >= N
    with pytest.raises(ValueError):
        gamma_spec(n_runs=0)
    with pytest.raises(ValueError):
        gamma_spec(levels=(1.2,))
    with pytest.raises(ValueError):
        gamma_spec(k=None)
    with pytest.raises(ValueError):
        site_spec(alpha=None)
    with pytest.raises(ValueError):
        gamma_spec(methods=("eq9",))
    with pytest.raises(ValueError):
        ScenarioSpec(data_process="bootstrap", n=20, N=300)


@pytest.mark.parametrize("key", ["methods", "levels"])
def test_a_cell_without_methods_draws_and_fits_but_is_no_scenario(key):
    # a method-less cell is the lab's base cost (draws and fits alone)
    assert run_gamma_coverage(gamma_spec(**{key: ()})).cells == ()
    raw = json.loads(gamma_spec().to_json())
    raw[key] = []
    with pytest.raises(ValueError, match=key):
        ScenarioSpec.from_json(json.dumps(raw))


def test_spec_json_roundtrip(tmp_path):
    spec = gamma_spec(methods=("eq1", "eq5"), levels=(0.8, 0.95))
    text = spec.to_json()
    assert json.loads(text)["schema_version"] == 1
    assert ScenarioSpec.from_json(text) == spec
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert ScenarioSpec.from_json(str(path)) == spec


@pytest.mark.parametrize("version", [99, "1", True, 1.0])
def test_unknown_schema_version_is_rejected(version):
    raw = json.loads(gamma_spec().to_json())
    raw["schema_version"] = version
    with pytest.raises(ValueError, match="schema_version"):
        ScenarioSpec.from_json(json.dumps(raw))
    del raw["schema_version"]   # a scenario without the key is version 1
    assert ScenarioSpec.from_json(json.dumps(raw)) == gamma_spec()


# ---------------------------------------------------------------------------
# determinism


def test_report_deterministic():
    a = run_gamma_coverage(gamma_spec())
    b = run_gamma_coverage(gamma_spec())
    assert a.cells == b.cells


def test_runs_are_prefix_stable():
    # row r depends only on (seed, r), so extending the budget keeps
    # earlier draws identical
    y1, f1 = draw_runs(gamma_spec(n_runs=40))
    y2, f2 = draw_runs(gamma_spec(n_runs=80))
    np.testing.assert_array_equal(y1, y2[:40])
    np.testing.assert_array_equal(f1, f2[:40])


@pytest.mark.parametrize("spec", [
    gamma_spec, site_spec, lambda **kw: site_spec(fixed_rates=True, **kw),
], ids=["gamma", "sites", "sites_fixed_rates"])
def test_runs_are_prefix_stable_across_blocks(spec):
    # runs are drawn BLOCK at a time; a budget that ends mid-block draws the
    # same runs as one that fills it and goes on to later blocks
    assert 1000 < simlab.BLOCK < 2500
    y1, f1 = draw_runs(spec(n_runs=1000))
    y2, f2 = draw_runs(spec(n_runs=2500))
    np.testing.assert_array_equal(y1, y2[:1000])
    np.testing.assert_array_equal(f1, f2[:1000])
    assert not np.array_equal(y2[:1000], y2[simlab.BLOCK:simlab.BLOCK + 1000])


def test_single_run_reproducible_boolean():
    a = run_gamma_coverage(gamma_spec(n_runs=1))
    b = run_gamma_coverage(gamma_spec(n_runs=1))
    assert a.cell("eq1", 0.95).observed == b.cell("eq1", 0.95).observed
    assert a.cell("eq1", 0.95).observed in (0.0, 1.0)


def test_seed_changes_results():
    a = run_gamma_coverage(gamma_spec(seed=1))
    b = run_gamma_coverage(gamma_spec(seed=2))
    assert a.cell("eq1", 0.95).observed != b.cell("eq1", 0.95).observed


# ---------------------------------------------------------------------------
# aggregation arithmetic


def test_mc_se_formula():
    rep = run_gamma_coverage(gamma_spec(n_runs=2000))
    c = rep.cell("eq1", 0.95)
    want = math.sqrt(c.observed * (1 - c.observed) / c.n_runs)
    assert c.mc_se == pytest.approx(want, rel=1e-12)
    # at 10k runs and 95% coverage the half-width 3*mc_se is about 0.0065
    assert math.sqrt(0.95 * 0.05 / 10_000) == pytest.approx(0.00218, abs=1e-4)


def test_within_band():
    cell = CoverageCell("eq1", 0.95, observed=0.950, mc_se=0.00218, n_runs=10_000)
    assert cell.within(0.9550)
    assert not cell.within(0.9566)


def test_failure_flag_threshold():
    spec = gamma_spec(n_runs=2000)
    clean = simlab.CoverageReport(spec, (CoverageCell("eq1", 0.95, 0.95, 0.005,
                                                      1999, n_failed=1),))
    dirty = simlab.CoverageReport(spec, (CoverageCell("eq1", 0.95, 0.95, 0.005,
                                                      1997, n_failed=3),))
    assert not clean.failure_flagged
    assert dirty.failure_flagged


# ---------------------------------------------------------------------------
# coverage sanity


def test_gamma_eq1_near_nominal_large_n():
    rep = run_gamma_coverage(gamma_spec(n=290, n_runs=2000))
    c = rep.cell("eq1", 0.95)
    assert c.within(0.95)


def test_fpivot_k1_exact_when_k_is_one():
    # the F pivot on the observed mean is exact for exponential data
    spec = gamma_spec(k=1.0, methods=("fpivot_k1",), levels=(0.5, 0.95),
                      n_runs=4000)
    rep = run_gamma_coverage(spec)
    assert rep.cell("fpivot_k1", 0.5).within(0.5)
    assert rep.cell("fpivot_k1", 0.95).within(0.95)


def test_plugin_undercovers_small_sample():
    rep = run_gamma_coverage(gamma_spec(methods=("plugin",), n_runs=2000))
    assert rep.cell("plugin", 0.95).observed < 0.6


def test_eq2_wider_than_plugin_coverage():
    spec = gamma_spec(methods=("eq2", "plugin"), n_runs=2000)
    rep = run_gamma_coverage(spec)
    assert rep.cell("eq2", 0.95).observed > rep.cell("plugin", 0.95).observed


def test_tolerance_coverage_orders():
    spec = gamma_spec(methods=("eq4", "eq5"), n_runs=2000, content_p=0.5)
    rep = run_gamma_coverage(spec)
    for m in ("eq4", "eq5"):
        assert 0.85 < rep.cell(m, 0.95).observed <= 1.0


def test_lab_endpoints_are_the_table_run_by_run():
    # one array call per cell equals the same table entry called on each
    # run's scalar fit in the lab convention (model SE, t critical value),
    # and the reported coverage is the coverage of those scalar intervals
    spec = gamma_spec(methods=simlab.METHOD_ORDER, levels=(0.8, 0.95),
                      n_runs=200, seed=3)
    n_fut, p = spec.N - spec.n, spec.content_p
    y, future = draw_runs(spec)
    fit, ok = fit_gamma_rows(y)
    assert ok.all()
    fits = [fit_gamma_intercept(row) for row in y]
    q_lo, q_hi = stats.gamma.ppf([(1 - p) / 2, (1 + p) / 2], n_fut * spec.k,
                                 scale=spec.mu / spec.k)
    report = run_gamma_coverage(spec)
    for name in spec.methods:
        method = intervals.METHODS[name]
        for level in spec.levels:
            iv = method.build(fit, level, n_fut, p, simlab.SE_KIND, simlab.CRIT)
            lo, hi = iv.lower, iv.upper
            runs = [method.build(f, level, n_fut, p, "model", "t") for f in fits]
            np.testing.assert_allclose(lo, [iv.lower for iv in runs], rtol=1e-12)
            np.testing.assert_allclose(hi, [iv.upper for iv in runs], rtol=1e-12)
            if method.kind == "tolerance":
                covered = [iv.lower <= q_lo and q_hi <= iv.upper for iv in runs]
            else:
                covered = [iv.contains(x) for iv, x in zip(runs, future)]
            assert report.cell(name, level).observed == np.mean(covered)


def record_gammaincinv(monkeypatch, probs=False):
    """The shapes of every gammaincinv call of ``intervals``, and of the
    ``dist`` kernel at an array of shapes, in call order, or with ``probs``
    their (probability, shapes) pairs."""
    shapes, real = [], intervals.gammaincinv

    def counted(a, p):
        shapes.append((p, np.asarray(a)) if probs else np.asarray(a))
        return real(a, p)

    def kernel(a, p):   # the unit quantiles at shape arrays, not a cell's true quantiles
        return (counted if np.ndim(a) else real)(a, p)

    monkeypatch.setattr(intervals, "gammaincinv", counted)
    monkeypatch.setattr(dist, "gammaincinv", kernel)
    return shapes


def fresh_store(monkeypatch):
    """An empty node store for the process, and the index arrays of the
    nodes it computes, in call order."""
    store, computed = simlab._node_tables(), []

    def nodes(key, j0, j1, f):
        return store(key, j0, j1, lambda j: computed.append(j) or f(j))

    nodes.tables = store.tables
    monkeypatch.setattr(simlab, "_NODES", nodes)
    return computed


def test_level_free_gamma_quantiles_are_computed_once_per_cell(monkeypatch):
    # in a one-chunk cell where no run takes an exact path, gammaincinv sees
    # only the tables' node arrays (increasing, and far fewer than the
    # runs): eq3 tabulates its two level-free probabilities once for both
    # levels (3 calls each: quantile and finite difference), plugin and eq2
    # share one table pair per probability, and eq5 takes one pair per level
    # and end; the site process's prediction methods likewise.  Each cell
    # starts from an empty node store; run again in the same process, it
    # computes no node and is the same cell
    monkeypatch.setattr(simlab, "_workers", lambda: 1)
    shapes = record_gammaincinv(monkeypatch)
    calls = {}
    for methods, levels in [(("eq3",), (0.8,)), (("eq3",), (0.8, 0.95)), (("plugin",), (0.8, 0.95)),
                            (("plugin", "eq2"), (0.8, 0.95)), (("eq5",), (0.8, 0.95)),
                            (simlab.METHOD_ORDER, (0.8, 0.95))]:
        shapes.clear()
        computed = fresh_store(monkeypatch)
        spec = gamma_spec(n=50, methods=methods, levels=levels, n_runs=3000)
        assert len(simlab._chunks(spec)) == 1
        cells = repr(run_gamma_coverage(spec))
        assert all(a.size < spec.n_runs / 4 and np.all(np.diff(a) > 0) for a in shapes)
        calls[methods, levels] = len(shapes)
        computed.clear()
        assert repr(run_gamma_coverage(spec)) == cells and computed == []
    assert list(calls.values()) == [6, 6, 8, 8, 8, 6 + 8 + 8]
    shapes.clear()
    computed = fresh_store(monkeypatch)
    spec = site_spec(methods=simlab.PREDICTION_METHODS, levels=(0.8, 0.95), n_runs=3000)
    cells = repr(run_poisson_gamma(spec))
    assert len(shapes) == 8 and all(a.size < spec.n_runs / 4 and np.all(np.diff(a) > 0)
                                    for a in shapes)
    computed.clear()
    assert repr(run_poisson_gamma(spec)) == cells and computed == []


def test_eq3_exact_path_computes_only_its_runs(monkeypatch):
    # in a one-chunk cell whose runs sit near their targets, each level
    # sends the runs its tables cannot decide to the method table's eq3,
    # whose two quantiles and four finite-difference quantiles see only
    # those runs; the tables' 6 calls see only node arrays
    exact, in_build = [], []
    entry = intervals.METHODS["eq3"]

    def build(fit, *args):
        exact.append(fit.k_hat)
        start = len(shapes)
        iv = entry.build(fit, *args)
        in_build.extend(range(start, len(shapes)))
        return iv

    shapes = record_gammaincinv(monkeypatch)
    monkeypatch.setitem(intervals.METHODS, "eq3", replace(entry, build=build))
    monkeypatch.setattr(simlab, "_workers", lambda: 1)
    spec = gamma_spec(n=3, N=4, k=0.3, mu=1.0, methods=("eq3",), levels=(0.8, 0.95),
                      content_p=0.9, n_runs=8000, seed=1)
    assert len(simlab._chunks(spec)) == 1
    run_gamma_coverage(spec)
    assert len(exact) == 2 and 0 < sum(map(len, exact)) < spec.n_runs
    assert [shapes[i].size for i in in_build] == [len(rows) for rows in exact for _ in range(6)]
    tables = [a for i, a in enumerate(shapes) if i not in in_build]
    assert len(tables) == 6 and all(a.size < spec.n_runs / 4 and np.all(np.diff(a) > 0)
                                    for a in tables)
    fit, _ = fit_gamma_rows(draw_runs(spec)[0])
    assert all(np.isin(rows, fit.k_hat).all() for rows in exact)


def test_wrong_process_rejected():
    with pytest.raises(ValueError):
        run_gamma_coverage(site_spec())
    with pytest.raises(ValueError):
        run_poisson_gamma(gamma_spec())


def test_site_process_rejects_tolerance_targets():
    with pytest.raises(ValueError):
        run_poisson_gamma(site_spec(methods=("eq3",)))


def test_site_process_matches_exponential_limit():
    # alpha -> infinity with alpha*beta fixed degenerates to constant rates,
    # where merged interarrivals are exactly exponential: coverage should
    # agree with the fixed exponential process within Monte-Carlo noise
    mean_rate = 0.033
    site = site_spec(alpha=4e5, beta=mean_rate / 4e5, n_sites=20, n_runs=3000)
    fixed = gamma_spec(k=1.0, mu=1.0 / (20 * mean_rate), n_runs=3000)
    a = run_poisson_gamma(site).cell("eq1", 0.95)
    b = run_gamma_coverage(fixed).cell("eq1", 0.95)
    assert abs(a.observed - b.observed) < 3 * math.hypot(a.mc_se, b.mc_se)


def test_site_process_fixed_rates_near_nominal():
    rep = run_poisson_gamma(site_spec(fixed_rates=True, methods=("fpivot_k1",),
                                      n_runs=3000))
    assert rep.cell("fpivot_k1", 0.95).within(0.95)


# ---------------------------------------------------------------------------
# streaming through chunks of runs


def whole_array_cells(spec):
    """The cells computed from every run at once: one draw, one fit and one
    array of endpoints per method and level."""
    gamma = spec.data_process == "gamma_fixed"
    y, future = draw_runs(spec)
    fit, ok = fit_gamma_rows(y)
    if gamma:
        q_lo, q_hi = dist.quantile(dist.gamma((spec.N - spec.n) * spec.k, spec.mu / spec.k),
                                   [(1 - spec.content_p) / 2, (1 + spec.content_p) / 2])
    cells = []
    for method in spec.methods:
        for level in spec.levels:
            iv = intervals.METHODS[method].build(fit, level, spec.N - spec.n, spec.content_p,
                                                 simlab.SE_KIND, simlab.CRIT)
            lo, hi = iv.lower, iv.upper
            if method in simlab.TOLERANCE_METHODS:
                covered = (lo <= q_lo) & (q_hi <= hi)
            else:
                covered = (lo <= future) & (future <= hi)
            use = covered[ok & np.isfinite(lo) & np.isfinite(hi)]
            obs = float(use.mean())
            cells.append(CoverageCell(method, level, obs,
                                      math.sqrt(max(obs * (1 - obs), 1e-12) / use.size),
                                      use.size, n_failed=spec.n_runs - use.size))
    return tuple(cells)


@pytest.mark.parametrize("spec", [
    gamma_spec(n=290, n_runs=2500, methods=simlab.METHOD_ORDER, levels=(0.8, 0.95)),
    gamma_spec(n=20, n_runs=25_000, methods=simlab.METHOD_ORDER, levels=(0.8, 0.95)),
    site_spec(n=290, n_runs=2500, methods=simlab.PREDICTION_METHODS, levels=(0.8, 0.95)),
    site_spec(n=290, n_runs=2500, methods=simlab.PREDICTION_METHODS, levels=(0.8, 0.95),
              fixed_rates=True),
    gamma_spec(n=290, n_runs=1, methods=simlab.METHOD_ORDER),
    site_spec(n=290, n_runs=1, methods=simlab.PREDICTION_METHODS, fixed_rates=True),
], ids=["gamma_n290", "gamma_n20", "sites", "sites_fixed_rates", "gamma_1_run",
        "sites_1_run"])
def test_chunked_cells_equal_the_whole_array_cells(monkeypatch, spec):
    # each run's endpoints depend only on (seed, r) and its own row, so
    # streaming a cell through chunks reproduces the all-runs computation;
    # three workers make at least three chunks on any host
    monkeypatch.setattr(simlab, "_workers", lambda: 3)
    chunks = simlab._chunks(spec)
    if spec.n_runs > 1:
        assert len(chunks) >= 3 and spec.n_runs % len(chunks[0]) and spec.n_runs % simlab.BLOCK
    assert [r for chunk in chunks for r in chunk] == list(range(spec.n_runs))
    runner = run_gamma_coverage if spec.data_process == "gamma_fixed" else run_poisson_gamma
    assert runner(spec).cells == whole_array_cells(spec)


def test_fixed_site_rates_are_drawn_once_per_cell(monkeypatch):
    # the rates draw from root stream 1; the blocks from children of root 0
    made = []
    real = dist.RngStream.generator
    monkeypatch.setattr(dist.RngStream, "generator",
                        lambda self: made.append(self.stream_id) or real(self))
    spec = site_spec(n=290, n_runs=2500, fixed_rates=True)
    assert len(simlab._chunks(spec)) >= 3
    run_poisson_gamma(spec)
    assert made.count(1) == 1


# ---------------------------------------------------------------------------
# the chunk pool


POOL_SPECS = [
    gamma_spec(n=20, n_runs=7000, methods=simlab.METHOD_ORDER, levels=(0.8, 0.95)),
    gamma_spec(n=290, n_runs=2500, methods=simlab.METHOD_ORDER, levels=(0.8, 0.95)),
    site_spec(n=290, n_runs=2500, methods=simlab.PREDICTION_METHODS, levels=(0.8, 0.95)),
    site_spec(n=290, n_runs=2500, methods=simlab.PREDICTION_METHODS, levels=(0.8, 0.95),
              fixed_rates=True),
]
POOL_IDS = ["gamma_n20", "gamma_n290", "sites", "sites_fixed_rates"]


def _run(spec):
    runner = run_gamma_coverage if spec.data_process == "gamma_fixed" else run_poisson_gamma
    return runner(spec)


@pytest.mark.parametrize("spec", POOL_SPECS, ids=POOL_IDS)
def test_cells_do_not_depend_on_the_worker_count(monkeypatch, spec):
    # counts are integers added in chunk order; three workers on a shorter
    # switch interval interleave the chunks as much as the host allows, and
    # each worker count cuts the cell into its own chunks
    monkeypatch.setattr(simlab, "_workers", lambda: 3)
    assert len(simlab._chunks(spec)) >= 3
    reports = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(simlab, "_workers", lambda workers=workers: workers)
            reports[workers] = repr(_run(spec).cells)
    finally:
        sys.setswitchinterval(interval)
    assert reports[2] == reports[1] and reports[3] == reports[1]


@pytest.mark.parametrize("spec", POOL_SPECS[1:], ids=POOL_IDS[1:])
def test_each_worker_draws_the_chunk_it_fits(monkeypatch, spec):
    # the caller makes only the fixed site rates' generator (root stream 1);
    # each block's generator is made once, on a pool thread, and every fit
    # runs on a pool thread
    made, fitted = [], []
    real_generator, real_fit = dist.RngStream.generator, simlab.fit_gamma_rows

    def generator(self):
        made.append((self.stream_id, threading.get_ident()))
        return real_generator(self)

    def fit_rows(y):
        fitted.append(threading.get_ident())
        return real_fit(y)

    monkeypatch.setattr(dist.RngStream, "generator", generator)
    monkeypatch.setattr(simlab, "fit_gamma_rows", fit_rows)
    monkeypatch.setattr(simlab, "_workers", lambda: 2)
    _run(spec)
    caller = threading.get_ident()
    blocks = -(-spec.n_runs // simlab.BLOCK)
    assert [sid for sid, thread in made if thread == caller] == [1] * spec.fixed_rates
    assert (Counter(sid for sid, thread in made if thread != caller)
            == Counter((0, b) for b in range(blocks)))
    assert len(fitted) == len(simlab._chunks(spec))
    assert caller not in fitted


def test_workers_run_under_the_callers_errstate(monkeypatch):
    seen = []
    real_fit = simlab.fit_gamma_rows

    def fit_rows(y):
        seen.append(np.geterr()["over"])
        return real_fit(y)

    monkeypatch.setattr(simlab, "fit_gamma_rows", fit_rows)
    monkeypatch.setattr(simlab, "_workers", lambda: 2)
    with np.errstate(over="raise"):
        run_gamma_coverage(gamma_spec(n=290, n_runs=2500))
    assert seen == ["raise"] * 3


@pytest.mark.parametrize("N, methods", [(3, ("eq5",)), (5002, ("plugin", "eq2", "eq3", "eq5"))])
def test_tiny_shape_cells_run_with_runtime_warnings_as_errors(N, methods):
    # shape 0.05 from two values: the ends' shape and mean limits overflow,
    # which the scorers leave to the sum cdf; pytest's own filter makes any
    # RuntimeWarning an error here
    spec = gamma_spec(n=2, N=N, k=0.05, methods=methods, levels=(0.8, 0.95, 0.999),
                      n_runs=2048, seed=1)
    cells = repr(run_gamma_coverage(spec))
    with np.errstate(all="ignore"):
        assert repr(run_gamma_coverage(spec)) == cells


def test_chunk_error_propagates_and_stops_the_pool(monkeypatch):
    class ChunkError(RuntimeError):
        pass

    calls = []
    real_fit = simlab.fit_gamma_rows

    def fit_rows(y):
        calls.append(1)
        if len(calls) == 2:
            raise ChunkError("second chunk")
        return real_fit(y)

    spec = gamma_spec(n=290, n_runs=8 * simlab.BLOCK)
    chunks = len(simlab._chunks(spec))
    monkeypatch.setattr(simlab, "fit_gamma_rows", fit_rows)
    monkeypatch.setattr(simlab, "_workers", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(ChunkError, match="second chunk"):
        run_gamma_coverage(spec)
    assert threading.active_count() == threads
    assert len(calls) < chunks   # the submitting stopped


def test_cell_memory_does_not_grow_with_runs():
    # the whole-array path held every run's sample and its fit temporaries
    # at once: about 134 MB here
    spec = gamma_spec(n=290, n_runs=20_000)
    tracemalloc.start()
    try:
        run_gamma_coverage(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_eq5_memory_does_not_grow_with_its_levels(monkeypatch):
    # one warm 12288-run chunk: each level's lattice of eq5's shape limit,
    # three arrays of the chunk's length, goes once the level is scored
    monkeypatch.setattr(simlab, "_workers", lambda: 1)
    peaks = []
    for count in (2, 100):
        spec = gamma_spec(methods=("eq5",), levels=tuple(0.5 + 0.004 * np.arange(count)),
                          n_runs=12 * simlab.BLOCK)
        assert len(simlab._chunks(spec)) == 1
        run_gamma_coverage(spec)
        tracemalloc.start()
        try:
            run_gamma_coverage(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


@pytest.mark.parametrize("fixed_rates", [False, True])
def test_site_draw_memory_does_not_grow_with_N(fixed_rates):
    # one whole (BLOCK, N) draw of uniforms held about 39 MiB here
    spec = site_spec(N=5000, n_runs=simlab.BLOCK, fixed_rates=fixed_rates)
    tracemalloc.start()
    try:
        draw_runs(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


# the (covered, usable) runs of each method and level of three cells at
# seed 1, in the cells' order: any change that moves one run of a cell, in
# its draw, its fit or its endpoints, moves a count
PINNED_COUNTS = {
    "gamma": [(2378, 3000), (2827, 3000), (2601, 3000), (2926, 3000), (2329, 3000),
              (2789, 3000), (719, 3000), (1094, 3000), (2376, 3000), (2816, 3000),
              (2387, 3000), (2824, 3000), (2410, 3000), (2839, 3000), (2968, 3000),
              (3000, 3000)],
    "sites": [(2339, 3000), (2816, 3000), (2561, 3000), (2915, 3000), (2311, 3000),
              (2769, 3000), (2362, 3000), (2829, 3000), (730, 3000), (1096, 3000)],
    "sites_fixed_rates": [(2364, 3000), (2828, 3000), (2602, 3000), (2919, 3000),
                          (2324, 3000), (2788, 3000), (2417, 3000), (2829, 3000),
                          (755, 3000), (1105, 3000)],
}


@pytest.mark.parametrize("name, spec, methods", [
    ("gamma", gamma_spec, simlab.METHOD_ORDER),
    ("sites", site_spec, simlab.PREDICTION_METHODS),
    ("sites_fixed_rates", lambda **kw: site_spec(fixed_rates=True, **kw),
     simlab.PREDICTION_METHODS),
], ids=["gamma", "sites", "sites_fixed_rates"])
def test_no_run_of_a_pinned_cell_moves(name, spec, methods):
    spec = spec(methods=methods, levels=(0.8, 0.95), n_runs=3000, seed=1)
    cells = run_coverage(spec).cells
    assert [(c.method, c.level) for c in cells] == [
        (m, level) for m in spec.methods for level in spec.levels]
    assert [(round(c.observed * c.n_runs), c.n_runs) for c in cells] == PINNED_COUNTS[name]


# the benchmark's gamma lab cells, (n, N, k, mu, runs), at a fifth of their runs
LAB_CELLS = [(20, 300, 4.0, 2.5, 2000), (10, 11, 0.7, 1.5, 2000), (290, 300, 4.0, 2.5, 2000),
             (20, 300, 1.0, 2.5, 2000), (20, 300, 4.0, 2.5, 20_000)]


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("n, N, k, mu, runs", LAB_CELLS)
def test_a_gamma_cell_does_not_depend_on_the_mean(seed, n, N, k, mu, runs):
    # scaling mu by a power of two scales every draw and future total
    # exactly, and the fit reads the scale-free s, so no run moves
    spec = gamma_spec(n=n, N=N, k=k, mu=mu, methods=simlab.METHOD_ORDER,
                      levels=(0.8, 0.95), n_runs=runs, seed=seed)
    want = repr(run_coverage(spec).cells)
    for e in (-20, 10, 20):
        assert repr(run_coverage(replace(spec, mu=mu * 2.0 ** e)).cells) == want, e


# the pinned cells, and a stress grid over small n, extreme shapes and means
# and the ends of the future size
SCORED_SPECS = [
    gamma_spec(n_runs=3000, seed=1),
    site_spec(n_runs=3000, seed=1),
    site_spec(n_runs=3000, seed=1, fixed_rates=True),
    *(gamma_spec(n=n, N=n + n_fut, k=k, mu=mu, n_runs=simlab.BLOCK, seed=5)
      for n in (2, 50) for n_fut in (1, 5000) for k in (0.05, 1000.0) for mu in (1e-6, 1e6)),
]


@pytest.mark.parametrize("spec", SCORED_SPECS)
def test_fpivot_pvalue_scoring_is_endpoint_scoring_run_by_run(spec):
    # a run's F pivot interval holds its future total exactly when the
    # pivot's p-value there lies between the two tails, and both are usable
    # on the same runs; the largest level below 1 puts the upper crossing at
    # probability 1.0, where the upper end is infinite
    spec = replace(spec, methods=("fpivot",),
                   levels=(0.5, 0.8, 0.95, 0.999, np.nextafter(1.0, 0.0)))
    y, future = draw_runs(spec)
    fit, ok = fit_gamma_rows(y)
    h = intervals.METHODS["fpivot"].pvalue(fit, spec.N - spec.n, simlab.SE_KIND)[0](future)
    h_use = ok & np.isfinite(h)
    counts = []
    for level in spec.levels:
        iv = intervals.METHODS["fpivot"].build(fit, level, spec.N - spec.n, spec.content_p,
                                               simlab.SE_KIND, simlab.CRIT)
        lo, hi = iv.lower, iv.upper
        use = ok & np.isfinite(lo) & np.isfinite(hi)
        covered = (lo <= future) & (future <= hi) & use
        tail = (1 - level) / 2
        # no run is usable where 1 - tail rounds to 1
        h_level_use = h_use & (1 - tail < 1)
        np.testing.assert_array_equal(h_level_use, use)
        np.testing.assert_array_equal((tail <= h) & (h <= 1 - tail) & h_level_use, covered)
        counts.append((np.count_nonzero(covered), np.count_nonzero(use)))
    keys = [("fpivot", level) for level in spec.levels]
    assert simlab._chunk_counts(spec, keys, y, future, None,
                                simlab._node_tables()).tolist() == [list(c) for c in counts]


# every level below 1 that the scorers see, the largest double below 1 last
ALL_LEVELS = (0.5, 0.8, 0.95, 0.999, np.nextafter(1.0, 0.0))


def _scored(spec, methods):
    """The (spec, method) pairs of ``methods`` that ``spec``'s process
    scores: tolerance methods only where it has a tolerance target."""
    has_target = simlab.PROCESSES[spec.data_process].tolerance_target is not None
    return [(spec, m) for m in methods
            if has_target or intervals.METHODS[m].kind == "prediction"]


def _score_args(spec, method):
    """A scorer's arguments but the level, on the runs of ``spec``."""
    process = simlab.PROCESSES[spec.data_process]
    y, future = draw_runs(spec)
    fit, ok = fit_gamma_rows(y)
    targets = (process.tolerance_target(spec) if intervals.METHODS[method].kind == "tolerance"
               else (future, future))
    return fit, ok, spec.N - spec.n, spec.content_p, targets, simlab._node_tables()


@pytest.mark.parametrize("spec, method", [
    pytest.param(spec, method, id=f"{method}-spec{i}") for i, s in enumerate(SCORED_SPECS)
    for spec, method in _scored(s, simlab._SCORERS)])
def test_every_scorer_is_endpoint_scoring_run_by_run(spec, method):
    # each entry of the lab's scorer table holds and is usable on the same
    # runs as the endpoint scorer, whose intervals are the method table's
    fit, ok, n_fut, p, targets, nodes = _score_args(spec, method)
    with np.errstate(all="ignore"):   # the stress grid's limits overflow and underflow
        for level in ALL_LEVELS:
            args = (method, fit, ok, level, n_fut, p, targets, nodes)
            held, use = simlab._SCORERS[method](*args)
            want_held, want_use = simlab._build_holds(*args)
            np.testing.assert_array_equal(use & ok, want_use & ok)
            np.testing.assert_array_equal(held & use & ok, want_held & want_use & ok)


@pytest.mark.parametrize("spec, method", [
    pytest.param(spec, method, id=f"{method}-spec{i}") for i, s in enumerate(SCORED_SPECS)
    for spec, method in _scored(s, [m for m in simlab.METHOD_ORDER if m != "eq5"])])
def test_lab_scoring_nests_in_the_level(spec, method):
    # a run the lab holds at one level, it holds at every higher level where
    # the run is usable at both (eq5 does not nest: see test_intervals)
    fit, ok, n_fut, p, targets, nodes = _score_args(spec, method)
    score = simlab._SCORERS.get(method, simlab._build_holds)
    with np.errstate(all="ignore"):
        scores = [score(method, fit, ok, level, n_fut, p, targets, nodes) for level in ALL_LEVELS]
    for i, (held, use) in enumerate(scores):
        for higher, higher_use in scores[i + 1:]:
            assert not np.any(held & ~higher & ok & use & higher_use), ALL_LEVELS[i]


def test_a_fit_of_another_family_takes_only_the_endpoint_scorer(monkeypatch):
    # the table's scorers are exact for gamma fits alone: a chunk whose fit
    # says weibull, at N - n = 1, where Weibull sums are defined, reaches no
    # gamma bracket, cdf or eq3 table, and counts as its endpoints do
    calls = []
    for module, name in [(simlab, "_bracket"), (simlab, "_eq3_table"), (intervals, "_sum_cdf")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    monkeypatch.setattr(simlab, "fit_gamma_rows", lambda y: (
        replace(fit_gamma_rows(y)[0], family="weibull"), fit_gamma_rows(y)[1]))
    methods = tuple(m for m in simlab.METHOD_ORDER
                    if "weibull" in (intervals.METHODS[m].families or ("weibull",)))
    spec = gamma_spec(n=20, N=21, methods=methods, levels=(0.8, 0.95), n_runs=2000)
    y, future = draw_runs(spec)
    target = simlab.PROCESSES["gamma_fixed"].tolerance_target(spec)
    keys = [(m, level) for m in methods for level in spec.levels]
    counts = simlab._chunk_counts(spec, keys, y, future, target, simlab._node_tables())
    fit, ok = simlab.fit_gamma_rows(y)
    want = []
    for method, level in keys:
        entry = intervals.METHODS[method]
        iv = entry.build(fit, level, 1, spec.content_p, simlab.SE_KIND, simlab.CRIT)
        covered, use = _tolerance_scores(
            iv.lower, iv.upper, ok, target if entry.kind == "tolerance" else (future, future))
        want.append([np.count_nonzero(covered), np.count_nonzero(use)])
    assert calls == [] and counts.tolist() == want


def test_fpivot_cells_call_fdtr_only_on_undecided_runs_and_no_fdtri(monkeypatch):
    # the lab scores the F pivot by brackets of its p-value, not by its
    # endpoints: in each of the 3 chunks, betaincinv sees only node arrays,
    # and fdtr only the runs whose y lies between a bracket's bounds, near
    # a tail, under 5% of the 3000 runs x 4 ends
    calls = {"fdtr": [], "fdtri": [], "betaincinv": []}

    def recorded(name):
        real = getattr(intervals, name)
        return lambda *args: calls[name].append(args) or real(*args)

    for name in calls:
        monkeypatch.setattr(intervals, name, recorded(name))
    fresh_store(monkeypatch)
    monkeypatch.setattr(simlab, "_workers", lambda: 3)
    spec = gamma_spec(n=50, methods=("fpivot",), levels=(0.8, 0.95), n_runs=3000)
    assert len(simlab._chunks(spec)) == 3
    run_coverage(spec)
    assert calls["fdtri"] == []
    assert calls["betaincinv"] and all(a.size < 1000 / 4 and np.all(np.diff(a) > 0)
                                       for a, _, _ in calls["betaincinv"])
    tails = [q for level in spec.levels for q in ((1 - level) / 2, (1 + level) / 2)]
    for d1, d2, x in calls["fdtr"]:
        h = stats.f.cdf(x, d1, d2)
        assert np.all(np.min([np.abs(h - q) for q in tails], axis=0) < 0.05)
    assert 0 < sum(np.size(x) for *_, x in calls["fdtr"]) < 0.05 * spec.n_runs * 4


@pytest.mark.parametrize("n, N, k", [(2, 3, 0.05), (2, 5002, 1000.0), (20, 300, 4.0),
                                     (50, 51, 1000.0), (50, 5050, 0.05)])
def test_fpivot_brackets_are_endpoint_scoring_on_their_bounds(n, N, k):
    # shapes within 4 ulp of five lattice nodes, and future totals whose y
    # lies on each tabulated bound of each tail, or 1 ulp either side: the
    # F pivot's scorer holds and is usable on the runs the endpoints say
    n_fut, nodes, eps = N - n, simlab._node_tables(), np.finfo(float).eps
    j = round(math.log(k) / simlab._BRACKET_STEP) + np.arange(-2, 3)
    shapes = np.outer(np.exp(j * simlab._BRACKET_STEP), 1 + eps * np.arange(-4, 5)).ravel()

    def fit_of(k_hat):
        return FitResult("gamma", "log", np.ones_like(k_hat), n, k_hat=k_hat,
                         se_mu=np.ones_like(k_hat), se_k=np.ones_like(k_hat), cov_mu_k=0.0)

    with np.errstate(all="ignore"):
        for level in ALL_LEVELS:
            tail, bounds = (1 - level) / 2, []
            for q in (tail, 1 - tail):
                bounds += simlab._bracket(fit_of(shapes), q, shapes, nodes, simlab._fpivot_nodes,
                                          n_fut, n)
            y = np.concatenate([np.nextafter(b, to) + np.zeros(shapes.size)
                                for b in bounds for to in (0.0, b, 1.0)])
            k_hat = np.tile(shapes, 3 * len(bounds))
            on = (0 < y) & (y < 1)
            assert on.sum() >= shapes.size * len(bounds) or level == ALL_LEVELS[-1]
            t, fit = n * y[on] / (1 - y[on]), fit_of(k_hat[on])
            ok = np.ones(t.size, dtype=bool)
            args = ("fpivot", fit, ok, level, n_fut, 0.5, (t, t), nodes)
            held, use = simlab._SCORERS["fpivot"](*args)
            want_held, want_use = simlab._build_holds(*args)
            np.testing.assert_array_equal(use, want_use)
            np.testing.assert_array_equal(held & use, want_held & want_use)


@pytest.mark.parametrize("method", ["plugin", "eq2", "eq5"])
@pytest.mark.parametrize("n, N, k", [(2, 3, 0.05), (2, 5002, 1000.0), (20, 300, 4.0),
                                     (50, 51, 1000.0), (50, 5050, 0.05)])
def test_gamma_brackets_are_endpoint_scoring_on_their_bounds(method, n, N, k):
    # shapes within 4 ulp of five lattice nodes (at se_k 0 eq5's lower shape
    # limit is the shape), and totals whose x = t / scale lies on each
    # tabulated bound of each end, or 1 ulp either side: the quantile ends'
    # scorer holds and is usable on the runs the endpoints say
    n_fut, nodes, eps = N - n, simlab._node_tables(), np.finfo(float).eps
    j = round(math.log(k) / simlab._BRACKET_STEP) + np.arange(-2, 3)
    shapes = np.outer(np.exp(j * simlab._BRACKET_STEP), 1 + eps * np.arange(-4, 5)).ravel()

    def fit_of(k_hat):
        return FitResult("gamma", "log", np.ones_like(k_hat), n, k_hat=k_hat,
                         se_mu=np.full_like(k_hat, 0.1), se_g_mu_model=np.full_like(k_hat, 0.1),
                         se_k=np.zeros_like(k_hat), cov_mu_k=0.0)

    with np.errstate(all="ignore"):
        for level in ALL_LEVELS:
            fit, t = fit_of(shapes), []
            for prob, mu, k_end in intervals.METHODS[method].ends(fit, level, n_fut, 0.5,
                                                                  simlab.SE_KIND, simlab.CRIT):
                shape = fit.k_hat if k_end is None else k_end
                scale = (fit.mu_hat if mu is None else mu) / shape
                for b in simlab._bracket(fit, prob, shape, nodes, simlab._gamma_nodes, n_fut):
                    t += [np.nextafter(b, to) * scale for to in (0.0, b, np.inf)]
            t, k_hat = np.concatenate(t), np.tile(shapes, len(t))
            on = np.isfinite(t) & (t > 0)
            assert on.sum() >= shapes.size * 6 or level == ALL_LEVELS[-1]
            t, fit = t[on], fit_of(k_hat[on])
            args = (method, fit, np.ones(t.size, dtype=bool), level, n_fut, 0.5, (t, t), nodes)
            held, use = simlab._SCORERS[method](*args)
            want_held, want_use = simlab._build_holds(*args)
            np.testing.assert_array_equal(use, want_use)
            np.testing.assert_array_equal(held & use, want_held & want_use)


def test_a_sweep_of_levels_keeps_the_node_store_within_its_cap(monkeypatch):
    # 1000 distinct levels through one process: each adds its own F pivot
    # and plugin tables, more values in all than the store's cap, which it
    # never holds more than, starting over instead; the cells are those of
    # a store without a cap
    computed = fresh_store(monkeypatch)
    spec = gamma_spec(n=20, N=300, k=1.0, methods=("fpivot", "plugin"),
                      levels=tuple(np.linspace(0.5, 0.999, 1000)), n_runs=2048)
    cells = run_coverage(spec).cells
    assert sum(np.size(j) for j in computed) * 2 > simlab._NODE_CAP
    assert 0 < sum(v.size for _, v in simlab._NODES.tables.values()) <= simlab._NODE_CAP
    monkeypatch.setattr(simlab, "_NODE_CAP", math.inf)
    fresh_store(monkeypatch)
    assert run_coverage(spec).cells == cells


def test_cells_sharing_the_process_store_are_the_cells_of_fresh_stores(monkeypatch):
    # cells that share N - n, or n, or neither, run one after another in one
    # node store, are the cells each computes from an empty store
    specs = [gamma_spec(n=n, N=N, k=k, methods=simlab.METHOD_ORDER, levels=(0.8, 0.95),
                        n_runs=3000, seed=2)
             for n, N, k in [(20, 300, 4.0), (40, 320, 4.0), (20, 320, 1.0), (40, 300, 4.0)]]
    fresh_store(monkeypatch)
    shared = [repr(run_coverage(spec)) for spec in specs]
    for spec, cells in zip(specs, shared):
        fresh_store(monkeypatch)
        assert repr(run_coverage(spec)) == cells


@pytest.mark.parametrize("spec", SCORED_SPECS)
def test_cdf_scoring_is_endpoint_scoring_run_by_run(spec):
    # a run's plugin, eq2 or eq5 interval holds its targets exactly when the
    # sum distribution's cdf at each target lies on the right side of its
    # end's probability, and both are usable on the same runs
    process = simlab.PROCESSES[spec.data_process]
    methods = ("plugin", "eq2", "eq5") if process.tolerance_target else ("plugin", "eq2")
    # the largest level below 1 puts the upper end at probability 1.0
    spec = replace(spec, methods=methods,
                   levels=(0.5, 0.8, 0.95, 0.999, np.nextafter(1.0, 0.0)))
    y, future = draw_runs(spec)
    target = process.tolerance_target(spec) if process.tolerance_target else None
    fit, ok = fit_gamma_rows(y)
    n_fut, counts = spec.N - spec.n, []
    with np.errstate(all="ignore"):   # the stress grid's limits overflow and underflow
        for method in methods:
            entry = intervals.METHODS[method]
            t_lo, t_hi = target if entry.kind == "tolerance" else (future, future)
            for level in spec.levels:
                iv = entry.build(fit, level, n_fut, spec.content_p, simlab.SE_KIND, simlab.CRIT)
                lo, hi = iv.lower, iv.upper
                use = ok & np.isfinite(lo) & np.isfinite(hi)
                covered = (lo <= t_lo) & (t_hi <= hi) & use
                (p_lo, mu_lo, k_lo), (p_hi, mu_hi, k_hi) = entry.ends(
                    fit, level, n_fut, spec.content_p, simlab.SE_KIND, simlab.CRIT)
                f_lo = intervals._sum_cdf(fit, t_lo, n_fut, mu_lo, k_lo, p_lo)
                f_hi = intervals._sum_cdf(fit, t_hi, n_fut, mu_hi, k_hi, p_hi)
                f_use = ok & np.isfinite(f_lo) & np.isfinite(f_hi)
                np.testing.assert_array_equal(f_use, use)
                np.testing.assert_array_equal((p_lo <= f_lo) & (f_hi <= p_hi) & f_use, covered)
                counts.append([np.count_nonzero(covered), np.count_nonzero(use)])
        keys = [(m, level) for m in methods for level in spec.levels]
        assert simlab._chunk_counts(spec, keys, y, future, target,
                                    simlab._node_tables()).tolist() == counts


def test_quantile_interval_cells_call_gammainc_only_on_undecided_runs(monkeypatch):
    # the lab scores plugin, eq2 and eq5 by brackets of their quantiles: in
    # each of the 3 chunks, gammaincinv sees only node arrays, and gammainc
    # only the runs whose x lies between its bracket's nodes, near its
    # quantile, a few percent of the 3000 runs x 12 ends
    calls = []
    real = intervals.gammainc
    monkeypatch.setattr(intervals, "gammainc", lambda a, x: calls.append((a, x)) or real(a, x))
    shapes = record_gammaincinv(monkeypatch)
    monkeypatch.setattr(simlab, "_workers", lambda: 3)
    spec = gamma_spec(n=50, methods=("plugin", "eq2", "eq5"), levels=(0.8, 0.95), n_runs=3000)
    assert len(simlab._chunks(spec)) == 3
    run_coverage(spec)
    assert all(a.size < 1000 / 4 and np.all(np.diff(a) > 0) for a in shapes)
    probs = [(1 - level) / 2 for level in spec.levels] + [(1 - spec.content_p) / 2]
    probs += [1 - q for q in probs]
    for a, x in calls:
        near = np.min([np.abs(np.log(x / gammaincinv(a, q))) for q in probs], axis=0)
        assert np.all(near < 0.05)
    assert 0 < sum(np.size(a) for a, _ in calls) < 0.05 * spec.n_runs * 12


def test_a_cell_computes_each_table_node_once(monkeypatch):
    # the chunks of a cell share its quantile tables: on 3 workers, from an
    # empty node store, no shape of any one probability reaches gammaincinv
    # twice in the cell's chunks (eq3's exact path sees its few runs at one
    # level each here), and the cell is the 1-worker cell; run again in the
    # same process, the cell computes no node and is the same cell
    calls = record_gammaincinv(monkeypatch, probs=True)
    computed = fresh_store(monkeypatch)
    monkeypatch.setattr(simlab, "_workers", lambda: 3)
    spec = gamma_spec(n=50, methods=("plugin", "eq2", "eq3", "eq5"), levels=(0.8, 0.95),
                      n_runs=3000)
    assert len(simlab._chunks(spec)) >= 3
    cells = repr(run_coverage(spec))
    shapes = {}
    for p, a in calls:
        shapes.setdefault(p, []).append(a)
    assert len(shapes) >= 8
    for p, arrays in shapes.items():
        a = np.concatenate(arrays)
        assert np.unique(a).size == a.size, p
    computed.clear()
    assert repr(run_coverage(spec)) == cells and computed == []
    fresh_store(monkeypatch)
    monkeypatch.setattr(simlab, "_workers", lambda: 1)
    assert repr(run_coverage(spec)) == cells


def test_a_chunk_computes_each_shape_lattice_once(monkeypatch):
    # a k4_n20 chunk scoring all 8 methods at two levels computes the
    # lattice of k_hat once, for the F pivot, plugin, eq2 and eq3 alike, and
    # that of eq5's lower shape limit once per level, for both its ends
    computed, fits, real = [], [], simlab._lattice

    def lattice(fit, k):
        if fit._memo.get(id(k), (None,))[0] is not k:
            computed.append((fit, k))
        return real(fit, k)

    monkeypatch.setattr(simlab, "_lattice", lattice)
    monkeypatch.setattr(simlab, "fit_gamma_rows", lambda y: fits.append(fit_gamma_rows(y)) or fits[-1])
    spec = gamma_spec(methods=simlab.METHOD_ORDER, levels=(0.8, 0.95), n_runs=2048)
    keys = [(m, level) for m in spec.methods for level in spec.levels]
    target = simlab.PROCESSES["gamma_fixed"].tolerance_target(spec)
    simlab._chunk_counts(spec, keys, *draw_runs(spec), target, simlab._node_tables())
    (fit, _), = fits
    assert [f for f, _ in computed] == [fit] * 3 and computed[0][1] is fit.k_hat
    for level, (_, k_lower) in zip(spec.levels, computed[1:]):
        (*_, want), _ = intervals.METHODS["eq5"].ends(fit, level, spec.N - spec.n, spec.content_p,
                                                      simlab.SE_KIND, simlab.CRIT)
        np.testing.assert_array_equal(k_lower, want)


def _node_values(key, j):
    return np.array([np.sqrt(j + 100.0) + key, j * 0.5])


@pytest.mark.parametrize("threads", [1, 4])
def test_node_tables_compute_each_index_once(threads):
    # random requests of three tables in random order, from one thread or
    # four at once: each returns f on its own range, and f never sees an
    # index of a table twice
    rng = np.random.default_rng(threads)
    keys, ranges = rng.integers(0, 3, 300), np.sort(rng.integers(-60, 60, (300, 2)), axis=1)
    nodes, seen, got = simlab._node_tables(), [], {}
    barrier = threading.Barrier(threads)

    def ask(part):
        barrier.wait()
        for i in part:
            key, (j0, j1) = keys[i], ranges[i]
            got[i] = nodes(("table", key), j0, j1,
                           lambda j: seen.append((key, j)) or _node_values(key, j))

    workers = [threading.Thread(target=ask, args=(range(t, len(keys), threads),))
               for t in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    for i, (key, (j0, j1)) in enumerate(zip(keys, ranges)):
        np.testing.assert_array_equal(got[i], _node_values(key, np.arange(j0, j1 + 1)))
    for key in range(3):
        j = np.concatenate([j for k, j in seen if k == key])
        assert np.unique(j).size == j.size


# the gamma cells of the stress grid, a block of small samples (n 2-10,
# k 0.1-20, N - n 1-300), where the t critical value is largest, and a
# shape so small that the lower target underflows to 0
EQ3_SPECS = [*(s for s in SCORED_SPECS if s.data_process == "gamma_fixed"),
             *(gamma_spec(n=n, N=n + n_fut, k=k, mu=1.0, n_runs=256, seed=11)
               for n in (2, 3, 5, 10) for k in (0.1, 0.7, 4.0, 20.0) for n_fut in (1, 10, 300)),
             gamma_spec(n=5, N=6, k=1e-3, mu=1.0, n_runs=2048, seed=2)]


def test_eq3_tables_are_within_their_bounds():
    # the tables' log q and se/q lie within their error bounds of the
    # method table's own values at each run's shape, wherever the bounds
    # are finite, at any mean and content, the smallest tail included
    rng = np.random.default_rng(0)
    for n_fut in (1, 10, 280, 5000):
        k = np.exp(rng.uniform(np.log(1e-3), np.log(1e5 / n_fut), 2000))
        mu = np.exp(rng.uniform(-14.0, 14.0, k.size))
        fit = FitResult("gamma", "log", mu, 10, k_hat=k, se_mu=0.1 * mu, se_k=0.1 * k,
                        cov_mu_k=0.0)
        for prob in (5.56e-17, 1e-9, 0.005, 0.25, 0.5, 0.75, 0.995, 1 - 1e-9):
            with np.errstate(all="ignore"):
                log_q, s, e_q, e_s = simlab._eq3_table(fit, prob, n_fut, simlab._node_tables())
                q = intervals._sum_quantile(fit, prob, n_fut)
                exact = np.log(q), intervals._delta_se(fit, prob, n_fut) / q
            # the gate of the screen these tables replaced: both bounds are finite
            gate = (n_fut * k >= 0.1) & (k >= 0.01) & (np.abs(exact[0]) < 200)
            assert np.isfinite(e_q[gate]).all() and np.isfinite(e_s[gate]).all()
            for v, want, e in zip((log_q, s), exact, (e_q, e_s)):
                assert np.all((np.abs(v - want) <= e) | ~np.isfinite(e)), (n_fut, prob)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(1e-3, 1e6),
       p=st.one_of(st.floats(1e-300, 0.5), st.floats(1e-16, 0.5).map(lambda q: 1 - q)))
def test_bracket_holds_the_gamma_quantile(a, p):
    # 101 shapes over 20 nodes keep a table; each shape's bracket holds its
    # quantile, and a quantile the nodes resolve is bounded on both sides
    a = a * np.exp(np.linspace(-0.1, 0.1, 101))
    lo, hi = simlab._bracket(FitResult("gamma", "log", 1.0, 2), p, a, simlab._node_tables(),
                            simlab._gamma_nodes, 1)
    x = gammaincinv(a, p)
    assert np.all(lo <= x) and np.all(x <= hi)
    if p * (1 + simlab._BRACKET_SLACK) < 1 and x.min() > 1e-290:
        assert np.all(lo > 0) and np.all(hi < np.inf)


@pytest.mark.parametrize("workers", range(1, 9))
def test_chunks_are_equal_whole_blocks_in_a_multiple_of_the_workers(monkeypatch, workers):
    # whole blocks, split as evenly as blocks allow into the fewest chunks
    # that are a multiple of the workers (unless the blocks run out) and
    # keep every multi-block chunk within _CHUNK_VALUES values, covering
    # the runs in order
    monkeypatch.setattr(simlab, "_workers", lambda: workers)
    for n in (2, 3, 10, 20, 50, 256, 290, 5000):
        for n_runs in (1, 1000, simlab.BLOCK, simlab.BLOCK + 1, 7 * simlab.BLOCK - 5,
                       25_000, 100_000, 300_000):
            chunks = simlab._chunks(gamma_spec(n=n, N=n + 1, n_runs=n_runs))
            blocks = [-(-len(c) // simlab.BLOCK) for c in chunks]
            assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]] == [
                simlab.BLOCK * b for b in np.cumsum(blocks)[:-1]]
            assert chunks[0].start == 0 and chunks[-1].stop == n_runs
            assert all(c.step == 1 and len(c) > 0 for c in chunks)
            assert max(blocks) - min(blocks) <= 1
            assert len(chunks) % workers == 0 or len(chunks) == sum(blocks)
            most = max(1, simlab._CHUNK_VALUES // (simlab.BLOCK * n))
            assert max(blocks) <= most
            fewer = len(chunks) - workers
            assert fewer <= 0 or -(-sum(blocks) // fewer) > most


def _tolerance_scores(lo, hi, ok, target):
    """The covered and usable runs of the tolerance ends ``lo`` and ``hi``."""
    use = ok & np.isfinite(lo) & np.isfinite(hi)
    return (lo <= target[0]) & (target[1] <= hi) & use, use


@pytest.mark.parametrize("spec", EQ3_SPECS)
def test_eq3_screen_is_endpoint_scoring_run_by_run(spec):
    # the lab's eq3 ends, screened and exact only near a target, cover and
    # are usable on the same runs as the ends of the method table
    spec = replace(spec, methods=("eq3",), levels=(0.5, 0.8, 0.95, 0.999, np.nextafter(1.0, 0.0)))
    y, _ = draw_runs(spec)
    n_fut, entry = spec.N - spec.n, intervals.METHODS["eq3"]
    with np.errstate(all="ignore"):   # the stress grid's limits overflow and underflow
        for p in (0.5, 0.9, 0.99):
            spec = replace(spec, content_p=p)
            target = simlab.PROCESSES["gamma_fixed"].tolerance_target(spec)
            fit, ok = fit_gamma_rows(y)
            counts = []
            for level in spec.levels:
                iv = entry.build(fit, level, n_fut, p, simlab.SE_KIND, simlab.CRIT)
                covered, use = _tolerance_scores(iv.lower, iv.upper, ok, target)
                screened = simlab._eq3_ends(fit, ok, level, n_fut, p, target, simlab._node_tables())
                screened_covered, screened_use = _tolerance_scores(*screened, ok, target)
                np.testing.assert_array_equal(screened_use, use)
                np.testing.assert_array_equal(screened_covered, covered)
                counts.append([np.count_nonzero(covered), np.count_nonzero(use)])
            keys = [("eq3", level) for level in spec.levels]
            assert simlab._chunk_counts(spec, keys, y, None, target,
                                        simlab._node_tables()).tolist() == counts


@pytest.mark.parametrize("end", [0, 1, 2], ids=["lower", "upper", "overflow"])
@pytest.mark.parametrize("n, k, n_fut", [(2, 0.3, 1), (3, 0.1, 1), (5, 4.0, 1), (2, 0.003, 5000)])
def test_eq3_screen_is_endpoint_scoring_at_the_targets(end, n, k, n_fut):
    # each run scaled so that its exact eq3 end lies a log distance of
    # +-1e-12 to +-1e-1 from its target, or its upper end from the largest
    # double: at n 2 and level 0.999, where the screened SE errs most, only
    # the margin keeps the decisions equal
    spec = gamma_spec(n=n, N=n + n_fut, k=k, mu=1.0, content_p=0.99, n_runs=2000, seed=11)
    target = simlab.PROCESSES["gamma_fixed"].tolerance_target(spec)
    aim = np.log([*target, np.finfo(float).max])[end]
    y, _ = draw_runs(spec)
    delta = np.resize(np.geomspace(1e-12, 1e-1, 12) * [[-1], [1]], spec.n_runs)
    entry, p = intervals.METHODS["eq3"], spec.content_p
    with np.errstate(all="ignore"):
        for level in (0.8, 0.95, 0.999):
            iv = entry.build(fit_gamma_rows(y)[0], level, n_fut, p, simlab.SE_KIND, simlab.CRIT)
            scale = np.exp(aim + delta - np.log((iv.lower, iv.upper, iv.upper)[end]))
            fit, ok = fit_gamma_rows(y * scale[:, None])
            iv = entry.build(fit, level, n_fut, p, simlab.SE_KIND, simlab.CRIT)
            covered, use = _tolerance_scores(iv.lower, iv.upper, ok, target)
            screened = simlab._eq3_ends(fit, ok, level, n_fut, p, target, simlab._node_tables())
            screened_covered, screened_use = _tolerance_scores(*screened, ok, target)
            np.testing.assert_array_equal(screened_use, use)
            np.testing.assert_array_equal(screened_covered, covered)


@pytest.mark.parametrize("end", [0, 1], ids=["lower", "upper"])
@pytest.mark.parametrize("n, k, n_fut", [(10, 0.7, 1), (20, 4.0, 280), (5, 0.3, 1),
                                         (50, 1.0, 5000)])
def test_cdf_scoring_is_endpoint_scoring_at_the_targets(monkeypatch, end, n, k, n_fut):
    # each run scaled so that its exact plugin, eq2 or eq5 end lies a log
    # distance of +-1e-12 to +-1e-1 from its target: the runs between their
    # bracket's nodes take the cdf, the brackets decide the rest (over 40%
    # of the ends), and the counts are those of the endpoints
    sizes = []
    real = intervals.gammainc
    monkeypatch.setattr(intervals, "gammainc", lambda a, x: sizes.append(np.size(a)) or real(a, x))
    spec = gamma_spec(n=n, N=n + n_fut, k=k, mu=1.0, content_p=0.99, n_runs=4096, seed=11)
    target = simlab.PROCESSES["gamma_fixed"].tolerance_target(spec)
    y, future = draw_runs(spec)
    delta = np.resize(np.geomspace(1e-12, 1e-1, 12) * [[-1], [1]], spec.n_runs)
    p, ends = spec.content_p, 0
    with np.errstate(all="ignore"):
        for method in ("plugin", "eq2", "eq5"):
            entry = intervals.METHODS[method]
            t_lo, t_hi = target if entry.kind == "tolerance" else (future, future)
            for level in (0.8, 0.95, 0.999):
                iv = entry.build(fit_gamma_rows(y)[0], level, n_fut, p, simlab.SE_KIND, simlab.CRIT)
                scale = np.exp(np.log((t_lo, t_hi)[end]) + delta - np.log((iv.lower, iv.upper)[end]))
                scaled = y * scale[:, None]
                fit, ok = fit_gamma_rows(scaled)
                iv = entry.build(fit, level, n_fut, p, simlab.SE_KIND, simlab.CRIT)
                covered, use = _tolerance_scores(iv.lower, iv.upper, ok, (t_lo, t_hi))
                counts = simlab._chunk_counts(replace(spec, methods=(method,), levels=(level,)),
                                              [(method, level)], scaled, future, target,
                                              simlab._node_tables())
                assert counts.tolist() == [[np.count_nonzero(covered), np.count_nonzero(use)]]
                ends += 2 * spec.n_runs
    assert sum(sizes) < 0.6 * ends


# ---------------------------------------------------------------------------
# rendering


def test_emit_table_text_order():
    spec = gamma_spec(methods=("eq5", "eq1", "fpivot"), n_runs=200)
    rep = run_gamma_coverage(spec)
    lines = emit_table(rep).strip().splitlines()
    assert lines[0].startswith("Method")
    labels = [ln[:24].strip() for ln in lines[1:]]
    assert labels == ["Link pivot", "F pivot", "CI plug-in tolerance"]


def test_emit_table_csv_roundtrip():
    spec = gamma_spec(methods=("eq1", "eq2"), levels=(0.8, 0.95), n_runs=200)
    rep = run_gamma_coverage(spec)
    text = emit_table(rep, fmt="csv")
    lines = text.strip().splitlines()
    assert lines[0] == "method,level,observed,mc_se,n_runs,n_failed"
    assert len(lines) == 5
    for ln in lines[1:]:
        method, level, observed, mc_se, n_runs, n_failed = ln.split(",")
        cell = rep.cell(method, float(level))
        assert float(observed) == pytest.approx(cell.observed, abs=5e-7)
        assert int(n_runs) == cell.n_runs


def test_emit_table_prints_distinct_levels_apart():
    # 0.9999999 and 0.99999999 both round to 1 at three decimals and at %g
    levels = (0.9999999, 0.99999999, 0.95)
    rep = run_gamma_coverage(gamma_spec(levels=levels, n_runs=200))
    rows = emit_table(rep, fmt="csv").strip().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == sorted(levels)
    assert [row.split(",")[1] for row in rows] == ["0.95", "0.9999999", "0.99999999"]
    header, *rows = emit_table(rep).strip().splitlines()
    assert [row[24:34].strip() for row in rows] == ["0.950", "0.9999999", "0.99999999"]
    assert {len(row) for row in rows} == {len(header)}   # the column widens to fit


def test_emit_table_bad_format():
    rep = run_gamma_coverage(gamma_spec(n_runs=50))
    with pytest.raises(ValueError):
        emit_table(rep, fmt="html")
