"""Per-layer metrics for the traced run, measured through public calls only.

Each probe times a fixed call into one tolpred module and records a span
around it.  Counts (modules imported, generators per run, interval
evaluations per window solve, failed fits) are exact and repeat from run to
run; timings are medians over repeats.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys
import time

from tolpred import applications, cli, curves, dist, fit, intervals, simlab

import workloads as wl
from tracing import parse_importtime

IMPORT_REPEATS = 3
SIMLAB_RUNS = 10_000
SIMLAB_REPEATS = 3
SIMLAB_CELL = dict(n=20, N=300, k=4.0, mu=2.5)


def median_time(tracer, name: str, call, repeats: int, number: int = 1) -> float:
    """Median seconds per call over ``repeats`` batches of ``number`` calls."""
    times = []
    for _ in range(repeats):
        with tracer.span(name):
            start = time.perf_counter()
            for _ in range(number):
                call()
            times.append((time.perf_counter() - start) / number)
    return statistics.median(times)


@contextlib.contextmanager
def patched(owner, attr: str, tracer, span: str):
    """Count every call of ``owner.attr`` while the block runs, and record a
    span for each (cheaply: the lab makes one call per simulated run)."""
    original = getattr(owner, attr)
    counter = [0]
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        counter[0] += 1
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.add(span, start, clock())

    setattr(owner, attr, wrapper)
    try:
        yield counter
    finally:
        setattr(owner, attr, original)


def require_calls(counter, what: str) -> int:
    """A measured call that is never made fails the run, instead of letting
    its metric read zero."""
    if counter[0] == 0:
        raise RuntimeError(f"{what} was never called: the benchmark no longer "
                           "measures this layer and must be updated")
    return counter[0]


def count_generators(tracer):
    """Count and span ``RngStream.generator``, the draw layer's entry."""
    return patched(dist.RngStream, "generator", tracer, "dist.RngStream.generator")


def import_metrics(root, tracer) -> dict:
    """Cumulative import times of ``tolpred`` and ``scipy.optimize`` from
    ``-X importtime``, the module counts after ``import tolpred``, and a
    fresh ``import scipy.stats`` after numpy, timed directly (scipy's lazy
    submodule loader leaves no importtime line for it)."""
    counted = ("import sys, tolpred; mods = list(sys.modules); "
               "print(len(mods), sum(m == 'scipy' or m.startswith('scipy.') for m in mods))")
    stats_only = ("import time, numpy; t = time.perf_counter(); import scipy.stats; "
                  "print(time.perf_counter() - t)")
    env = wl.child_env(root)
    times = {"tolpred": [], "scipy.optimize": [], "scipy.stats": []}
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", counted],
                              capture_output=True, text=True, env=env,
                              timeout=wl.CHILD_TIMEOUT_S, check=True)
        parsed = parse_importtime(proc.stderr)
        tracer.add("import.probe", start, start + parsed["<total>"])
        times["tolpred"].append(parsed["tolpred"])
        times["scipy.optimize"].append(parsed["scipy.optimize"])
        modules, scipy_modules = (int(v) for v in proc.stdout.split())
        with tracer.span("import.probe_scipy_stats"):
            proc = subprocess.run([sys.executable, "-c", stats_only], capture_output=True,
                                  text=True, env=env, timeout=wl.CHILD_TIMEOUT_S,
                                  check=True)
        times["scipy.stats"].append(float(proc.stdout))
    return {"import.tolpred_s": statistics.median(times["tolpred"]),
            "import.scipy_stats_s": statistics.median(times["scipy.stats"]),
            "import.scipy_optimize_s": statistics.median(times["scipy.optimize"]),
            "import.modules": modules, "import.scipy_modules": scipy_modules}


def cli_metrics(cli_wl, samples: dict, tracer) -> dict:
    """Per-invocation medians from the CLI samples, plus the in-process
    ``cli.main`` time over the same mix (the part of a call that is not
    start-up)."""
    out = {f"cli.{k}_p50_s": statistics.median(v) for k, v in samples.items()}
    inproc = []
    for _ in range(3):
        for kind in cli_wl.kinds:
            with tracer.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(cli_wl.argv[kind])
                inproc.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"in-process cli {kind} exited {code}")
    out["cli.inproc_call_ms"] = statistics.median(inproc) * 1e3
    return out


def simlab_metrics(seed: int, tracer) -> dict:
    """Cell times per 10k runs, each the fastest of three interleaved
    repeats: the base (draw, fit, true quantiles, no methods), each method's
    increment over it at both levels, and the site process.  Also the exact
    generator count per run and the failed fits over these cells."""
    def spec(methods, process="gamma_fixed"):
        cell = SIMLAB_CELL if process == "gamma_fixed" else wl.SITE
        return simlab.ScenarioSpec(data_process=process, methods=methods,
                                   levels=wl.ALL_LEVELS, n_runs=SIMLAB_RUNS,
                                   seed=seed, **cell)

    specs = {"base": spec(()), **{m: spec((m,)) for m in simlab.METHOD_ORDER},
             "site": spec(simlab.PREDICTION_METHODS, "poisson_gamma_sites")}
    best, reports = {}, {}
    with count_generators(tracer) as calls:
        for _ in range(SIMLAB_REPEATS):
            for key, s in specs.items():
                start = time.perf_counter()
                reports[key] = wl.run_cell(s, tracer)
                best[key] = min(best.get(key, math.inf), time.perf_counter() - start)
    generators = require_calls(calls, "dist.RngStream.generator")
    out = {"dist.rng_generators_per_run":
           generators / (SIMLAB_REPEATS * len(specs) * SIMLAB_RUNS),
           "simlab.base_s": best["base"], "simlab.site_s": best["site"],
           "simlab.failed_fits": sum(c.n_failed for r in reports.values() for c in r.cells)}
    for m in simlab.METHOD_ORDER:
        out[f"simlab.method.{m}_s"] = best[m] - best["base"]
    return out


def single_fit_metrics(seed: int, tracer) -> dict:
    inp = wl.Inputs(seed)
    f = wl.Fits(inp, tracer)
    g, tgt = f.gamma, f.target
    lab_y = wl.seeded_rng(seed, 2).gamma(4.0, 2.5 / 4.0, size=(10_000, 20))
    surv = [fit.SurvivalSample(float(t), bool(e))
            for t, e in zip(inp.surv_time, inp.surv_event)]
    out = {
        "fit.gamma_shape_mle_ms": median_time(
            tracer, "fit.gamma_shape_mle", lambda: fit.gamma_shape_mle(lab_y), 5) * 1e3,
        "fit.fit_gamma_intercept_us": median_time(
            tracer, "fit.fit_gamma_intercept", lambda: fit.fit_gamma_intercept(inp.gamma),
            5, 20) * 1e6,
        "fit.fit_quasipoisson_us": median_time(
            tracer, "fit.fit_quasipoisson",
            lambda: fit.fit_quasipoisson(inp.counts, inp.exposure), 5, 20) * 1e6,
        "fit.fit_weibull_censored_ms": median_time(
            tracer, "fit.fit_weibull_censored", lambda: fit.fit_weibull_censored(surv),
            5, 4) * 1e3,
        "fit.profile_lr_ci_ms": median_time(
            tracer, "fit.profile_lr_ci", lambda: fit.profile_lr_ci(g, "mu", wl.LEVEL),
            5, 4) * 1e3,
    }
    calls = {
        "predict_sum_link": lambda: intervals.predict_sum_link(g, tgt, wl.LEVEL),
        "predict_sum_plugci": lambda: intervals.predict_sum_plugci(g, tgt, wl.LEVEL),
        "predict_sum_fpivot": lambda: intervals.predict_sum_fpivot(
            g.mu_hat, g.n_obs, wl.N_FUTURE, g.k_hat, wl.LEVEL),
        "predict_sum_plugin": lambda: intervals.predict_sum_plugin(g, tgt, wl.LEVEL),
        "tolerance_delta": lambda: intervals.tolerance_delta(
            g, wl.CONTENT, wl.LEVEL, wl.N_FUTURE),
        "tolerance_nct": lambda: intervals.tolerance_nct(
            g, wl.CONTENT, wl.LEVEL, wl.N_FUTURE),
        "tolerance_plugci": lambda: intervals.tolerance_plugci(
            g, wl.CONTENT, wl.LEVEL, wl.N_FUTURE),
        "predict_count_kris": lambda: intervals.predict_count_kris(
            f.qp, wl.QP_FUTURE, wl.LEVEL),
    }
    for name, call in calls.items():
        out[f"intervals.{name}_us"] = median_time(
            tracer, f"intervals.{name}", call, 5, 20) * 1e6
    for label, (ft, method, nf) in {
            "link_pivot": (g, "link_pivot", wl.N_FUTURE),
            "ci_plug": (g, "ci_plug", wl.N_FUTURE),
            "f_pivot": (g, "f_pivot", wl.N_FUTURE),
            "f_pivot_k1": (g, "f_pivot_k1", wl.N_FUTURE),
            "ci_plug_qp": (f.qp, "ci_plug", wl.QP_FUTURE)}.items():
        out[f"curves.build_curve.{label}_ms"] = median_time(
            tracer, "curves.build_curve",
            lambda: curves.build_curve(ft, method, nf), 9) * 1e3
    for label, target in (("near", wl.NEAR_TARGET), ("far", wl.FAR_TARGET)):
        solve = lambda: applications.solve_target_window(f.trend, target, wl.LEVEL)
        out[f"applications.solve_target_window_{label}_ms"] = median_time(
            tracer, "applications.solve_target_window", solve, 9) * 1e3
        with patched(applications, "predict_sum_rate", tracer,
                     "applications.predict_sum_rate") as evals:
            solve()
        out[f"applications.window_interval_evals_{label}"] = require_calls(
            evals, "applications.predict_sum_rate")
    series = inp.series()
    out["applications.fit_trend_us"] = median_time(
        tracer, "applications.fit_trend",
        lambda: applications.fit_trend(series, transform="log", link=wl.TREND_LINK),
        5, 20) * 1e6
    out["applications.weibull_band_at_us"] = median_time(
        tracer, "applications.weibull_band_at",
        lambda: applications.weibull_band_at(f.weibull, 0.5, wl.LEVEL), 5, 20) * 1e6
    return out


def layer_metrics(root, seed: int, cli_wl, cli_samples: dict, tracer) -> dict:
    out = import_metrics(root, tracer)
    out.update(cli_metrics(cli_wl, cli_samples, tracer))
    out.update(simlab_metrics(seed, tracer))
    out.update(single_fit_metrics(seed, tracer))
    return out
