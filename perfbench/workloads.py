"""The three benchmark workloads and their correctness gate.

Each workload builds its inputs from the seed in ``setup`` and computes the
reference values its operations are checked against.  ``run_op(kind)`` does
one operation of the fixed mix and returns ``(seconds, ok)``; the seconds
cover only the call into tolpred, not the check.  Every call into a tolpred
layer is wrapped in a span named after the module it enters.

Why these workloads:

* ``cli_oneshot`` starts one ``python -m tolpred.cli`` process per
  operation.  A call takes about a second, almost all of it interpreter
  start-up and imports, so only this workload shows import and lazy-load
  work.
* ``lab_tables`` runs the acceptance coverage tables in-process.  Imports
  are paid once, in set-up; the time is per-run generator construction in
  ``dist`` and array quantile endpoints in ``simlab``.  One cell runs at ten
  times the runs, to vary the working set against the caches.
* ``curve_window`` makes single-fit calls on fixed fits: the same interval
  code as the lab, but on arrays of 1 to 4001 values, where per-call
  overhead, root bracketing and repeated interval evaluation dominate.
"""

from __future__ import annotations

import json
import math
import os
import resource
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import stats

from tolpred import applications, curves, fit, intervals, simlab

from tracing import parse_importtime

LEVEL = 0.95
N_FUTURE = 280.0          # future gamma observations (N - n with n = 20)
QP_FUTURE = 100.0         # future exposure for the count predictions
CONTENT = 0.9             # tolerance content
NEAR_TARGET, FAR_TARGET = 600.0, 5000.0
# The CLI's default identity link has its likelihood maximum on the boundary
# (a zero rate in month 1) for about 3.5% of these 12-month series, and the
# fit then raises NonConvergenceError; the log-link fit exists for all of them.
TREND_LINK = "log"
EVENTS_FUTURE = 100       # survival default for the repeated-experiment band
CHILD_TIMEOUT_S = 120.0
REL_CLI = 1e-9            # CLI output against the same library call
REL_CURVE = 1e-5          # curve crossings against the interval functions


def rel_close(a, b, rel) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and bool(np.all(np.isfinite(a)))
            and bool(np.all(np.abs(a - b) <= rel * np.abs(b))))


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def run_child(cmd: list[str], timeout: float, **popen_kwargs):
    """Run ``cmd`` to its end without polling; kill it after ``timeout``
    seconds or on any error.  Returns (exit code, resource usage)."""
    proc = subprocess.Popen(cmd, **popen_kwargs)
    ready = False
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            ready = bool(select.select([fd], [], [], timeout)[0])
        finally:
            os.close(fd)
    finally:
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# ---------------------------------------------------------------------------
# seeded inputs, shared by the CLI and curve workloads

class Inputs:
    """The workloads' data, drawn from ``seed``:

    * 20 gamma waiting times (shape 4, mean 2.5);
    * 12 periods of over-dispersed counts with exposure;
    * 12 months of recruitment from sites opening over the first 10 months,
      plus an 18-month schedule of 20 active sites;
    * 60 Weibull times on treatment, censored at 20.
    """

    def __init__(self, seed: int):
        g = seeded_rng(seed, 1)
        self.gamma = g.gamma(4.0, 2.5 / 4.0, size=20)
        self.exposure = np.round(g.uniform(5.0, 15.0, size=12), 2)
        self.counts = g.poisson(2.7 * self.exposure * g.gamma(20.0, 1 / 20.0, 12)).astype(float)
        months = np.arange(1, 13)
        self.months = months
        self.events = g.poisson((5.0 * np.log(months) + 4.0)
                                * g.gamma(50.0, 1 / 50.0, 12)).astype(float)
        self.days = np.full(12, 30.0)
        self.sites = np.minimum(months, 10) * 2.0
        self.future_periods = np.arange(13, 31)
        t = 12.0 * g.weibull(1.4, size=60)
        self.surv_time = np.minimum(t, 20.0)
        self.surv_event = (t <= 20.0).astype(float)

    def series(self) -> applications.RecruitmentSeries:
        return applications.RecruitmentSeries(self.months, self.events, self.days,
                                              self.sites)

    def write_csvs(self, d: Path) -> None:
        def write(name, header, cols):
            rows = [",".join(header)]
            rows += [",".join(repr(float(v)) for v in row) for row in zip(*cols)]
            (d / name).write_text("\n".join(rows) + "\n")

        write("gamma.csv", ["value"], [self.gamma])
        write("counts.csv", ["events", "exposure"], [self.counts, self.exposure])
        write("recruit.csv", ["period", "events", "exposure_days", "active_sites"],
              [self.months, self.events, self.days, self.sites])
        write("schedule.csv", ["period", "active_sites"],
              [self.future_periods, np.full(self.future_periods.size, 20.0)])
        write("survival.csv", ["time", "event"], [self.surv_time, self.surv_event])


class Fits:
    """The fixed fits the curve workload and the layer probes call on."""

    def __init__(self, inputs: Inputs, tracer):
        with tracer.span("fit.fit_gamma_intercept"):
            self.gamma = fit.fit_gamma_intercept(inputs.gamma)
        with tracer.span("fit.fit_quasipoisson"):
            self.qp = fit.fit_quasipoisson(inputs.counts, inputs.exposure)
        with tracer.span("applications.fit_trend"):
            self.trend = applications.fit_trend(inputs.series(), transform="log",
                                                link=TREND_LINK)
        with tracer.span("fit.fit_weibull_censored"):
            self.weibull = fit.fit_weibull_censored(
                [fit.SurvivalSample(float(t), bool(e))
                 for t, e in zip(inputs.surv_time, inputs.surv_event)])
        self.target = intervals.PredictionTarget(self.gamma.n_obs, N_FUTURE)
        self.qp_target = intervals.PredictionTarget(self.qp.n_obs, QP_FUTURE)


def window_reference(trend, target: float):
    """``solve_target_window`` checked against its definition: the interval
    upper (lower) limit reaches the target at h_lo (h_hi) and not at h - 1.
    Returns the verified result, or None when the check fails."""
    result = applications.solve_target_window(trend, target, LEVEL)
    point, (h_lo, h_hi) = result
    d = trend.fit_window[1]

    def iv(h):
        return applications.predict_sum_rate(trend, range(d + 1, d + h + 1), LEVEL)

    def first(h, side):
        ok_h = getattr(iv(h), side) >= target
        return ok_h and (h == 1 or getattr(iv(h - 1), side) < target)

    mean = lambda h: float(np.sum(trend.mean_rate(np.arange(d + 1, d + h + 1))
                                  * trend.exposure_per_period))
    ok = (first(h_lo, "upper") and first(h_hi, "lower") and h_lo <= point <= h_hi
          and mean(point) >= target and (point == 1 or mean(point - 1) < target))
    return result if ok else None


class Workload:
    name = ""
    kinds: tuple = ()

    def __init__(self, seed: int, root: Path, workdir: Path, tracer):
        self.seed, self.root, self.workdir, self.tracer = seed, root, workdir, tracer

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, kind: str) -> tuple[float, bool]:
        raise NotImplementedError

    def units(self, kind: str) -> float:
        """Work units one operation of ``kind`` completes."""
        return 1.0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# cli_oneshot

class CliOneshot(Workload):
    """Closed loop, one client: each operation is a fresh CLI process."""

    name = "cli_oneshot"
    kinds = ("fit", "predict_gamma", "tolerance", "curve", "predict_qp",
             "recruit_sitedays", "recruit_window", "survival")

    def setup(self) -> None:
        d = self.workdir
        d.mkdir(parents=True, exist_ok=True)
        self.inputs = inp = Inputs(self.seed)
        inp.write_csvs(d)
        self.env = child_env(self.root)
        self.peak_rss_kb = 0
        g, c, r = str(d / "gamma.csv"), str(d / "counts.csv"), str(d / "recruit.csv")
        nf = repr(N_FUTURE)
        self.argv = {
            "fit": ["fit", "--family", "gamma", "--input", g],
            "predict_gamma": ["predict", "--family", "gamma", "--input", g,
                              "--method", "eq1", "eq2", "fpivot", "plugin",
                              "--n-future", nf],
            "tolerance": ["tolerance", "--family", "gamma", "--input", g,
                          "--method", "eq3", "eq4", "eq5", "--n-future", nf,
                          "--content", repr(CONTENT)],
            "curve": ["curve", "--family", "gamma", "--input", g, "--method",
                      "link_pivot", "ci_plug", "f_pivot", "--n-future", nf,
                      "--svg", "--out-dir", str(d / "curve_out")],
            "predict_qp": ["predict", "--family", "quasipoisson", "--input", c,
                           "--method", "eq1", "eq2", "kris",
                           "--n-future", repr(QP_FUTURE)],
            "recruit_sitedays": ["recruit", "--mode", "sitedays", "--input", r,
                                 "--schedule", str(d / "schedule.csv")],
            "recruit_window": ["recruit", "--mode", "window", "--input", r,
                               "--link", TREND_LINK, "--target", repr(NEAR_TARGET)],
            "survival": ["survival", "--input", str(d / "survival.csv"), "--svg",
                         "--out-dir", str(d / "survival_out")],
        }
        self.outputs = {
            "curve": [d / "curve_out" / f"curve_{m}.csv"
                      for m in ("link_pivot", "ci_plug", "f_pivot")]
                     + [d / "curve_out" / "curves.svg"],
            "survival": [d / "survival_out" / n for n in
                         ("survival_bands.csv", "survival_km.csv", "survival.svg")],
        }
        self.refs = self._references()

    def _references(self) -> dict:
        """The same public library calls the CLI makes, with its defaults
        (level 0.95, sandwich SEs, log link)."""
        inp, d = self.inputs, self.workdir
        gf = fit.fit_gamma_intercept(inp.gamma, link="log")
        tgt = intervals.PredictionTarget(gf.n_obs, N_FUTURE)
        qp = fit.fit_quasipoisson(inp.counts, inp.exposure, link="log")
        qtgt = intervals.PredictionTarget(qp.n_obs, QP_FUTURE)
        series = applications.load_recruitment_csv(d / "recruit.csv", d / "schedule.csv")
        sd = applications.site_day_fit(series)
        trend = applications.fit_trend(applications.load_recruitment_csv(d / "recruit.csv"),
                                       transform="log", link=TREND_LINK)
        wf = fit.fit_weibull_censored(applications.load_survival_csv(d / "survival.csv"))
        p_grid = np.round(np.arange(0.05, 0.96, 0.05), 10)
        bands = []
        for p in p_grid:
            tol = applications.weibull_band_at(wf, float(p), LEVEL, "tolerance")
            pred = applications.weibull_band_at(wf, float(p), LEVEL, "repeated",
                                                events_future=EVENTS_FUTURE)
            bands.append([p, tol.lower, tol.upper, pred.lower, pred.upper])
        return {
            "fit": gf,
            "predict_gamma": {
                "eq1": intervals.predict_sum_link(gf, tgt, LEVEL, se_kind="sandwich"),
                "eq2": intervals.predict_sum_plugci(gf, tgt, LEVEL, se_kind="sandwich"),
                "fpivot": intervals.predict_sum_fpivot(gf.mu_hat, gf.n_obs, N_FUTURE,
                                                       gf.k_hat, LEVEL),
                "plugin": intervals.predict_sum_plugin(gf, tgt, LEVEL)},
            "tolerance": {
                "eq3": intervals.tolerance_delta(gf, CONTENT, LEVEL, N_FUTURE),
                "eq4": intervals.tolerance_nct(gf, CONTENT, LEVEL, N_FUTURE),
                "eq5": intervals.tolerance_plugci(gf, CONTENT, LEVEL, N_FUTURE,
                                                  se_kind="sandwich")},
            "curve": {m: curves.build_curve(gf, m, N_FUTURE, se_kind="sandwich")
                      for m in ("link_pivot", "ci_plug", "f_pivot")},
            "predict_qp": {
                "eq1": intervals.predict_sum_link(qp, qtgt, LEVEL, se_kind="sandwich"),
                "eq2": intervals.predict_sum_plugci(qp, qtgt, LEVEL, se_kind="sandwich"),
                "kris": intervals.predict_count_kris(qp, QP_FUTURE, LEVEL)},
            "recruit_sitedays": (sd, applications.predict_sitedays(sd, series, LEVEL)),
            "recruit_window": applications.solve_target_window(trend, NEAR_TARGET, LEVEL),
            "survival": (wf, np.asarray(bands)),
        }

    def command(self, kind: str, importtime: bool) -> list[str]:
        return ([sys.executable] + (["-X", "importtime"] if importtime else [])
                + ["-m", "tolpred.cli"] + self.argv[kind])

    def run_op(self, kind):
        for path in self.outputs.get(kind, ()):
            if path.exists():
                path.unlink()
        importtime = self.tracer.enabled
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err, \
                self.tracer.span(f"cli.{kind}"):
            start = time.perf_counter()
            code, usage = run_child(self.command(kind, importtime), CHILD_TIMEOUT_S,
                                    stdout=out, stderr=err, cwd=self.workdir,
                                    env=self.env)
            elapsed = time.perf_counter() - start
            if importtime:
                imp = parse_importtime(err_path.read_text())["<total>"]
                self.tracer.add("import.cli_child", start, start + imp)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code != 0:
            return elapsed, False
        return elapsed, self.check(kind, out_path.read_text())

    def check(self, kind: str, stdout: str) -> bool:
        ref = self.refs[kind]
        if kind == "curve":
            return stdout.strip() == "" and self._check_curve(ref)
        out = json.loads(stdout, parse_constant=_reject_constant)
        if kind == "fit":
            return _fit_matches(out, ref)
        if kind in ("predict_gamma", "tolerance", "predict_qp"):
            return set(out) == set(ref) and all(
                rel_close([out[m]["lower"], out[m]["upper"]],
                          [ref[m].lower, ref[m].upper], REL_CLI) for m in ref)
        if kind == "recruit_sitedays":
            sd, iv = ref
            pred = out["prediction"]
            return (_fit_matches(out["fit"], sd)
                    and rel_close([pred["lower"], pred["upper"]],
                                  [iv.lower, iv.upper], REL_CLI))
        if kind == "recruit_window":
            point, (lo, hi) = ref
            return out["horizon_point"] == point and out["horizon_interval"] == [lo, hi]
        if kind == "survival":
            wf, bands = ref
            if not all(p.is_file() for p in self.outputs["survival"]):
                return False
            got = np.loadtxt(out["bands_csv"], delimiter=",", skiprows=1)
            return (_fit_matches(out["fit"], wf)
                    and rel_close(got[:, [0, 2, 3, 4, 5]], bands, REL_CLI))
        raise ValueError(kind)

    def _check_curve(self, tables) -> bool:
        *csvs, svg = self.outputs["curve"]
        if not svg.is_file() or not svg.read_text().startswith("<svg"):
            return False
        for path, table in zip(csvs, tables.values()):
            if not path.is_file():
                return False
            got = np.loadtxt(path, delimiter=",", skiprows=1)
            want = np.column_stack([table.grid, table.H, table.H_minus, table.C,
                                    table.density])
            if not rel_close(got, want, REL_CLI):
                return False
        return True

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


def _reject_constant(name):
    raise ValueError(f"non-finite value {name} in CLI output")


def _fit_matches(out: dict, ref) -> bool:
    nums = {k: v for k, v in out.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}
    return bool(nums) and all(rel_close(v, getattr(ref, k), REL_CLI)
                              for k, v in nums.items())


# ---------------------------------------------------------------------------
# lab_tables

ALL_LEVELS = (0.80, 0.95)
SITE = dict(n=20, N=300, alpha=4.0, beta=0.033 / 4, n_sites=20)
# label -> (n, N, k, mu, runs); the acceptance cells at 10k runs and one at 100k
GAMMA_CELLS = {
    "k4_n20": (20, 300, 4.0, 2.5, 10_000),
    "k0.7_n10": (10, 11, 0.7, 1.5, 10_000),
    "k4_n290": (290, 300, 4.0, 2.5, 10_000),
    "k1_n20": (20, 300, 1.0, 2.5, 10_000),
    "k4_n20_100k": (20, 300, 4.0, 2.5, 100_000),
}
# (cell, method, level) -> (published coverage, acceptance tolerance), as in
# the repository's acceptance tests.  Those tolerances were fixed at one
# scenario seed; the benchmark draws from its own seed, so a cell may also
# differ by its own Monte-Carlo error: at 10k runs the SE of eq1 is about
# 0.0024 and the acceptance tolerance alone fails a few percent of seeds.
PUBLISHED_SLACK_SE = 2.0
PUBLISHED = {
    ("k4_n20", "eq1", 0.95): (0.947, 0.0075),
    ("k4_n20", "plugin", 0.95): (0.380, 0.02),
    ("k4_n20_100k", "eq1", 0.95): (0.947, 0.0075),
    ("k4_n20_100k", "plugin", 0.95): (0.380, 0.02),
    ("k4_n290", "eq1", 0.95): (0.950, 0.0075),
    ("k0.7_n10", "eq1", 0.95): (0.857, 0.015),
    ("k0.7_n10", "eq2", 0.95): (0.955, 0.01),
}
# the F pivot is exact for exponential data: within this many MC SEs of nominal
EXACT_CELLS = ("k1_n20", "sites")
EXACT_N_SE = 4.0


def lab_specs(seed: int, scale: float = 1.0) -> dict:
    specs = {label: simlab.ScenarioSpec(
        data_process="gamma_fixed", n=n, N=N, k=k, mu=mu,
        methods=simlab.METHOD_ORDER, levels=ALL_LEVELS,
        n_runs=max(int(runs * scale), 1), seed=seed)
        for label, (n, N, k, mu, runs) in GAMMA_CELLS.items()}
    specs["sites"] = simlab.ScenarioSpec(
        data_process="poisson_gamma_sites", methods=simlab.PREDICTION_METHODS,
        levels=ALL_LEVELS, n_runs=max(int(10_000 * scale), 1), seed=seed, **SITE)
    return specs


def run_cell(spec, tracer):
    if spec.data_process == "gamma_fixed":
        with tracer.span("simlab.run_gamma_coverage"):
            return simlab.run_gamma_coverage(spec)
    with tracer.span("simlab.run_poisson_gamma"):
        return simlab.run_poisson_gamma(spec)


class LabTables(Workload):
    """Closed loop over the acceptance coverage cells, every method at both
    levels; one operation is one cell's table."""

    name = "lab_tables"
    kinds = tuple(GAMMA_CELLS) + ("sites",)

    def setup(self) -> None:
        self.published = dict(PUBLISHED)
        self.first: dict = {}
        for spec in lab_specs(self.seed, scale=0.02).values():   # warm-up
            run_cell(spec, self.tracer)
        self.specs = lab_specs(self.seed)

    def units(self, kind):
        return float(self.specs[kind].n_runs)

    def run_op(self, kind):
        spec = self.specs[kind]
        start = time.perf_counter()
        report = run_cell(spec, self.tracer)
        elapsed = time.perf_counter() - start
        return elapsed, self.check(kind, report)

    def check(self, kind: str, report) -> bool:
        spec = report.spec
        expected = {(m, lv) for m in spec.methods for lv in spec.levels}
        if {(c.method, c.level) for c in report.cells} != expected:
            return False
        for c in report.cells:
            if not (math.isfinite(c.observed) and math.isfinite(c.mc_se)
                    and c.n_runs + c.n_failed == spec.n_runs):
                return False
            ref = self.published.get((kind, c.method, c.level))
            if (ref is not None
                    and abs(c.observed - ref[0]) > ref[1] + PUBLISHED_SLACK_SE * c.mc_se):
                return False
            if (kind in EXACT_CELLS and c.method == "fpivot_k1"
                    and not c.within(c.level, EXACT_N_SE)):
                return False
        # runs depend only on (seed, run index): every repeat is identical
        return self.first.setdefault(kind, report.cells) == report.cells


# ---------------------------------------------------------------------------
# curve_window

CURVE_KINDS = ("build_curve.link_pivot", "build_curve.ci_plug",
               "build_curve.f_pivot", "build_curve.f_pivot_k1",
               "build_curve.ci_plug_qp", "solve_target_window.near",
               "solve_target_window.far", "predict_count_kris",
               "tolerance_delta", "predict_sum_plugci", "profile_lr_ci")


class CurveWindow(Workload):
    """Closed loop of single-fit calls on fixed fits."""

    name = "curve_window"
    kinds = CURVE_KINDS

    def setup(self) -> None:
        self.fits = f = Fits(Inputs(self.seed), self.tracer)
        tgt, qtgt = f.target, f.qp_target
        g = f.gamma
        self.calls = {
            "build_curve.link_pivot": ("curves.build_curve",
                                       lambda: curves.build_curve(g, "link_pivot", N_FUTURE)),
            "build_curve.ci_plug": ("curves.build_curve",
                                    lambda: curves.build_curve(g, "ci_plug", N_FUTURE)),
            "build_curve.f_pivot": ("curves.build_curve",
                                    lambda: curves.build_curve(g, "f_pivot", N_FUTURE)),
            "build_curve.f_pivot_k1": ("curves.build_curve",
                                       lambda: curves.build_curve(g, "f_pivot_k1", N_FUTURE)),
            "build_curve.ci_plug_qp": ("curves.build_curve",
                                       lambda: curves.build_curve(f.qp, "ci_plug", QP_FUTURE)),
            "solve_target_window.near": ("applications.solve_target_window",
                                         lambda: applications.solve_target_window(
                                             f.trend, NEAR_TARGET, LEVEL)),
            "solve_target_window.far": ("applications.solve_target_window",
                                        lambda: applications.solve_target_window(
                                            f.trend, FAR_TARGET, LEVEL)),
            "predict_count_kris": ("intervals.predict_count_kris",
                                   lambda: intervals.predict_count_kris(f.qp, QP_FUTURE, LEVEL)),
            "tolerance_delta": ("intervals.tolerance_delta",
                                lambda: intervals.tolerance_delta(g, CONTENT, LEVEL, N_FUTURE)),
            "predict_sum_plugci": ("intervals.predict_sum_plugci",
                                   lambda: intervals.predict_sum_plugci(g, tgt, LEVEL)),
            "profile_lr_ci": ("fit.profile_lr_ci", lambda: fit.profile_lr_ci(g, "mu", LEVEL)),
        }
        self.refs = self._references()
        for kind in self.kinds:   # warm-up
            self.calls[kind][1]()

    def _references(self) -> dict:
        """Reference results, each checked once against an independent
        property; a reference that fails its property is None, so every
        operation of that kind counts as failed."""
        f, g = self.fits, self.fits.gamma
        link = intervals.predict_sum_link(g, f.target, LEVEL)
        plugci = intervals.predict_sum_plugci(g, f.target, LEVEL)
        refs = {
            "build_curve.link_pivot": (link.lower, link.upper),
            "build_curve.ci_plug": (plugci.lower, plugci.upper),
            "build_curve.f_pivot": _pair(intervals.predict_sum_fpivot(
                g.mu_hat, g.n_obs, N_FUTURE, g.k_hat, LEVEL)),
            "build_curve.f_pivot_k1": _pair(intervals.predict_sum_fpivot(
                g.mu_hat, g.n_obs, N_FUTURE, 1.0, LEVEL)),
            "build_curve.ci_plug_qp": _pair(intervals.predict_sum_plugci(
                f.qp, f.qp_target, LEVEL)),
            "solve_target_window.near": window_reference(f.trend, NEAR_TARGET),
            "solve_target_window.far": window_reference(f.trend, FAR_TARGET),
        }
        alpha = 1 - LEVEL
        kris = intervals.predict_count_kris(f.qp, QP_FUTURE, LEVEL)
        cdf = lambda x: intervals.kris_count_cdf(x, f.qp.mu_hat, f.qp.exposure_total,
                                                  QP_FUTURE, f.qp.dispersion_scale)
        refs["predict_count_kris"] = (_pair(kris) if abs(cdf(kris.lower) - alpha / 2) < 1e-8
                                      and abs(cdf(kris.upper) - (1 - alpha / 2)) < 1e-8
                                      else None)
        tol = intervals.tolerance_delta(g, CONTENT, LEVEL, N_FUTURE)
        shape, scale = N_FUTURE * g.k_hat, g.mu_hat / g.k_hat
        q_lo = stats.gamma.ppf((1 - CONTENT) / 2, shape, scale=scale)
        q_hi = stats.gamma.ppf((1 + CONTENT) / 2, shape, scale=scale)
        refs["tolerance_delta"] = _pair(tol) if tol.lower < q_lo < q_hi < tol.upper else None
        plugin = intervals.predict_sum_plugin(g, f.target, LEVEL)
        refs["predict_sum_plugci"] = (_pair(plugci) if plugci.lower < plugin.lower
                                      and plugin.upper < plugci.upper else None)
        prof = fit.profile_lr_ci(g, "mu", LEVEL)
        refs["profile_lr_ci"] = tuple(prof) if prof[0] < g.mu_hat < prof[1] else None
        return refs

    def run_op(self, kind):
        span, call = self.calls[kind]
        with self.tracer.span(span):
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
        ref = self.refs[kind]
        if ref is None:
            return elapsed, False
        if kind.startswith("build_curve"):
            return elapsed, rel_close(result.interval_at(LEVEL), ref, REL_CURVE)
        if kind.startswith("solve_target_window"):
            return elapsed, result == ref
        return elapsed, rel_close(_pair(result), ref, REL_CLI)


def _pair(iv) -> tuple[float, float]:
    return (iv.lower, iv.upper) if hasattr(iv, "lower") else tuple(iv)


WORKLOADS = {w.name: w for w in (CliOneshot, LabTables, CurveWindow)}
