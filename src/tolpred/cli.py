"""Command-line front end.

Subcommands: fit, predict, tolerance, curve, simulate, recruit, survival.
Each accepts an optional JSON config (``--config``): its keys are the
subcommand's option names (``n_future`` for ``--n-future``) and its values
are parsed as the flags they stand for, before the command line's own, so
explicit flags win.  CSV tables are always written next to any SVG so
plots are reproducible externally.

Exit codes: 0 success, 1 configuration error, 2 parse error,
3 fit/numeric error, 4 simulation-budget error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import applications, curves, intervals, simlab
from .dist import ParameterDomainError
from .fit import (FitError, FitResult, fit_binomial_logit, fit_gamma_intercept,
                  fit_quasipoisson, fit_weibull_censored, km_estimator)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_BUDGET = 4

LINKS = ["log", "identity"]


class ConfigError(Exception):
    pass


class BudgetError(Exception):
    pass


# ---------------------------------------------------------------------------
# minimal deterministic SVG line plots

# plot size and the margin around the plot frame, in SVG user units
SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 600, 400, 50


def write_svg_lines(path, series, xlabel="", ylabel=""):
    """Write a fixed-size multi-line SVG plot; ``series`` is a list of
    (xs, ys, color) triples.  Deterministic output for byte comparison."""
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    w, h, m = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}">',
            f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
            'fill="none" stroke="black"/>']
    for xs, ys, color in series:   # data ranges map onto the frame, y upwards
        pts = " ".join(f"{m + (x - x0) / (x1 - x0 or 1.0) * (w - 2 * m):.3f},"
                       f"{h - m - (y - y0) / (y1 - y0 or 1.0) * (h - 2 * m):.3f}"
                       for x, y in zip(xs, ys))
        body.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                    f'points="{pts}"/>')
    if xlabel:   # centred under the frame, and beside it, rotated
        body.append(f'<text x="{w // 2}" y="{h - 10}" text-anchor="middle" '
                    f'font-size="12">{xlabel}</text>')
    if ylabel:
        body.append(f'<text x="15" y="{h // 2}" text-anchor="middle" font-size="12" '
                    f'transform="rotate(-90 15 {h // 2})">{ylabel}</text>')
    body.append("</svg>")
    Path(path).write_text("\n".join(body) + "\n")


# ---------------------------------------------------------------------------
# config / parsing helpers

def _config_flags(parser: argparse.ArgumentParser, path) -> list[str]:
    """The flags a ``--config`` file stands for.  Each key is the ``dest`` of
    one of ``parser``'s options and each value the text a user would type
    after its flag: a list for a multi-value option, true or false for a
    switch."""
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    cfg.pop("schema_version", None)
    options = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = set(cfg) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, val in cfg.items():
        flag, switch = options[key].option_strings[0], options[key].nargs == 0
        vals = [] if switch else val if isinstance(val, list) else [val]
        if (switch and type(val) is not bool) or any(type(v) not in (str, int, float)
                                                     for v in vals):
            raise ConfigError(f"config key {key!r}: {val!r} is not the text of {flag}")
        if val is not False:
            flags += [flag, *map(str, vals)]
    return flags


def _fit_from_args(args) -> FitResult:
    fam = args.family
    if fam == "gamma":
        arr = applications._read_rows(args.input, ["value"])
        return fit_gamma_intercept(arr[:, 0], link=args.link)
    if fam == "quasipoisson":
        arr = applications._read_rows(args.input, ["events", "exposure"])
        return fit_quasipoisson(arr[:, 0], arr[:, 1], link=args.link)
    if fam == "binomial":
        arr = applications._read_rows(args.input, ["y", "trt"])
        return fit_binomial_logit(arr[:, 0], arr[:, 1])
    return fit_weibull_censored(applications.load_survival_csv(args.input))


def _fit_to_dict(fit: FitResult) -> dict:
    out = {}
    for name in ("family", "link", "mu_hat", "n_obs", "k_hat", "phi_hat",
                 "se_mu", "se_g_mu_model", "se_g_mu_sandwich", "se_k",
                 "cov_mu_k", "exposure_total", "loglik", "lam_hat"):
        val = getattr(fit, name)
        if val is not None:
            out[name] = val
    if fit.phi_hat is not None:
        out["dispersion_scale"] = fit.dispersion_scale
    return out


def _interval_to_dict(iv: intervals.IntervalEstimate) -> dict:
    d = {"lower": iv.lower, "upper": iv.upper, "level": iv.level,
         "method": iv.method, "target": iv.target, "sided": iv.sided}
    if iv.content_p is not None:
        d["content_p"] = iv.content_p
    return d


def _emit(args, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"non-finite value in the output: {exc}") from exc
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_fit(args) -> int:
    fit = _fit_from_args(args)
    _emit(args, _fit_to_dict(fit))
    return EXIT_OK


def _table_method(args, fit: FitResult, name: str) -> intervals.Method:
    """The ``intervals.METHODS`` entry that ``--method name`` selects for
    predict, tolerance or curve, checked usable on ``fit``."""
    method = intervals.METHODS[curves.CURVE_METHODS.get(name, name)]
    if args.n_future is None:
        raise ConfigError(f"method {name!r} needs --n-future ({fit.family} fit)")
    if method.families is not None and fit.family not in method.families:
        raise ConfigError(f"method {name!r} has no formula for a {fit.family} fit")
    return method


@contextmanager
def _unsupported_as_config(fit: FitResult, name: str):
    """Report a method that has no formula for this fit and target as a
    configuration error."""
    try:
        yield
    except intervals.UnsupportedTargetError as exc:
        raise ConfigError(f"method {name!r} on a {fit.family} fit: {exc}") from exc


def cmd_interval(args) -> int:
    """predict/tolerance: each requested method of the subcommand's kind from
    the shared ``intervals.METHODS`` table, with the CLI convention: the
    ``--se-kind`` SE and the z critical value for the eq2/eq5 limits."""
    fit = _fit_from_args(args)
    p = args.content if args.command == "tolerance" else None
    out = {}
    for name in args.method:
        method = _table_method(args, fit, name)
        with _unsupported_as_config(fit, name):
            iv = method.build(fit, args.level, args.n_future, p, args.se_kind, "z")
        out[name] = _interval_to_dict(iv)
    _emit(args, out)
    return EXIT_OK


CURVE_COLORS = {"link_pivot": "#1f77b4", "ci_plug": "#d62728",
                "f_pivot": "#2ca02c", "f_pivot_k1": "#9467bd",
                "or_prediction": "#ff7f0e"}


def cmd_curve(args) -> int:
    fit = _fit_from_args(args)
    for method in args.method:
        _table_method(args, fit, method)
    tables = []   # every table is built before --out-dir is created
    for method in args.method:
        with _unsupported_as_config(fit, method):
            tables.append(curves.build_curve(fit, method, args.n_future,
                                             se_kind=args.se_kind))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = []
    for method, table in zip(args.method, tables):
        table.write_csv(out_dir / f"curve_{method}.csv")
        series.append((table.grid, table.C, CURVE_COLORS[method]))
    if args.svg:
        write_svg_lines(out_dir / "curves.svg", series,
                        xlabel="hypothesised total", ylabel="confidence curve")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        spec = simlab.ScenarioSpec.from_json(args.scenario)
    except OSError as exc:   # missing, a directory, unreadable
        raise ConfigError(str(exc)) from exc
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc
    overrides = {"n_runs": args.runs, "seed": args.seed}
    spec = dataclasses.replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    if spec.n_runs > args.max_runs:
        raise BudgetError(f"{spec.n_runs} runs exceed the budget of {args.max_runs}")
    with np.errstate(all="ignore"):   # the lab masks runs whose fit or endpoint fails
        report = simlab.run_coverage(spec)
    text = simlab.emit_table(report, fmt=args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if report.failure_flagged:
        raise BudgetError("more than 0.1% of runs failed to fit or had no usable interval")
    return EXIT_OK


def cmd_recruit(args) -> int:
    series = applications.load_recruitment_csv(args.input, args.schedule)
    out = {}
    if args.mode == "sitedays":
        fit = applications.site_day_fit(series)
        out["fit"] = _fit_to_dict(fit)
        out["diagnostic"] = applications.site_dispersion_diagnostic(series)
        if series.future_sites is not None:
            iv = applications.predict_sitedays(fit, series, args.level)
            out["prediction"] = _interval_to_dict(iv)
            out["prediction_rounded"] = list(iv.rounded())
    else:
        trend = applications.fit_trend(series, transform=args.transform, link=args.link)
        if args.mode == "trend":
            out["coef"] = list(trend.coef)
            out["phi"] = trend.phi
            d = trend.fit_window[1]
            iv = applications.predict_sum_rate(trend, range(d + 1, d + args.horizon + 1),
                                               args.level)
            out["sum_prediction"] = _interval_to_dict(iv)
            out["sum_prediction_rounded"] = list(iv.rounded())
        else:
            if args.target is None:
                raise ConfigError("window mode requires --target")
            point, (lo, hi) = applications.solve_target_window(trend, args.target, args.level)
            out["horizon_point"] = point
            out["horizon_interval"] = [lo, hi]
    _emit(args, out)
    return EXIT_OK


def cmd_survival(args) -> int:
    data = applications.load_survival_csv(args.input)
    fit = fit_weibull_censored(data)
    km = km_estimator(data)
    level, m = args.level, args.events_future
    p_grid = np.round(np.arange(0.05, 0.96, 0.05), 10)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    band_path = out_dir / "survival_bands.csv"
    with open(band_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "quantile", "tol_lower", "tol_upper",
                    "pred_lower", "pred_upper"])
        tol = applications.weibull_bands(fit, p_grid, level, "tolerance")
        pred = applications.weibull_bands(fit, p_grid, level, "repeated", events_future=m)
        rows = [[p, intervals._sum_quantile(fit, float(p), 1), t.lower, t.upper,
                 r.lower, r.upper] for p, t, r in zip(p_grid, tol, pred)]
        w.writerows([f"{v:.10g}" for v in row] for row in rows)
    km_path = out_dir / "survival_km.csv"
    with open(km_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "survival"])
        for t, s in zip(km.times, km.survival):
            w.writerow([f"{t:.10g}", f"{s:.10g}"])
    if args.svg:
        arr = np.asarray(rows, dtype=float)
        surv_levels = 1.0 - arr[:, 0]
        write_svg_lines(out_dir / "survival.svg",
                        [(arr[:, 1], surv_levels, "#1f77b4"),
                         (arr[:, 2], surv_levels, "#ff7f0e"),
                         (arr[:, 3], surv_levels, "#ff7f0e"),
                         (arr[:, 4], surv_levels, "#2ca02c"),
                         (arr[:, 5], surv_levels, "#2ca02c"),
                         (np.repeat(km.times, 2)[1:],
                          np.repeat(np.concatenate([[1.0], km.survival]), 2)[:-1],
                          "#000000")],
                        xlabel="time", ylabel="survival")
    _emit(args, {"fit": _fit_to_dict(fit), "bands_csv": str(band_path),
                 "km_csv": str(km_path)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def probability(text: str) -> float:
    """A level or content: a number in (0, 1)."""
    val = float(text)
    if not 0.0 < val < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return val


def positive_int(text: str) -> int:
    """A count: an integer of at least 1."""
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return val


def horizon(text: str) -> int:
    """A number of future periods: an integer from 1 to ``MAX_HORIZON``."""
    val = positive_int(text)
    if val > applications.MAX_HORIZON:
        raise argparse.ArgumentTypeError(
            f"must be at most {applications.MAX_HORIZON}, got {text}")
    return val


def non_negative_int(text: str) -> int:
    """A seed: an integer of at least 0."""
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return val


def _build_parser() -> tuple[_Parser, dict]:
    """The parser and its subcommand parsers by name.  Each option is
    declared once, in the subcommand or in the parent group it shares."""
    def group() -> _Parser:
        return _Parser(add_help=False)

    files = group()
    files.add_argument("--config")
    files.add_argument("--out")
    data = group()
    data.add_argument("--input", required=True)
    model = group()
    model.add_argument("--family", required=True,
                       choices=["gamma", "quasipoisson", "binomial", "weibull"])
    model.add_argument("--link", choices=LINKS, default="log")
    level = group()
    level.add_argument("--level", type=probability, default=0.95)
    plots = group()
    plots.add_argument("--out-dir", default=".")
    plots.add_argument("--svg", action="store_true")

    def interval(names, **method) -> _Parser:
        q = group()
        q.add_argument("--method", nargs="+", choices=names, **method)
        q.add_argument("--n-future", type=float)
        q.add_argument("--se-kind", choices=["model", "sandwich"], default="sandwich")
        return q

    parser = _Parser(prog="tolpred")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *parents) -> _Parser:
        p = sub.add_parser(name, parents=[files, *parents])
        p.set_defaults(func=func)
        return p

    kinds = {}   # 'prediction' or 'tolerance' -> the table's methods of that kind
    for name, entry in intervals.METHODS.items():
        kinds.setdefault(entry.kind, []).append(name)

    command("fit", cmd_fit, data, model)
    command("predict", cmd_interval, data, model, level,
            interval(kinds["prediction"], default=["eq1"]))
    p = command("tolerance", cmd_interval, data, model, level,
                interval(kinds["tolerance"], required=True))
    p.add_argument("--content", type=probability, default=0.5)
    command("curve", cmd_curve, data, model, plots,
            interval(list(curves.CURVE_METHODS), required=True))

    p = command("simulate", cmd_simulate)
    p.add_argument("--scenario", required=True)
    p.add_argument("--runs", type=positive_int)
    p.add_argument("--seed", type=non_negative_int)
    p.add_argument("--max-runs", type=positive_int, default=1_000_000)
    p.add_argument("--format", choices=["text", "csv"], default="text")

    p = command("recruit", cmd_recruit, data, level)
    p.add_argument("--schedule")
    p.add_argument("--mode", choices=["sitedays", "trend", "window"], default="sitedays")
    p.add_argument("--transform", choices=applications.TRANSFORMS, default="log")
    p.add_argument("--link", choices=LINKS, default="identity")
    p.add_argument("--horizon", type=horizon, default=18)
    p.add_argument("--target", type=float)

    p = command("survival", cmd_survival, data, level, plots)
    p.add_argument("--events-future", type=positive_int, default=100)
    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv`` with the flags of its ``--config`` file put before its
    own, so that the command line wins."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    path = None
    for tok, after in zip(argv, argv[1:] + [None]):
        flag, eq, val = tok.partition("=")
        if len(flag) > 2 and "--config".startswith(flag):   # argparse takes prefixes
            path = val if eq else after
    if path is not None and argv[0] in commands:
        argv[1:1] = _config_flags(commands[argv[0]], path)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        n = getattr(args, "n_future", None)
        if n is not None:
            # future exposure for quasi-Poisson fits, a number of future units otherwise
            exposure = args.family == "quasipoisson"
            if not (math.isfinite(n) and (n > 0 if exposure else n >= 1)):
                raise ConfigError(f"--n-future must be finite and "
                                  f"{'positive' if exposure else 'at least 1'} "
                                  f"for a {args.family} fit, got {n}")
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"simulation budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FitError, ArithmeticError, np.linalg.LinAlgError, ParameterDomainError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
