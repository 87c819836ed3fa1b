import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tolpred
from tolpred import applications, curves, intervals
from tolpred.cli import main
from tolpred.fit import fit_binomial_logit, fit_gamma_intercept


@pytest.fixture
def gamma_csv(tmp_path):
    gen = np.random.default_rng(9)
    vals = gen.gamma(4.0, 0.625, size=20)
    p = tmp_path / "values.csv"
    p.write_text("value\n" + "\n".join(f"{v:.12g}" for v in vals))
    return p, vals


@pytest.fixture
def recruit_csv(tmp_path):
    s = applications.make_recruitment_fixture()
    p = tmp_path / "recruit.csv"
    lines = ["period,events,exposure_days,active_sites"]
    for row in zip(s.period, s.events, s.exposure_days, s.active_sites):
        lines.append(",".join(f"{v:g}" for v in row))
    p.write_text("\n".join(lines) + "\n")
    sched = tmp_path / "sched.csv"
    sched.write_text("period,active_sites\n" + "\n".join(
        f"{int(l)},20" for l in s.future_period) + "\n")
    return p, sched


@pytest.fixture
def survival_csv(tmp_path):
    gen = np.random.default_rng(12)
    t = 12.0 * gen.weibull(1.4, size=50)
    p = tmp_path / "surv.csv"
    lines = ["time,event"]
    for x in t:
        lines.append(f"{min(x, 20.0):.10g},{int(x <= 20.0)}")
    p.write_text("\n".join(lines) + "\n")
    return p


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# fit


def test_fit_gamma_reports_mean(capsys, gamma_csv):
    path, vals = gamma_csv
    code, out = run(capsys, "fit", "--family", "gamma", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["mu_hat"] == pytest.approx(vals.mean(), rel=1e-9)
    assert payload["family"] == "gamma"
    assert payload["n_obs"] == 20


def test_fit_out_file(tmp_path, capsys, gamma_csv):
    path, vals = gamma_csv
    dest = tmp_path / "fit.json"
    code, out = run(capsys, "fit", "--family", "gamma", "--input", str(path),
                    "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["n_obs"] == 20


# ---------------------------------------------------------------------------
# exit codes


def test_missing_required_flag(capsys, gamma_csv):
    path, _ = gamma_csv
    assert main(["fit", "--input", str(path)]) == 1          # no family
    assert main(["fit", "--family", "gamma"]) == 1           # no input


def test_unknown_choice_is_config_error(capsys, gamma_csv):
    path, _ = gamma_csv
    assert main(["fit", "--family", "lognormal", "--input", str(path)]) == 1


@pytest.mark.parametrize("argv", [
    ["fit", "--family", "gamma"], ["fit", "--family", "quasipoisson"],
    ["fit", "--family", "binomial"], ["fit", "--family", "weibull"],
    ["survival"], ["recruit"],
], ids=["fit-gamma", "fit-quasipoisson", "fit-binomial", "fit-weibull",
        "survival", "recruit"])
def test_missing_input_file(capsys, tmp_path, argv):
    assert main(argv + ["--input", str(tmp_path / "nope.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "cannot read" in err


def test_empty_csv(capsys, tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("value\n")
    assert main(["fit", "--family", "gamma", "--input", str(p)]) == 2


def test_missing_config_file(capsys, tmp_path):
    assert main(["fit", "--config", str(tmp_path / "none.json")]) == 1


def test_bad_config_json(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["fit", "--config", str(cfg)]) == 1


def test_unknown_config_key(capsys, tmp_path, gamma_csv):
    path, _ = gamma_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gamma", "input": str(path),
                               "bootstrap": True}))
    assert main(["fit", "--config", str(cfg)]) == 1


def test_near_equal_sample_is_one_line_fit_error(tmp_path):
    """A fresh process, where numpy's warnings would reach stderr: near-equal
    values overflow the shape, and the user sees only the fit error."""
    path = tmp_path / "near.csv"
    path.write_text("value\n1.0\n1.000000000001\n")
    src = str(Path(tolpred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "tolpred.cli", "predict", "--family", "gamma",
         "--input", str(path), "--n-future", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("fit error:")


def test_degenerate_data_is_fit_error(capsys, tmp_path):
    p = tmp_path / "const.csv"
    p.write_text("value\n" + "2.0\n" * 10)   # zero log-dispersion: no shape MLE
    assert main(["predict", "--family", "gamma", "--input", str(p),
                 "--method", "eq2", "--n-future", "280"]) == 3


GAMMA_ROWS = "value\n1.2\n2.3\n0.7\n3.1\n"
ZERO_LOWER_ROWS = "events,exposure\n0,10\n3,10\n0,10\n5,10\n0,10\n1,10\n"


@pytest.mark.parametrize("rows, argv, code", [
    ("value\n1.2\n2.3\nnan\n3.1\n", ["fit", "--family", "gamma"], 2),
    ("events,exposure\n3,10\n4,inf\n", ["fit", "--family", "quasipoisson"], 2),
    (GAMMA_ROWS, ["tolerance", "--family", "gamma", "--method", "eq3", "eq4", "eq5",
                  "--n-future", "5", "--content", "1.2"], 1),
    (GAMMA_ROWS, ["predict", "--family", "gamma", "--n-future", "5", "--level", "1.5"], 1),
    ("y,trt\n1,1\n0,1\n1,1\n2,0\n0,0\n1,0\n0,0\n1,1\n0,1\n",
     ["fit", "--family", "binomial"], 3),
    ("value\n1e308\n1.5e308\n", ["fit", "--family", "gamma"], 3),  # overflowing fit
    (ZERO_LOWER_ROWS, ["predict", "--family", "quasipoisson", "--method", "kris",
                       "--n-future", "2"], 0),
    (GAMMA_ROWS, ["predict", "--family", "gamma", "--n-future", "nan"], 1),
    (GAMMA_ROWS, ["predict", "--family", "gamma", "--n-future", "inf"], 1),
    (GAMMA_ROWS, ["tolerance", "--family", "gamma", "--method", "eq3",
                  "--n-future", "0.5"], 1),
    (GAMMA_ROWS, ["curve", "--family", "gamma", "--n-future", "-3"], 1),
    # quasi-Poisson --n-future is future exposure: below 1 is allowed
    (ZERO_LOWER_ROWS, ["predict", "--family", "quasipoisson", "--method", "kris",
                       "--n-future", "0.5"], 0),
    # the spread underflows: a zero sandwich SE and an infinite log-likelihood
    ("value\n1e-320\n3e-320\n1e-310\n", ["predict", "--family", "gamma",
                                          "--method", "eq1", "--n-future", "5"], 3),
], ids=["nan_cell", "inf_cell", "content_1.2", "level_1.5", "binomial_y2",
        "nonfinite_output", "kris_zero_lower", "n_future_nan", "n_future_inf",
        "n_future_0.5", "n_future_-3", "exposure_0.5", "subnormal_fit"])
def test_input_and_output_are_finite_or_typed_errors(capsys, tmp_path, rows, argv, code):
    path = tmp_path / "in.csv"
    path.write_text(rows)
    with np.errstate(all="ignore"):
        got = main(argv + ["--input", str(path)])
    out, err = capsys.readouterr()
    assert got == code
    assert "NaN" not in out and "Infinity" not in out and "Traceback" not in err
    if code == 0:
        assert json.loads(out)["kris"]["lower"] == 0.0


# ---------------------------------------------------------------------------
# config merging


def test_config_fills_and_flags_win(capsys, tmp_path, gamma_csv):
    path, _ = gamma_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gamma", "input": str(path),
                               "level": 0.8, "n_future": 280}))
    code, out = run(capsys, "predict", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["eq1"]["level"] == 0.8
    code, out = run(capsys, "predict", "--config", str(cfg), "--level", "0.9")
    assert code == 0
    assert json.loads(out)["eq1"]["level"] == 0.9


GAMMA_ARGS = ["--family", "gamma", "--input", "{gamma}", "--n-future", "280"]
TREND_ARGS = ["recruit", "--input", "{recruit}", "--mode", "trend"]


@pytest.mark.parametrize("argv, config, expect", [
    (["predict", *GAMMA_ARGS], {"se_kind": "bogus"}, "--se-kind"),
    (["simulate", "--scenario", "{scenario}"], {"format": "xml"}, "--format"),
    (TREND_ARGS, {"transform": "root"}, ["--transform", "root"]),
    (TREND_ARGS + ["--horizon", "0"], {}, "--horizon"),
    (["simulate", "--scenario", "{scenario}", "--runs", "0"], {}, "--runs"),
    (["simulate", "--scenario", "{scenario}", "--seed", "-1"], {}, "--seed"),
    (["simulate", "--scenario", "{scenario}", "--max-runs", "-1"], {}, "--max-runs"),
    (["simulate", "--scenario", "{scenario}", "--max-runs", "0"], {}, "--max-runs"),
    (["survival", "--input", "{survival}", "--out-dir", "{out_dir}",
      "--events-future", "0"], {}, "--events-future"),
    (["predict", *GAMMA_ARGS, "--link", "foo"], {}, "--link"),
    (TREND_ARGS + ["--link", "foo"], {}, "--link"),
    (["tolerance", *GAMMA_ARGS], {}, "--method"),
    (["curve", *GAMMA_ARGS, "--out-dir", "{out_dir}"], {}, "--method"),
    (["predict", *GAMMA_ARGS], {"method": "eq2"}, ["--method", "eq2"]),
], ids=["config_se_kind_bogus", "config_format_xml", "config_transform_root",
        "horizon_0", "runs_0", "seed_-1", "max_runs_-1", "max_runs_0",
        "events_future_0", "link_foo", "recruit_link_foo",
        "tolerance_without_method", "curve_without_method", "config_method_string"])
def test_config_values_and_flags_pass_the_same_checks(capsys, tmp_path, gamma_csv,
                                                      recruit_csv, survival_csv,
                                                      argv, config, expect):
    """Every option is checked by its own declaration, whether it comes from
    the command line or from --config.  ``expect`` is either the option a
    rejected call names or the flags that a config must act like."""
    out_dir = tmp_path / "plots"
    paths = {"gamma": gamma_csv[0], "recruit": recruit_csv[0], "survival": survival_csv,
             "scenario": scenario_file(tmp_path), "out_dir": out_dir}
    argv = [a.format(**paths) for a in argv]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(argv + ["--config", str(cfg)])
    out, err = capsys.readouterr()
    if isinstance(expect, str):
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and expect in err
        assert not out_dir.exists()
    else:
        assert code == 0
        assert out == run(capsys, *argv, *expect)[1]


# ---------------------------------------------------------------------------
# predict / tolerance round trips


def test_predict_matches_library(capsys, gamma_csv):
    path, vals = gamma_csv
    code, out = run(capsys, "predict", "--family", "gamma", "--input", str(path),
                    "--method", "eq1", "eq2", "--n-future", "280")
    assert code == 0
    payload = json.loads(out)
    fit = fit_gamma_intercept(vals)
    want = intervals.predict_sum_link(fit, intervals.PredictionTarget(20, 280), 0.95)
    assert payload["eq1"]["lower"] == pytest.approx(want.lower, rel=1e-9)
    assert payload["eq1"]["upper"] == pytest.approx(want.upper, rel=1e-9)
    assert payload["eq2"]["lower"] < payload["eq1"]["lower"]


def test_eq1_follows_the_fit_link(capsys, gamma_csv):
    # an identity-link fit carries identity-scale SEs, so its link pivot is
    # the identity one
    path, vals = gamma_csv
    code, out = run(capsys, "predict", "--family", "gamma", "--link", "identity",
                    "--input", str(path), "--method", "eq1", "--n-future", "280")
    assert code == 0
    got = json.loads(out)["eq1"]
    fit = fit_gamma_intercept(vals, link="identity")
    want = intervals.predict_sum_link_from(fit.mu_hat, fit.se_g_mu("sandwich"), 20, 280,
                                           0.95, link="identity")
    assert (got["lower"], got["upper"]) == pytest.approx((want.lower, want.upper),
                                                         rel=1e-9)


def test_tolerance_matches_library(capsys, gamma_csv):
    path, vals = gamma_csv
    code, out = run(capsys, "tolerance", "--family", "gamma", "--input", str(path),
                    "--method", "eq4", "--n-future", "280", "--content", "0.5")
    assert code == 0
    payload = json.loads(out)
    fit = fit_gamma_intercept(vals)
    want = intervals.tolerance_nct(fit, 0.5, 0.95, 280)
    assert payload["eq4"]["lower"] == pytest.approx(want.lower, rel=1e-9)
    assert payload["eq4"]["upper"] == pytest.approx(want.upper, rel=1e-9)
    assert payload["eq4"]["content_p"] == 0.5


def test_unknown_method_rejected(capsys, gamma_csv):
    path, _ = gamma_csv
    assert main(["predict", "--family", "gamma", "--input", str(path),
                 "--method", "eq7", "--n-future", "280"]) == 1


@pytest.fixture
def family_csvs(tmp_path, gamma_csv, survival_csv):
    gen = np.random.default_rng(10)
    counts = tmp_path / "counts.csv"
    exposure = gen.uniform(5.0, 15.0, size=12)
    events = gen.poisson(2.7 * exposure)
    counts.write_text("events,exposure\n" + "\n".join(
        f"{x},{e:.6g}" for x, e in zip(events, exposure)) + "\n")
    binom = tmp_path / "binom.csv"
    trt = np.repeat([0, 1], 30)
    y = (gen.random(60) < np.where(trt == 1, 0.6, 0.35)).astype(int)
    binom.write_text("y,trt\n" + "\n".join(f"{a},{b}" for a, b in zip(y, trt)) + "\n")
    near_zero = tmp_path / "near_zero.csv"
    near_zero.write_text("value\n0.2\n3.0\n0.5\n")
    return {"gamma": gamma_csv[0], "quasipoisson": counts, "binomial": binom,
            "weibull": survival_csv, "gamma_near_zero": near_zero}


@pytest.mark.parametrize("command, family, method, n_future", [
    ("predict", "gamma", "fpivot", None),
    ("tolerance", "gamma", "eq3", None),
    ("predict", "quasipoisson", "fpivot", "5"),
    ("predict", "quasipoisson", "plugin", "5"),
    ("tolerance", "quasipoisson", "eq5", "5"),
    ("predict", "binomial", "fpivot", "5"),
    ("tolerance", "binomial", "eq4", "5"),
    ("curve", "quasipoisson", "f_pivot", "5"),
    ("curve", "binomial", "f_pivot", "5"),
    ("curve", "gamma", "f_pivot", None),
    ("predict", "gamma", "kris", "5"),
    ("predict", "binomial", "kris", "5"),
    ("predict", "weibull", "kris", "5"),
    ("predict", "binomial", "eq2", "5"),
    ("predict", "weibull", "eq2", "5"),
    ("curve", "binomial", "ci_plug", "5"),
    ("curve", "weibull", "ci_plug", "5"),
    ("predict", "quasipoisson", "fpivot_k1", "60"),
    ("predict", "binomial", "fpivot_k1", "60"),
    ("predict", "weibull", "fpivot_k1", "60"),
    # Weibull quantiles exist for single observations only
    ("tolerance", "weibull", "eq3", "5"),
    ("tolerance", "weibull", "eq5", "5"),
    ("predict", "weibull", "plugin", "5"),
    # the identity link pivot's 99.8% interval reaches totals <= 0, which
    # the log-spaced curve grid cannot span
    ("curve", "gamma_near_zero", "link_pivot", "5"),
])
def test_unusable_method_is_config_error(capsys, tmp_path, family_csvs, command,
                                         family, method, n_future):
    argv = [command, "--input", str(family_csvs[family]), "--method", method]
    near_zero = family == "gamma_near_zero"
    if near_zero:
        family = "gamma"
        argv += ["--link", "identity"]
    argv += ["--family", family]
    if n_future is not None:
        argv += ["--n-future", n_future]
    out_dir = tmp_path / "plots"
    if command == "curve":
        argv += ["--out-dir", str(out_dir)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1 and method in err and family in err
    assert not out_dir.exists()
    if near_zero:   # advice a CLI user can follow: there is no grid option
        assert "log link" in err and "pass a grid" not in err


@pytest.mark.parametrize("command, method, csv", [
    ("predict", "eq2", "value\n0.2\n3.0\n0.5\n"),
    ("tolerance", "eq5", "value\n0.2\n3.0\n0.5\n"),
    ("predict", "eq2", "events,exposure\n0,1\n9,1\n0,1\n"),
], ids=["gamma_eq2", "gamma_eq5", "quasipoisson_eq2"])
def test_identity_plugci_below_zero_is_config_error(capsys, tmp_path, command, method, csv):
    # the identity-link Wald mean limit is <= 0 here; the log link is fine
    path = tmp_path / "near_zero.csv"
    path.write_text(csv)
    family = "gamma" if csv.startswith("value") else "quasipoisson"
    argv = [command, "--family", family, "--input", str(path), "--method", method,
            "--n-future", "5"]
    assert main(argv + ["--link", "identity"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "log link" in err
    code, out = run(capsys, *argv, "--link", "log")
    assert code == 0 and json.loads(out)[method]["lower"] > 0


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def _call_quietly(argv):
    """``main(argv)`` with its stdout, its stderr and every warning captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _finite_csv(path) -> bool:
    rows = path.read_text().splitlines()[1:]
    return all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30),
       method=st.sampled_from(sorted(intervals.METHODS) + sorted(curves.CURVE_METHODS)),
       level=st.floats(0.5, 0.99), content=st.floats(0.01, 0.99),
       n_future=st.sampled_from(["1", "5", "280"]),
       link=st.sampled_from(["log", "identity"]),
       se_kind=st.sampled_from(["model", "sandwich"]))
# near-equal values: the shape Newton steps below zero (test_fit)
@example(values=[1.0, 1.0000001], method="eq1", level=0.95, content=0.5,
         n_future="5", link="log", se_kind="sandwich")
# ... and overflows the shape, which numpy warns about unless the fit says so
@example(values=[1.0, 1.000000000001], method="eq1", level=0.95, content=0.5,
         n_future="5", link="log", se_kind="sandwich")
# two values: the t_1 99.8% link interval leaves double precision, or its grid
# steps are too far apart for a finite-difference density
@example(values=[0.0026, 796.5], method="or_prediction", level=0.95, content=0.5,
         n_future="1", link="log", se_kind="model")
@example(values=[1.0, 9.0], method="link_pivot", level=0.95, content=0.5,
         n_future="1", link="log", se_kind="model")
# identity-link CI-plug-in curve: mean limits on the mean scale
@example(values=[0.2, 3.0, 0.5, 2.2, 1.4], method="ci_plug", level=0.95, content=0.5,
         n_future="280", link="identity", se_kind="sandwich")
def test_any_gamma_interval_call_is_finite_json_or_a_typed_error(
        values, method, level, content, n_future, link, se_kind):
    """Any finite positive gamma CSV, with any table or curve method, either
    exits 0 with finite output or exits 1, 2 or 3 with one line on stderr,
    and never warns."""
    if method in curves.CURVE_METHODS:
        command = "curve"
    else:
        kind = intervals.METHODS[method].kind
        command = "predict" if kind == "prediction" else "tolerance"
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "values.csv", Path(tmp) / "plots"
        path.write_text("value\n" + "\n".join(map(repr, values)) + "\n")
        argv = [command, "--family", "gamma", "--input", str(path), "--method", method,
                "--n-future", n_future, "--link", link, "--se-kind", se_kind]
        if command == "curve":
            argv += ["--out-dir", str(out_dir)]
        else:
            argv += ["--level", repr(level)]
        if command == "tolerance":
            argv += ["--content", repr(content)]
        code, out, err, caught = _call_quietly(argv)
        assert caught == []
        assert "Traceback" not in err
        if code == 0 and command == "curve":
            assert _finite_csv(out_dir / f"curve_{method}.csv")
        elif code == 0:
            assert _finite(json.loads(out))
        else:
            assert code in (1, 2, 3) and out == ""
            assert err.count("\n") == 1
            assert not out_dir.exists()


def test_binomial_eq1_predicts_the_odds_ratio(capsys, family_csvs):
    path = family_csvs["binomial"]
    code, out = run(capsys, "predict", "--family", "binomial", "--input", str(path),
                    "--method", "eq1", "--n-future", "600")
    assert code == 0
    got = json.loads(out)["eq1"]
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    fit = fit_binomial_logit(rows[:, 0], rows[:, 1])
    want = intervals.predict_or(fit, fit.n_obs, 600, 0.95)
    assert (got["lower"], got["upper"]) == pytest.approx((want.lower, want.upper), rel=1e-12)
    assert got["method"] == "or_prediction" and got["target"] == "observable_estimate"


# ---------------------------------------------------------------------------
# curve


def test_curve_outputs(tmp_path, capsys, gamma_csv):
    path, _ = gamma_csv
    out_dir = tmp_path / "plots"
    code = main(["curve", "--family", "gamma", "--input", str(path),
                 "--method", "link_pivot", "ci_plug", "--n-future", "280",
                 "--out-dir", str(out_dir)])
    assert code == 0
    csv1 = (out_dir / "curve_link_pivot.csv").read_text()
    assert csv1.splitlines()[0] == "value,H,H_minus,C,density"
    assert (out_dir / "curve_ci_plug.csv").exists()
    assert not (out_dir / "curves.svg").exists()
    # rerun with --svg: plot appears, CSV bytes unchanged
    code = main(["curve", "--family", "gamma", "--input", str(path),
                 "--method", "link_pivot", "ci_plug", "--n-future", "280",
                 "--out-dir", str(out_dir), "--svg"])
    assert code == 0
    svg = (out_dir / "curves.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert (out_dir / "curve_link_pivot.csv").read_text() == csv1


# ---------------------------------------------------------------------------
# simulate


def scenario_file(tmp_path, **kw):
    base = dict(data_process="gamma_fixed", n=20, N=300, k=4.0, mu=2.5,
                methods=["eq1"], levels=[0.95], n_runs=300, seed=3)
    base.update(kw)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({"schema_version": 1, **base}))
    return p


def test_simulate_deterministic(tmp_path, capsys):
    scen = scenario_file(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", str(scen), "--format", "csv",
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(scen), "--format", "csv",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "method,level,observed,mc_se,n_runs,n_failed"
    method, level, observed = lines[1].split(",")[:3]
    assert method == "eq1" and 0.7 < float(observed) <= 1.0


def test_simulate_overrides_change_output(tmp_path, capsys):
    scen = scenario_file(tmp_path)
    code, out_a = run(capsys, "simulate", "--scenario", str(scen),
                      "--format", "csv")
    code, out_b = run(capsys, "simulate", "--scenario", str(scen),
                      "--format", "csv", "--seed", "99")
    assert out_a != out_b


def test_simulate_budget_exceeded(tmp_path, capsys):
    scen = scenario_file(tmp_path, n_runs=500)
    assert main(["simulate", "--scenario", str(scen), "--max-runs", "100"]) == 4
    assert main(["simulate", "--scenario", str(scen),
                 "--runs", "50", "--max-runs", "100"]) == 0


def test_simulate_missing_scenario(capsys, tmp_path):
    assert main(["simulate"]) == 1
    assert main(["simulate", "--scenario", str(tmp_path / "none.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"data_process": "gamma_fixed", "n": 20, "N": 300}))
    assert main(["simulate", "--scenario", str(bad)]) == 1


# ---------------------------------------------------------------------------
# recruit


def test_recruit_sitedays(capsys, recruit_csv):
    data, sched = recruit_csv
    code, out = run(capsys, "recruit", "--input", str(data),
                    "--schedule", str(sched))
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["family"] == "quasipoisson"
    lo, hi = payload["prediction_rounded"]
    assert lo == math.floor(payload["prediction"]["lower"])
    assert hi == math.ceil(payload["prediction"]["upper"])
    assert "pearson_dispersion" in payload["diagnostic"]


def test_recruit_trend_and_window(capsys, recruit_csv):
    data, sched = recruit_csv
    code, out = run(capsys, "recruit", "--input", str(data), "--mode", "trend",
                    "--horizon", "12")
    assert code == 0
    trend = json.loads(out)
    assert trend["sum_prediction"]["lower"] < trend["sum_prediction"]["upper"]
    code, out = run(capsys, "recruit", "--input", str(data), "--mode", "window",
                    "--target", "300")
    assert code == 0
    win = json.loads(out)
    lo, hi = win["horizon_interval"]
    assert lo <= win["horizon_point"] <= hi


def test_recruit_window_needs_target(capsys, recruit_csv):
    data, _ = recruit_csv
    assert main(["recruit", "--input", str(data), "--mode", "window"]) == 1


# (events, active sites) per 30-day period
NEGATIVE_TREND = list(zip([14, 10, 4, 29, 37, 10, 1, 3], [20, 20, 0, 0, 0, 0, 5, 1]))
OVERFLOWING_TREND = list(zip([10, 0, 1, 10, 19], [0, 20, 5, 1, 0]))


def _write_recruitment(path, rows, days=30.0):
    path.write_text("period,events,exposure_days,active_sites\n" + "".join(
        f"{i},{events},{days!r},{sites}\n" for i, (events, sites) in enumerate(rows, 1)))


@pytest.mark.parametrize("rows, flags, message", [
    (NEGATIVE_TREND, ["--mode", "window", "--transform", "log", "--link", "identity",
                      "--target", "600"], "not positive at period 728;"),
    (NEGATIVE_TREND, ["--mode", "window", "--transform", "root", "--link", "identity",
                      "--target", "600"], "not positive at period 284;"),
    (OVERFLOWING_TREND, ["--mode", "window", "--transform", "identity", "--link", "log",
                         "--target", "10"], "horizon 1024 leaves double precision"),
    (OVERFLOWING_TREND, ["--mode", "trend", "--transform", "identity", "--link", "log",
                         "--horizon", "2000"], "horizon 2000 leaves double precision"),
], ids=["negative_log", "negative_root", "overflow_window", "overflow_trend"])
def test_recruit_trend_faults_are_one_line_fit_errors(tmp_path, rows, flags, message):
    path = tmp_path / "recruit.csv"
    _write_recruitment(path, rows)
    code, out, err, caught = _call_quietly(["recruit", "--input", str(path)] + flags)
    assert (code, out, caught) == (3, "", [])
    assert err.count("\n") == 1 and err.startswith("fit error: ") and message in err


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 30)),
                     min_size=1, max_size=14),
       days=st.sampled_from([1.0, 7.5, 30.0]),
       mode=st.sampled_from(["sitedays", "trend", "window"]),
       link=st.sampled_from(["log", "identity"]),
       transform=st.sampled_from(applications.TRANSFORMS),
       horizon=st.integers(1, 3000), target=st.floats(-10.0, 1e6),
       level=st.floats(0.5, 0.99), schedule=st.booleans())
@example(rows=NEGATIVE_TREND, days=30.0, mode="window", link="identity", transform="log",
         horizon=18, target=600.0, level=0.95, schedule=False)
@example(rows=NEGATIVE_TREND, days=30.0, mode="window", link="identity", transform="root",
         horizon=18, target=600.0, level=0.95, schedule=False)
@example(rows=OVERFLOWING_TREND, days=30.0, mode="window", link="log",
         transform="identity", horizon=18, target=10.0, level=0.95, schedule=False)
@example(rows=OVERFLOWING_TREND, days=30.0, mode="trend", link="log",
         transform="identity", horizon=2000, target=10.0, level=0.95, schedule=False)
def test_any_recruit_call_is_finite_json_or_a_typed_error(
        rows, days, mode, link, transform, horizon, target, level, schedule):
    """Any recruitment CSV, in any mode, link and transform, either exits 0
    with finite JSON or exits 1, 2 or 3 with one line on stderr, and never
    warns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "recruit.csv"
        _write_recruitment(path, rows, days)
        argv = ["recruit", "--input", str(path), "--mode", mode, "--link", link,
                "--transform", transform, "--horizon", str(horizon),
                "--target", repr(target), "--level", repr(level)]
        if schedule:
            sched = Path(tmp) / "schedule.csv"
            sched.write_text("period,active_sites\n" + "".join(
                f"{len(rows) + i},20\n" for i in range(1, 7)))
            argv += ["--schedule", str(sched)]
        code, out, err, caught = _call_quietly(argv)
    assert caught == []
    assert "Traceback" not in err
    if code == 0:
        assert _finite(json.loads(out))
    else:
        assert code in (1, 2, 3) and out == ""
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# survival


def test_survival_outputs(tmp_path, capsys, survival_csv):
    out_dir = tmp_path / "surv_out"
    code, out = run(capsys, "survival", "--input", str(survival_csv),
                    "--out-dir", str(out_dir), "--events-future", "50", "--svg")
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["family"] == "weibull"
    lines = (out_dir / "survival_bands.csv").read_text().strip().splitlines()
    assert lines[0] == "p,quantile,tol_lower,tol_upper,pred_lower,pred_upper"
    arr = np.loadtxt(lines[1:], delimiter=",")
    assert arr.shape[0] == 19
    # prediction band anticipates re-estimation noise: contains tolerance band
    assert np.all(arr[:, 4] <= arr[:, 2]) and np.all(arr[:, 3] <= arr[:, 5])
    assert np.all((arr[:, 2] < arr[:, 1]) & (arr[:, 1] < arr[:, 3]))
    km = (out_dir / "survival_km.csv").read_text().splitlines()
    assert km[0] == "time,survival"
    assert (out_dir / "survival.svg").read_text().startswith("<svg")
