import contextlib
import io
import itertools
import json
import math
import os
import re
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
from tolpred.fit import fit_binomial_logit, fit_gamma_intercept, fit_weibull_censored
from tolpred.simlab import (METHOD_ORDER, PREDICTION_METHODS, ScenarioSpec, emit_table,
                            run_poisson_gamma)

from recruitment_fixture import make_recruitment_fixture


@pytest.fixture
def gamma_csv(tmp_path):
    gen = np.random.default_rng(9)
    vals = gen.gamma(4.0, 0.625, size=20)
    p = tmp_path / "values.csv"
    p.write_text("value\n" + "\n".join(f"{v:.12g}" for v in vals))
    return p, vals


@pytest.fixture
def recruit_csv(tmp_path):
    s = make_recruitment_fixture()
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


@pytest.mark.parametrize("text", ['["--family", "gamma"]', '{"level": {"value": 0.9}}'],
                         ids=["array", "object_value"])
def test_config_that_stands_for_no_flags_is_one_line_config_error(tmp_path, gamma_csv, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err, caught = _call_quietly(
        ["predict", "--family", "gamma", "--input", str(gamma_csv[0]), "--config", str(cfg)])
    assert (code, out, caught) == (1, "", [])
    assert err.count("\n") == 1 and err.startswith("configuration error:")


@pytest.mark.parametrize("version", [99, "1", True])
def test_unknown_schema_version_is_one_line_config_error(capsys, tmp_path, gamma_csv, version):
    # a config or scenario of another schema stops before it runs; version 1
    # and a file without the key run
    cfg = tmp_path / "cfg.json"
    for text, want in ((1, 0), (version, 1)):
        cfg.write_text(json.dumps({"schema_version": text, "family": "gamma",
                                   "input": str(gamma_csv[0])}))
        code, out, err, caught = _call_quietly(["fit", "--config", str(cfg)])
        assert (code, caught) == (want, [])
    assert out == "" and err.count("\n") == 1 and "schema_version" in err
    scen = scenario_file(tmp_path, schema_version=version)
    assert main(["simulate", "--scenario", str(scen)]) == 1
    assert "schema_version" in capsys.readouterr().err
    raw = json.loads(scen.read_text())
    del raw["schema_version"]
    scen.write_text(json.dumps(raw))
    assert main(["simulate", "--scenario", str(scen)]) == 0


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
    (TREND_ARGS + ["--horizon", "100001"], {}, "--horizon"),
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
        "horizon_0", "horizon_100001", "runs_0", "seed_-1", "max_runs_-1", "max_runs_0",
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


# the JSON keys each subcommand prints: the fit's or interval's fields that
# are set, and a dispersed fit's dispersion_scale
SHAPED_FIT_KEYS = {"cov_mu_k", "family", "k_hat", "link", "loglik", "mu_hat", "n_obs",
                   "se_g_mu_model", "se_g_mu_sandwich", "se_k", "se_mu"}
INTERVAL_KEYS = {"level", "lower", "method", "sided", "target", "upper"}


@pytest.mark.parametrize("family, argv, keys", [
    ("gamma", ["fit"], SHAPED_FIT_KEYS),
    ("quasipoisson", ["fit"], {"dispersion_scale", "exposure_total", "family", "link",
                               "mu_hat", "n_obs", "phi_hat", "se_g_mu_model",
                               "se_g_mu_sandwich", "se_mu"}),
    ("binomial", ["fit"], {"family", "link", "mu_hat", "n_obs", "se_g_mu_model",
                           "se_g_mu_sandwich"}),
    ("weibull", ["fit"], SHAPED_FIT_KEYS | {"lam_hat"}),
    ("gamma", ["predict", "--method", "eq1", "--n-future", "280"], INTERVAL_KEYS),
    ("gamma", ["tolerance", "--method", "eq4", "--n-future", "280"],
     INTERVAL_KEYS | {"content_p"}),
], ids=["fit-gamma", "fit-quasipoisson", "fit-binomial", "fit-weibull", "predict",
        "tolerance"])
def test_json_keys_are_pinned(capsys, family_csvs, family, argv, keys):
    code, out = run(capsys, *argv, "--family", family, "--input", str(family_csvs[family]))
    assert code == 0
    payload = json.loads(out)
    assert set(payload if argv == ["fit"] else payload[argv[2]]) == keys


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
    # the identity link pivot's 99.8% lower limit is <= 0
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
    ("predict", "eq1", "value\n0.2\n3.0\n0.5\n"),
    ("predict", "eq1", "events,exposure\n0,1\n9,1\n0,1\n"),
], ids=["gamma_eq2", "gamma_eq5", "quasipoisson_eq2", "gamma_eq1", "quasipoisson_eq1"])
def test_identity_plugci_below_zero_is_config_error(capsys, tmp_path, command, method, csv):
    # the identity-link Wald mean limit, or the identity link pivot's lower
    # limit, is <= 0 here; the log link is fine
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


def _assert_finite_json_or_typed_error(code, out, err, caught, prints_json=True):
    """The CLI contract: exit 0 with finite JSON (nothing, for a command
    that only writes files), or exit 1, 2 or 3 with one line on stderr and
    nothing on stdout; never a warning."""
    assert caught == []
    assert "Traceback" not in err
    if code == 0:
        assert _finite(json.loads(out)) if prints_json else out == ""
    else:
        assert code in (1, 2, 3) and out == ""
        assert err.count("\n") == 1


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30),
       method=st.sampled_from(sorted(intervals.METHODS) + sorted(curves.CURVE_METHODS)),
       level=st.floats(0.5, 0.99), content=st.floats(0.01, 0.99),
       n_future=st.sampled_from(["1", "5", "280"]),
       link=st.sampled_from(["log", "identity"]),
       se_kind=st.sampled_from(["model", "sandwich"]))
# near-equal values: their s is rounding noise, so the shape is NaN (test_fit)
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


# quasi-Poisson methods the gamma property leaves out, as (command, method)
COUNT_CALLS = [("predict", "eq1"), ("predict", "eq2"), ("predict", "kris"),
               ("tolerance", "eq4"), ("curve", "link_pivot"), ("curve", "ci_plug")]


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 60), st.floats(1e-3, 1e3)),
                     min_size=1, max_size=20),
       call=st.sampled_from(COUNT_CALLS), link=st.sampled_from(["log", "identity"]),
       level=st.floats(0.5, 0.99), content=st.floats(0.01, 0.99),
       n_future=st.sampled_from(["1e-06", "0.5", "5", "100", "1000000.0"]),
       se_kind=st.sampled_from(["model", "sandwich"]))
# counts that fit exactly: a zero sandwich SE gives a zero-width interval,
# which no grid of distinct totals spans
@example(rows=[(1, 1.0), (1, 1.0)], call=("curve", "link_pivot"), link="log", level=0.5,
         content=0.5, n_future="5", se_kind="sandwich")
def test_any_quasipoisson_call_is_finite_json_or_a_typed_error(
        rows, call, link, level, content, n_future, se_kind):
    """Any events/exposure CSV, with the count methods on either link,
    either exits 0 with finite output or exits 1, 2 or 3 with one line on
    stderr, and never warns."""
    command, method = call
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "counts.csv", Path(tmp) / "plots"
        path.write_text("events,exposure\n" + "".join(f"{x},{e!r}\n" for x, e in rows))
        argv = [command, "--family", "quasipoisson", "--input", str(path),
                "--method", method, "--n-future", n_future, "--link", link,
                "--se-kind", se_kind]
        if command == "curve":
            argv += ["--out-dir", str(out_dir)]
        else:
            argv += ["--level", repr(level)]
        if command == "tolerance":
            argv += ["--content", repr(content)]
        code, out, err, caught = _call_quietly(argv)
        _assert_finite_json_or_typed_error(code, out, err, caught,
                                           prints_json=command != "curve")
        if command == "curve":
            assert out_dir.exists() == (code == 0)
            assert code != 0 or _finite_csv(out_dir / f"curve_{method}.csv")


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                     min_size=1, max_size=80),
       level=st.floats(0.5, 0.99), n_future=st.sampled_from(["2", "60", "600", "1e6"]))
def test_any_binomial_eq1_call_is_finite_json_or_a_typed_error(rows, level, n_future):
    """Any y/trt CSV either predicts a finite odds ratio or exits 1, 2 or 3
    with one line on stderr, and never warns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "binom.csv"
        path.write_text("y,trt\n" + "".join(f"{y},{t}\n" for y, t in rows))
        code, out, err, caught = _call_quietly(
            ["predict", "--family", "binomial", "--input", str(path), "--method", "eq1",
             "--n-future", n_future, "--level", repr(level)])
    _assert_finite_json_or_typed_error(code, out, err, caught)


def test_binomial_eq1_predicts_the_odds_ratio(capsys, family_csvs):
    path = family_csvs["binomial"]
    code, out = run(capsys, "predict", "--family", "binomial", "--input", str(path),
                    "--method", "eq1", "--n-future", "600")
    assert code == 0
    got = json.loads(out)["eq1"]
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    fit = fit_binomial_logit(rows[:, 0], rows[:, 1])
    want = intervals.predict_or_from(fit.mu_hat, fit.se_g_mu("model"), fit.n_obs, 600,
                                     0.95)
    assert (got["lower"], got["upper"]) == pytest.approx((want.lower, want.upper), rel=1e-12)
    assert got["method"] == "or_prediction" and got["target"] == "observable_estimate"


EDGE_LEVELS = ["1e-12", "0.5", "0.999999999999"]
SMALL_SURVIVAL = "time,event\n1.2,1\n3.4,0\n2.2,1\n5.1,1\n0.8,1\n4.0,0\n"


def _written_numbers(path) -> list:
    """Every number of a written CSV, and every comma-, space- or
    quote-separated token of a written SVG that reads as a number."""
    numbers = []
    for tok in re.split(r'[\s,"=]+', path.read_text()):
        with contextlib.suppress(ValueError):
            numbers.append(float(tok))
    return numbers


def _assert_edge_call(argv, out_dir=None):
    """``main(argv)`` exits 0 with nothing on stderr, or 1 or 3 with one
    line; stdout holds no NaN or Infinity and every file it writes under
    ``out_dir`` only finite numbers."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 3), (argv, code)
    assert err == "" if code == 0 else err.count("\n") == 1, (argv, err)
    assert "NaN" not in out and "Infinity" not in out, argv
    for path in sorted(out_dir.iterdir()) if out_dir and out_dir.exists() else ():
        assert all(map(math.isfinite, _written_numbers(path))), (argv, path.name)


@pytest.mark.parametrize("family", ["gamma", "quasipoisson", "binomial", "weibull"])
def test_edge_levels_and_sizes_exit_cleanly(family_csvs, family):
    # every predict and tolerance method at the extreme levels, contents and
    # future sizes; numpy warnings would be errors here, or a second line
    for name, entry in intervals.METHODS.items():
        command = "predict" if entry.kind == "prediction" else "tolerance"
        contents = EDGE_LEVELS if command == "tolerance" else [None]
        for n_future, level, content in itertools.product(["1", "0.5", "1e300"],
                                                          EDGE_LEVELS, contents):
            argv = [command, "--family", family, "--input", str(family_csvs[family]),
                    "--method", name, "--n-future", n_future, "--level", level]
            _assert_edge_call(argv + (["--content", content] if content else []))


@pytest.mark.parametrize("level", EDGE_LEVELS)
def test_survival_at_edge_levels_writes_finite_files(tmp_path, survival_csv, level):
    small = tmp_path / "small.csv"
    small.write_text(SMALL_SURVIVAL)
    for path in (small, survival_csv):
        out_dir = tmp_path / f"plots_{path.stem}"
        _assert_edge_call(["survival", "--input", str(path), "--level", level,
                           "--events-future", "1", "--svg", "--out-dir", str(out_dir)],
                          out_dir)


def test_survival_with_non_finite_bands_writes_no_band_file(tmp_path, capsys):
    path, out_dir = tmp_path / "small.csv", tmp_path / "plots"
    path.write_text(SMALL_SURVIVAL)
    assert main(["survival", "--input", str(path), "--level", "0.999999999999",
                 "--events-future", "1", "--svg", "--out-dir", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("fit error:") and err.count("\n") == 1
    assert not out_dir.exists()


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


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_cell_without_a_usable_run_prints_no_nan(tmp_path, fmt):
    """Every run's fit fails (a mean of 1e-300 underflows the draws to 0):
    the cells print no coverage, no numpy warning is shown, and the budget
    error still exits 4.  The failed fits are NaN, so no method's input
    check aborts the cell (the F pivot's did on a mean of 0)."""
    scen = scenario_file(tmp_path, n=2, k=1e-3, mu=1e-300, n_runs=50,
                         methods=list(METHOD_ORDER))
    code, out, err, caught = _call_quietly(["simulate", "--scenario", str(scen),
                                            "--format", fmt])
    assert (code, caught) == (4, [])
    assert "nan" not in out.lower() and len(out.splitlines()) == 9
    assert err.count("\n") == 1 and err.startswith("simulation budget error:")


def test_simulate_missing_scenario(capsys, tmp_path):
    assert main(["simulate"]) == 1
    assert main(["simulate", "--scenario", str(tmp_path / "none.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"data_process": "gamma_fixed", "n": 20, "N": 300}))
    assert main(["simulate", "--scenario", str(bad)]) == 1


@pytest.mark.parametrize("text", [None, "5", '"eq1"', "[1, 2]"],
                         ids=["directory", "number", "string", "list"])
def test_unreadable_scenario_is_one_line_config_error(tmp_path, text):
    path = tmp_path
    if text is not None:
        path = tmp_path / "scenario.json"
        path.write_text(text)
    code, out, err, caught = _call_quietly(["simulate", "--scenario", str(path)])
    assert (code, out, caught) == (1, "", [])
    assert err.count("\n") == 1 and err.startswith("configuration error:")


SITES = dict(data_process="poisson_gamma_sites", k=None, mu=None,
             alpha=4.0, beta=0.033 / 4, n_sites=20)


@pytest.mark.parametrize("fields", [
    {"n": 5.5}, {"N": "300"}, {"n_runs": 0}, {"n_runs": True}, {"seed": -3}, {"seed": 1.5},
    {"k": -1}, {"mu": 0}, {"k": "2"}, {"k": True}, {"mu": math.inf}, {"content_p": 1.5},
    {"methods": []}, {"levels": []}, {"fixed_rates": "no"},
    {**SITES, "alpha": -2}, {**SITES, "beta": math.nan}, {**SITES, "n_sites": 0},
    {**SITES, "n_sites": 2.0}, {**SITES, "methods": ["eq1", "eq3"]},
], ids=["n_5.5", "N_text", "n_runs_0", "n_runs_true", "seed_-3", "seed_1.5", "k_-1",
        "mu_0", "k_text", "k_true", "mu_inf", "content_1.5", "no_methods", "no_levels",
        "fixed_rates_text", "sites_alpha_-2", "sites_beta_nan", "sites_n_sites_0",
        "sites_n_sites_2.0", "sites_eq3"])
def test_bad_scenario_is_one_line_config_error(tmp_path, fields):
    code, out, err, caught = _call_quietly(
        ["simulate", "--scenario", str(scenario_file(tmp_path, **fields))])
    assert (code, out, caught) == (1, "", [])
    assert err.count("\n") == 1 and err.startswith("configuration error:")


@pytest.mark.parametrize("fixed_rates", [False, True])
def test_simulate_runs_the_site_process(tmp_path, capsys, fixed_rates):
    scen = scenario_file(tmp_path, **SITES, fixed_rates=fixed_rates,
                         methods=["eq1", "fpivot_k1"], levels=[0.8, 0.95])
    code, out = run(capsys, "simulate", "--scenario", str(scen), "--format", "csv")
    spec = ScenarioSpec.from_json(str(scen))
    assert code == 0 and out == emit_table(run_poisson_gamma(spec), "csv")


@st.composite
def scenarios(draw):
    """A valid scenario of either data process, small enough to run quickly:
    at most 300 runs and N at most n + 2000."""
    sites = draw(st.booleans())
    n = draw(st.integers(2, 40))
    pool = PREDICTION_METHODS if sites else METHOD_ORDER
    scenario = dict(
        data_process="poisson_gamma_sites" if sites else "gamma_fixed",
        n=n, N=n + draw(st.integers(1, 2000)),
        methods=draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)),
        levels=draw(st.lists(st.floats(0.5, 0.9999), min_size=1, max_size=3)),
        content_p=draw(st.floats(0.05, 0.95)), n_runs=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 10 ** 6)))
    if sites:
        scenario.update(alpha=draw(st.floats(0.1, 20.0)), beta=draw(st.floats(1e-3, 1.0)),
                        n_sites=draw(st.integers(1, 30)), fixed_rates=draw(st.booleans()))
    else:
        scenario.update(k=draw(st.floats(0.01, 100.0)), mu=draw(st.floats(1e-3, 1e3)))
    return scenario


@settings(max_examples=80, deadline=None)
@given(scenario=scenarios())
# a run that fits, whose lower eq2/eq5 mean limit mu_hat*exp(-t*se) underflows
# to 0 (t on 1 df at 0.999 is 637): the run is unusable, the cell goes on
@example(scenario=dict(data_process="gamma_fixed", n=2, N=300, k=0.05, mu=0.001,
                       methods=["eq2", "eq5"], levels=[0.999], n_runs=200, seed=1))
def test_any_simulate_call_prints_coverage_or_a_budget_error(scenario):
    """Any valid scenario exits 0 with no nan in its table, or exits 4 with
    one line on stderr, and never warns."""
    code, out, err, caught = _call_quietly(["simulate", "--scenario", json.dumps(scenario)])
    assert caught == []
    if code == 0:
        assert "nan" not in out.lower() and err == ""
    else:
        assert code == 4 and err.count("\n") == 1
        assert err.startswith("simulation budget error:")


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
    # a schedule it cannot mean: negative sites, a gap, a period listed twice
    for rows in ("32,-10\n33,30\n", "50,10\n2,10\n", "32,20\n32,20\n33,20\n"):
        sched.write_text("period,active_sites\n" + rows)
        code, out, err, caught = _call_quietly(["recruit", "--input", str(data),
                                                "--schedule", str(sched)])
        assert (code, out, caught) == (2, "", [])
        assert err.count("\n") == 1 and err.startswith("parse error: ")


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
    for target in ("nan", "inf"):
        code, out, err, caught = _call_quietly(["recruit", "--input", str(data), "--mode",
                                                "window", "--target", target])
        assert (code, out, caught) == (2, "", [])
        assert err == "parse error: target must be finite and nonnegative\n"


@pytest.mark.parametrize("events, window", [
    ([2, 7, 8, 11, 14, 11, 11, 12, 21, 12, 21, 34], [25, [20, 31]]),
    ([3, 4, 8, 5, 10, 8, 11, 10, 18, 15, 21, 19], [31, [25, 38]]),
])
def test_recruit_window_on_an_identity_trend_fitted_by_step_halving(capsys, tmp_path,
                                                                    events, window):
    path = tmp_path / "recruit.csv"
    _write_recruitment(path, zip(events, [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 20, 20]))
    code, out = run(capsys, "recruit", "--input", str(path), "--mode", "window",
                    "--link", "identity", "--target", "600")
    assert code == 0
    payload = json.loads(out)
    assert [payload["horizon_point"], payload["horizon_interval"]] == window


def test_recruit_window_needs_target(capsys, recruit_csv):
    data, _ = recruit_csv
    assert main(["recruit", "--input", str(data), "--mode", "window"]) == 1


# (events, active sites) per 30-day period
NEGATIVE_TREND = list(zip([14, 10, 4, 29, 37, 10, 1, 3], [20, 20, 0, 0, 0, 0, 5, 1]))
OVERFLOWING_TREND = list(zip([10, 0, 1, 10, 19], [0, 20, 5, 1, 0]))
# a root-transform log-link rate that overflows at z = 0, ahead of the horizon
VANISHING_TREND = list(zip([4, 0, 0], [1, 1, 1]))
# no events in month 1: the identity-link likelihood peaks at a rate of 0 there
BOUNDARY_TREND = list(zip([0, 6, 9, 5, 12, 19, 9, 14, 13, 11, 18, 19],
                          [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 20, 20]))


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
    (VANISHING_TREND, ["--mode", "trend", "--transform", "root", "--link", "log"],
     "leaves double precision"),
    (BOUNDARY_TREND, ["--mode", "window", "--link", "identity", "--target", "600"],
     "on the boundary, at a fitted rate of 0, where no Wald covariance holds; "
     "a log-link trend stays positive (--link log)"),
], ids=["negative_log", "negative_root", "overflow_window", "overflow_trend",
        "vanishing_trend", "boundary"])
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
@example(rows=VANISHING_TREND, days=30.0, mode="trend", link="log",
         transform="root", horizon=18, target=10.0, level=0.95, schedule=False)
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
    _assert_finite_json_or_typed_error(code, out, err, caught)


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
    # the rows are the library's bands, formatted as the CLI formats them
    fr = fit_weibull_censored(applications.load_survival_csv(survival_csv))
    p_grid = arr[:, 0]
    tol = applications.weibull_bands(fr, p_grid, 0.95, "tolerance")
    pred = applications.weibull_bands(fr, p_grid, 0.95, "repeated", events_future=50)
    assert lines[1:] == [",".join(f"{v:.10g}" for v in (
        p, intervals._sum_quantile(fr, float(p), 1), t.lower, t.upper, r.lower, r.upper))
        for p, t, r in zip(p_grid, tol, pred)]
    km = (out_dir / "survival_km.csv").read_text().splitlines()
    assert km[0] == "time,survival"
    assert (out_dir / "survival.svg").read_text().startswith("<svg")


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(1e-3, 1e3), st.booleans()),
                     min_size=1, max_size=40),
       level=st.floats(0.5, 0.99), events_future=st.integers(1, 1000))
# a rejected step-halving trial overflows the Weibull score sums
@example(rows=[(2.0, True), (4.0, False), (16.0, False), (102.0, False), (70.0, False),
               (77.0, False), (89.0, False), (307.0, True), (314.0, True), (295.0, True),
               (189.0, True), (457.0, True), (57.0, False), (40.0, False), (782.0, True),
               (202.0, True), (0.5, False), (0.25, False), (0.001, True)],
         level=0.5, events_future=1)
# ... and the norm of a diverging shape's score
@example(rows=[(1.0, True), (1.001, True), (0.5, False)], level=0.5, events_future=1)
def test_any_survival_call_is_finite_json_or_a_typed_error(rows, level, events_future):
    """Any time/event CSV either writes finite bands and JSON or exits 1, 2
    or 3 with one line on stderr, and never warns."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "surv.csv", Path(tmp) / "out"
        path.write_text("time,event\n" + "".join(f"{t!r},{int(e)}\n" for t, e in rows))
        code, out, err, caught = _call_quietly(
            ["survival", "--input", str(path), "--out-dir", str(out_dir),
             "--level", repr(level), "--events-future", str(events_future)])
        _assert_finite_json_or_typed_error(code, out, err, caught)
        assert code != 0 or _finite_csv(out_dir / "survival_bands.csv")


# Weibull table methods, as (command, method)
WEIBULL_CALLS = [("predict", "eq1"), ("predict", "fpivot"), ("predict", "plugin"),
                 ("tolerance", "eq3"), ("tolerance", "eq4"), ("tolerance", "eq5")]


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(1e-3, 1e3), st.booleans()),
                     min_size=1, max_size=40),
       call=st.sampled_from(WEIBULL_CALLS), level=st.floats(0.5, 0.99),
       content=st.floats(0.01, 0.99), n_future=st.sampled_from(["1", "5", "280"]),
       se_kind=st.sampled_from(["model", "sandwich"]))
def test_any_weibull_interval_call_is_finite_json_or_a_typed_error(
        rows, call, level, content, n_future, se_kind):
    """Any time/event CSV, with the Weibull prediction and tolerance methods,
    either exits 0 with finite JSON or exits 1, 2 or 3 with one line on
    stderr, and never warns."""
    command, method = call
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "surv.csv"
        path.write_text("time,event\n" + "".join(f"{t!r},{int(e)}\n" for t, e in rows))
        argv = [command, "--family", "weibull", "--input", str(path), "--method", method,
                "--n-future", n_future, "--level", repr(level), "--se-kind", se_kind]
        if command == "tolerance":
            argv += ["--content", repr(content)]
        code, out, err, caught = _call_quietly(argv)
    _assert_finite_json_or_typed_error(code, out, err, caught)
