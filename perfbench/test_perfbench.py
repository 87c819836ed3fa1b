"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench

Each workload runs for zero seconds, which is one full round of its mix.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == set(wl.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", "0"))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", "1"))
    assert_metrics(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["dist.rng_generators_per_run"] > 0
    assert metrics["applications.window_interval_evals_near"] > 0
    assert metrics["import.modules"] > metrics["import.scipy_modules"] > 0
    spans = ROOT / run.OUT_DIR / f"{workload}-seed3-trace1.spans.jsonl"
    names = {json.loads(line)["name"].split(".")[0]
             for line in spans.read_text().splitlines()}
    assert names == set(LAYERS)


def test_run_outside_a_checkout_fails_without_a_result():
    bare = ROOT / run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def make(cls, name):
    work = ROOT / run.OUT_DIR / f"test-{name}"
    shutil.rmtree(work, ignore_errors=True)
    w = cls(3, ROOT, work, Tracer(False))
    w.setup()
    return w


def test_wrong_curve_reference_counts_as_failed():
    w = make(wl.CurveWindow, "curve")
    lo, hi = w.refs["build_curve.link_pivot"]
    w.refs["build_curve.link_pivot"] = (lo * (1 + 1e-4), hi)
    phase = run.measure(w, 0)
    assert phase.attempted == len(w.kinds)
    assert phase.failed == 1
    assert phase.samples["build_curve.link_pivot"] == []


def test_wrong_lab_reference_counts_as_failed():
    w = make(wl.LabTables, "lab")
    assert w.run_op("k0.7_n10")[1]
    w.published[("k0.7_n10", "eq1", 0.95)] = (0.80, 0.015)
    assert not w.run_op("k0.7_n10")[1]


def test_wrong_cli_reference_counts_as_failed():
    w = make(wl.CliOneshot, "cli")
    assert w.run_op("fit")[1]
    ref = w.refs["fit"]
    w.refs["fit"] = dataclasses.replace(ref, k_hat=ref.k_hat * (1 + 1e-8))
    assert not w.run_op("fit")[1]
    with pytest.raises(ValueError):
        w.check("fit", '{"mu_hat": NaN}')
    shutil.rmtree(w.workdir)
