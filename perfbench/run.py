"""tolpred benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload cli_oneshot --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones named in
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, from a run
that measures the workload once plainly and once with spans, then probes
every layer.  Each run also writes a record (metrics, machine, samples) and,
when traced, its spans under ``.perfbench_runs/``.

All work happens in this one process and its children, one at a time, with
BLAS and OpenMP pools pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = ".perfbench_runs"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", dest="workdir",
                   help="build the workload's inputs in this directory and exit")
    return p.parse_args(argv)


class Phase:
    """Timings and outcomes of one closed-loop measurement."""

    def __init__(self, kinds):
        self.samples = {k: [] for k in kinds}
        self.attempted = 0
        self.failed = 0

    def all_samples(self) -> list[float]:
        return sorted(x for v in self.samples.values() for x in v)

    def ops_per_s(self, wl) -> float:
        """Throughput of the fixed mix: the work units of one round of the mix
        over the mean time of a round, from each kind's mean time."""
        mean = {k: statistics.fmean(v) for k, v in self.samples.items() if v}
        return sum(wl.units(k) for k in mean) / sum(mean.values())


def measure(wl, seconds: float) -> Phase:
    """Closed loop over whole rounds of the mix, in its fixed order, until
    ``seconds`` have passed at a round's end (at least one round), so every
    statistic covers the same mix.  A failed or wrong operation is counted
    and its time dropped."""
    phase = Phase(wl.kinds)
    deadline = time.perf_counter() + seconds
    while True:
        for kind in wl.kinds:
            wl.tracer.op += 1
            phase.attempted += 1
            try:
                elapsed, ok = wl.run_op(kind)
            except Exception as exc:   # a crashing operation is a failed one
                print(f"{wl.name}/{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
                elapsed, ok = None, False
            if ok:
                phase.samples[kind].append(elapsed)
            else:
                phase.failed += 1
                if elapsed is not None:
                    print(f"{wl.name}/{kind}: wrong result", file=sys.stderr)
        if time.perf_counter() >= deadline:
            return phase


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it
    (p50 when there are fewer than 20 samples)."""
    n = len(samples)
    q = next((q for q in (0.999, 0.99, 0.9) if n * (1 - q) >= 10), 0.5)
    return q, samples[min(n - 1, math.ceil(q * n) - 1)]


def ref_loop_s() -> float:
    """A fixed pure-Python plus numpy loop; its time tracks host speed."""
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    np.sort(np.random.default_rng(0).random(300_000))
    return time.perf_counter() - start


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def setup_seconds(args, root: Path, work: Path) -> list[float]:
    """Wall time of fresh processes that import and build the inputs."""
    from workloads import CHILD_TIMEOUT_S, run_child
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--trace", "0", "--setup-only", str(work / f"setup{i}")]
        start = time.perf_counter()
        code, _ = run_child(cmd, CHILD_TIMEOUT_S, cwd=root)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up exited {code}")
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tolpred" / "__init__.py").is_file() \
            or not (root / "BENCHMARK.json").is_file():
        print("run from the repository root: src/tolpred and BENCHMARK.json are needed",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    tracer = Tracer(enabled=bool(args.trace))
    with tracer.span("import.benchmark"):
        import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    if args.workdir:
        make(args.seed, root, Path(args.workdir), tracer).setup()
        return 0

    out_dir = root / OUT_DIR
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = run(args, root, work, tracer, make)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = set(declared) - set(record["metrics"])
    extra = set(record["metrics"]) - set(declared)
    bad = [k for k, v in record["metrics"].items() if not math.isfinite(v)]
    if missing or extra or bad:
        print(f"metrics not recorded: {sorted(missing)}; undeclared: {sorted(extra)}; "
              f"non-finite: {sorted(bad)}", file=sys.stderr)
        return 1
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    for name, value in sorted(record["metrics"].items()):
        print(f"{name:<48} {value:>14.6g} {declared[name]}")
    print("machine:", json.dumps(record["machine"]))
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {k: {"value": v, "unit": declared[k]}
                          for k, v in record["metrics"].items()}}
    print(json.dumps(result))
    return 0


def run(args, root: Path, work: Path, tracer: Tracer, make) -> dict:
    machine = machine_record()
    machine["ref_loop_s_start"] = ref_loop_s()
    setup = [] if args.trace else setup_seconds(args, root, work)
    wl = make(args.seed, root, work / "run", tracer)
    wl.setup()
    if args.trace:
        phases, metrics, tail_q = traced_run(args, root, work, tracer, wl)
    else:
        phases, tail_q = [measure(wl, args.seconds)], None
        metrics = {"setup_s": statistics.median(setup),
                   "ops_per_s": phases[0].ops_per_s(wl),
                   "peak_rss_mb": wl.peak_rss_mb()}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    machine["ref_loop_s_end"] = ref_loop_s()
    if args.trace:
        metrics["failed_frac"] = failed / attempted
        metrics["machine.ref_loop_s"] = statistics.fmean(
            [machine["ref_loop_s_start"], machine["ref_loop_s_end"]])
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "attempted": attempted, "failed": failed,
            "metrics": metrics, "machine": machine, "setup_s_samples": setup,
            "tail_quantile": tail_q, "op_samples_s": phases[0].samples}


def traced_run(args, root: Path, work: Path, tracer: Tracer, wl):
    """Half the time plain, half with spans; then every layer's probes.
    Self times cover set-up and the traced half."""
    import layers
    import workloads
    tracer.enabled = False
    plain = measure(wl, args.seconds / 2)
    tracer.enabled = True
    with layers.count_generators(tracer):
        traced = measure(wl, args.seconds / 2)
    self_times = tracer.self_times()
    phases = [plain, traced]
    if isinstance(wl, workloads.CliOneshot):
        cli_wl, cli_samples = wl, plain.samples
    else:   # one plain round of CLI calls for the cli.* metrics
        cli_wl = workloads.CliOneshot(args.seed, root, work / "cli", tracer)
        cli_wl.setup()
        tracer.enabled = False
        phases.append(measure(cli_wl, 0))
        tracer.enabled = True
        cli_samples = phases[-1].samples
    metrics = layers.layer_metrics(root, args.seed, cli_wl, cli_samples, tracer)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_times[layer]
    samples = plain.all_samples()
    tail_q, value = tail(samples)
    metrics["op_p50_ms"] = statistics.median(samples) * 1e3
    metrics["op_tail_ms"] = value * 1e3
    metrics["trace_overhead_frac"] = plain.ops_per_s(wl) / traced.ops_per_s(wl) - 1
    return phases, metrics, tail_q


if __name__ == "__main__":
    sys.exit(main())
