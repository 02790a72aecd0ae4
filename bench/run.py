#!/usr/bin/env python3
"""Benchmark of the sismob CLI, end to end and layer by layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

runs the ``sismob.cli`` entry point in this process (one closed-loop
client) on scenario files generated from ``--seed``.  Set-up (importing
sismob, writing the inputs and one warm-up CLI call) is repeated
SETUP_REPEATS times.  Timed passes follow while the next one is expected
to end within ``--seconds`` (at least MIN_PASSES of them), each followed
by an untimed check of everything it wrote.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass.  The line
before it is a report with the machine facts, the workload parameters
and the metrics under the names used in bench/README.md.
``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "analyze", "trajectory", "replicas")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MIN_PASSES = 2


def _cap_blas_threads() -> int:
    """Cap every BLAS thread setting at the CPUs this process may use.
    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            requested = int(os.environ.get(var, nproc))
        except ValueError:
            requested = nproc
        os.environ[var] = str(max(1, min(requested, nproc)))
    return nproc


def _machine(nproc: int) -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.25 has no "dicts" mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def _import_cli():
    """Import sismob afresh (its modules are dropped from sys.modules
    first, so every set-up repetition pays the package import)."""
    for name in [n for n in sys.modules if n == "sismob" or n.startswith("sismob.")]:
        del sys.modules[name]
    import sismob.cli

    return sismob.cli


def _run_call(cli, call, out: Path) -> tuple:
    """One CLI call; returns (seconds, exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main([*call.argv, "--out", str(out)])
        except Exception:  # a crash fails the call's operations, the run goes on
            code = -1
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    return seconds, code, err.getvalue()


class Pass(NamedTuple):
    wall: float          # seconds for the whole pass
    calls: list          # seconds per CLI call
    layers: dict | None  # per-layer metrics, when traced
    out: Path            # where the pass wrote its outputs


class Runner:
    def __init__(self, workloads, name: str, seed: int, work: Path):
        self.workloads = workloads
        self.name, self.seed, self.work = name, seed, work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.walls = []          # every timed pass, traced or not
        self.setup_s = []
        self.cli = self.wl = self.tracer = None

    def _fail(self, ops: int, reasons):
        self.failed += ops
        self.problems.extend(reasons)

    def setup(self):
        for k in range(SETUP_REPEATS):
            gc.collect()  # the previous repetition's modules are garbage now
            start = time.perf_counter()
            self.cli = _import_cli()
            self.wl = self.workloads.build(self.name, self.seed, self.work / f"inputs{k}")
            codes = [_run_call(self.cli, call, self.work / f"warmup{k}")[1:]
                     for call in self.wl.warmup]
            self.setup_s.append(time.perf_counter() - start)
            for call, (code, err) in zip(self.wl.warmup, codes):
                self.attempted += call.ops
                if code != 0:
                    self._fail(call.ops, [f"warm-up exit {code}: {err.strip()}"])

    def timed_pass(self) -> Pass:
        """Run one pass, then check what it wrote."""
        out = self.work / f"pass{len(self.walls)}"
        calls = self.wl.calls
        gc.collect()
        if self.tracer:
            self.tracer.reset()
        start = time.perf_counter()
        results = [_run_call(self.cli, call, out) for call in calls]
        wall = time.perf_counter() - start
        layers = self.tracer.summary(wall) if self.tracer else None
        check = self.workloads.CHECKS[self.name]
        for call, (_, code, err) in zip(calls, results):
            self.attempted += call.ops
            if code != 0:
                self._fail(call.ops, [f"{call.scenario}: exit {code}: {err.strip()}"])
                continue
            try:
                reasons = check(self.wl, call, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                reasons = [f"{call.scenario}: unreadable output ({exc!r})"] * call.ops
            self._fail(len(reasons), reasons)
        self.walls.append(wall)
        return Pass(wall, [seconds for seconds, _, _ in results], layers, out)

    def passes_until(self, deadline: float, minimum: int) -> list:
        """At least ``minimum`` passes, then more while the next one is
        expected to end before ``deadline``."""
        runs = []
        while len(runs) < minimum or time.perf_counter() + runs[-1].wall <= deadline:
            runs.append(self.timed_pass())
        return runs

    def traced_passes(self, deadline: float) -> list:
        from tracing import Tracer

        self.tracer = Tracer()
        self.tracer.install()
        try:
            return self.passes_until(deadline, 1)
        finally:
            self.tracer.restore()
            self.tracer = None

    def rerun_check(self, first: Path):
        """Re-run one stochastic seed alone and compare its CSV bytes
        with those of the first timed pass."""
        rerun = self.workloads.rerun_call(self.wl)
        if rerun is None:
            return
        out = self.work / "rerun"
        _, code, err = _run_call(self.cli, rerun, out)
        self.attempted += rerun.ops
        if code != 0:
            self._fail(rerun.ops, [f"re-run exit {code}: {err.strip()}"])
        else:
            reasons = self.workloads.check_rerun(self.wl, first, out)
            self._fail(len(reasons), reasons)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(runner: Runner, runs: list) -> tuple:
    """(metrics, the same under the workload's own names)."""
    wl = runner.wl
    wall = statistics.median(run.wall for run in runs)
    metrics = {
        "setup_s": _metric(statistics.median(runner.setup_s), "s"),
        "wall_s": _metric(wall, "s"),
        "throughput_per_s": _metric(wl.work / wall, "1/s"),
        "max_call_s": _metric(statistics.median(max(run.calls) for run in runs), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MB"),
    }
    named = {key: metrics[key] for key in ("setup_s", "wall_s", "peak_rss_mb")}
    named["failed_frac"] = _metric(runner.failed / max(runner.attempted, 1), "1")
    named[wl.named_throughput] = metrics["throughput_per_s"]
    if wl.named_max_call:
        named[wl.named_max_call] = metrics["max_call_s"]
    return metrics, named


def _per_layer(untraced: list, traced: list) -> tuple:
    """(metrics of the traced pass with the median wall time, the step
    counts behind its per-step times)."""
    walls = [run.wall for run in traced]
    run = traced[walls.index(statistics.median_low(walls))]
    layers = dict(run.layers)
    bases = {key: layers.pop(key) for key in ("dynamics.rk4_steps", "stochastic.steps")}
    layers["trace.overhead_s"] = (statistics.median(walls)
                                  - statistics.median(r.wall for r in untraced))
    for per_step, total, steps in (
            ("dynamics.rk4_step_us", "dynamics.integrate_s", "dynamics.rk4_steps"),
            ("stochastic.step_us", "stochastic.simulate_s", "stochastic.steps")):
        layers[per_step] = 1e6 * layers[total] / bases[steps] if bases[steps] else 0.0
    layers["cli.bytes_written"] = sum(f.stat().st_size for f in run.out.rglob("*"))
    metrics = {key: _metric(value, _unit(key)) for key, value in sorted(layers.items())}
    return metrics, {key: _metric(value, "count") for key, value in bases.items()}


def _unit(key: str) -> str:
    if key.endswith("_us"):
        return "us"
    if key.endswith("_s"):
        return "s"
    return "bytes" if key.endswith("bytes_written") else "count"


def run_one(args, nproc: int) -> int:
    if not (ROOT / "src" / "sismob" / "cli.py").is_file():
        print(f"error: no sismob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(workloads, args.workload, args.seed, work)
    try:
        runner.setup()
        start = time.perf_counter()
        if not args.trace:
            runs = runner.passes_until(start + args.seconds, MIN_PASSES)
            runner.rerun_check(runs[0].out)
            metrics, named = _end_to_end(runner, runs)
        else:
            untraced = runner.passes_until(start + args.seconds / 2, 1)
            traced = runner.traced_passes(start + args.seconds)
            runner.rerun_check(untraced[0].out)
            metrics, bases = _per_layer(untraced, traced)
            named = {**metrics, **bases}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "params": runner.wl.params, "machine": _machine(nproc),
        "setup_runs_s": runner.setup_s, "pass_walls_s": runner.walls,
        "failed_frac": runner.failed / max(runner.attempted, 1),
        "metrics": named, "problems": runner.problems[:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = _cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
