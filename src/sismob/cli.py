"""Command-line entry point.

Subcommands: ``run`` (deterministic trajectory, optional stochastic
replicas, analysis, manifest), ``analyze`` (equilibrium/condition report),
``sweep`` (classification table over a scalar grid) and ``validate``.  All
outputs land under ``--out``, byte-identical for a fixed scenario and seeds.
Where ``_split`` forks one child for a big run's last seeds or a big sweep's
last grid points, outputs, messages and exit codes stay one CPU's: a child or
fork that fails costs time only.  Only the ``scenario`` module edits documents.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import signal
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import integrate, recorded_rows, step_count, write_trajectory_csv
from .equilibria import classify, equilibrium_stack, threshold
from .errors import ScenarioError
from .network import MobilityLayer
from .scenario import (Scenario, check_run, initial_state, parse_point, parse_scenario,
                       read_document, set_fields)
from .stochastic import seed_infections, simulate_seeds, stationary_counts, write_stochastic_csv


_COMPACT = json.JSONEncoder(separators=(",", ":"))  # no indent: the C encoder
JSON_BLOCK = 128  # list items per compact encode, edge rows per write
GRID_MAX_POINTS = 10**6  # largest --grid count, refused before any allocation
STACK_BYTES = 216 * 1024  # sweep chunk budget at 8 nm^2 bytes + 1 KiB a point: 16 at nm = 40
# lane-steps (one seed advanced one step) from which ``run`` forks a child for
# half its seeds: a fork plus reap took 1.9 ms, and 2-seed runs gained from 100-200
# lane-steps at n = 20 and 200-400 at n = 1 (2 CPUs, Python 3.11, numpy 2.4)
HELPER_LANE_STEPS = 400
# ``sweep`` forks a child for the last half of a grid whose points take at least
# SWEEP_HELPER_BYTES as STACK_BYTES counts them, at nm up to SWEEP_HELPER_MAX_NM:
# alternating in-process sweeps broke even at 1.0-2.9 STACK_BYTES (nm = 4-96,
# the most at nm = 40-96), and from nm = 100 on, where OpenBLAS threads its solves in
# both processes, forked sweeps took 0.12-2.8 s where one CPU took 15-160 ms
# (2 CPUs, Python 3.11, numpy 2.4)
SWEEP_HELPER_BYTES, SWEEP_HELPER_MAX_NM = 4 * STACK_BYTES, 96


def _write_json(path: Path, payload: dict):
    """Write ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``,
    byte for byte, where a ``MobilityLayer`` stands for its listing
    ``{"edges": [[i, j, rate], ...]}``.  With ``indent`` json runs its
    pure-Python encoder, so lists of numbers are instead encoded compactly
    in blocks of JSON_BLOCK items and re-indented, and a layer's rows are
    formatted from its edge array."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_value(fh, payload, "\n")
        fh.write("\n")


def _reindented(text: str, inner: str):
    """The items of a nonempty list's compact text at indent ``inner``,
    or None unless they are all non-string scalars.  No token but a
    string holds a quote, comma or bracket, so in a text without quotes
    these are all structure; ``{}`` reads the same at any indent."""
    if '"' in text or "[" in text[1:]:
        return None
    return inner + text[1:-1].replace(",", "," + inner)


def _write_layer(fh, layer: MobilityLayer, nl: str):
    """Write ``{"edges": [[i, j, rate], ...]}`` for ``layer``'s edges in
    order, as ``_write_value`` writes that dict: each node index and each
    distinct rate (json's float text) is formatted once, and the rows go
    out JSON_BLOCK at a time."""
    inner = nl + "  "
    row, item = inner + "  ", inner + "    "
    edges = layer.edges
    if not len(edges):
        fh.write(f'{{{inner}"edges": []{nl}}}')
        return
    rates, which = np.unique(layer.Q[edges[:, 0], edges[:, 1]], return_inverse=True)
    heads = [f"{row}[{item}{i},{item}" for i in range(layer.n)]
    mids = [f"{j},{item}" for j in range(layer.n)]
    tails = [f"{text}{row}]" for text in _COMPACT.encode(rates.tolist())[1:-1].split(",")]
    rows = (f"{heads[i]}{mids[j]}{tails[k]}" for i, j, k in
            zip(edges[:, 0].tolist(), edges[:, 1].tolist(), which.tolist()))
    fh.write(f'{{{inner}"edges": [')
    for start in range(0, len(edges), JSON_BLOCK):
        fh.write(("," if start else "") + ",".join(itertools.islice(rows, JSON_BLOCK)))
    fh.write(f"{inner}]{nl}}}")


def _write_value(fh, obj, nl: str):
    """Write ``obj`` indented as by json at the indent that ``nl``
    (a newline and that indent) closes it with."""
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        for idx, (key, value) in enumerate(sorted(obj.items())):
            key = key if isinstance(key, str) else _COMPACT.encode(key)
            fh.write(f"{',' if idx else '{'}{inner}{_COMPACT.encode(key)}: ")
            _write_value(fh, value, inner)
        fh.write(nl + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        fh.write("[")
        for start in range(0, len(obj), JSON_BLOCK):
            block = obj[start:start + JSON_BLOCK]
            fh.write("," if start else "")
            if block[0] is None or isinstance(block[0], (int, float)):  # else the encode is wasted
                text = _reindented(_COMPACT.encode(block), inner)
                if text is not None:
                    fh.write(text)
                    continue
            for idx, item in enumerate(block):
                fh.write(f"{',' if idx else ''}{inner}")
                _write_value(fh, item, inner)
        fh.write(nl + "]")
    elif isinstance(obj, MobilityLayer):
        _write_layer(fh, obj, nl)
    else:
        fh.write(_COMPACT.encode(obj))


def _analysis_payload(scenario: Scenario) -> dict:
    report = classify(scenario.spec)
    return {"scenario": scenario.name, "version": __version__, **report.to_dict()}


def _manifest(scenario: Scenario, command: str, outputs: list) -> dict:
    # file names only: manifests must be byte-identical across output dirs
    return {
        "tool": "sismob",
        "version": __version__,
        "command": command,
        "scenario": {**scenario.explicit, "layers": scenario.spec.net.layers},
        "outputs": sorted(Path(p).name for p in outputs),
    }


def _document(args):
    """The scenario document with the given --dt, --t-end and --seed set."""
    return set_fields(read_document(args.scenario), dt=args.dt, t_end=args.t_end, seeds=args.seed)


def _cmd_validate(args) -> int:
    scenario = parse_scenario(_document(args))
    check_run(scenario)
    print(f"scenario {scenario.name!r} is valid "
          f"(n={scenario.spec.n}, m={scenario.spec.m})")
    return 0


def _cmd_analyze(args) -> int:
    scenario = parse_scenario(_document(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    analysis_path = out / f"{scenario.name}_analysis.json"
    _write_json(analysis_path, _analysis_payload(scenario))
    _write_json(out / f"{scenario.name}_manifest.json",
                _manifest(scenario, "analyze", [analysis_path]))
    print(f"wrote {analysis_path}")
    return 0


def _seed_paths(scenario: Scenario, out: Path, seeds: list) -> list:
    """Each seed's CSV and sidecar paths, in seed order."""
    return [out / f"{scenario.name}_stochastic_seed{seed}.{ext}"
            for seed in seeds for ext in ("csv", "json")]


def _write_seeds(scenario: Scenario, out: Path, seeds: list):
    """Step ``seeds`` in chunks whose recorded rows take no more room than
    one seed's every step would, and write each seed's CSV and sidecar."""
    if not seeds:  # a run without replicas
        return
    initial_counts = seed_infections(stationary_counts(scenario.spec), scenario.p0)
    steps = step_count(scenario.t_end, scenario.h)
    lanes = max(1, (steps + 1) // len(recorded_rows(steps, scenario.sample_every)))
    for start in range(0, len(seeds), lanes):
        runs = simulate_seeds(scenario.spec, initial_counts, scenario.t_end, h=scenario.h,
                              seeds=seeds[start:start + lanes],
                              record_every=scenario.sample_every)
        for run in runs:
            sto_path, sidecar = _seed_paths(scenario, out, [run.seed])
            write_stochastic_csv(run, sto_path)
            _write_json(sidecar, {"seed": run.seed, "h": scenario.h, "t_end": scenario.t_end,
                                  "scenario": scenario.name, "version": __version__})


def _fork_safe_blas() -> bool:
    """Whether numpy (1.25 or later) reports an OpenBLAS without OpenMP, whose
    ``pthread_atfork`` handler stops its threads so a forked child may call BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "openblas" in blas["name"] and "USE_OPENMP" not in blas["openblas configuration"]
    except (TypeError, KeyError):
        return False


def _split(count: int, fork: bool, work, first=lambda: None) -> str:
    """Run ``first()``, then return the text of ``work(0, count)``.  With
    ``fork``, on Linux with 2 usable CPUs, a child forked first runs
    ``work(half, count)``, half = ceil(count / 2), and sends its text over a
    pipe, every byte even past the pipe's buffer, while this process runs
    ``first()`` and ``work(0, half)``.  The child always ends by ``os._exit``
    (no caller's ``finally``, atexit hook or stdio flush): 0 once its text is
    sent, non-zero with no message on any ``BaseException``.  A child that
    does not exit 0 leaves its half to this process, and a fork that fails
    leaves the whole, so the outcome is one CPU's.  If this process fails
    first, the child is killed and reaped."""
    half, pid = (count + 1) // 2, -1  # no child
    if fork and sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid < 0:
        first()
        return work(0, count)
    if pid == 0:
        try:
            data = work(half, count).encode()
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            first()
            text = work(0, half)
            data = pipe.read()  # to EOF: the child has written all it will
        pid, status = 0, os.waitpid(pid, 0)[1]  # reaped
    finally:
        if pid:  # not reaped: this process failed first
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return text + (data.decode() if status == 0 else work(half, count))


def _cmd_run(args) -> int:
    scenario = parse_scenario(_document(args))
    check_run(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = scenario.seeds if scenario.stochastic_enabled else []
    det_path = out / f"{scenario.name}_deterministic.csv"
    analysis_path = out / f"{scenario.name}_analysis.json"

    def write_first():  # while a forked child, if any, steps the last seeds
        traj = integrate(scenario.spec, initial_state(scenario), scenario.t_end,
                         dt=scenario.dt, record_every=scenario.sample_every)
        write_trajectory_csv(traj, det_path, scenario.spec.n, scenario.spec.m)
        _write_json(analysis_path, _analysis_payload(scenario))

    fork = len(seeds) > 1 and (len(seeds) * step_count(scenario.t_end, scenario.h)
                               >= HELPER_LANE_STEPS)
    _split(len(seeds), fork,
           lambda start, stop: _write_seeds(scenario, out, seeds[start:stop]) or "", write_first)
    outputs = [det_path, *_seed_paths(scenario, out, seeds), analysis_path]
    _write_json(out / f"{scenario.name}_manifest.json", _manifest(scenario, "run", outputs))
    print(f"wrote {len(outputs) + 1} files under {out}")
    return 0


def _parse_grid(text: str):
    """Grid syntax: field=start:stop:count (inclusive linspace)."""
    try:
        field, rng = text.split("=", 1)
        start_s, stop_s, count_s = rng.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise ScenarioError(
            f"--grid: expected field=start:stop:count, got {text!r}") from None
    if not 0 <= count <= GRID_MAX_POINTS:
        raise ScenarioError(
            f"--grid: count must lie in [0, {GRID_MAX_POINTS}], got {count}")
    field = field.strip()
    if field not in ("beta", "delta", "rate_scale"):
        raise ScenarioError(
            f"--grid: can only sweep 'beta', 'delta' or 'rate_scale', got {field!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ScenarioError(f"--grid: start and stop must be finite, got {text!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(start, stop, count) if count else np.array([])
    if not np.all(np.isfinite(values)):
        raise ScenarioError(f"--grid: the points of {text!r} overflow to non-finite values")
    return field, values


def _attempt(fn, *args):
    """fn(*args), or the ValueError or RuntimeError it raises."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


def _cmd_sweep(args) -> int:
    doc = _document(args)
    scenario = parse_scenario(doc)
    field, values = _parse_grid(args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nm, point_bytes = scenario.spec.nm, 8 * scenario.spec.nm ** 2 + 1024
    lanes = max(1, STACK_BYTES // point_bytes)

    def rows(start: int, stop: int) -> str:  # the CSV rows of points start to stop
        text = []
        for first in range(start, stop, lanes):
            chunk = [_attempt(parse_point, doc, scenario, field, float(value))
                     for value in values[first:min(first + lanes, stop)]]
            parsed = [point for point in chunk if not isinstance(point, Exception)]
            found = _attempt(lambda: threshold(equilibrium_stack(parsed))) if parsed else []
            if isinstance(found, Exception):  # rerun each lane alone for its own outcome
                found = [_attempt(lambda point: threshold(equilibrium_stack([point]))[0], point)
                         for point in parsed]
            found = iter(found)
            for idx, outcome in enumerate(chunk, first):
                outcome = outcome if isinstance(outcome, Exception) else next(found)
                if isinstance(outcome, Exception):
                    cells = f',,,,"{type(outcome).__name__}: {outcome}"'
                else:
                    mu, r0, cls = outcome
                    cells = f",{mu:.17g},{'' if r0 is None else format(r0, '.17g')},{cls},"
                text.append(f"{idx},{values[idx]:.17g}{cells}\n")
        return "".join(text)

    fork = (len(values) * point_bytes >= SWEEP_HELPER_BYTES and nm <= SWEEP_HELPER_MAX_NM
            and _fork_safe_blas())
    text = _split(len(values), fork, rows)
    sweep_path = out / f"{scenario.name}_sweep.csv"
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write(f"index,{field},mu,R0,classification,error\n{text}")
    _write_json(out / f"{scenario.name}_manifest.json",
                {**_manifest(scenario, "sweep", [sweep_path]),
                 "grid": {"field": field, "values": values.tolist()}})
    print(f"wrote {sweep_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sismob",
        description="SIS epidemics under multi-layer Markovian mobility")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_out=True):
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        if with_out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--dt", type=float, default=None, help="override scenario dt")
        p.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="override scenario t_end")
        p.add_argument("--seed", type=int, nargs="+", default=None,
                       help="override stochastic seeds (enables stochastic runs)")

    p_run = sub.add_parser("run", help="deterministic + stochastic runs with analysis")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="equilibrium and condition report only")
    common(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_sw = sub.add_parser("sweep", help="classification table over a parameter grid")
    common(p_sw)
    p_sw.add_argument("--grid", required=True,
                      help="scalar grid, e.g. delta=0.05:0.5:10")
    p_sw.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    common(p_val, with_out=False)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
