"""Command-line entry point.

Subcommands: ``run`` (deterministic trajectory, optional stochastic
replicas, analysis, manifest), ``analyze`` (equilibrium/condition report
only), ``sweep`` (classification table over a scalar parameter grid),
and ``validate``.  All outputs land under ``--out`` and are
byte-reproducible for a fixed scenario and seed list.  Scenario documents
are edited (overrides, sweep points) by the ``scenario`` module only.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
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
# lane-steps (one seed advanced one step) from which ``run`` hands its last
# seeds to a helper interpreter: ``python -c "import numpy, sismob.cli"`` took
# 0.135 s and a lane-step at n = 20 about 29 us (2-CPU machine, Python 3.11,
# numpy 2.4), so half the lane-steps pay for that start from about 9,300
HELPER_LANE_STEPS = 10**4
# the helper reads its job before importing numpy, so the parent's write of
# the job does not wait for that import
_HELPER = ("import json, sys; job = json.load(sys.stdin); sys.path.insert(0, job['path']); "
           "from pathlib import Path; from sismob.cli import _write_seeds, parse_scenario; "
           "_write_seeds(parse_scenario(job['doc']), Path(job['out']), job['seeds'])")


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
    return set_fields(read_document(args.scenario), dt=args.dt, t_end=args.t_end,
                      seeds=args.seed)


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
    manifest_path = out / f"{scenario.name}_manifest.json"
    _write_json(manifest_path, _manifest(scenario, "analyze", [analysis_path]))
    print(f"wrote {analysis_path}")
    return 0


def _seed_paths(scenario: Scenario, out: Path, seeds: list) -> list:
    """Each seed's CSV and sidecar paths, in seed order."""
    return [out / f"{scenario.name}_stochastic_seed{seed}.{ext}"
            for seed in seeds for ext in ("csv", "json")]


def _write_seeds(scenario: Scenario, out: Path, seeds: list):
    """Step ``seeds`` in chunks whose recorded rows take no more room than
    one seed's every step would, and write each seed's CSV and sidecar."""
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


def _helper_seeds(scenario: Scenario, seeds: list) -> int:
    """How many of the last ``seeds`` a helper interpreter steps: half of
    them (rounded down) when their lane-steps reach HELPER_LANE_STEPS, this
    process may use two CPUs and knows its interpreter, else none."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    lane_steps = len(seeds) * step_count(scenario.t_end, scenario.h) if len(seeds) > 1 else 0
    usable = (cpus or 1) > 1 and bool(sys.executable)
    return len(seeds) // 2 if usable and lane_steps >= HELPER_LANE_STEPS else 0


def _start_helper(doc: dict, seeds: list, out: Path):
    """A helper interpreter that writes ``seeds`` of ``doc`` under ``out``,
    importing the sismob tree this process runs."""
    import subprocess

    helper = subprocess.Popen([sys.executable, "-c", _HELPER], stdin=subprocess.PIPE,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    job = {"doc": doc, "seeds": seeds, "out": str(out),
           "path": str(Path(__file__).resolve().parents[1])}
    # a helper that exits before reading its job says why in its exit code and stderr
    with contextlib.suppress(BrokenPipeError), helper.stdin:
        helper.stdin.write(json.dumps(job).encode())
    return helper


def _cmd_run(args) -> int:
    doc = _document(args)
    scenario = parse_scenario(doc)
    check_run(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = scenario.seeds if scenario.stochastic_enabled else []
    own = len(seeds) - _helper_seeds(scenario, seeds)
    helper = _start_helper(doc, seeds[own:], out) if own < len(seeds) else None
    try:  # the helper starts up while the trajectory is integrated
        traj = integrate(scenario.spec, initial_state(scenario), scenario.t_end,
                         dt=scenario.dt, record_every=scenario.sample_every)
        det_path = out / f"{scenario.name}_deterministic.csv"
        write_trajectory_csv(traj, det_path, scenario.spec.n, scenario.spec.m)
        if seeds:
            _write_seeds(scenario, out, seeds[:own])
        analysis_path = out / f"{scenario.name}_analysis.json"
        _write_json(analysis_path, _analysis_payload(scenario))
        if helper is not None:
            message = helper.stderr.read().decode(errors="replace").strip()
            if helper.wait():
                raise RuntimeError(f"seed helper exited with {helper.returncode}: "
                                   f"{message.splitlines()[-1] if message else 'no message'}")
    finally:
        if helper is not None:
            with helper:  # closes its pipes and reaps it
                helper.kill()  # a no-op once it has exited
    outputs = [det_path, *_seed_paths(scenario, out, seeds), analysis_path]

    manifest_path = out / f"{scenario.name}_manifest.json"
    _write_json(manifest_path, _manifest(scenario, "run", outputs))
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

    rows, lanes = [], max(1, STACK_BYTES // (8 * scenario.spec.nm ** 2 + 1024))
    for start in range(0, len(values), lanes):
        chunk = [_attempt(parse_point, doc, scenario, field, float(value))
                 for value in values[start:start + lanes]]
        parsed = [point for point in chunk if not isinstance(point, Exception)]
        found = _attempt(lambda: threshold(equilibrium_stack(parsed))) if parsed else []
        if isinstance(found, Exception):  # rerun each lane alone for its own outcome
            found = [_attempt(lambda point: threshold(equilibrium_stack([point]))[0], point)
                     for point in parsed]
        found = iter(found)
        for idx, outcome in enumerate(chunk, start):
            outcome = outcome if isinstance(outcome, Exception) else next(found)
            rows.append([idx, values[idx], "", "", "", f"{type(outcome).__name__}: {outcome}"]
                        if isinstance(outcome, Exception) else [idx, values[idx], *outcome, ""])

    sweep_path = out / f"{scenario.name}_sweep.csv"
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write(f"index,{field},mu,R0,classification,error\n")
        for idx, value, mu, r0, cls, err in rows:
            mu_s = "" if mu == "" else format(mu, ".17g")
            r0_s = "" if r0 in ("", None) else format(r0, ".17g")
            err_s = f"\"{err}\"" if err else ""
            fh.write(f"{idx},{format(value, '.17g')},{mu_s},{r0_s},{cls},{err_s}\n")

    manifest_path = out / f"{scenario.name}_manifest.json"
    _write_json(manifest_path, {**_manifest(scenario, "sweep", [sweep_path]),
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
