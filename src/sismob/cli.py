"""Command-line entry point.

Subcommands: ``run`` (deterministic trajectory, optional stochastic
replicas, analysis, manifest), ``analyze`` (equilibrium/condition report
only), ``sweep`` (classification table over a scalar parameter grid),
and ``validate``.  All outputs land under ``--out`` and are
byte-reproducible for a fixed scenario and seed list.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import integrate, write_trajectory_csv
from .equilibria import classify, equilibrium_matrices, threshold
from .errors import ScenarioError
from .scenario import (Scenario, _parse_instance, _parse_network, initial_state,
                       parse_scenario, read_document)
from .stochastic import seed_infections, simulate, stationary_counts, write_stochastic_csv


_COMPACT = json.JSONEncoder(separators=(",", ":"))  # no indent: the C encoder
JSON_BLOCK = 128  # list items per compact encode: a long edge list streams
GRID_MAX_POINTS = 10**6  # largest --grid count, refused before any allocation


def _write_json(path: Path, payload: dict):
    """Write ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``,
    byte for byte.  With ``indent`` json runs its pure-Python encoder, so
    lists of numbers and of number rows (the manifest's edges) are instead
    encoded compactly in blocks of JSON_BLOCK items and re-indented."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_value(fh, payload, "\n")
        fh.write("\n")


def _reindented(text: str, inner: str):
    """The items of a nonempty list's compact text at indent ``inner``,
    or None unless they are scalars or nonempty rows of scalars.  No
    token but a string holds a quote, comma or bracket, so in a text
    without quotes these are all structure; ``{}`` reads the same at any
    indent."""
    if '"' in text or "[]" in text:
        return None
    if "[" not in text[1:]:
        return inner + text[1:-1].replace(",", "," + inner)
    rows, row = text[2:-2], inner + "  "
    bare = rows.replace("],[", ",")
    if "[" in bare or "]" in bare:
        return None
    rows = rows.replace(",", "," + row).replace(f"],{row}[", f"{inner}],{inner}[{row}")
    return f"{inner}[{row}{rows}{inner}]"


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
            if not isinstance(block[0], (dict, str)):  # else the encode is wasted
                text = _reindented(_COMPACT.encode(block), inner)
                if text is not None:
                    fh.write(text)
                    continue
            for idx, item in enumerate(block):
                fh.write(f"{',' if idx else ''}{inner}")
                _write_value(fh, item, inner)
        fh.write(nl + "]")
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
        "scenario": scenario.resolved,
        "outputs": sorted(Path(p).name for p in outputs),
    }


def _document(args):
    """The scenario document with the --dt, --t-end and --seed overrides
    applied; a document or ``stochastic`` block that is not an object is
    left for ``parse_scenario`` to name."""
    doc = read_document(args.scenario)
    if not isinstance(doc, dict):
        return doc
    if args.dt is not None:
        doc["dt"] = args.dt
    if args.t_end is not None:
        doc["t_end"] = args.t_end
    stochastic = doc.get("stochastic", {})
    if args.seed and isinstance(stochastic, dict):
        doc["stochastic"] = {**stochastic, "seeds": args.seed, "enabled": True}
    return doc


def _cmd_validate(args) -> int:
    scenario = parse_scenario(_document(args))
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


def _cmd_run(args) -> int:
    scenario = parse_scenario(_document(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []

    traj = integrate(scenario.spec, initial_state(scenario), scenario.t_end,
                     dt=scenario.dt, record_every=scenario.sample_every)
    det_path = out / f"{scenario.name}_deterministic.csv"
    write_trajectory_csv(traj, det_path, scenario.spec.n, scenario.spec.m)
    outputs.append(det_path)

    if scenario.stochastic_enabled:
        populations = stationary_counts(scenario.spec)
        initial_counts = seed_infections(populations, scenario.p0,
                                         scenario.spec.n, scenario.spec.m)
        for seed in scenario.seeds:
            run = simulate(scenario.spec, initial_counts, scenario.t_end,
                           h=scenario.h, seed=seed)
            sto_path = out / f"{scenario.name}_stochastic_seed{seed}.csv"
            write_stochastic_csv(run, sto_path, scenario.spec.n, scenario.spec.m,
                                 stride=scenario.sample_every)
            sidecar = out / f"{scenario.name}_stochastic_seed{seed}.json"
            _write_json(sidecar, {"seed": seed, "h": scenario.h,
                                  "t_end": scenario.t_end,
                                  "scenario": scenario.name,
                                  "version": __version__})
            outputs += [sto_path, sidecar]

    analysis_path = out / f"{scenario.name}_analysis.json"
    _write_json(analysis_path, _analysis_payload(scenario))
    outputs.append(analysis_path)

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


def _grid_point_doc(doc: dict, field: str, value: float) -> dict:
    if field != "rate_scale":
        return {**doc, field: value}
    point = json.loads(json.dumps(doc))  # deep copy: the layer specs change
    hits = 0
    for layer in point.get("layers", []):
        if "preset" in layer:
            layer["rate_scale"] = value
            hits += 1
        elif "mh" in layer:
            layer["mh"]["rate_scale"] = value
            hits += 1
    if not hits:
        raise ScenarioError(
            "layers: rate_scale sweeps need preset or mh layer specs")
    return point


def _cmd_sweep(args) -> int:
    doc = _document(args)
    scenario = parse_scenario(doc)
    field, values = _parse_grid(args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for idx, value in enumerate(values):
        try:
            point_doc = _grid_point_doc(doc, field, float(value))
            # a beta or delta grid changes no layer: share the one parsed
            # network; no point needs the manifest's layer listing
            net = _parse_network(point_doc) if field == "rate_scale" else scenario.spec.net
            point = _parse_instance(point_doc, net)
            mu, r0, classification = threshold(equilibrium_matrices(point.spec))
            rows.append([idx, value, mu, "" if r0 is None else r0,
                         classification, ""])
        except (ValueError, RuntimeError) as exc:  # per-point failure: record and continue
            rows.append([idx, value, "", "", "", f"{type(exc).__name__}: {exc}"])

    sweep_path = out / f"{scenario.name}_sweep.csv"
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write(f"index,{field},mu,R0,classification,error\n")
        for idx, value, mu, r0, cls, err in rows:
            mu_s = "" if mu == "" else format(mu, ".17g")
            r0_s = "" if r0 == "" else format(r0, ".17g")
            err_s = f"\"{err}\"" if err else ""
            fh.write(f"{idx},{format(value, '.17g')},{mu_s},{r0_s},{cls},{err_s}\n")

    manifest_path = out / f"{scenario.name}_manifest.json"
    _write_json(manifest_path, {**_manifest(scenario, "sweep", [sweep_path]),
                                "grid": {"field": field,
                                         "values": [float(v) for v in values]}})
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
        p.add_argument("--seed", type=int, nargs="*", default=None,
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
