#!/usr/bin/env python3
"""Check that two sismob source trees write byte-identical CLI outputs.

Usage:
    git archive HEAD | tar -x -C /tmp/sismob-head    # or: git worktree add ...
    python scripts/compare_outputs.py /tmp/sismob-head/src src

Each tree runs ``sismob.cli.main`` in its own subprocess, with that tree's
``src`` as the only sismob on the path, on the same scenarios:

- every bundled scenario under ``scenarios/``;
- generated scenarios shaped like ``fig1_complete_line.json`` (complete +
  line layers at rate 0.2, per-node beta in [0.25, 0.35], two stochastic
  seeds) at n = 10, 40, 80 and 160;
- the n = 80 one again with ``delta`` from the ``lambda2_sufficient`` rule;
- ``edges_awkward`` (n = 4): an explicit ``edges`` layer whose eight rates
  are distinct and awkward to print (``0.1 + 0.2``, the integer 3, ``1e-7``,
  ``2**-30``, ...) next to a ``line`` preset with ``"rates": "mh_uniform"``;
- ``mh_target`` (n = 12): an ``mh`` layer on the complete graph with a
  non-uniform ``target``, so its rates take many distinct values, next to
  a ``ring`` preset;
- ``three_classes`` (n = 9, m = 3): ``complete``, ``line`` and ``ring``
  layers at ``rate_scale`` 0.15, 0.3 and 0.45 and a different N per
  class, so the integrator's node totals and both simulators add up
  three classes.

Together with the bundled scenarios (one has an empty ``edges`` layer at
n = 1) they cover every layer form the manifest lists.

Each scenario gets ``analyze``, ``run --t-end 2`` and four ``sweep`` grids:
``beta=0.05:0.6:9``, ``rate_scale=0.05:1.5:6``, and ``beta=-0.05:0.6:9`` and
``delta=-0.05:0.6:9``, whose first points are failing rows.  Two more calls carry the overrides
``--dt 0.02 --t-end 2 --seed 3``: an ``analyze`` and a ``sweep`` over
``beta=0.05:0.6:3``.  One more call runs ``fig1_complete_line`` at full
length (10 seeds of 4,000 steps), past ``cli.HELPER_LANE_STEPS``, so the
seeds that a forked child steps are compared too.  Every call's exit
code, stdout and stderr are saved next to its output files.  The script then compares the
sha256 of every file, lists each file that differs or exists on one side
only, and exits with 1 on any difference, 0 when all files are identical.

For a differing CSV or JSON file whose non-numeric skeleton is unchanged
(the same rows, keys, strings and flags, numbers in the same places), it
prints the largest absolute difference |a - b| and relative difference
|a - b| / max(|a|, |b|) of the numbers per CSV column or JSON key (list
entries share their key), and at the end the largest of each over all
such files: the agreement bound between the two trees.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIZES = (10, 40, 80, 160)
# job name -> grid
GRIDS = {"beta": "beta=0.05:0.6:9", "beta_from_negative": "beta=-0.05:0.6:9",
         "delta": "delta=-0.05:0.6:9", "rate_scale": "rate_scale=0.05:1.5:6"}
OVERRIDES = ["--dt", "0.02", "--t-end", "2", "--seed", "3"]

# Runs in the subprocess: reads [job name, argv] pairs from stdin and writes
# each job's files under out/<job name>/ relative to its working directory,
# so the printed paths are the same for both trees.
RUNNER = r"""
import contextlib, io, json, sys
from pathlib import Path
import sismob
from sismob.cli import main
print(sismob.__file__, flush=True)
for name, argv in json.load(sys.stdin):
    out = Path("out") / name
    out.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv + ["--out", str(out)])
        except Exception as exc:  # record it and go on: the other side may agree
            code = f"uncaught {type(exc).__name__}: {exc}"
    (out / "_cli.txt").write_text(
        f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
"""


def fig1_shaped(n: int, lambda2_rule: bool = False) -> dict:
    beta = [round(0.25 + 0.1 * k / max(n - 1, 1), 6) for k in range(n)]
    random.Random(n).shuffle(beta)
    doc = {
        "name": f"fig1_n{n}" + ("_lambda2" if lambda2_rule else ""),
        "n": n, "m": 2,
        "layers": [{"preset": "complete", "rate_scale": 0.2},
                   {"preset": "line", "rate_scale": 0.2}],
        "beta": beta,
        "delta": 0.1,
        "N": [10000, 10000],
        "p0": 0.01,
        "t_end": 40.0, "dt": 0.01, "sample_every": 10,
        "stochastic": {"enabled": True, "h": 0.01, "seeds": [1, 2]},
    }
    if lambda2_rule:
        doc["delta"] = {"rule": "lambda2_sufficient", "s_factor": 0.8,
                        "deficit_nodes": [0, n - 1]}
        doc["stochastic"] = {"enabled": False}
    return doc


def layer_forms() -> list:
    """The two documents that list explicit-edge and mh-target layers."""
    ring = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)]
    rates = [0.1 + 0.2, 3, 1e-7, 2**-30, 12.345678, 1 / 3, 0.7, 5e-3]
    common = {"m": 2, "delta": 0.1, "N": [1000, 500], "p0": 0.01, "t_end": 10.0,
              "dt": 0.01, "sample_every": 10,
              "stochastic": {"enabled": True, "h": 0.01, "seeds": [1]}}
    return [
        {"name": "edges_awkward", "n": 4, **common, "beta": [0.3, 0.25, 0.35, 0.3],
         "layers": [{"edges": [[i, j, rate] for (i, j), rate in zip(ring, rates)]},
                    {"preset": "line", "rate_scale": 0.3, "rates": "mh_uniform"}]},
        {"name": "mh_target", "n": 12, **common, "beta": 0.3,
         "layers": [{"mh": {"graph": "complete", "rate_scale": 0.4,
                            "target": [k / 78 for k in range(1, 13)]}},
                    {"preset": "ring", "rate_scale": 0.2}]},
    ]


def three_classes() -> dict:
    """An m = 3 document: three preset layers at distinct rates and sizes."""
    return {"name": "three_classes", "n": 9, "m": 3,
            "layers": [{"preset": "complete", "rate_scale": 0.15},
                       {"preset": "line", "rate_scale": 0.3},
                       {"preset": "ring", "rate_scale": 0.45}],
            "beta": [round(0.2 + 0.02 * k, 6) for k in range(9)], "delta": 0.1,
            "N": [3000, 1200, 500], "p0": 0.02, "t_end": 10.0, "dt": 0.01,
            "sample_every": 10, "stochastic": {"enabled": True, "h": 0.01, "seeds": [1, 2]}}


def jobs(scenario_dir: Path) -> list:
    paths = sorted((REPO / "scenarios").glob("*.json"))
    docs = ([fig1_shaped(n) for n in SIZES] + [fig1_shaped(80, lambda2_rule=True)]
            + layer_forms() + [three_classes()])
    for doc in docs:
        path = scenario_dir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=2))
        paths.append(path)
    out = []
    for path in paths:
        scenario = ["--scenario", str(path)]
        out.append((f"{path.stem}/analyze", ["analyze", *scenario]))
        out.append((f"{path.stem}/run", ["run", *scenario, "--t-end", "2"]))
        for job, grid in GRIDS.items():
            out.append((f"{path.stem}/sweep_{job}", ["sweep", *scenario, "--grid", grid]))
        out.append((f"{path.stem}/analyze_overrides", ["analyze", *scenario, *OVERRIDES]))
        out.append((f"{path.stem}/sweep_overrides",
                    ["sweep", *scenario, *OVERRIDES, "--grid", "beta=0.05:0.6:3"]))
    fig1 = REPO / "scenarios" / "fig1_complete_line.json"
    out.append(("fig1_complete_line/run_full", ["run", "--scenario", str(fig1)]))
    return out


def run_tree(src: Path, workdir: Path, job_list: list) -> None:
    workdir.mkdir()
    proc = subprocess.run([sys.executable, "-c", RUNNER], cwd=workdir,
                          env={**os.environ, "PYTHONPATH": str(src.resolve())},
                          input=json.dumps(job_list), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: runner failed\n{proc.stderr}")
    imported = Path(proc.stdout.splitlines()[0]).resolve()
    if src.resolve() not in imported.parents:
        raise SystemExit(f"{src}: imported sismob from {imported} instead")


def digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _number(value):
    """value as a float when it is a number or a numeric CSV cell, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _parse(path: Path):
    """A JSON file's value, or a CSV file as {column: [cells]}."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    rows = list(csv.reader(text.splitlines()))
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("rows of different lengths")
    return {name: [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}


def _pairs(old, new, key=""):
    """(key, a, b) for each pair of differing numbers in two parsed files
    (list entries share their key); raises ValueError where the
    non-numeric skeletons differ."""
    if old == new:
        return
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for k in old:
            yield from _pairs(old[k], new[k], f"{key}.{k}" if key else k)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            yield from _pairs(a, b, f"{key}[]")
    elif _number(old) is None or _number(new) is None:
        raise ValueError(key)
    else:
        yield key, _number(old), _number(new)


def _widen(table: dict, key: str, diff: float, rel: float):
    old_abs, old_rel = table.get(key, (0.0, 0.0))
    table[key] = (max(old_abs, diff), max(old_rel, rel))


def numeric_differences(old_path: Path, new_path: Path):
    """{column or key: (max |a - b|, max |a - b| / max(|a|, |b|))} over the
    numbers that differ, or None when the file is neither CSV nor JSON or
    its non-numeric skeleton differs."""
    if old_path.suffix not in (".csv", ".json"):
        return None
    worst = {}
    try:
        for key, a, b in _pairs(_parse(old_path), _parse(new_path)):
            if math.isnan(a) and math.isnan(b):
                continue
            if not (math.isfinite(a) and math.isfinite(b)):
                return None
            diff = abs(a - b)
            _widen(worst, key, diff, diff / max(abs(a), abs(b)))  # at most 2, also at 0
    except ValueError:  # also json.JSONDecodeError
        return None
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src", type=Path, help="src/ directory of the reference tree")
    parser.add_argument("new_src", type=Path, help="src/ directory of the tree under test")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "sismob" / "cli.py").is_file():
            parser.error(f"{src} has no sismob/cli.py")

    with tempfile.TemporaryDirectory(prefix="sismob-compare-") as tmp:
        tmp = Path(tmp)
        (tmp / "scenarios").mkdir()
        job_list = jobs(tmp / "scenarios")
        run_tree(args.old_src, tmp / "old", job_list)
        run_tree(args.new_src, tmp / "new", job_list)
        old, new = digests(tmp / "old" / "out"), digests(tmp / "new" / "out")
        differing = [name for name in sorted(old.keys() & new.keys()) if old[name] != new[name]]
        numeric = {name: numeric_differences(tmp / "old" / "out" / name,
                                             tmp / "new" / "out" / name)
                   for name in differing}

    problems = [f"only in old: {name}" for name in sorted(old.keys() - new.keys())]
    problems += [f"only in new: {name}" for name in sorted(new.keys() - old.keys())]
    bound = {}
    for name in differing:
        worst = numeric[name]
        if worst is None:
            print(f"differs: {name} (not only in numbers)")
            continue
        print(f"differs: {name} (only in numbers)")
        for key, (diff, rel) in sorted(worst.items()):
            print(f"    {key}: max abs {diff:.3g}, max rel {rel:.3g}")
            _widen(bound, key, diff, rel)
    for line in problems:
        print(line)
    if bound:
        count = sum(worst is not None for worst in numeric.values())
        print(f"largest differences over the {count} files that differ only in numbers:")
        for key, (diff, rel) in sorted(bound.items()):
            print(f"    {key}: max abs {diff:.3g}, max rel {rel:.3g}")
    print(f"{len(job_list)} CLI calls, {len(old.keys() | new.keys())} files compared, "
          f"{len(differing) + len(problems)} differ")
    return 1 if differing or problems else 0


if __name__ == "__main__":
    sys.exit(main())
