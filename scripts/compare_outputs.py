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
- the n = 80 one again with ``delta`` from the ``lambda2_sufficient`` rule.

Each scenario gets ``analyze``, ``run --t-end 2`` and three ``sweep`` grids:
``beta=0.05:0.6:9``, ``delta=-0.05:0.6:9`` (its negative point is a failing
row) and ``rate_scale=0.05:1.5:6``.  Two more calls carry the overrides
``--dt 0.02 --t-end 2 --seed 3``: an ``analyze`` and a ``sweep`` over
``beta=0.05:0.6:3``.  Every call's exit code, stdout and
stderr are saved next to its output files.  The script then compares the
sha256 of every file, lists each file that differs or exists on one side
only, and exits with 1 on any difference, 0 when all files are identical.
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIZES = (10, 40, 80, 160)
GRIDS = ("beta=0.05:0.6:9", "delta=-0.05:0.6:9", "rate_scale=0.05:1.5:6")
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


def jobs(scenario_dir: Path) -> list:
    paths = sorted((REPO / "scenarios").glob("*.json"))
    docs = [fig1_shaped(n) for n in SIZES] + [fig1_shaped(80, lambda2_rule=True)]
    for doc in docs:
        path = scenario_dir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=2))
        paths.append(path)
    out = []
    for path in paths:
        scenario = ["--scenario", str(path)]
        out.append((f"{path.stem}/analyze", ["analyze", *scenario]))
        out.append((f"{path.stem}/run", ["run", *scenario, "--t-end", "2"]))
        for grid in GRIDS:
            field = grid.split("=")[0]
            out.append((f"{path.stem}/sweep_{field}", ["sweep", *scenario, "--grid", grid]))
        out.append((f"{path.stem}/analyze_overrides", ["analyze", *scenario, *OVERRIDES]))
        out.append((f"{path.stem}/sweep_overrides",
                    ["sweep", *scenario, *OVERRIDES, "--grid", "beta=0.05:0.6:3"]))
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

    problems = [f"differs: {name}" for name in sorted(old.keys() & new.keys())
                if old[name] != new[name]]
    problems += [f"only in old: {name}" for name in sorted(old.keys() - new.keys())]
    problems += [f"only in new: {name}" for name in sorted(new.keys() - old.keys())]
    for line in problems:
        print(line)
    print(f"{len(job_list)} CLI calls, {len(old.keys() | new.keys())} files compared, "
          f"{len(problems)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
