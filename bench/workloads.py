"""Seeded inputs, CLI invocations and output checks for each workload.

Every scenario is shaped like ``scenarios/fig1_complete_line.json``: m=2
classes, a complete layer and a line layer at rate_scale 0.2, per-node
``beta`` drawn uniformly from [0.25, 0.35] by the workload seed, and
N = 10000 per class.  A workload is a set of such scenario files plus
the ``sismob`` CLI calls that make up one timed pass.  The checks read
only what the CLI wrote, and compare it against references computed
here with plain numpy, independently of the package.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RATE_SCALE = 0.2
POPULATION = 10000
BETA_RANGE = (0.25, 0.35)
SWEEP_GRID = "delta=0.05:0.6:200"
SWEEP_CHECK_EVERY = 20          # eigvals oracle on every 20th grid point
ANALYZE_LADDER = (10, 20, 40, 80, 160)
LAMBDA2_N = 80
REPLICA_COUNT = 8

MU_TIE_TOL = 1e-10
MU_ORACLE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
MASS_RTOL = 1e-9
P_STAR_TOL = 1e-6


@dataclass
class Call:
    """One CLI invocation: argv minus ``--out``, plus its bookkeeping."""

    argv: list
    scenario: str       # name of the generated scenario document
    ops: int            # operations checked (sweep points, analyses, ...)
    work: int           # throughput units (points, analyses, RK4 steps, ...)


@dataclass
class Workload:
    name: str
    params: dict
    calls: list                      # one timed pass
    warmup: list                     # the set-up call(s)
    docs: dict = field(default_factory=dict)   # scenario name -> document
    named_throughput: str = ""       # report name of throughput_per_s
    named_max_call: str = ""         # report name of max_call_s, if distinct

    @property
    def work(self) -> int:
        return sum(c.work for c in self.calls)


def _stratified(rng: random.Random, n: int) -> list:
    """One uniform draw from each of n equal slices of BETA_RANGE, in
    random node order.  Every seed gets a different instance with nearly
    the same spread of rates, so the work per pass varies little."""
    lo, hi = BETA_RANGE
    width = (hi - lo) / n
    beta = [round(lo + (k + rng.random()) * width, 6) for k in range(n)]
    rng.shuffle(beta)
    return beta


def _scenario(name: str, n: int, rng: random.Random, delta, **settings) -> dict:
    doc = {
        "name": name,
        "n": n,
        "m": 2,
        "layers": [{"preset": "complete", "rate_scale": RATE_SCALE},
                   {"preset": "line", "rate_scale": RATE_SCALE}],
        "beta": _stratified(rng, n),
        "delta": delta,
        "N": [POPULATION, POPULATION],
        "p0": 0.01,
        "x0": "stationary",
    }
    doc.update(settings)
    return doc


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's scenario files under ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    docs = {}

    def write(doc) -> str:
        path = workdir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        docs[doc["name"]] = doc
        return str(path)

    if name == "sweep":
        path = write(_scenario("sweep_n20", 20, rng, 0.1))
        wl = Workload(name, {"n": 20, "grid": SWEEP_GRID},
                      calls=[Call(["sweep", "--scenario", path, "--grid", SWEEP_GRID],
                                  "sweep_n20", ops=200, work=200)],
                      warmup=[Call(["sweep", "--scenario", path,
                                    "--grid", "delta=0.05:0.6:4"], "sweep_n20", 4, 4)],
                      named_throughput="sweep.points_per_s")
    elif name == "analyze":
        calls = []
        for n in ANALYZE_LADDER:
            path = write(_scenario(f"analyze_n{n}", n, rng, 0.1))
            calls.append(Call(["analyze", "--scenario", path], f"analyze_n{n}", 1, 1))
        rule = {"rule": "lambda2_sufficient", "s_factor": 0.8,
                "deficit_nodes": [0, LAMBDA2_N - 1]}
        path = write(_scenario(f"analyze_lambda2_n{LAMBDA2_N}", LAMBDA2_N, rng, rule))
        calls.append(Call(["analyze", "--scenario", path],
                          f"analyze_lambda2_n{LAMBDA2_N}", 1, 1))
        wl = Workload(name, {"ladder": list(ANALYZE_LADDER), "delta": 0.1,
                             "lambda2_rule_n": LAMBDA2_N},
                      calls=calls, warmup=[calls[2]],
                      named_throughput="analyze.analyses_per_s",
                      named_max_call="analyze.n160_s")
    elif name == "trajectory":
        path = write(_scenario("trajectory_n40", 40, rng, 0.1, t_end=200.0, dt=0.01,
                               sample_every=100, stochastic={"enabled": False}))
        wl = Workload(name, {"n": 40, "t_end": 200.0, "dt": 0.01, "sample_every": 100},
                      calls=[Call(["run", "--scenario", path], "trajectory_n40", 1, 20000)],
                      warmup=[Call(["run", "--scenario", path, "--t-end", "1"],
                                   "trajectory_n40", 1, 100)],
                      named_throughput="trajectory.rk4_steps_per_s")
    elif name == "replicas":
        seeds = rng.sample(range(1, 2**31), REPLICA_COUNT)
        path = write(_scenario("replicas_n20", 20, rng, 0.1, t_end=20.0, dt=0.01,
                               sample_every=10,
                               stochastic={"enabled": True, "h": 0.01, "seeds": seeds}))
        wl = Workload(name, {"n": 20, "t_end": 20.0, "dt": 0.01, "h": 0.01,
                             "sample_every": 10, "seeds": seeds},
                      calls=[Call(["run", "--scenario", path], "replicas_n20",
                                  REPLICA_COUNT, REPLICA_COUNT * 2000)],
                      warmup=[Call(["run", "--scenario", path, "--t-end", "0.5"],
                                   "replicas_n20", REPLICA_COUNT, REPLICA_COUNT * 50)],
                      named_throughput="replicas.replica_steps_per_s")
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.docs = docs
    return wl


# --------------------------------------------------------------------------
# Independent reference model (plain numpy, no sismob code)

def _generators(n: int) -> list:
    """Equal-exit generators of the complete and line layers."""
    complete = np.full((n, n), RATE_SCALE / (n - 1))
    line = np.zeros((n, n))
    for i in range(n - 1):
        line[i, i + 1] = line[i + 1, i] = 1.0
    line *= RATE_SCALE / line.sum(axis=1, keepdims=True)
    gens = []
    for Q in (complete, line):
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        gens.append(Q)
    return gens


def reference_matrices(doc: dict, delta) -> tuple:
    """(G, beta_stacked, shares) of the DFE linearization G = B F - D - L."""
    n = doc["n"]
    beta = np.asarray(doc["beta"], dtype=float)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), (n,))
    gens = _generators(n)
    X = []
    for Q in gens:
        # stationary law: the eigenvector of Q^T for the eigenvalue closest to 0
        vals, vecs = np.linalg.eig(Q.T)
        v = np.abs(np.real(vecs[:, np.argmin(np.abs(vals))]))
        X.append(POPULATION * v / v.sum())
    X = np.array(X)                                   # (m, n)
    shares = X / X.sum(axis=0)
    m = len(X)
    nm = n * m
    F = np.zeros((nm, nm))
    L = np.zeros((nm, nm))
    for a in range(m):
        for b in range(m):
            F[a * n:(a + 1) * n, b * n:(b + 1) * n] = np.diag(shares[b])
        W = gens[a].T * (X[a][None, :] / X[a][:, None])
        np.fill_diagonal(W, 0.0)
        L[a * n:(a + 1) * n, a * n:(a + 1) * n] = np.diag(W.sum(axis=1)) - W
    B = np.diag(np.tile(beta, m))
    G = B @ F - np.diag(np.tile(delta, m)) - L
    return G, np.tile(beta, m), shares


# --------------------------------------------------------------------------
# Checks: each returns one reason per failed operation (empty when all pass)

def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_rows(path: Path) -> tuple:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_sweep(wl: Workload, call: Call, out: Path) -> list:
    doc = wl.docs[call.scenario]
    _, rows = _read_rows(out / f"{doc['name']}_sweep.csv")
    problems = []
    if len(rows) != call.ops:
        return [f"sweep wrote {len(rows)} rows, expected {call.ops}"] * call.ops
    for idx, (_, value, mu, r0, cls, err) in enumerate(rows):
        if err or not mu:
            problems.append(f"point {idx}: error {err!r}")
            continue
        mu, r0 = float(mu), float(r0)
        if abs(mu) > MU_TIE_TOL and (mu > 0) != (r0 > 1):
            problems.append(f"point {idx}: sign(mu={mu}) != sign(R0-1={r0 - 1})")
        elif idx % SWEEP_CHECK_EVERY == 0:
            G, _, _ = reference_matrices(doc, float(value))
            oracle = float(np.max(np.linalg.eigvals(G).real))
            if abs(mu - oracle) > MU_ORACLE_TOL:
                problems.append(f"point {idx}: mu={mu} vs eigvals {oracle}")
    return problems


def check_analyze(wl: Workload, call: Call, out: Path) -> list:
    doc = wl.docs[call.scenario]
    report = _read_json(out / f"{doc['name']}_analysis.json")
    cond = report["conditions"]
    if isinstance(doc["delta"], dict):
        if report["classification"] != "DFE_stable":
            return [f"{doc['name']}: classified {report['classification']}"]
        if cond["suf_lambda2"] is not True or not report["mu"] < 0:
            return [f"{doc['name']}: suf_lambda2={cond['suf_lambda2']}, mu={report['mu']}"]
        return []
    if report["classification"] != "DFE_unstable_EE_exists":
        return [f"{doc['name']}: classified {report['classification']}"]
    p = np.asarray(report["p_star"], dtype=float)
    if not (np.all(p > 0) and np.all(p < 1)):
        return [f"{doc['name']}: p_star outside (0, 1)"]
    G, beta, shares = reference_matrices(doc, doc["delta"])
    n = doc["n"]
    pbar = (shares * p.reshape(-1, n)).sum(axis=0)
    residual = float(np.max(np.abs(G @ p - p * beta * np.tile(pbar, len(shares)))))
    if residual > RESIDUAL_TOL:
        return [f"{doc['name']}: recomputed residual {residual:.3e}"]
    return []


def check_trajectory(wl: Workload, call: Call, out: Path) -> list:
    doc = wl.docs[call.scenario]
    n, nm = doc["n"], 2 * doc["n"]
    _, rows = _read_rows(out / f"{doc['name']}_deterministic.csv")
    data = np.array(rows, dtype=float)
    problems = []
    if data[-1, 0] != doc["t_end"]:
        problems.append(f"last t {data[-1, 0]!r} != t_end {doc['t_end']}")
    x = data[:, 1 + nm:].reshape(len(data), 2, n).sum(axis=2)
    mass_err = float(np.max(np.abs(x - POPULATION))) / POPULATION
    if mass_err > MASS_RTOL:
        problems.append(f"class totals drift by {mass_err:.3e} relative")
    p_star = np.asarray(_read_json(out / f"{doc['name']}_analysis.json")["p_star"])
    gap = float(np.max(np.abs(data[-1, 1:1 + nm] - p_star)))
    if gap > P_STAR_TOL:
        problems.append(f"final p is {gap:.3e} from p_star")
    return ["; ".join(problems)] if problems else []


def replica_csv(doc: dict, seed: int, out: Path) -> Path:
    return out / f"{doc['name']}_stochastic_seed{seed}.csv"


def check_replicas(wl: Workload, call: Call, out: Path) -> list:
    doc = wl.docs[call.scenario]
    n, nm = doc["n"], 2 * doc["n"]
    problems = []
    for seed in doc["stochastic"]["seeds"]:
        _, rows = _read_rows(replica_csv(doc, seed, out))
        counts = np.array([r[1 + nm:1 + 2 * nm] for r in rows], dtype=np.int64)
        totals = counts.reshape(len(rows), 2, n).sum(axis=2)
        if len(rows) < 2 or np.any(totals != POPULATION):
            problems.append(f"seed {seed}: class counts differ from N")
    return problems


CHECKS = {"sweep": check_sweep, "analyze": check_analyze,
          "trajectory": check_trajectory, "replicas": check_replicas}


def rerun_call(wl: Workload) -> Call | None:
    """The replicas workload re-runs its first seed alone."""
    if wl.name != "replicas":
        return None
    call = wl.calls[0]
    seed = wl.docs[call.scenario]["stochastic"]["seeds"][0]
    return Call([*call.argv, "--seed", str(seed)], call.scenario, ops=1, work=0)


def check_rerun(wl: Workload, first: Path, rerun: Path) -> list:
    doc = wl.docs[wl.calls[0].scenario]
    seed = doc["stochastic"]["seeds"][0]
    if replica_csv(doc, seed, first).read_bytes() != replica_csv(doc, seed, rerun).read_bytes():
        return [f"seed {seed}: re-run wrote different CSV bytes"]
    return []
