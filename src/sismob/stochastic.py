"""Finite-population stochastic counterpart of the deterministic model.

Each step of width h has two sub-steps. First, mobility: every
individual of class a at node i relocates to node j with probability
q^a_ij h (staying with probability 1 - nu^a_i h), drawn as one
multinomial per (node, class, compartment). Second, epidemics: at every
node each susceptible of class a becomes infected with probability
beta_i * pbar_i * h and each infected recovers with probability
delta_i * h, where pbar_i is the realized infected fraction at node i
after the mobility sub-step.

Counts are plain integer arrays of shape (n, m); per-class totals are
conserved exactly at every step.  Runs are bit-reproducible: the same
seed and spec always produce the same sample path (PCG64 generator, one
fixed draw order per step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec, step_count
from .errors import StepSizeError

DEFAULT_H = 0.01


@dataclass(frozen=True, eq=False)
class AgentCounts:
    """Susceptible and infected head counts per (node, class)."""

    s: np.ndarray
    i: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.int64)
        i = np.asarray(self.i, dtype=np.int64)
        if s.shape != i.shape or s.ndim != 2:
            raise ValueError(f"s and i must be equal-shape (n, m) matrices, "
                             f"got {s.shape} and {i.shape}")
        if np.any(s < 0) or np.any(i < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "i", i)

    @property
    def totals(self) -> np.ndarray:
        return self.s + self.i

    def class_totals(self) -> np.ndarray:
        """Population per class (summed over nodes)."""
        return self.totals.sum(axis=0)

    def infected_fractions(self) -> np.ndarray:
        """Realized infected fraction per (node, class); NaN where the
        (node, class) cell is empty."""
        tot = self.totals
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(tot > 0, self.i / np.maximum(tot, 1), np.nan)
        return frac


@dataclass(frozen=True, eq=False)
class StochasticRun:
    """Sampled stochastic run: counts at every step plus metadata."""

    seed: int
    h: float
    t: np.ndarray
    s: np.ndarray          # (steps+1, n, m)
    i: np.ndarray          # (steps+1, n, m)

    def fractions(self) -> np.ndarray:
        tot = self.s + self.i
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(tot > 0, self.i / np.maximum(tot, 1), np.nan)

    def counts(self, k: int) -> AgentCounts:
        return AgentCounts(s=self.s[k], i=self.i[k])


def _check_step_size(spec: ModelSpec, h: float):
    if h < 0:
        raise StepSizeError(f"h must be nonnegative, got {h}")
    max_nu = max(float(layer.exit_rates.max()) for layer in spec.net.layers)
    for name, worst in (("exit rate", max_nu),
                        ("infection rate", float(np.max(spec.beta))),
                        ("recovery rate", float(np.max(spec.delta)))):
        if h * worst >= 1.0:
            raise StepSizeError(
                f"h = {h} times the largest {name} {worst} is not a valid probability")


def _move_matrices(spec: ModelSpec, h: float) -> list:
    """One-step relocation probabilities I + h Q per layer, with rows
    renormalized to absorb float rounding in the stay probability."""
    moves = []
    for layer in spec.net.layers:
        move = np.eye(spec.n) + h * layer.Q
        move = np.clip(move, 0.0, None)
        move /= move.sum(axis=1, keepdims=True)
        moves.append(move)
    return moves


def step(spec: ModelSpec, counts: AgentCounts, h: float,
         rng: np.random.Generator) -> AgentCounts:
    """One mobility-then-epidemics update of the counts."""
    _check_step_size(spec, h)
    s, i = np.empty_like(counts.s), np.empty_like(counts.i)
    _step(spec, counts.s, counts.i, h, rng, _move_matrices(spec, h), s, i)
    return AgentCounts(s=s, i=i)


def _step(spec: ModelSpec, s: np.ndarray, i: np.ndarray, h: float,
          rng: np.random.Generator, moves: list, s_out: np.ndarray, i_out: np.ndarray):
    """Write the (n, m) int64 counts one step after (s, i) into s_out
    and i_out."""
    # Mobility: one multinomial row per origin node; column sums are the
    # arrivals. Empty origins draw a zero row, so empty nodes are safe.
    for a in range(spec.m):
        s_out[:, a] = rng.multinomial(s[:, a], moves[a]).sum(axis=0)
        i_out[:, a] = rng.multinomial(i[:, a], moves[a]).sum(axis=0)

    # Epidemics at the post-move populations.
    tot = (s_out + i_out).sum(axis=1)
    inf = i_out.sum(axis=1)
    pbar = np.where(tot > 0, inf / np.maximum(tot, 1), 0.0)

    p_infect = np.asarray(spec.beta) * pbar * h
    p_recover = np.asarray(spec.delta) * h
    new_inf = rng.binomial(s_out, p_infect[:, None])
    new_rec = rng.binomial(i_out, p_recover[:, None])
    s_out += new_rec - new_inf
    i_out += new_inf - new_rec


def simulate(spec: ModelSpec, initial: AgentCounts, t_end: float,
             h: float = DEFAULT_H, seed: int = 0) -> StochasticRun:
    """Run ``step_count(t_end, h)`` steps from the initial counts, so
    the run ends exactly at t_end."""
    if h <= 0:
        raise StepSizeError(f"simulate needs h > 0, got {h}")
    _check_step_size(spec, h)
    steps = step_count(t_end, h)
    rng = np.random.default_rng(seed)
    moves = _move_matrices(spec, h)

    s_series = np.empty((steps + 1, spec.n, spec.m), dtype=np.int64)
    i_series = np.empty((steps + 1, spec.n, spec.m), dtype=np.int64)
    s_series[0] = initial.s
    i_series[0] = initial.i
    for k in range(steps):
        _step(spec, s_series[k], i_series[k], h, rng, moves,
              s_series[k + 1], i_series[k + 1])

    t = h * np.arange(steps + 1)
    return StochasticRun(seed=seed, h=h, t=t, s=s_series, i=i_series)


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of ``total`` proportional to ``weights``,
    deterministic (ties broken by index)."""
    weights = np.asarray(weights, dtype=float)
    if total == 0:
        return np.zeros(len(weights), dtype=np.int64)
    exact = weights * (total / weights.sum())
    alloc = np.floor(exact).astype(np.int64)
    short = total - int(alloc.sum())
    if short > 0:
        order = np.lexsort((np.arange(len(weights)), -(exact - alloc)))
        alloc[order[:short]] += 1
    return alloc


def stationary_counts(spec: ModelSpec) -> np.ndarray:
    """Integer (n, m) populations matching the stationary distribution,
    exact per-class totals."""
    from .network import network_stationary

    stat = network_stationary(spec.net)
    x = np.zeros((spec.n, spec.m), dtype=np.int64)
    for a in range(spec.m):
        x[:, a] = _largest_remainder(stat.v_per_layer[a], int(round(spec.net.N[a])))
    return x


def seed_infections(populations: np.ndarray, p0: np.ndarray | float,
                    n: int, m: int) -> AgentCounts:
    """Initial counts with infections allocated to match the target
    fractions p0 as closely as integers allow (per class)."""
    populations = np.asarray(populations, dtype=np.int64)
    p = np.broadcast_to(np.asarray(p0, dtype=float).ravel(), (n * m,)).reshape(m, n).T
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("initial fractions p0 must lie in [0, 1]")
    infected = np.zeros_like(populations)
    for a in range(m):
        expected = p[:, a] * populations[:, a]
        total = int(round(expected.sum()))
        if total > 0:
            infected[:, a] = np.minimum(_largest_remainder(expected, total),
                                        populations[:, a])
    return AgentCounts(s=populations - infected, i=infected)


def write_stochastic_csv(run: StochasticRun, path, n: int, m: int, stride: int = 1):
    """CSV with the deterministic trajectory columns (fractions and
    populations) plus the raw integer counts, sampled every ``stride``
    steps (the final step is always included)."""
    frac = run.fractions()
    tot = run.s + run.i
    last = len(run.t) - 1
    rows = sorted(set(range(0, last + 1, max(1, stride))) | {last})
    cols = (["t"]
            + [f"p[{a}][{i}]" for a in range(m) for i in range(n)]
            + [f"x[{a}][{i}]" for a in range(m) for i in range(n)]
            + [f"s[{a}][{i}]" for a in range(m) for i in range(n)]
            + [f"i[{a}][{i}]" for a in range(m) for i in range(n)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for k in rows:
            row = [format(run.t[k], ".17g")]
            row += [format(val, ".17g") for val in frac[k].T.ravel()]
            row += [str(int(val)) for val in tot[k].T.ravel()]
            row += [str(int(val)) for val in run.s[k].T.ravel()]
            row += [str(int(val)) for val in run.i[k].T.ravel()]
            fh.write(",".join(row) + "\n")
