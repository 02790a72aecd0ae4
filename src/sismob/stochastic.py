"""Finite-population stochastic counterpart of the deterministic model.

Each step of width h has two sub-steps. First, mobility: every
individual of class a at node i relocates to node j with probability
q^a_ij h (staying with probability 1 - nu^a_i h). This is drawn by the
multinomial splitting identity: Binomial(c, nu^a_i h) leavers per
(compartment, class, node) cell, each routed on its own to j with
probability q^a_ij / nu^a_i. Second, epidemics: at every node each
susceptible of class a becomes infected with probability
beta_i * pbar_i * h and each infected recovers with probability
delta_i * h, where pbar_i is the realized infected fraction at node i
after the mobility sub-step.

A step works on the counts stacked as one (2, m, n) int64 array
(compartment, class, node) and makes three generator calls, whatever
m is: one binomial for every leaver count, one uniform per leaver for
its destination, and one binomial for every infection and recovery
count.  The public (n, m) ``AgentCounts`` form is kept at the edges.
Per-class totals are conserved exactly at every step.  Runs are
bit-reproducible: the same seed and spec always produce the same sample
path (PCG64 generator, one fixed draw order per step).

``simulate_seeds`` steps the runs of several seeds in lockstep as one
(S, 2, m, n) array: each seed keeps its own generator and its three
calls per step, and the routing, moves and flips run once for all of
them, so each run has the bits it has alone.  Runs keep only their
recorded steps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec, recorded_rows, step_count, write_csv
from .errors import StepSizeError
from .network import network_stationary

DEFAULT_H = 0.01


def _fractions(s: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Infected fraction of each count cell; NaN where the cell is empty."""
    tot = s + i
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(tot > 0, i / np.maximum(tot, 1), np.nan)


def _whole_counts(values, name: str) -> np.ndarray:
    """int64 copy of a count array; refuses entries that are not
    finite whole numbers instead of truncating them."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        as_float = values.astype(float)
        if not np.all(np.isfinite(as_float)) or np.any(as_float != np.floor(as_float)):
            raise ValueError(f"{name} counts must be finite whole numbers")
    return values.astype(np.int64)


@dataclass(frozen=True, eq=False)
class AgentCounts:
    """Susceptible and infected head counts per (node, class)."""

    s: np.ndarray
    i: np.ndarray

    def __post_init__(self):
        s = _whole_counts(self.s, "s")
        i = _whole_counts(self.i, "i")
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
        return _fractions(self.s, self.i)


@dataclass(frozen=True, eq=False)
class StochasticRun:
    """Sampled stochastic run: counts at every recorded step plus metadata."""

    seed: int
    h: float
    t: np.ndarray          # (rows,) times of the recorded steps
    s: np.ndarray          # (rows, n, m)
    i: np.ndarray          # (rows, n, m)

    def fractions(self) -> np.ndarray:
        return _fractions(self.s, self.i)


def _moves(spec: ModelSpec):
    """(m, n, n) positive off-diagonal rates of every Q^a, the ones a step
    moves individuals with, and their row-wise cumulative sums, whose
    last column is the leave rate nu^a_i."""
    Q = np.stack([layer.Q for layer in spec.net.layers])
    rates = np.where((Q > 0) & ~np.eye(spec.n, dtype=bool), Q, 0.0)
    return rates, np.cumsum(rates, axis=2)


def _check_step_size(spec: ModelSpec, h: float):
    if h < 0:
        raise StepSizeError(f"h must be nonnegative, got {h}")
    max_nu = float(_moves(spec)[1][:, :, -1].max())
    for name, worst in (("exit rate", max_nu),
                        ("infection rate", float(np.max(spec.beta))),
                        ("recovery rate", float(np.max(spec.delta)))):
        if h * worst >= 1.0:
            raise StepSizeError(
                f"h = {h} times the largest {name} {worst} is not a valid probability")


class _Kernel:
    """Per-run constants of the step for counts stacked as (2, m, n).

    Stacked cell c = (compartment * m + a) * n + i routes its leavers
    through its own block of ``keys``: the cumulative routing weights
    q^a_ij / nu^a_i over the positive off-diagonal entries of row i of
    Q^a, shifted into (2c, 2c + 1] with the block's last entry exactly
    2c + 1.  A leaver with uniform u in [0, 1) searches 2c + u on the
    left, so it lands in its own block even where 2c + u rounds to
    2c + 1; the gap up to the next block leaves no shared boundary.
    """

    def __init__(self, spec: ModelSpec, h: float):
        n, m = spec.n, spec.m
        rates, cumulative = _moves(spec)
        nu = cumulative[:, :, -1]
        # Row-major nonzeros come grouped by origin (a, i), destinations
        # ascending; x / x == 1 exactly, so each block ends at 2c + 1.
        a, i, j = np.nonzero(rates)
        within = cumulative[a, i, j] / nu[a, i]
        cell, dest = a * n + i, a * n + j
        self.p_leave = h * nu                               # (m, n)
        self.offsets = 2.0 * np.arange(2 * m * n)           # 2c per stacked cell
        self.keys = np.concatenate([2.0 * (cell + k * m * n) + within for k in (0, 1)])
        self.dest = np.concatenate([dest, dest + m * n])    # stacked cell per key
        self.recover = h * spec.delta                       # (n,)
        self.beta, self.h = spec.beta, h  # infection p = (beta * pbar) * h, in that order


def _check_counts(spec: ModelSpec, counts: AgentCounts):
    if counts.s.shape != (spec.n, spec.m):
        raise ValueError(f"counts must have shape (n, m) = ({spec.n}, {spec.m}), "
                         f"got {counts.s.shape}")


def _lanes(kernel: _Kernel, rngs, x0: np.ndarray, steps: int, rows) -> np.ndarray:
    """(S, len(rows), 2, m, n) int64 counts of S = len(rngs) lanes
    stepped in lockstep from the (2, m, n) counts x0 for ``steps`` steps;
    row r of a lane holds its counts after rows[r] steps (rows ascend
    and end at ``steps``).

    Lane s draws from rngs[s] alone, in the order of a single-lane step:
    binomial leavers, one uniform per leaver, binomial flips.  Everything
    else runs once per step for all lanes.  A leaver of cell c searches
    2c + u in ``kernel.keys`` with c its cell within its own lane, and
    the lane's cell offset is added to the integer destination, so its
    routing does not depend on the lane.
    """
    lanes, cells = len(rngs), x0.size
    p_leave, keys, dest_of, beta, h = (kernel.p_leave, kernel.keys, kernel.dest,
                                       kernel.beta, kernel.h)
    series = np.empty((lanes, len(rows), *x0.shape), dtype=np.int64)
    x = np.empty((lanes, *x0.shape), dtype=np.int64)
    x[:] = x0
    nxt, leavers, flips = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    by_lane = leavers.reshape(lanes, cells)
    offsets = np.tile(kernel.offsets, lanes)
    lane_base = cells * np.arange(lanes)
    p_flip = np.empty((lanes, 2, 1, x0.shape[-1]))  # broadcast over classes
    p_flip[:, 1] = kernel.recover
    p_infect = p_flip[:, 0, 0]
    wanted, row = np.asarray(rows).tolist(), 0
    for k in range(steps + 1):
        if k:
            # Mobility: binomial leavers, each routed by one uniform draw.
            # Empty cells draw no leavers, so empty nodes are safe.  A
            # single lane needs neither the split nor the cell offsets.
            for s, rng in enumerate(rngs):
                leavers[s] = rng.binomial(x[s], p_leave)
            search = np.repeat(offsets, by_lane.ravel())
            counts = by_lane.sum(axis=1).tolist() if lanes > 1 else [search.size]
            lo = 0
            for rng, count in zip(rngs, counts):
                search[lo:lo + count] += rng.random(count)
                lo += count
            dest = dest_of[np.searchsorted(keys, search)]
            if lanes > 1:
                dest += np.repeat(lane_base, counts)
            np.subtract(x, leavers, out=nxt)
            nxt += np.bincount(dest, minlength=x.size).reshape(x.shape)

            # Epidemics at the post-move populations: row 0 draws
            # infections among the susceptible, row 1 recoveries among the
            # infected. An empty node has no infected, so its pbar is 0 / 1.
            by_node = nxt.sum(axis=2)
            pbar = by_node[:, 1] / np.maximum(by_node[:, 0] + by_node[:, 1], 1)
            np.multiply(beta * pbar, h, out=p_infect)
            for s, rng in enumerate(rngs):
                flips[s] = rng.binomial(nxt[s], p_flip[s])
            nxt -= flips  # infections leave row 0, recoveries row 1,
            nxt += flips[:, ::-1]  # and each joins the other row
            x, nxt = nxt, x
        if k == wanted[row]:
            series[:, row] = x
            row += 1
    return series


def step(spec: ModelSpec, counts: AgentCounts, h: float,
         rng: np.random.Generator) -> AgentCounts:
    """One mobility-then-epidemics update of the counts."""
    _check_step_size(spec, h)
    _check_counts(spec, counts)
    out = _lanes(_Kernel(spec, h), [rng], np.stack((counts.s.T, counts.i.T)), 1, [1])[0, 0]
    return AgentCounts(s=out[0].T, i=out[1].T)


def simulate_seeds(spec: ModelSpec, initial: AgentCounts, t_end: float,
                   h: float = DEFAULT_H, seeds: Sequence[int] = (0,),
                   record_every: int = 1) -> list[StochasticRun]:
    """One run per seed of ``step_count(t_end, h)`` steps from the
    initial counts, so each ends exactly at t_end, all stepped in
    lockstep.  Each run records the initial step, every
    ``record_every``-th and the final one (``recorded_rows``), and has
    the bits of the same seed run alone: ``np.random.default_rng(seed)``
    makes the same draws in the same order."""
    if h <= 0:
        raise StepSizeError(f"simulate needs h > 0, got {h}")
    _check_step_size(spec, h)
    _check_counts(spec, initial)
    steps = step_count(t_end, h)
    rows = recorded_rows(steps, record_every)
    series = _lanes(_Kernel(spec, h), [np.random.default_rng(s) for s in seeds],
                    np.stack((initial.s.T, initial.i.T)), steps, rows)
    t = h * rows
    runs = []
    for seed, lane in zip(seeds, series):
        counts = lane.transpose(1, 0, 3, 2)
        runs.append(StochasticRun(seed=seed, h=h, t=t, s=counts[0], i=counts[1]))
    return runs


def simulate(spec: ModelSpec, initial: AgentCounts, t_end: float,
             h: float = DEFAULT_H, seed: int = 0, record_every: int = 1) -> StochasticRun:
    """``simulate_seeds`` with the one seed."""
    return simulate_seeds(spec, initial, t_end, h, [seed], record_every)[0]


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
    stat = network_stationary(spec.net)
    x = np.zeros((spec.n, spec.m), dtype=np.int64)
    for a in range(spec.m):
        x[:, a] = _largest_remainder(stat.v_per_layer[a], int(round(spec.net.N[a])))
    return x


def seed_infections(populations: np.ndarray, p0: np.ndarray | float) -> AgentCounts:
    """Initial counts with infections allocated to match the target
    fractions p0 (a number or nm values, layer-major) in the (n, m)
    populations as closely as integers allow (per class)."""
    populations = np.asarray(populations, dtype=np.int64)
    n, m = populations.shape
    p = np.broadcast_to(np.asarray(p0, dtype=float).ravel(), (n * m,)).reshape(m, n).T
    if np.any(np.isnan(p)):
        raise ValueError("initial fractions p0 must be numbers, got NaN")
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


def write_stochastic_csv(run: StochasticRun, path):
    """CSV of every row of the run: the deterministic trajectory columns
    (fractions and populations) plus the raw integer counts."""
    rows, n, m = run.s.shape
    sus, inf = run.s.transpose(0, 2, 1), run.i.transpose(0, 2, 1)  # (rows, m, n)
    fractions = _fractions(sus, inf).reshape(rows, m * n)
    counts = np.concatenate([sus + inf, sus, inf], axis=1).reshape(rows, 3 * m * n)
    write_csv(path, n, m, ("p", "x", "s", "i"), run.t, [fractions, counts])
