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

One routine, ``_lanes``, steps every run: it checks the step width and
the counts' shape once, builds the routing table, and steps S lanes in
lockstep as one (S, 2, m, n) int64 array (lane, compartment, class,
node).  ``step`` is one step of one lane and ``simulate_seeds`` one lane
per seed; a single lane takes the same path as many.  Each lane keeps
its own generator and makes three calls per step, whatever m is: one
binomial for every leaver count, one uniform per leaver for its
destination, and one binomial for every infection and recovery count.
The routing, moves and flips run once for all lanes, so each run has
the bits it has alone.  The public (n, m) ``AgentCounts`` form is kept
at the edges.  Per-class totals are conserved exactly at every step,
and a recorded row that breaks it raises ``IntegrationError``.
Runs are bit-reproducible: the same seed and spec always produce the
same sample path (PCG64 generator, one fixed draw order per step), and
keep only their recorded steps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec, recorded_rows, step_count, write_csv
from .errors import IntegrationError, StepSizeError

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


def _check_step_size(h: float, max_nu: float, beta, delta):
    """Refuse an h whose step probabilities reach 1: h times the largest
    exit rate ``max_nu``, infection rate or recovery rate, in that order."""
    if h < 0:
        raise StepSizeError(f"h must be nonnegative, got {h}")
    for name, worst in (("exit rate", max_nu),
                        ("infection rate", float(np.max(beta))),
                        ("recovery rate", float(np.max(delta)))):
        if h * worst >= 1.0:
            raise StepSizeError(
                f"h = {h} times the largest {name} {worst} is not a valid probability")


def _lanes(spec: ModelSpec, counts: AgentCounts, h: float, rngs,
           t_end: float | None = None, record_every: int = 1):
    """Step S = len(rngs) lanes in lockstep from the (n, m) counts: one
    step of h when t_end is None (h may then be 0), else
    ``step_count(t_end, h)`` steps.  Checks h, then the counts' shape,
    then t_end, before any draw.  Returns the recorded steps
    ``recorded_rows(steps, record_every)`` and an (S, 2, rows, n, m)
    view: each lane's susceptible and infected counts at those steps.

    Lane s draws from rngs[s] alone.  Cell c = (compartment * m + a) *
    n + i of a lane routes its leavers through its own block of
    ``keys``: the cumulative routing weights q^a_ij / nu^a_i over the
    positive off-diagonal entries of row i of Q^a, shifted into
    (2c, 2c + 1] with the block's last entry exactly 2c + 1.  A leaver
    with uniform u in [0, 1) searches 2c + u on the left, so it lands in
    its own block even where 2c + u rounds to 2c + 1; the gap up to the
    next block leaves no shared boundary.  The lane's cell offset (0 for
    the first lane) is added to the integer destination, so routing does
    not depend on the lane.
    """
    rates, cumulative = spec.net.moves
    nu = cumulative[:, :, -1]
    _check_step_size(h, float(nu.max()), spec.beta, spec.delta)
    n, m = spec.n, spec.m
    if counts.s.shape != (n, m):
        raise ValueError(f"counts must have shape (n, m) = ({n}, {m}), got {counts.s.shape}")
    steps = 1 if t_end is None else step_count(t_end, h)
    rows = recorded_rows(steps, record_every)

    # Row-major nonzeros come grouped by origin (a, i), destinations
    # ascending; x / x == 1 exactly, so each block ends at 2c + 1.
    a, i, j = np.nonzero(rates)
    within = cumulative[a, i, j] / nu[a, i]
    cell, dest = a * n + i, a * n + j
    keys = np.concatenate([2.0 * (cell + k * m * n) + within for k in (0, 1)])
    dest_of = np.concatenate([dest, dest + m * n])  # lane cell per key
    p_leave = h * nu

    rngs = list(rngs)  # simulate_seeds makes its generators after the checks
    lanes, cells = len(rngs), 2 * m * n
    series = np.empty((lanes, len(rows), 2, m, n), dtype=np.int64)
    series[:, 0] = (counts.s.T, counts.i.T)
    x = series[:, 0].copy()
    nxt, leavers, flips = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    by_lane = leavers.reshape(lanes, cells)
    offsets = np.tile(2.0 * np.arange(cells), lanes)  # 2c per cell
    lane_base = cells * np.arange(lanes)
    p_flip = np.empty((lanes, 2, 1, n))  # broadcast over classes
    p_flip[:, 1] = h * spec.delta
    p_infect = p_flip[:, 0, 0]
    wanted, row = rows.tolist(), 1
    for k in range(1, steps + 1):
        # Mobility: binomial leavers, each routed by one uniform draw.
        # Empty cells draw no leavers, so empty nodes are safe.
        for s, rng in enumerate(rngs):
            leavers[s] = rng.binomial(x[s], p_leave)
        search = np.repeat(offsets, by_lane.ravel())
        drawn = by_lane.sum(axis=1).tolist()  # leavers per lane
        lo = 0
        for rng, size in zip(rngs, drawn):
            search[lo:lo + size] += rng.random(size)
            lo += size
        dest = dest_of[np.searchsorted(keys, search)]
        dest += np.repeat(lane_base, drawn)
        np.subtract(x, leavers, out=nxt)
        nxt += np.bincount(dest, minlength=x.size).reshape(x.shape)

        # Epidemics at the post-move populations: row 0 draws infections
        # among the susceptible, row 1 recoveries among the infected, with
        # infection p = (beta * pbar) * h.  An empty node has no infected,
        # so its pbar is 0 / 1.
        by_node = nxt.sum(axis=2)
        pbar = by_node[:, 1] / np.maximum(by_node[:, 0] + by_node[:, 1], 1)
        np.multiply(spec.beta * pbar, h, out=p_infect)
        for s, rng in enumerate(rngs):
            flips[s] = rng.binomial(nxt[s], p_flip[s])
        nxt -= flips  # infections leave row 0, recoveries row 1,
        nxt += flips[:, ::-1]  # and each joins the other row
        x, nxt = nxt, x
        if k == wanted[row]:
            series[:, row] = x
            row += 1
    totals = series.sum(axis=(2, 4))  # (lanes, rows, m) class totals
    for s, r, a in np.argwhere(totals != totals[:, :1])[:1]:
        raise IntegrationError(f"lane {s} class {a} total {totals[s, r, a]} at step "
                               f"{rows[r]} is not its initial {totals[s, 0, a]}")
    return rows, series.transpose(0, 2, 1, 4, 3)


def step(spec: ModelSpec, counts: AgentCounts, h: float,
         rng: np.random.Generator) -> AgentCounts:
    """One mobility-then-epidemics update of the counts."""
    _, (lane,) = _lanes(spec, counts, h, [rng])
    return AgentCounts(s=lane[0, -1], i=lane[1, -1])


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
    rows, lanes = _lanes(spec, initial, h, (np.random.default_rng(s) for s in seeds),
                         t_end, record_every)
    t = h * rows
    return [StochasticRun(seed=seed, h=h, t=t, s=s, i=i) for seed, (s, i) in zip(seeds, lanes)]


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
    stat = spec.net.stationary
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
        infected[:, a] = np.minimum(_largest_remainder(expected, total), populations[:, a])
    return AgentCounts(s=populations - infected, i=infected)


def write_stochastic_csv(run: StochasticRun, path):
    """CSV of every row of the run: the deterministic trajectory columns
    (fractions and populations) plus the raw integer counts."""
    rows, n, m = run.s.shape
    sus, inf = run.s.transpose(0, 2, 1), run.i.transpose(0, 2, 1)  # (rows, m, n)
    fractions = _fractions(sus, inf).reshape(rows, m * n)
    counts = np.concatenate([sus + inf, sus, inf], axis=1).reshape(rows, 3 * m * n)
    write_csv(path, n, m, ("p", "x", "s", "i"), run.t, [fractions, counts])
