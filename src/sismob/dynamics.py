"""Deterministic coupled infection/mobility model.

State is the pair (p, x): infected fractions and class populations,
both stacked layer-major (class a, node i lives at index a*n + i).  The
model couples a node-local SIS interaction, weighted by each class's
share of the node population, with linear population flow driven by the
per-class generators:

    dp/dt = (B F(x) - D - L(x)) p - P B F(x) p
    dx^a/dt = (Q^a)^T x^a

F(x) holds the population shares f^a_i = x^a_i / sum_b x^b_i (so
F(x) 1 = 1), and L(x) is block-diagonal with zero row sums and
off-diagonal entries -q^a_ji x^a_j / x^a_i.  The integrator steps the
infected counts y^a = x^a p^a next to x^a in one array Z of shape
(2, m, n), whose x rows Z[0] and y rows Z[1] are contiguous (m, n)
blocks.  Both rows of a class share its generator, so a derivative is
one stacked product of Z's (m, 2, n) transpose with Q plus a node-local
term (node-level pbar = sum_a y^a / sum_a x^a), each written into
buffers made once per ``integrate`` or ``rhs`` call:

    dx^a/dt = x^a Q^a,  dy^a/dt = y^a Q^a + beta pbar (x^a - y^a) - delta y^a
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .network import MultiLayerNetwork, _frozen_array

CLAMP_TOL = 1e-9
DEFAULT_DT = 0.01
# RK4 is stable on [-2.7853, 0] of the negative real axis and on the disc
# |z + r| <= r of that diameter.  The linear part Q - diag(delta) of a y row
# has its eigenvalues in the discs |z + nu_i + delta_i| <= nu_i (Gershgorin;
# nu_i node i's exit rate), inside |z + R| <= R for R = max(nu + delta / 2),
# so dt * max(2 nu + delta) up to RK4_STABILITY keeps that part stable.
RK4_STABILITY = 2.785
SETTLE_CHUNK = 50.0
STEP_COUNT_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Full problem instance: network, infection and recovery rates.

    ``beta`` and ``delta`` are per-node rates (1/time), shared by all
    classes; beta must be positive, delta nonnegative.
    """

    net: MultiLayerNetwork
    beta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        beta = _frozen_array(self.beta)
        delta = _frozen_array(self.delta)
        n = self.net.n
        if beta.shape != (n,):
            raise ValueError(f"beta must have length n={n}, got shape {beta.shape}")
        if delta.shape != (n,):
            raise ValueError(f"delta must have length n={n}, got shape {delta.shape}")
        if np.any(beta <= 0):
            raise ValueError("infection rates beta must be positive")
        if np.any(delta < 0):
            raise ValueError("recovery rates delta must be nonnegative")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return self.net.n

    @property
    def m(self) -> int:
        return self.net.m

    @property
    def nm(self) -> int:
        return self.net.nm


@dataclass(frozen=True, eq=False)
class SystemState:
    """Infected fractions and class populations at one time instant."""

    t: float
    p: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.p)
        x = _frozen_array(self.x)
        if p.ndim != 1 or p.shape != x.shape:
            raise ValueError(f"p and x must be equal-length vectors, got {p.shape}, {x.shape}")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("infected fractions p must lie in [0, 1]")
        if np.any(x <= 0):
            raise ValueError("class populations x must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "x", x)


@dataclass(frozen=True, eq=False)
class AssembledMatrices:
    """Dense model matrices at a population vector x.

    F (nm x nm) holds the node-share weights, L the block-diagonal flow
    matrix, and M = I - F the Laplacian complement of F.
    """

    F: np.ndarray
    L: np.ndarray
    M: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time series of sampled states with provenance."""

    t: np.ndarray
    p: np.ndarray
    x: np.ndarray
    dt: float = DEFAULT_DT

    def state(self, k: int) -> SystemState:
        return SystemState(t=float(self.t[k]), p=self.p[k], x=self.x[k])


def assemble(spec: ModelSpec, x: np.ndarray) -> AssembledMatrices:
    """Build F(x), L(x) and M = I - F(x)."""
    n, m, nm = spec.n, spec.m, spec.nm
    x = np.asarray(x, dtype=float)
    if x.shape != (nm,):
        raise ValueError(f"x must have length nm={nm}, got shape {x.shape}")
    if np.any(x <= 0):
        raise ValueError("assemble needs x >> 0 (L(x) is undefined otherwise)")

    X = x.reshape(m, n)
    shares = X / X.sum(axis=0)  # f^a_i, columns sum to one

    F = np.tile(np.eye(n), (m, m)) * shares.ravel()  # block (a, b) = diag(f^b)

    Qt = spec.net.Q.transpose(0, 2, 1)
    W = np.divide(X[:, None, :], X[:, :, None], out=np.zeros((m, n, n)), where=Qt > 0)
    W *= Qt  # W^a_ij = q^a_ji x^a_j / x^a_i on the edges, and no ratio off them
    diag = np.arange(n)
    blocks = 0.0 - W
    blocks[:, diag, diag] = W.sum(axis=2)
    L = np.zeros((nm, nm))
    L.reshape(m, n, m, n)[np.arange(m), :, np.arange(m), :] = blocks  # block-diagonal

    M = np.eye(nm) - F
    return AssembledMatrices(F=F, L=L, M=M)


def _views(A: np.ndarray):
    """A (2, m, n) array, its (m, 2, n) transpose, its x rows and its y rows."""
    return A, A.transpose(1, 0, 2), A[0], A[1]


def _work(spec: ModelSpec):
    """``_dz``'s Q, beta, delta, node totals (and rows), pbar and two (m, n) rows."""
    totals, rows = np.empty((2, spec.n)), np.empty((2, spec.m, spec.n))
    return (spec.net.Q, spec.beta, spec.delta, totals, *totals, np.empty(spec.n), *rows)


def _dz(work, src, out):
    """Write the derivative of the state ``src`` into ``out`` (both
    ``_views``), each ufunc's output positional: ``out=`` is slower."""
    Q, beta, delta, totals, tx, ty, pbar, u, v = work
    Z, Zt, X, Y = src
    np.matmul(Zt, Q, out[1])  # per class, (2, n) rows of leading dimension m n
    np.add.reduce(Z, 1, None, totals)
    np.divide(ty, tx, pbar)
    np.multiply(beta, pbar, pbar)
    np.subtract(X, Y, u)
    np.multiply(pbar, u, u)
    np.multiply(delta, Y, v)
    np.subtract(u, v, u)
    np.add(out[3], u, out[3])  # dy += beta pbar (x - y) - delta y


def _pack(spec: ModelSpec, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (2, m, n) state Z = (x^a, y^a = x^a p^a) of layer-major p and x."""
    X = np.asarray(x, dtype=float).reshape(spec.m, spec.n)
    return np.stack((X, X * np.asarray(p, dtype=float).reshape(X.shape)))


def rhs(spec: ModelSpec, state: SystemState):
    """Time derivative (dp, dx) of the coupled model at a state, from
    dz via dp = (dy - p dx) / x."""
    Z = _pack(spec, state.p, state.x)
    dX, dY = dZ = np.empty_like(Z)
    _dz(_work(spec), _views(Z), _views(dZ))
    return ((dY - np.reshape(state.p, dX.shape) * dX) / Z[0]).ravel(), dX.ravel()


def step_count(t_end: float, step: float) -> int:
    """Number of fixed steps of width ``step`` that end exactly at
    ``t_end``.

    Raises ValueError unless t_end is a nonnegative whole number of
    steps, to within STEP_COUNT_RTOL relative to t_end, and that number
    is finite as a float.
    """
    quotient = float(t_end) / float(step) if np.isfinite(t_end) and t_end >= 0 else -1.0
    if not math.isfinite(quotient):
        raise ValueError(f"t_end = {t_end} over steps of {step} is not a finite step count")
    steps = int(round(quotient))
    if steps < 0 or abs(steps * step - t_end) > STEP_COUNT_RTOL * t_end:
        raise ValueError(f"t_end = {t_end} is not a nonnegative whole number of steps of {step}")
    return steps


def recorded_rows(steps: int, every: int) -> np.ndarray:
    """Steps a ``steps``-step run records: the initial one, every
    ``every``-th and the final one, ascending."""
    if every < 1:
        raise ValueError("record_every must be >= 1")
    rows = np.arange(0, steps + 1, every)
    return rows if rows[-1] == steps else np.append(rows, steps)


def integrate(spec: ModelSpec, initial: SystemState, t_end: float,
              dt: float = DEFAULT_DT, record_every: int = 1) -> Trajectory:
    """Fixed-step classical RK4 on the (x, y) state of the module
    docstring, sampled as (p = y / x, x).  While x stays constant (as
    from stationary populations) this is RK4 on (p, x) up to rounding;
    otherwise the two differ by O(dt^4).

    The run takes ``step_count(t_end, dt)`` steps, so it ends exactly
    at t_end, and keeps the steps of ``recorded_rows(steps,
    record_every)`` (the initial state as given).  x must stay
    positive.  When p leaves [0, 1] by at most ``CLAMP_TOL``, y is
    clamped into [0, x] in place and the clamped state continues; a
    larger excursion raises :class:`IntegrationError` since the
    continuous flow is invariant and only discretization error should
    ever leave the box.  After the steps (so their errors come first),
    a class total of a recorded row off its initial one by more than
    1e-9 of it raises :class:`IntegrationError` naming the class and t.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = step_count(t_end, dt)
    rows = recorded_rows(steps, record_every)

    Z = _pack(spec, initial.p, initial.x)
    S, K = np.empty_like(Z), np.empty((4,) + Z.shape)  # stage input, k1..k4
    work, z, s, twice = _work(spec), _views(Z), _views(S), K[1:3]
    k1, k2, k3, k4 = (_views(k) for k in K)
    stages = ((0.5 * dt, K[0], k2), (0.5 * dt, K[1], k3), (dt, K[2], k4))
    X, Y, P, sixth = z[2], z[3], np.empty(z[2].shape), dt / 6.0
    ps, xs = np.empty((len(rows), X.size)), np.empty((len(rows), X.size))
    ps[0], xs[0] = initial.p, initial.x
    wanted, row = rows.tolist(), 1

    for k in range(1, steps + 1):
        _dz(work, z, k1)
        for c, k_in, k_out in stages:  # S = Z + c k_in
            np.multiply(c, k_in, S)
            np.add(Z, S, S)
            _dz(work, s, k_out)
        np.multiply(2.0, twice, twice)
        np.add.reduce(K, 0, None, S)  # ((k1 + 2 k2) + 2 k3) + k4
        np.multiply(sixth, S, S)
        np.add(Z, S, Z)

        if not float(np.minimum.reduce(X, None)) > 0.0:  # also catches NaN
            raise IntegrationError(
                f"x became nonpositive at t={float(initial.t) + k * dt:.6g}; reduce dt")
        np.divide(Y, X, P)
        overshoot = max(-float(np.minimum.reduce(P, None)),
                        float(np.maximum.reduce(P, None)) - 1.0, 0.0)
        if not overshoot <= CLAMP_TOL:
            raise IntegrationError(f"p left [0,1] by {overshoot:.3e} at "
                                   f"t={float(initial.t) + k * dt:.6g}; reduce dt")
        if overshoot > 0.0:
            np.clip(Y, 0.0, X, out=Y)
            np.clip(P, 0.0, 1.0, out=P)

        if k == wanted[row]:
            ps[row], xs[row] = P.ravel(), X.ravel()
            row += 1

    t, totals = float(initial.t) + dt * rows, xs.reshape(len(rows), spec.m, -1).sum(axis=2)
    drift = np.abs(totals - totals[0])
    for r, a in np.argwhere(~(drift <= 1e-9 * totals[0]))[:1]:  # also catches NaN
        raise IntegrationError(f"class {a} total drifted by {drift[r, a]:.3e} from "
                               f"{totals[0, a]:.6g} at t={t[r]:.6g}")
    return Trajectory(t=t, p=ps, x=xs, dt=dt)


def integrate_until_settled(spec: ModelSpec, initial: SystemState,
                            dt: float = DEFAULT_DT, t_max: float = 5000.0,
                            settle_tol: float = 1e-9) -> SystemState:
    """Integrate in SETTLE_CHUNK-long chunks until ||dp/dt||_inf and
    ||dx/dt||_inf drop below ``settle_tol``, returning the settled state.

    Raises :class:`IntegrationError` if the horizon ``t_max`` is reached
    before the derivative settles.
    """
    state = initial
    chunk_steps = max(1, int(round(SETTLE_CHUNK / dt)))
    while state.t < t_max:
        steps = min(chunk_steps, int(round((t_max - state.t) / dt)))
        if steps < 1:
            break
        traj = integrate(spec, state, steps * dt, dt=dt, record_every=steps)
        state = traj.state(-1)
        dp, dx = rhs(spec, state)
        if max(np.max(np.abs(dp)), np.max(np.abs(dx))) <= settle_tol:
            return state
    raise IntegrationError(f"state did not settle to {settle_tol} within t={t_max}")


def write_csv(path, n: int, m: int, names, t: np.ndarray, blocks):
    """Write CSV rows of the times t and the (rows, k n m) ``blocks`` side
    by side.  The header is t, then name[a][i] over every class a and node
    i for each of ``names``; times and real blocks are written with 17
    significant digits for exact round trips, integer blocks as integers."""
    cells = [f"[{a}][{i}]" for a in range(m) for i in range(n)]
    formats = ["%.17g"] + ["%d" if block.dtype.kind in "iu" else "%.17g"
                           for block in blocks for _ in range(block.shape[1])]
    template = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["t"] + [name + cell for name in names for cell in cells]) + "\n")
        for time, *parts in zip(t.tolist(), *blocks):
            row = [time]
            for part in parts:
                row += part.tolist()
            fh.write(template % tuple(row))


def write_trajectory_csv(traj: Trajectory, path, n: int, m: int):
    """Write a trajectory as CSV: t, p[a][i]..., x[a][i]..."""
    write_csv(path, n, m, ("p", "x"), traj.t, [traj.p, traj.x])
