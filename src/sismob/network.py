"""Multi-layer mobility networks.

Each population class moves between patches according to its own
continuous-time Markov chain.  A layer stores the patch digraph together
with the CTMC generator matrix Q: nonnegative off-diagonal rates, zero
row sums, and q_ij > 0 exactly on the declared edges.  All analysis
downstream requires every layer digraph to be strongly connected
(irreducible Q), which guarantees a unique positive stationary
distribution per layer.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import graphs
from .errors import MalformedGeneratorError, NotStronglyConnectedError

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-12
_OUTSIDE = "edge ({i},{j}) names a node outside 0..{last}"


def _frozen_array(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _edge_array(n: int, edges) -> np.ndarray:
    """Read-only (E, 2) int64 copy of (i, j) pairs; ``ValueError`` names
    the first pair, in input order, with a node outside 0..n-1."""
    edges = _frozen_array(edges, dtype=np.int64).reshape(len(edges), 2)
    outside = ((edges < 0) | (edges >= n)).any(axis=1)
    if outside.any():
        i, j = edges[np.argmax(outside)].tolist()
        raise ValueError(_OUTSIDE.format(i=i, j=j, last=n - 1))
    return edges


@dataclass(frozen=True, eq=False)
class MobilityLayer:
    """One class's patch digraph plus its CTMC generator.

    Parameters
    ----------
    n : int
        Patch count.
    edges : (E, 2) int array or sequence of (i, j) pairs
        Directed edges, nodes in 0..n-1; kept as a read-only int64 array.
    Q : (n, n) array
        Instantaneous transition rates (1/time); row i, column j holds
        the rate from patch i to patch j, and the diagonal holds minus
        the total exit rate.
    """

    n: int
    edges: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        Q = _frozen_array(self.Q)
        if Q.shape != (self.n, self.n):
            raise ValueError(f"Q must be {self.n}x{self.n}, got shape {Q.shape}")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "edges", _edge_array(self.n, self.edges))

    @cached_property
    def stationary(self) -> np.ndarray:
        """Read-only certified stationary law, computed once per layer by
        ``stationary_distribution`` (which raises as it does)."""
        v = stationary_distribution(self)
        v.setflags(write=False)
        return v


@dataclass(frozen=True, eq=False)
class MultiLayerNetwork:
    """Stack of mobility layers over a shared patch set.

    ``N[a]`` is the total number of individuals in class ``a``.
    """

    layers: tuple
    N: np.ndarray

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        n = layers[0].n
        for k, layer in enumerate(layers):
            if layer.n != n:
                raise ValueError(f"layer {k} has n={layer.n}, expected n={n}")
        N = _frozen_array(self.N)
        if N.shape != (len(layers),):
            raise ValueError(f"N must have one entry per layer, got shape {N.shape}")
        if np.any(N <= 0):
            raise ValueError("class populations N must be positive")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "N", N)

    @property
    def n(self) -> int:
        return self.layers[0].n

    @property
    def m(self) -> int:
        return len(self.layers)

    @property
    def nm(self) -> int:
        return self.n * self.m

    @cached_property
    def Q(self) -> np.ndarray:
        """Read-only (m, n, n) stack of the layers' generators, built once
        per network; the models and the analysis all read this one copy."""
        return _frozen_array([layer.Q for layer in self.layers])

    @cached_property
    def moves(self) -> tuple:
        """Read-only (m, n, n) positive off-diagonal rates of every Q^a, the
        ones a stochastic step moves individuals with, and their row-wise
        cumulative sums, whose last column is the leave rate nu^a_i."""
        rates = np.where((self.Q > 0) & ~np.eye(self.n, dtype=bool), self.Q, 0.0)
        return _frozen_array(rates), _frozen_array(np.cumsum(rates, axis=2))

    @cached_property
    def stationary(self) -> StationaryDistribution:
        """Per-layer laws and stacked populations, computed once per
        network from the layers' certified laws."""
        per_layer = tuple(layer.stationary for layer in self.layers)
        v = np.concatenate([self.N[a] * per_layer[a] for a in range(self.m)])
        return StationaryDistribution(per_layer, _frozen_array(v))

    @cached_property
    def assembled(self):
        """Read-only F*, L* and M, assembled once per network at the
        stationary populations; every spec on this network shares them."""
        from .dynamics import assemble  # dynamics imports this module
        mats = assemble(self, self.stationary.v)
        for matrix in (mats.F, mats.L, mats.M):
            matrix.setflags(write=False)
        return mats


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Per-layer stationary laws and the stacked population vector.

    ``v_per_layer[a]`` is the probability vector of layer ``a``
    (positive, sums to one); ``v`` stacks ``N[a] * v_per_layer[a]``
    layer-major and is measured in individuals.
    """

    v_per_layer: tuple
    v: np.ndarray


@dataclass
class LayerValidationReport:
    ok: bool
    row_sum_error: float
    sign_ok: bool
    strongly_connected: bool
    messages: list = field(default_factory=list)

    def raise_if_invalid(self):
        if self.ok:
            return
        detail = "; ".join(self.messages)
        if not self.strongly_connected:
            raise NotStronglyConnectedError(detail)
        raise MalformedGeneratorError(detail)


def validate_layer(layer: MobilityLayer) -> LayerValidationReport:
    """Check the generator contract and strong connectivity of a layer.

    Entries of Q must be finite, row sums must vanish to within
    ``ROW_SUM_TOL`` (scaled by the largest rate), the sign pattern of Q
    must match the edge set, and the edge digraph must be strongly
    connected.  A failing report is fatal for all downstream analysis.
    """
    Q = layer.Q
    messages = []
    scale = max(1.0, float(np.max(np.abs(Q))) if Q.size else 1.0)

    row_sum_error = float(np.max(np.abs(Q.sum(axis=1)))) if Q.size else 0.0
    if not row_sum_error <= ROW_SUM_TOL * scale:  # a NaN row sum fails too
        messages.append(f"generator rows must sum to zero (max |row sum| = {row_sum_error:.3e})")

    off = ~np.eye(layer.n, dtype=bool)
    declared = np.zeros((layer.n, layer.n), dtype=bool)
    declared[layer.edges[:, 0], layer.edges[:, 1]] = True
    negative = off & (Q < 0)
    bad = ~np.isfinite(Q) | negative | (off & ((Q > 0) != declared))
    sign_ok = not bad.any()
    for i, j in zip(*np.nonzero(bad)):
        if not np.isfinite(Q[i, j]):
            messages.append(f"non-finite rate q[{i},{j}] = {Q[i, j]}")
        elif negative[i, j]:
            messages.append(f"negative off-diagonal rate q[{i},{j}] = {Q[i, j]}")
        else:
            messages.append(f"rate q[{i},{j}] = {Q[i, j]} disagrees with edge set")

    strongly_connected = graphs.is_strongly_connected(layer.n, layer.edges)
    if not strongly_connected:
        messages.append("mobility digraph is not strongly connected")

    ok = not messages
    return LayerValidationReport(ok, row_sum_error, sign_ok, strongly_connected, messages)


def left_null_vector(A: np.ndarray) -> np.ndarray:
    """Solution of w^T A = 0 with 1^T w = 1.

    Precondition: the left null space of A is one-dimensional and the
    rows of A^T other than the last are linearly independent.  Zero row
    sums alone do not ensure that; it holds for an irreducible generator
    or Laplacian, and for (S - lambda I)^T with lambda the Perron root of
    an irreducible Metzler S.

    The last row of A^T is then redundant; it is replaced by the
    normalization row and one dense square system is solved (singular
    when the precondition fails).  Deterministic, no complex
    arithmetic; the caller certifies the result.
    """
    T = A.T.copy()
    T[-1, :] = 1.0
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    return np.linalg.solve(T, b)


def stationary_distribution(layer: MobilityLayer) -> np.ndarray:
    """Stationary probability vector v of a validated layer: the left
    null vector of Q, certified by the residual ||Q^T v||_inf and by
    v >> 0."""
    validate_layer(layer).raise_if_invalid()
    v = left_null_vector(layer.Q)

    scale = max(1.0, float(np.max(np.abs(layer.Q))))
    residual = float(np.max(np.abs(layer.Q.T @ v)))
    if residual > STATIONARY_RESIDUAL_TOL * scale:
        raise MalformedGeneratorError(
            f"stationary solve residual {residual:.3e} exceeds tolerance; "
            "generator may have multiple null vectors")
    if np.any(v <= 0):  # the layer is irreducible, so its law is positive
        raise ValueError(f"stationary vector has nonpositive entries (smallest {v.min():.3e}, "
                         f"largest {v.max():.3e}): the law spans more orders of magnitude "
                         "than double precision resolves")
    return v


def network_stationary(net: MultiLayerNetwork) -> StationaryDistribution:
    """Stationary laws of all layers plus the stacked population vector."""
    return net.stationary


def layer_from_edge_rates(n: int, triples) -> MobilityLayer:
    """Layer from explicit (i, j, rate) triples, one per directed edge;
    the diagonal is filled in."""
    pairs, rates = [], []
    try:
        for i, j, rate in triples:
            if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool) for k in (i, j)):
                raise ValueError(f"edge ({i!r},{j!r}) needs integer node indices")
            if not isinstance(rate, numbers.Real) or isinstance(rate, bool):
                raise ValueError(f"edge ({i!r},{j!r}) needs a real-number rate, got {rate!r}")
            try:
                rates.append(float(rate))
            except OverflowError:  # an integer past the float range fails as infinite
                rates.append(np.inf if rate > 0 else -np.inf)
            pairs.append((int(i), int(j)))
    except (TypeError, ValueError):
        _checked_layer(n, pairs, rates)  # a fault in an earlier triple is named first
        raise
    return _checked_layer(n, pairs, rates)


def _checked_layer(n: int, edges, rates) -> MobilityLayer:
    """Layer with rate ``rates[k]`` on edge ``edges[k]``.  ``ValueError``
    names the first edge, in input order, with (checked in this order) a
    node outside 0..n-1, a self-loop, a rate not in (0, inf), or a repeat."""
    try:
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an index past int64 fails the range check all the same
        edges = np.array(edges, dtype=object)
    rates = np.asarray(rates, dtype=float)
    src, dst = edges[:, 0], edges[:, 1]
    repeat = np.ones(len(edges), dtype=bool)
    repeat[np.unique(src * n + dst, return_index=True)[1]] = False
    checks = (
        (((edges < 0) | (edges >= n)).any(axis=1), _OUTSIDE),
        (src == dst, "self-loop rate on node {i} is not allowed"),
        (~((rates > 0) & (rates < np.inf)), "edge ({i},{j}) needs a positive finite rate, got {rate}"),
        (repeat, "duplicate rate for edge ({i},{j})"),
    )
    failing = np.array([mask for mask, _ in checks], dtype=bool)
    if failing.any():
        k = int(np.argmax(failing.any(axis=0)))
        message = checks[int(np.argmax(failing[:, k]))][1]
        i, j = edges[k].tolist()
        raise ValueError(message.format(i=i, j=j, rate=float(rates[k]), last=n - 1))
    Q = np.zeros((n, n))
    Q[src, dst] = rates
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return MobilityLayer(n=n, edges=edges, Q=Q)


def equal_exit_layer(n: int, edges, rate_scale: float) -> MobilityLayer:
    """Layer whose rates split each node's exit rate equally over its
    out-neighbors: q_ij = rate_scale / outdeg(i)."""
    if rate_scale <= 0:
        raise ValueError(f"rate_scale must be positive, got {rate_scale}")
    edges = _edge_array(n, edges)
    if n == 1:
        return MobilityLayer(n=1, edges=(), Q=np.zeros((1, 1)))
    deg = graphs.out_degrees(n, edges)
    if np.any(deg == 0):
        raise NotStronglyConnectedError(f"node {int(np.argmax(deg == 0))} has no outgoing edges")
    return _checked_layer(n, edges, rate_scale / deg[edges[:, 0]])


def preset_layer(name: str, n: int, rate_scale: float, rates: str = "equal_exit") -> MobilityLayer:
    """Named preset graph turned into a layer.

    ``rates="equal_exit"`` splits a common exit rate over each node's
    neighbors; ``rates="mh_uniform"`` uses Metropolis-Hastings rates for
    a uniform stationary law (symmetric Q on any graph).
    """
    edges = graphs.preset_edges(name, n)
    if rates == "equal_exit":
        return equal_exit_layer(n, edges, rate_scale)
    if rates == "mh_uniform":
        return metropolis_hastings_rates(n, edges, np.full(n, 1.0 / n), rate_scale)
    raise ValueError(f"unknown rate convention {rates!r}")


def metropolis_hastings_rates(n: int, edges, target: np.ndarray,
                              rate_scale: float) -> MobilityLayer:
    """Layer whose CTMC has the prescribed stationary distribution.

    The graph is treated as undirected (edges are symmetrized).  With a
    uniform proposal over the ``d_i`` neighbors of node i, the accepted
    rate along edge (i, j) is::

        q_ij = rate_scale * (1 / d_i) * min(1, target_j * d_i / (target_i * d_j))

    which satisfies detailed balance with ``target``.  For a uniform
    target this reduces to q_ij = rate_scale * min(1/d_i, 1/d_j), a
    symmetric matrix.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (n,):
        raise ValueError(f"target must have length {n}, got shape {target.shape}")
    if np.any(target <= 0):
        raise ValueError("target distribution must be strictly positive")
    if np.any(target > 1):  # so the sum below cannot overflow
        raise ValueError("target distribution entries must be at most one")
    if abs(target.sum() - 1.0) > 1e-9:
        raise ValueError("target distribution must sum to one")
    if rate_scale <= 0:
        raise ValueError(f"rate_scale must be positive, got {rate_scale}")

    edges = _edge_array(n, edges)
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    und = np.argwhere((adj | adj.T) & ~np.eye(n, dtype=bool))  # row-major, i.e. sorted
    if not graphs.is_strongly_connected(n, und):
        raise NotStronglyConnectedError("graph must be connected to target a stationary law")

    deg = graphs.out_degrees(n, und)
    i, j = und[:, 0], und[:, 1]
    accept = np.minimum(1.0, (target[j] * deg[i]) / (target[i] * deg[j]))
    return _checked_layer(n, und, rate_scale * accept / deg[i])
