"""Small-graph helpers shared by the network and spectral modules.

An edge set is an (E, 2) int array of directed (i, j) pairs, 0-indexed;
presets hold both orientations of every undirected edge.  One boolean
reachability routine answers every connectivity question.
"""

from __future__ import annotations

import numpy as np

PRESET_NAMES = ("complete", "line", "ring", "star")


def preset_edges(name: str, n: int) -> np.ndarray:
    """Directed edges of a named undirected preset graph, (E, 2) int64.

    ``star`` has its hub at node 0.  ``ring`` is the undirected cycle;
    for n <= 2 it degenerates to the line graph.  Each undirected pair
    gives (i, j) then (j, i); ``complete`` lists its edges row-major.
    """
    if n < 1:
        raise ValueError(f"preset graph needs n >= 1, got n={n}")
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown graph preset {name!r}, expected one of {PRESET_NAMES}")
    if name == "complete":
        return np.argwhere(~np.eye(n, dtype=bool))
    k = np.arange(n if name == "ring" and n > 2 else n - 1)
    pairs = np.column_stack([np.zeros_like(k) if name == "star" else k, (k + 1) % n])
    return np.stack([pairs, pairs[:, ::-1]], axis=1).reshape(-1, 2)


def out_degrees(n: int, edges) -> np.ndarray:
    return np.bincount(np.asarray(edges, dtype=np.int64).reshape(-1, 2)[:, 0], minlength=n)


def _reachability(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean adjacency matrix; k
    squarings of the one-step reach cover every path of up to 2**k edges."""
    reach = (adj | np.eye(len(adj), dtype=bool)).astype(float)
    for _ in range((len(adj) - 1).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return reach > 0


def is_strongly_connected(n: int, edges) -> bool:
    """Whether every node reaches every other along the directed edges."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    return bool(_reachability(adj).all())


def edges_of_matrix(A: np.ndarray, tol: float = 0.0) -> list[tuple[int, int]]:
    """Directed edges where the off-diagonal magnitude exceeds ``tol``."""
    mask = np.abs(A) > tol
    np.fill_diagonal(mask, False)
    return list(zip(*(idx.tolist() for idx in np.nonzero(mask))))


def strongly_connected_components(A: np.ndarray) -> list[list[int]]:
    """SCC partition of a matrix sparsity pattern, in node order."""
    reach = _reachability(A != 0.0)
    # the smallest node each node reaches and is reached from names its component
    root = np.argmax(reach & reach.T, axis=1)
    return [np.flatnonzero(root == r).tolist() for r in np.unique(root)]
