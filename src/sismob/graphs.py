"""Small-graph helpers shared by the network and spectral modules.

Edges are directed (i, j) pairs with 0-indexed nodes.  Preset graphs are
undirected: both orientations of every edge are present.
"""

from __future__ import annotations

import numpy as np

PRESET_NAMES = ("complete", "line", "ring", "star")


def preset_edges(name: str, n: int) -> list[tuple[int, int]]:
    """Directed edge list of a named undirected preset graph.

    ``star`` has its hub at node 0.  ``ring`` is the undirected cycle;
    for n <= 2 it degenerates to the line graph.
    """
    if n < 1:
        raise ValueError(f"preset graph needs n >= 1, got n={n}")
    if name == "complete":
        return [(i, j) for i in range(n) for j in range(n) if i != j]
    if name == "line":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif name == "ring":
        if n <= 2:
            pairs = [(i, i + 1) for i in range(n - 1)]
        else:
            pairs = [(i, (i + 1) % n) for i in range(n)]
    elif name == "star":
        pairs = [(0, i) for i in range(1, n)]
    else:
        raise ValueError(f"unknown graph preset {name!r}, expected one of {PRESET_NAMES}")
    return [e for i, j in pairs for e in ((i, j), (j, i))]


def out_degrees(n: int, edges) -> np.ndarray:
    deg = np.zeros(n, dtype=int)
    for i, _ in edges:
        deg[i] += 1
    return deg


def is_strongly_connected(n: int, edges) -> bool:
    """Reachability sweep from node 0 on the edge digraph and its reverse."""
    if n == 1:
        return True
    fwd: list[list[int]] = [[] for _ in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        fwd[i].append(j)
        rev[j].append(i)
    return _reaches_all(fwd) and _reaches_all(rev)


def _reaches_all(adj: list[list[int]]) -> bool:
    seen = [False] * len(adj)
    seen[0] = True
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return all(seen)


def edges_of_matrix(A: np.ndarray, tol: float = 0.0) -> list[tuple[int, int]]:
    """Directed edges where the off-diagonal magnitude exceeds ``tol``."""
    mask = np.abs(A) > tol
    np.fill_diagonal(mask, False)
    return list(zip(*(idx.tolist() for idx in np.nonzero(mask))))


def strongly_connected_components(A: np.ndarray) -> list[list[int]]:
    """SCC partition of a matrix sparsity pattern, in node order.

    Sizes here are tiny, so this uses the quadratic closure construction
    rather than Tarjan's algorithm.
    """
    n = A.shape[0]
    mask = A != 0.0
    np.fill_diagonal(mask, False)
    adj = [np.flatnonzero(row).tolist() for row in mask]
    reach = np.eye(n, dtype=bool)
    for i in range(n):
        stack = [i]
        while stack:
            for j in adj[stack.pop()]:
                if not reach[i, j]:
                    reach[i, j] = True
                    stack.append(j)
    assigned = np.zeros(n, dtype=bool)
    comps = []
    for i in range(n):
        if assigned[i]:
            continue
        comp = np.flatnonzero(reach[i] & reach[:, i])
        assigned[comp] = True
        comps.append(comp.tolist())
    return comps
