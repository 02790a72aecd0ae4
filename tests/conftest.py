"""Shared instance generators and invariant helpers."""

from pathlib import Path

import numpy as np
import pytest

import sismob as sm

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
# CI's document whose run the integrator stops (exit 1)
LOGISTIC = {"name": "logistic", "n": 1, "m": 1, "layers": [{"edges": []}], "beta": 1,
            "delta": 0, "N": [1000], "p0": 0.9, "t_end": 5, "dt": 5}


def random_layer(rng: np.random.Generator, n: int) -> sm.MobilityLayer:
    """Strongly connected random layer: a random Hamiltonian cycle plus
    extra random directed edges, rates U(0.05, 0.5)."""
    perm = rng.permutation(n)
    edges = {(int(perm[k]), int(perm[(k + 1) % n])) for k in range(n)} if n > 1 else set()
    for _ in range(rng.integers(0, 2 * n + 1)):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((int(i), int(j)))
    triples = [(i, j, float(rng.uniform(0.05, 0.5))) for i, j in sorted(edges)]
    if n == 1:
        return sm.MobilityLayer(n=1, edges=(), Q=np.zeros((1, 1)))
    return sm.layer_from_edge_rates(n, triples)


def random_spec(rng: np.random.Generator, n_max: int = 8, m_max: int = 3,
                n: int | None = None, m: int | None = None,
                allow_zero_delta_entries: bool = True) -> sm.ModelSpec:
    """Random valid model instance with at least one positive recovery rate."""
    if n is None:
        n = int(rng.integers(2, n_max + 1))
    if m is None:
        m = int(rng.integers(1, m_max + 1))
    layers = tuple(random_layer(rng, n) for _ in range(m))
    net = sm.MultiLayerNetwork(layers=layers, N=rng.uniform(50.0, 500.0, size=m))
    beta = rng.uniform(0.05, 0.5, size=n)
    delta = rng.uniform(0.01, 0.5, size=n)
    if allow_zero_delta_entries and n > 1 and rng.random() < 0.3:
        kill = rng.integers(0, n, size=max(1, n // 3))
        delta[kill] = 0.0
        if not np.any(delta > 0):
            delta[0] = float(rng.uniform(0.01, 0.5))
    return sm.ModelSpec(net=net, beta=beta, delta=delta)


def infection_matrix(spec: sm.ModelSpec) -> np.ndarray:
    """Block-diagonal infection-rate matrix B (nm x nm)."""
    return np.diag(np.tile(spec.beta, spec.m))


def recovery_matrix(spec: sm.ModelSpec) -> np.ndarray:
    """Block-diagonal recovery-rate matrix D (nm x nm)."""
    return np.diag(np.tile(spec.delta, spec.m))


def assert_trajectory_invariants(spec: sm.ModelSpec, traj: sm.Trajectory):
    """Conservation and box invariance along a deterministic trajectory."""
    assert np.all(traj.p >= 0.0) and np.all(traj.p <= 1.0)
    n = spec.n
    for a in range(spec.m):
        totals = traj.x[:, a * n:(a + 1) * n].sum(axis=1)
        drift = np.max(np.abs(totals - totals[0]))
        assert drift <= 1e-9 * totals[0], f"class {a} population drift {drift}"


@pytest.fixture
def two_node_spec() -> sm.ModelSpec:
    """Symmetric 2-node single-layer benchmark (mu ~ 0.1109)."""
    layer = sm.layer_from_edge_rates(2, [(0, 1, 0.2), (1, 0, 0.2)])
    net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
    return sm.ModelSpec(net=net, beta=np.array([0.3, 0.2]), delta=np.array([0.1, 0.25]))


@pytest.fixture
def scalar_spec() -> sm.ModelSpec:
    layer = sm.MobilityLayer(n=1, edges=(), Q=np.zeros((1, 1)))
    net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([1000.0]))
    return sm.ModelSpec(net=net, beta=np.array([0.3]), delta=np.array([0.1]))


def resolved(scenario: sm.Scenario) -> dict:
    """The reference listing of a parsed scenario, as its manifest's
    ``scenario`` object: every explicit input plus each layer's
    ``{"edges": [[i, j, rate], ...]}`` rows in edge order."""
    return {**scenario.explicit, "layers": [
        {"edges": [[i, j, rate] for (i, j), rate in
                   zip(layer.edges.tolist(), layer.Q[tuple(layer.edges.T)].tolist())]}
        for layer in scenario.spec.net.layers]}
