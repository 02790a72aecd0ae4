import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sismob as sm
from sismob import graphs

from conftest import random_layer


class TestValidateLayer:
    def test_symmetric_two_node_chain_is_valid(self):
        layer = sm.MobilityLayer(n=2, edges=((0, 1), (1, 0)),
                                 Q=np.array([[-0.2, 0.2], [0.2, -0.2]]))
        assert sm.validate_layer(layer).ok

    def test_absorbing_node_breaks_connectivity(self):
        layer = sm.MobilityLayer(n=2, edges=((0, 1),),
                                 Q=np.array([[-0.2, 0.2], [0.0, 0.0]]))
        report = sm.validate_layer(layer)
        assert not report.ok
        assert not report.strongly_connected
        with pytest.raises(sm.NotStronglyConnectedError):
            report.raise_if_invalid()

    def test_complete_graph_equal_exit_split(self):
        # every node's exit rate nu is split equally over its n-1 neighbors
        n, nu = 7, 0.2
        layer = sm.preset_layer("complete", n, nu)
        assert sm.validate_layer(layer).ok
        off = layer.Q[~np.eye(n, dtype=bool)]
        assert np.allclose(off, nu / (n - 1))
        assert np.allclose(-np.diag(layer.Q), nu)

    def test_nonzero_row_sum_is_malformed(self):
        layer = sm.MobilityLayer(n=2, edges=((0, 1), (1, 0)),
                                 Q=np.array([[-0.1, 0.2], [0.2, -0.2]]))
        report = sm.validate_layer(layer)
        assert not report.ok
        with pytest.raises(sm.MalformedGeneratorError):
            report.raise_if_invalid()

    def test_sign_pattern_must_match_edges(self):
        # positive rate on a pair that is not a declared edge
        layer = sm.MobilityLayer(n=3, edges=((0, 1), (1, 0), (1, 2), (2, 1)),
                                 Q=np.array([[-0.3, 0.2, 0.1],
                                             [0.2, -0.4, 0.2],
                                             [0.0, 0.2, -0.2]]))
        report = sm.validate_layer(layer)
        assert not report.ok and not report.sign_ok

    def test_one_message_per_offending_entry_in_row_major_order(self):
        # undeclared positive rate q[0,2] and negative declared rate q[2,1]
        layer = sm.MobilityLayer(n=3, edges=((0, 1), (1, 0), (1, 2), (2, 1)),
                                 Q=np.array([[-0.3, 0.2, 0.1],
                                             [0.2, -0.4, 0.2],
                                             [0.0, -0.05, 0.05]]))
        report = sm.validate_layer(layer)
        assert not report.ok and not report.sign_ok and report.strongly_connected
        assert report.messages == [
            "rate q[0,2] = 0.1 disagrees with edge set",
            "negative off-diagonal rate q[2,1] = -0.05",
        ]
        with pytest.raises(sm.MalformedGeneratorError):
            report.raise_if_invalid()

    # directed 3-cycle 0 -> 1 -> 2 -> 0; (0,2) and (2,1) are not edges
    @pytest.mark.parametrize("i, j, value", [
        (0, 0, np.nan), (0, 2, np.nan), (1, 1, -np.inf), (0, 1, np.inf), (2, 1, np.inf),
    ])
    def test_non_finite_entry_is_malformed(self, i, j, value):
        Q = np.array([[-0.2, 0.2, 0.0], [0.0, -0.2, 0.2], [0.2, 0.0, -0.2]])
        Q[i, j] = value
        layer = sm.MobilityLayer(n=3, edges=((0, 1), (1, 2), (2, 0)), Q=Q)
        report = sm.validate_layer(layer)
        assert not report.ok and report.strongly_connected
        assert f"non-finite rate q[{i},{j}] = {value}" in report.messages
        if np.isnan(value):
            assert report.messages[0].startswith("generator rows must sum to zero")
        with pytest.raises(sm.MalformedGeneratorError):
            sm.stationary_distribution(layer)

    def test_row_sums_within_1e12_as_stored(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            layer = random_layer(rng, int(rng.integers(2, 9)))
            assert np.max(np.abs(layer.Q.sum(axis=1))) <= 1e-12


class TestStationaryDistribution:
    def test_complete_graph_uniform(self):
        layer = sm.preset_layer("complete", 6, 0.3)
        v = sm.stationary_distribution(layer)
        assert np.allclose(v, 1.0 / 6, atol=1e-14)

    def test_two_node_detailed_balance(self):
        layer = sm.layer_from_edge_rates(2, [(0, 1, 0.1), (1, 0, 0.3)])
        v = sm.stationary_distribution(layer)
        assert np.allclose(v, [0.75, 0.25], atol=1e-14)

    def test_directed_ring_uniform(self):
        # oracle: least-squares solve of the full stacked system
        # [Q^T; 1^T] v = [0; 1], independent of the replaced-row path
        nu = 0.4
        layer = sm.layer_from_edge_rates(3, [(0, 1, nu), (1, 2, nu), (2, 0, nu)])
        v = sm.stationary_distribution(layer)
        stacked = np.vstack([layer.Q.T, np.ones(3)])
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        oracle, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        assert np.allclose(v, oracle, atol=1e-12)
        assert np.allclose(v, 1.0 / 3, atol=1e-12)

    def test_residual_postcondition(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            layer = random_layer(rng, int(rng.integers(2, 9)))
            v = sm.stationary_distribution(layer)
            assert np.min(v) > 0
            assert abs(v.sum() - 1.0) < 1e-12
            assert np.max(np.abs(layer.Q.T @ v)) <= 1e-12 * max(1.0, np.max(np.abs(layer.Q)))

    def test_residual_past_its_tolerance_is_refused(self, monkeypatch):
        # a tolerance of 0 leaves the solve no rounding
        layer = sm.layer_from_edge_rates(3, [(0, 1, 0.1), (1, 2, 0.7), (2, 0, 0.3), (1, 0, 0.2)])
        assert np.max(np.abs(layer.Q.T @ sm.stationary_distribution(layer))) > 0.0
        monkeypatch.setattr(sm.network, "STATIONARY_RESIDUAL_TOL", 0.0)
        with pytest.raises(sm.MalformedGeneratorError,
                           match=r"^stationary solve residual 1\.737e-17 exceeds tolerance; "
                                 r"generator may have multiple null vectors$"):
            sm.stationary_distribution(layer)

    def test_invalid_layer_rejected(self):
        layer = sm.MobilityLayer(n=2, edges=((0, 1),),
                                 Q=np.array([[-0.2, 0.2], [0.0, 0.0]]))
        with pytest.raises(sm.NotStronglyConnectedError):
            sm.stationary_distribution(layer)

    def test_layer_law_is_kept_read_only(self):
        layer = sm.preset_layer("line", 4, 0.2)
        v = layer.stationary
        assert layer.stationary is v
        assert np.array_equal(v, sm.stationary_distribution(layer))
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0

    def test_network_law_is_kept_read_only(self):
        layers = (sm.preset_layer("line", 4, 0.2), sm.preset_layer("star", 4, 0.3))
        net = sm.MultiLayerNetwork(layers=layers, N=np.array([100.0, 40.0]))
        stat = sm.network_stationary(net)
        assert sm.network_stationary(net) is stat
        oracle = np.concatenate([N * sm.stationary_distribution(layer)
                                 for N, layer in zip(net.N, layers)])
        assert np.array_equal(stat.v, oracle)
        assert not stat.v.flags.writeable

    def test_layer_law_raises_as_the_uncached_routine(self):
        layer = sm.MobilityLayer(n=2, edges=((0, 1),),
                                 Q=np.array([[-0.2, 0.2], [0.0, 0.0]]))
        for _ in range(2):  # a failure is not cached
            with pytest.raises(sm.NotStronglyConnectedError):
                layer.stationary


class TestLayerFromEdgeRates:
    def test_duplicate_edge_names_the_edge(self):
        with pytest.raises(ValueError, match=r"duplicate rate for edge \(1,2\)"):
            sm.layer_from_edge_rates(3, [(0, 1, 0.1), (1, 2, 0.2), (2, 0, 0.3),
                                         (1, 2, 0.4)])

    def test_node_index_past_n_names_the_edge(self):
        with pytest.raises(ValueError, match=r"edge \(2,5\) names a node outside 0\.\.2"):
            sm.layer_from_edge_rates(3, [(2, 5, 0.2)])

    def test_negative_node_index_names_the_edge(self):
        # a negative index must not wrap around to node n - 1
        with pytest.raises(ValueError, match=r"edge \(-1,1\) names a node outside 0\.\.2"):
            sm.layer_from_edge_rates(3, [(-1, 1, 0.2), (1, 0, 0.2)])

    @pytest.mark.parametrize("i", [1.7, True])
    def test_non_integer_node_index_names_the_edge(self, i):
        with pytest.raises(ValueError, match=rf"edge \({i!r},0\) needs integer node indices"):
            sm.layer_from_edge_rates(2, [(i, 0, 0.2), (0, 1, 0.2)])

    @pytest.mark.parametrize("rate", [True, False, "0.5", None, [0.5], 1 + 0j])
    def test_rate_that_is_not_a_real_number_names_the_edge(self, rate):
        with pytest.raises(ValueError, match=rf"edge \(1,0\) needs a real-number rate, got {re.escape(repr(rate))}"):
            sm.layer_from_edge_rates(2, [(0, 1, 0.2), (1, 0, rate)])

    @pytest.mark.parametrize("rate", [1, 0.25, np.float64(0.25), np.int64(1), np.float32(0.25),
                                      Fraction(1, 4)])
    def test_real_number_rates_are_kept(self, rate):
        layer = sm.layer_from_edge_rates(2, [(0, 1, rate), (1, 0, 0.5)])
        assert layer.Q[0, 1] == float(rate) and layer.Q[0, 0] == -float(rate)


class TestEdgeIndexRange:
    def test_negative_index_in_hand_built_layer(self):
        # must not wrap around to node n - 1
        with pytest.raises(ValueError, match=r"edge \(-1,0\) names a node outside 0\.\.2"):
            sm.MobilityLayer(n=3, edges=((0, 1), (1, 2), (-1, 0)),
                             Q=np.array([[-0.2, 0.2, 0.0], [0.0, -0.2, 0.2], [0.2, 0.0, -0.2]]))

    def test_index_past_n_in_hand_built_layer(self):
        with pytest.raises(ValueError, match=r"edge \(0,5\) names a node outside 0\.\.2"):
            sm.MobilityLayer(n=3, edges=((0, 1), (1, 0), (0, 5)), Q=np.zeros((3, 3)))

    def test_metropolis_hastings_checks_range_before_symmetrizing(self):
        with pytest.raises(ValueError, match=r"edge \(1,5\) names a node outside 0\.\.2"):
            sm.metropolis_hastings_rates(3, [(0, 1), (1, 0), (1, 5), (5, 1)],
                                         np.full(3, 1 / 3), 1.0)


class TestMetropolisHastings:
    def test_line_three_nodes_uniform_target(self):
        layer = sm.metropolis_hastings_rates(3, graphs.preset_edges("line", 3),
                                             np.full(3, 1 / 3), 1.0)
        Q = layer.Q
        assert Q[0, 1] == pytest.approx(0.5)
        assert Q[1, 0] == pytest.approx(0.5)
        assert Q[1, 2] == pytest.approx(0.5)
        assert Q[2, 1] == pytest.approx(0.5)
        v = sm.stationary_distribution(layer)
        assert np.max(np.abs(v - 1 / 3)) <= 1e-12

    def test_complete_graph_reduces_to_equal_rates(self):
        n, nu = 8, 0.2
        layer = sm.metropolis_hastings_rates(n, graphs.preset_edges("complete", n),
                                             np.full(n, 1 / n), nu)
        off = layer.Q[~np.eye(n, dtype=bool)]
        assert np.allclose(off, nu / (n - 1), atol=1e-15)

    def test_uniform_target_gives_symmetric_rates(self):
        # uniform law is the stationary law of any symmetric-rate chain,
        # so the acceptance ratio never bites and Q comes out symmetric
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            layer = random_layer(rng, n)
            und = {(i, j) for i, j in layer.edges} | {(j, i) for i, j in layer.edges}
            mh = sm.metropolis_hastings_rates(n, sorted(und), np.full(n, 1 / n), 0.7)
            assert np.allclose(mh.Q, mh.Q.T, atol=1e-15)

    @pytest.mark.parametrize("name", graphs.PRESET_NAMES)
    def test_one_node_layer_has_no_edges_and_stays_put(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            layer = sm.metropolis_hastings_rates(1, graphs.preset_edges(name, 1), np.ones(1), 0.7)
        assert layer.Q.tolist() == [[0.0]]
        assert layer.edges.shape == (0, 2) and layer.edges.dtype == np.int64
        assert sm.stationary_distribution(layer).tolist() == [1.0]

    def test_disconnected_graph_rejected(self):
        with pytest.raises(sm.NotStronglyConnectedError):
            sm.metropolis_hastings_rates(4, [(0, 1), (1, 0), (2, 3), (3, 2)],
                                         np.full(4, 0.25), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_property_stationary_law_matches_target(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        base = random_layer(rng, n)
        und = sorted({(i, j) for i, j in base.edges} | {(j, i) for i, j in base.edges})
        target = rng.uniform(0.2, 2.0, size=n)
        target /= target.sum()
        layer = sm.metropolis_hastings_rates(n, und, target, float(rng.uniform(0.2, 2.0)))
        v = sm.stationary_distribution(layer)
        assert np.max(np.abs(v - target)) <= 1e-10


class TestEquivariance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_permuting_nodes_permutes_stationary_law(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        layer = random_layer(rng, n)
        v = sm.stationary_distribution(layer)

        perm = rng.permutation(n)
        Qp = layer.Q[np.ix_(perm, perm)]
        edges_p = tuple((int(np.where(perm == i)[0][0]), int(np.where(perm == j)[0][0]))
                        for i, j in layer.edges)
        permuted = sm.MobilityLayer(n=n, edges=edges_p, Q=Qp)
        vp = sm.stationary_distribution(permuted)
        assert np.max(np.abs(vp - v[perm])) <= 1e-12


class TestPresets:
    def test_star_center_is_node_zero(self):
        layer = sm.preset_layer("star", 5, 0.2)
        spokes = [(i, j) for i, j in layer.edges if i == 0]
        assert len(spokes) == 4
        # leaves connect only to the hub
        assert all(j == 0 for i, j in layer.edges if i != 0)

    def test_line_endpoint_rates(self):
        layer = sm.preset_layer("line", 4, 0.2)
        assert layer.Q[0, 1] == pytest.approx(0.2)      # endpoint: single neighbor
        assert layer.Q[1, 0] == pytest.approx(0.1)      # interior: split two ways
        assert np.allclose(-np.diag(layer.Q), 0.2)

    def test_ring_is_regular(self):
        layer = sm.preset_layer("ring", 6, 0.3)
        off = layer.Q[layer.Q > 0]
        assert np.allclose(off, 0.15)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            graphs.preset_edges("torus", 4)

    def test_isolated_node_rejected_with_location(self):
        with pytest.raises(sm.NotStronglyConnectedError, match="node 2"):
            sm.equal_exit_layer(3, [(0, 1), (1, 0)], 0.2)


# Edge lists as built before layers stored their edges as arrays; the
# resolved manifest lists edges in this order, so it fixes the manifest bytes.
PRESET_EDGES = {
    ("complete", 1): [],
    ("complete", 2): [[0, 1], [1, 0]],
    ("complete", 3): [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]],
    ("complete", 5): [[0, 1], [0, 2], [0, 3], [0, 4], [1, 0], [1, 2], [1, 3], [1, 4],
                      [2, 0], [2, 1], [2, 3], [2, 4], [3, 0], [3, 1], [3, 2], [3, 4],
                      [4, 0], [4, 1], [4, 2], [4, 3]],
    ("line", 1): [],
    ("line", 2): [[0, 1], [1, 0]],
    ("line", 3): [[0, 1], [1, 0], [1, 2], [2, 1]],
    ("line", 5): [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2], [3, 4], [4, 3]],
    ("ring", 1): [],
    ("ring", 2): [[0, 1], [1, 0]],
    ("ring", 3): [[0, 1], [1, 0], [1, 2], [2, 1], [2, 0], [0, 2]],
    ("ring", 5): [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2], [3, 4], [4, 3],
                  [4, 0], [0, 4]],
    ("star", 1): [],
    ("star", 2): [[0, 1], [1, 0]],
    ("star", 3): [[0, 1], [1, 0], [0, 2], [2, 0]],
    ("star", 5): [[0, 1], [1, 0], [0, 2], [2, 0], [0, 3], [3, 0], [0, 4], [4, 0]],
}


class TestEdgeOrder:
    @pytest.mark.parametrize("name, n", sorted(PRESET_EDGES))
    def test_preset_edge_order_is_pinned(self, name, n):
        layer = sm.preset_layer(name, n, 0.2)
        assert layer.edges.tolist() == PRESET_EDGES[name, n]
        assert layer.edges.dtype == np.int64 and layer.edges.shape[1] == 2
        assert not layer.edges.flags.writeable

    def test_metropolis_hastings_on_messy_input_is_pinned(self):
        # unsorted, with a repeated edge and two self-loops
        edges = [(3, 1), (1, 3), (0, 2), (2, 2), (1, 0), (3, 1), (2, 1), (0, 0), (1, 2)]
        layer = sm.metropolis_hastings_rates(4, edges, np.array([0.1, 0.2, 0.3, 0.4]), 0.7)
        assert layer.edges.tolist() == [[0, 1], [0, 2], [1, 0], [1, 2], [1, 3], [2, 0],
                                        [2, 1], [3, 1]]
        assert layer.Q.tolist() == [
            [-0.7, 0.35, 0.35, 0.0],
            [0.17500000000000002, -0.6416666666666666, 0.2333333333333333,
             0.2333333333333333],
            [0.11666666666666667, 0.15555555555555559, -0.27222222222222225, 0.0],
            [0.0, 0.11666666666666665, 0.0, -0.11666666666666665],
        ]


def warshall_reach(n, edges):
    """Plain-Python reflexive-transitive closure (Warshall's algorithm)."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=n * n))  # self-loops included
    return n, edges


class TestReachability:
    @settings(max_examples=200, deadline=None)
    @given(graph=digraphs())
    def test_connectivity_and_components_match_warshall(self, graph):
        n, edges = graph
        reach = warshall_reach(n, edges)
        assert graphs.is_strongly_connected(n, edges) == all(map(all, reach))

        A = np.zeros((n, n))
        for i, j in edges:
            A[i, j] = -0.5 if i == j else 0.3
        expected, seen = [], set()
        for i in range(n):
            if i not in seen:
                comp = [j for j in range(n) if reach[i][j] and reach[j][i]]
                seen.update(comp)
                expected.append(comp)
        assert graphs.strongly_connected_components(A) == expected
