import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sismob as sm
from sismob.scenario import parse_point
from sismob.spectral import NODA_MAX_ITER, NODA_TOL

from conftest import SCENARIOS, random_layer, recovery_matrix


def random_metzler(rng, n):
    G = rng.uniform(0.0, 1.0, size=(n, n))
    G[np.eye(n, dtype=bool)] = rng.uniform(-2.0, 2.0, size=n)
    return G


def random_z_matrix(rng, n, diag_bump=True):
    """Irreducible Laplacian plus a nonnegative diagonal (>=1 positive
    entry when diag_bump), the construction behind the equivalence test."""
    layer = random_layer(rng, n)
    lap = -layer.Q  # the Laplacian diag(nu) - Q off the diagonal
    bump = rng.uniform(0.0, 0.5, size=n) * (rng.random(n) < 0.6)
    if diag_bump and not np.any(bump > 0):
        bump[int(rng.integers(0, n))] = rng.uniform(0.1, 0.5)
    return lap + np.diag(bump)


class TestSpectralAbscissa:
    def test_scalar(self):
        res = sm.spectral_abscissa(np.array([[0.3 - 0.1]]))
        assert res.mu == pytest.approx(0.2, abs=1e-12)

    def test_two_node_against_quadratic_formula(self, two_node_spec):
        mats = sm.equilibrium_matrices(two_node_spec)
        assert np.allclose(mats.G, [[0.0, 0.2], [0.2, -0.25]], atol=1e-15)
        res = sm.spectral_abscissa(mats.G)
        # characteristic polynomial lambda^2 + 0.25 lambda - 0.04
        oracle = (-0.25 + math.sqrt(0.25 ** 2 + 4 * 0.04)) / 2.0
        assert res.mu == pytest.approx(oracle, abs=1e-10)
        assert res.perron_vector is not None
        assert np.min(res.perron_vector) > 1e-12

    def test_negated_flow_matrix_has_zero_abscissa(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            layer = random_layer(rng, int(rng.integers(2, 8)))
            net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([10.0]))
            spec = sm.ModelSpec(net=net, beta=np.full(layer.n, 0.3),
                                delta=np.zeros(layer.n))
            v = sm.network_stationary(net).v
            mats = sm.assemble(spec, v)
            res = sm.spectral_abscissa(-mats.L)
            assert res.mu == pytest.approx(0.0, abs=1e-10)

    def test_rejects_non_metzler(self):
        with pytest.raises(ValueError):
            sm.spectral_abscissa(np.array([[1.0, -0.5], [0.2, 0.0]]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9), shift=st.floats(-5.0, 5.0))
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        G = random_metzler(rng, int(rng.integers(2, 8)))
        base = sm.spectral_abscissa(G).mu
        shifted = sm.spectral_abscissa(G + shift * np.eye(G.shape[0])).mu
        assert shifted == pytest.approx(base + shift, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_perron_vector_positive_and_residual_small(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        G = random_metzler(rng, n) + 0.01  # strictly positive off-diagonals
        res = sm.spectral_abscissa(G)
        assert res.perron_vector is not None
        assert np.min(res.perron_vector) > 1e-12
        assert res.residual <= 1e-9 * max(1.0, np.abs(G).max())


    def test_block_diagonal_gives_largest_block_abscissa(self):
        rng = np.random.default_rng(21)
        blocks = [random_metzler(rng, k) for k in (3, 4, 2)]
        G = np.zeros((9, 9))
        start = 0
        for block in blocks:
            k = block.shape[0]
            G[start:start + k, start:start + k] = block
            start += k
        oracle = max(float(np.max(np.linalg.eigvals(b).real)) for b in blocks)
        res = sm.spectral_abscissa(G)
        assert res.mu == pytest.approx(oracle, abs=1e-10)
        assert not res.converged and res.bracket is None  # reducible: the fallback ran
        assert res.mu == float(np.max(np.linalg.eigvals(G).real))

    def test_triangular_gives_largest_diagonal_block_abscissa(self):
        rng = np.random.default_rng(22)
        G = random_metzler(rng, 6)
        G[3:, :3] = 0.0  # reducible: no path from the last three nodes back
        oracle = max(float(np.max(np.linalg.eigvals(G[:3, :3]).real)),
                     float(np.max(np.linalg.eigvals(G[3:, 3:]).real)))
        # the first three rows draw on the dominant block G[3:, 3:], so the
        # Perron vector is positive and Noda's bracket closes (in either
        # memory order); transposed, the Perron vector has zero entries: the
        # bracket stays open, y leaves the positive cone once the shift
        # reaches the root, and the dense fallback runs from there
        for M, converges in ((G, True), (np.asfortranarray(G), True), (G.T, False)):
            res = sm.spectral_abscissa(M)
            assert res.mu == pytest.approx(oracle, abs=1e-10)
            assert res.converged == converges
            assert (res.bracket is None) == (not converges)
            assert res.iterations < NODA_MAX_ITER
        assert res.mu == float(np.max(np.linalg.eigvals(G.T).real))

    def test_zero_matrix_does_not_raise(self):
        res = sm.spectral_abscissa(np.zeros((4, 4)))
        assert res.mu == 0.0
        assert sm.spectral_radius(np.zeros((4, 4))).rho == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), density=st.floats(0.0, 1.0))
    def test_reported_perron_vector_is_certified(self, seed, density):
        # sparse patterns make many inputs reducible; whenever a Perron
        # vector is reported it must be positive with a small residual
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        G = random_metzler(rng, n) * (rng.random((n, n)) < density)
        abscissa = sm.spectral_abscissa(G)
        radius = sm.spectral_radius(np.abs(G))
        for M, lam, res in ((G, abscissa.mu, abscissa), (np.abs(G), radius.rho, radius)):
            assert 0 <= res.iterations <= NODA_MAX_ITER
            if res.converged:
                # Noda solves until the Collatz-Wielandt bracket of y
                # closes; y = 1 is already exact when the row sums agree
                lo, hi = res.bracket
                assert lo <= lam <= hi
                assert hi - lo <= NODA_TOL * max(1.0, np.abs(M).max())
                first = M @ np.ones(n)
                closed_at_start = first.max() - first.min() <= NODA_TOL * max(1.0, np.abs(M).max())
                assert (res.iterations == 0) == closed_at_start
            else:
                assert res.bracket is None
                assert lam == float(np.max(np.linalg.eigvals(M).real))
            y = res.perron_vector
            if y is not None:
                assert np.min(y) > 0 and np.max(y) == 1.0
                assert np.max(np.abs(M @ y - lam * y)) == res.residual
                assert res.residual <= 1e-9 * max(1.0, np.abs(M).max())


class TestNodaIteration:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), positive=st.booleans())
    def test_bracket_contains_dense_eigensolver_root(self, seed, positive):
        # irreducible input: every off-diagonal entry is positive
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 41))
        if positive:
            S = rng.uniform(0.01, 1.0, size=(n, n))
            res = sm.spectral_radius(S)
            lam = res.rho
        else:
            S = random_metzler(rng, n) + 0.01 * (1.0 - np.eye(n))
            res = sm.spectral_abscissa(S)
            lam = res.mu
        scale = max(1.0, np.abs(S).max())
        oracle = float(np.max(np.linalg.eigvals(S).real))
        assert res.converged
        assert 1 <= res.iterations <= NODA_MAX_ITER or n == 1
        lo, hi = res.bracket
        assert lo <= lam <= hi and hi - lo <= NODA_TOL * scale
        assert abs(lam - oracle) <= 1e-12 * scale
        assert res.perron_vector is not None and np.min(res.perron_vector) > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("routine", [sm.spectral_abscissa, sm.spectral_radius,
                                         sm.mmatrix_checks],
                             ids=["abscissa", "radius", "mmatrix_checks"])
    def test_non_finite_entries_are_refused(self, routine, bad):
        A = np.array([[0.5, 0.2, 0.1], [0.3, 0.4, 0.2], [0.1, 0.1, 0.6]])
        if routine is sm.mmatrix_checks:
            A = np.eye(3) - A
        A[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or infinite"):
                routine(A)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])),
                    min_size=8, max_size=8))
    def test_scale_is_the_largest_magnitude_bit_for_bit(self, entries):
        # max(max g, -min g) per lane, without the |G| copy
        G = np.array(entries).reshape(2, 2, 2)
        expected = np.maximum(np.max(np.abs(G), axis=(1, 2)), 1.0)
        assert sm.spectral._scale(G).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [10, 20, 40, 80, 160])
    def test_model_thresholds_never_fall_back(self, n, monkeypatch):
        results = []

        def recording(routine):
            def wrapper(G):
                results.extend(routine(G))
                return results[-len(G):]
            return wrapper

        for name in ("spectral_abscissas", "spectral_radii"):
            monkeypatch.setattr(sm.equilibria, name, recording(getattr(sm.spectral, name)))
        # shaped like the benchmark's inputs: complete + line layers at rate
        # 0.2, beta in [0.25, 0.35], delta across the sweep grid's range
        rng = np.random.default_rng(n)
        docs = [{"name": f"fig1_n{n}", "n": n, "m": 2,
                 "layers": [{"preset": "complete", "rate_scale": 0.2},
                            {"preset": "line", "rate_scale": 0.2}],
                 "beta": rng.uniform(0.25, 0.35, n).tolist(), "delta": delta,
                 "N": [10000, 10000]} for delta in (0.05, 0.1, 0.3, 0.6)]
        if n == 10:
            docs += [sm.scenario.read_document(path)
                     for path in sorted(SCENARIOS.glob("*.json"))]
        for doc in docs:
            spec = sm.parse_scenario(doc).spec
            sm.equilibria.threshold(sm.equilibria.equilibrium_stack([(spec.net, spec.beta,
                                                                      spec.delta)]))
        assert len(results) > len(docs)
        for res in results:
            assert res.converged, res
            assert res.iterations <= 7  # no early stop cuts them short


def assert_same_result(a, b):
    """Two SpectralResults hold the same bits (repr tells -0.0 and NaN apart)."""
    for name in ("mu", "rho", "residual", "iterations", "converged", "bracket"):
        assert repr(getattr(a, name)) == repr(getattr(b, name)), name
    if a.perron_vector is None:
        assert b.perron_vector is None
    else:
        assert a.perron_vector.tobytes() == b.perron_vector.tobytes()


class TestStackedNoda:
    def test_each_lane_gets_the_bits_it_gets_alone(self):
        rng = np.random.default_rng(22)
        T = random_metzler(rng, 6)
        T[3:, :3] = 0.0  # as in the triangular test: T.T falls back
        irreducible = [random_metzler(rng, 6) + 0.01 * (1.0 - np.eye(6)) for _ in range(5)]
        singular = np.diag(np.arange(1.0, 7.0))  # max r = 6 makes the first solve singular
        lanes = [irreducible[0], T.T, irreducible[1], singular, *irreducible[2:]]
        alone = [sm.spectral_abscissa(G) for G in lanes]
        assert [res.converged for res in alone] == [True, False, True, False, True, True, True]
        for k in (1, 3):  # the dense fallback, with its own solve count
            assert alone[k].mu == float(np.max(np.linalg.eigvals(lanes[k]).real))
            assert alone[k].bracket is None and alone[k].iterations < NODA_MAX_ITER
        for order in (range(7), range(6, -1, -1), [3, 1, 0, 2, 4, 5, 6]):
            stacked = sm.spectral.spectral_abscissas(np.stack([lanes[k] for k in order]))
            for k, res in zip(order, stacked):
                assert_same_result(res, alone[k])

    def test_radius_lanes_get_the_bits_they_get_alone(self):
        rng = np.random.default_rng(5)
        reducible = np.triu(rng.uniform(0.1, 1.0, size=(5, 5)))
        lanes = [rng.uniform(0.0, 1.0, size=(5, 5)), reducible, rng.uniform(0.0, 1.0, (5, 5))]
        stacked = sm.spectral.spectral_radii(np.stack(lanes))
        for G, res in zip(lanes, stacked):
            assert_same_result(res, sm.spectral_radius(G))
            assert res.rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(G))), abs=1e-12)

    def test_threshold_lanes_match_each_instance_alone(self):
        # rate_scale points bring their own L*, another network its own L* and
        # F*, and delta = 0 has no R0
        rng = np.random.default_rng(7)
        doc = {"name": "fig1_n10", "n": 10, "m": 2,
               "layers": [{"preset": "complete", "rate_scale": 0.2},
                          {"preset": "line", "rate_scale": 0.2}],
               "beta": rng.uniform(0.25, 0.35, 10).tolist(), "delta": 0.1,
               "N": [10000, 10000]}
        other = {**doc, "layers": [{"preset": "star", "rate_scale": 0.3},
                                   {"mh": {"graph": "ring", "target": "uniform"}}]}
        scenario = sm.parse_scenario(doc)
        spec = sm.parse_scenario(other).spec
        points = ([parse_point(doc, scenario, "rate_scale", r) for r in (0.05, 0.2, 1.0)]
                  + [parse_point(doc, scenario, "delta", d) for d in (0.0, 0.3, 0.6)]
                  + [(spec.net, spec.beta, spec.delta)])
        stack = sm.equilibria.equilibrium_stack(points)
        mats = stack.lanes
        assert len({m.L.tobytes() for m in mats[:3]} | {mats[-1].L.tobytes()}) == 4
        assert not np.array_equal(mats[0].F, mats[-1].F)
        threshold, stacked = sm.equilibria.threshold, sm.equilibria.equilibrium_stack
        alone = [repr(threshold(stacked([point]))[0]) for point in points]
        assert [repr(row) for row in threshold(stack)] == alone
        assert [repr(row) for row in threshold(stacked(points[::-1]))] == alone[::-1]
        for m, (mu, r0, _) in zip(mats, threshold(stack)):
            assert mu == pytest.approx(np.max(np.linalg.eigvals(m.G).real), abs=1e-12)
            if not np.any(m.d > 0):
                assert r0 is None
                continue
            A = np.linalg.solve(m.L + np.diag(m.d), np.diag(m.b))
            assert r0 == pytest.approx(np.max(np.abs(np.linalg.eigvals(A @ m.F))), rel=1e-12)


class TestSpectralRadius:
    def test_identity(self):
        assert sm.spectral_radius(np.eye(4)).rho == pytest.approx(1.0, abs=1e-12)

    def test_scalar_ratio(self):
        assert sm.spectral_radius(np.array([[3.0]])).rho == pytest.approx(3.0)

    def test_random_positive_matrix_against_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            G = rng.uniform(0.1, 1.0, size=(5, 5))
            res = sm.spectral_radius(G)
            oracle = np.max(np.abs(np.linalg.eigvals(G)))
            assert res.rho == pytest.approx(oracle, abs=1e-8)

    def test_periodic_matrix_needs_averaged_fallback(self):
        # two-cycle with asymmetric weights: plain power iteration cycles
        G = np.array([[0.0, 2.0], [1.0, 0.0]])
        res = sm.spectral_radius(G)
        assert res.rho == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            sm.spectral_radius(np.array([[0.1, -0.3], [0.2, 0.1]]))


class TestMMatrixChecks:
    def test_flow_plus_recovery_is_nonsingular_m_matrix(self, two_node_spec):
        mats = sm.equilibrium_matrices(two_node_spec)
        report = sm.mmatrix_checks(mats.L + recovery_matrix(two_node_spec))
        assert report.stability and report.inverse_positive and report.semi_positive
        assert report.agree and not report.singular

    def test_block_diagonal_flow_plus_recovery(self):
        # two layers: the stacked matrix is reducible (block diagonal)
        rng = np.random.default_rng(2)
        l1, l2 = random_layer(rng, 4), random_layer(rng, 4)
        net = sm.MultiLayerNetwork(layers=(l1, l2), N=np.array([10.0, 20.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(4, 0.3),
                            delta=np.array([0.0, 0.2, 0.0, 0.1]))
        mats = sm.equilibrium_matrices(spec)
        report = sm.mmatrix_checks(mats.L + recovery_matrix(spec))
        assert report.stability and report.inverse_positive and report.semi_positive

    def test_bare_flow_matrix_is_singular(self, two_node_spec):
        mats = sm.equilibrium_matrices(two_node_spec)
        report = sm.mmatrix_checks(mats.L)
        assert report.singular
        assert not report.stability
        assert report.inverse_positive is None
        assert not report.semi_positive

    def test_scalar_one(self):
        report = sm.mmatrix_checks(np.array([[1.0]]))
        assert report.stability and report.inverse_positive and report.semi_positive

    def test_rejects_positive_off_diagonal(self):
        with pytest.raises(ValueError):
            sm.mmatrix_checks(np.array([[1.0, 0.1], [0.0, 1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_equivalence_on_random_z_matrices(self, seed):
        # Laplacian + nonnegative diagonal, possibly shifted down so both
        # M and non-M cases appear; the three criteria must agree.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        A = random_z_matrix(rng, n)
        if rng.random() < 0.5:
            A = A - rng.uniform(0.05, 0.6) * np.eye(n)
        report = sm.mmatrix_checks(A)
        if not report.singular:
            assert report.agree, (report, A)
