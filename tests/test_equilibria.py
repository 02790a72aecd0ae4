import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sismob as sm
from sismob.cli import main
from sismob.dynamics import SystemState
from sismob.equilibria import RESIDUAL_TOL, apply_infection_map

from conftest import (SCENARIOS, assert_refused, infection_matrix, line_spec, random_spec,
                      recovery_matrix)


class TestClassify:
    def test_scalar_instance(self, scalar_spec):
        report = sm.classify(scalar_spec)
        assert report.mu == pytest.approx(0.2, abs=1e-12)
        assert report.R0 == pytest.approx(3.0, abs=1e-10)
        assert report.classification == "DFE_unstable_EE_exists"
        assert report.p_star[0] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_strong_recovery_everywhere_is_stable(self):
        layer = sm.preset_layer("ring", 5, 0.3)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(5, 0.2), delta=np.full(5, 0.25))
        report = sm.classify(spec)
        assert report.conditions.suf_all
        assert report.mu <= 0
        assert report.classification == "DFE_stable"
        assert report.p_star is None

    def test_no_recovery_anywhere(self):
        layer = sm.preset_layer("line", 3, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([60.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(3, 0.3), delta=np.zeros(3))
        report = sm.classify(spec)
        assert report.R0 is None
        assert report.mu > 0
        assert np.all(report.p_star == 1.0)

    def test_sign_agreement_mu_r0(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            spec = random_spec(rng)
            report = sm.classify(spec)
            if abs(report.mu) <= 1e-8:
                continue
            assert (report.mu > 0) == (report.R0 > 1.0), (report.mu, report.R0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_r0_matches_full_dense_spectrum(self, m):
        # R0 is computed on an n x n patch-level matrix; the oracle is
        # the spectral radius of the full nm x nm A F*
        rng = np.random.default_rng(100 + m)
        for _ in range(8):
            spec = random_spec(rng, n_max=7, m=m)
            mats = sm.equilibrium_matrices(spec)
            A = np.linalg.solve(mats.L + recovery_matrix(spec), infection_matrix(spec))
            oracle = float(np.max(np.abs(np.linalg.eigvals(A @ mats.F))))
            assert sm.classify(spec).R0 == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_stored_matrices_match_dense_oracles(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            spec = random_spec(rng, n_max=7)
            mats = sm.equilibrium_matrices(spec)
            B, D = infection_matrix(spec), recovery_matrix(spec)
            assert np.array_equal(np.diag(mats.b), B) and np.array_equal(np.diag(mats.d), D)
            assert np.array_equal(mats.BF, B @ mats.F)
            assert np.array_equal(mats.G, B @ mats.F - D - mats.L)

    def test_report_serializes(self, two_node_spec):
        doc = sm.classify(two_node_spec).to_dict()
        assert set(doc) == {"v", "mu", "R0", "classification", "marginal",
                            "p_star", "conditions"}
        assert isinstance(doc["conditions"]["nec_per_node"], list)

    @pytest.mark.parametrize("branch", ["nm < 2", "equal deficits", "full"])
    def test_report_survives_a_json_round_trip(self, branch, scalar_spec, two_node_spec):
        # the three ConditionReport shapes: no lambda2, no lambda2 verdict, all fields
        specs = {"nm < 2": scalar_spec, "full": two_node_spec,
                 "equal deficits": sm.ModelSpec(net=two_node_spec.net, beta=np.array([0.5, 0.25]),
                                                delta=np.array([0.75, 0.5]))}
        report = sm.classify(specs[branch])
        doc = report.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        conditions = doc["conditions"]
        assert set(conditions) == {field.name for field in fields(sm.ConditionReport)}
        assert (conditions["lambda2"] is None) == (branch == "nm < 2")
        assert (conditions["suf_lambda2"] is None) == (branch != "full")
        assert conditions["w"] == (None if report.conditions.w is None
                                   else report.conditions.w.tolist())
        assert doc["v"] == report.v.tolist()


class TestEndemicFixedPoint:
    def test_scalar_analytic(self, scalar_spec):
        p = sm.endemic_fixed_point(scalar_spec)
        assert p[0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("gap", [1e-7, 1e-9])
    def test_scalar_near_threshold(self, scalar_spec, gap):
        # p* = 1 - delta/beta, written as (beta - delta)/beta: the
        # subtraction of two close doubles is exact, 1 - delta/beta is not
        beta = float(scalar_spec.beta[0])
        delta = beta - gap
        spec = sm.ModelSpec(net=scalar_spec.net, beta=scalar_spec.beta,
                            delta=np.array([delta]))
        p = sm.endemic_fixed_point(spec)
        assert p[0] == pytest.approx((beta - delta) / beta, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_multi_node_near_threshold(self, seed):
        # a uniform delta shifts B F* - D - L* by a multiple of I, so
        # delta = mu(delta = 0) - target puts mu at the target; near the
        # threshold p* = mu x1 + O(mu^2), so p*/mu settles on one vector
        base = random_spec(np.random.default_rng(seed), n=4, m=2)
        zero = sm.ModelSpec(net=base.net, beta=base.beta, delta=np.zeros(base.n))
        mu0 = sm.spectral_abscissa(sm.equilibrium_matrices(zero).G).mu
        scaled = []
        for target in (1e-4, 1e-6, 1e-8):
            spec = sm.ModelSpec(net=base.net, beta=base.beta,
                                delta=np.full(base.n, mu0 - target))
            mats = sm.equilibrium_matrices(spec)
            mu = sm.spectral_abscissa(mats.G).mu
            assert mu == pytest.approx(target, rel=1e-6)
            p = sm.endemic_fixed_point(spec, mats, mu=mu)
            assert np.min(p) > 0
            residual = np.max(np.abs(mats.G @ p - p * (infection_matrix(spec) @ (mats.F @ p))))
            assert residual <= RESIDUAL_TOL * np.max(p)
            scaled.append((mu, p / mu))
        for (mu, coarse), (_, fine) in zip(scaled, scaled[1:]):
            assert np.max(np.abs(coarse / fine - 1.0)) <= 100.0 * mu

    def test_two_node_against_long_ode_run(self, two_node_spec):
        p_star = sm.endemic_fixed_point(two_node_spec)
        v = sm.network_stationary(two_node_spec.net).v
        initial = SystemState(t=0.0, p=np.full(2, 0.01), x=v)
        settled = sm.integrate_until_settled(two_node_spec, initial, dt=0.01,
                                             settle_tol=1e-11)
        assert np.max(np.abs(np.asarray(settled.p) - p_star)) <= 1e-6

    def test_needs_positive_recovery_somewhere(self):
        layer = sm.preset_layer("line", 3, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([60.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(3, 0.3), delta=np.zeros(3))
        with pytest.raises(ValueError):
            sm.endemic_fixed_point(spec)

    def test_subcritical_instance_is_a_precondition_violation(self):
        layer = sm.preset_layer("ring", 4, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([80.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(4, 0.2), delta=np.full(4, 0.3))
        with pytest.raises(ValueError, match="mu"):
            sm.endemic_fixed_point(spec)

    def test_monotone_iterates_from_one(self, two_node_spec):
        mats = sm.equilibrium_matrices(two_node_spec)
        p = np.ones(2)
        for _ in range(50):
            p_next = apply_infection_map(mats, p)
            assert np.all(p_next <= p + 1e-12)
            p = p_next

    def test_residual_at_fixed_point(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 10:
            spec = random_spec(rng)
            mats = sm.equilibrium_matrices(spec)
            if sm.spectral_abscissa(mats.G).mu <= 1e-3 or not np.any(spec.delta > 0):
                continue
            p = sm.endemic_fixed_point(spec, mats)
            residual = np.max(np.abs(mats.G @ p - p * (infection_matrix(spec) @ (mats.F @ p))))
            assert residual <= RESIDUAL_TOL * np.max(p)
            assert np.min(p) > 0
            checked += 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9), delta_scale=st.sampled_from([1.0, 1e-4]))
    def test_newton_agrees_with_the_monotone_map(self, seed, delta_scale):
        # oracle: H iterated from p = 1 until its step is 1e-14, or until
        # a step raises an entry (H's iterates fall in exact arithmetic,
        # so that is its rounding floor, reached when a small
        # delta_scale puts p* near 1 and makes A = (L* + D)^{-1} B large)
        base = random_spec(np.random.default_rng(seed), n_max=6, m_max=3,
                           allow_zero_delta_entries=True)
        spec = sm.ModelSpec(net=base.net, beta=base.beta, delta=base.delta * delta_scale)
        mats = sm.equilibrium_matrices(spec)
        mu = sm.spectral_abscissa(mats.G).mu
        assume(mu >= 0.05)
        h = np.ones(spec.nm)
        for _ in range(10_000):
            h_next = apply_infection_map(mats, h)
            step = h_next - h
            h = h_next
            if np.max(np.abs(step)) <= 1e-14 or np.any(step > 0):
                break
        else:
            pytest.fail("the monotone map did not settle")
        p = sm.endemic_fixed_point(spec, mats, mu=mu)
        assert np.max(np.abs(p - h)) <= 1e-9


class TestEndemicCertificates:
    """Each refusal of ``endemic_fixed_point``, fired by a tighter tolerance
    or cap, or by a patched solve; mu is passed, so only Newton runs."""

    @staticmethod
    def prepared(spec):
        mats = sm.equilibrium_matrices(spec)
        return mats, sm.spectral_abscissa(mats.G).mu

    def test_iterate_leaving_the_box_is_refused(self, two_node_spec, monkeypatch):
        mats, mu = self.prepared(two_node_spec)
        # a Newton step from p = 1 to p = -1
        monkeypatch.setattr(np.linalg, "solve", lambda J, r: np.full(len(r), -2.0))
        with pytest.raises(sm.ConvergenceError, match=r"^Newton iterate left \(0, 1\]$"):
            sm.endemic_fixed_point(two_node_spec, mats, mu=mu)

    def test_step_cap_is_refused(self, two_node_spec, monkeypatch):
        mats, mu = self.prepared(two_node_spec)
        # the first step from p = 1 to p* = (0.43, 0.28) is not the last
        monkeypatch.setattr(sm.equilibria, "NEWTON_MAX_ITER", 1)
        with pytest.raises(sm.ConvergenceError,
                           match=r"^Newton iteration did not converge in 1 steps$"):
            sm.endemic_fixed_point(two_node_spec, mats, mu=mu)

    def test_residual_past_its_tolerance_is_refused(self, two_node_spec, monkeypatch):
        mats, mu = self.prepared(two_node_spec)
        # the residual at p* is 2.08e-17; a tolerance of 0 leaves it no rounding
        monkeypatch.setattr(sm.equilibria, "RESIDUAL_TOL", 0.0)
        with pytest.raises(sm.ConvergenceError,
                           match=r"^endemic point residual 2\.082e-17 exceeds 0\.000e\+00$"):
            sm.endemic_fixed_point(two_node_spec, mats, mu=mu)

    def test_refused_endemic_point_exits_1(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sm.equilibria, "RESIDUAL_TOL", 0.0)
        out = tmp_path / "out"
        assert main(["analyze", "--scenario", str(SCENARIOS / "fig1_complete_line.json"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: endemic point residual ")
        assert list(out.iterdir()) == []


class TestMonotoneMap:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_order_preserving_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n_max=6, m_max=3)
        mats = sm.equilibrium_matrices(spec)
        p1 = rng.uniform(0.0, 1.0, size=spec.nm)
        p2 = np.minimum(p1 + rng.uniform(0.0, 1.0, size=spec.nm), 1.0)
        h1, h2 = apply_infection_map(mats, p1), apply_infection_map(mats, p2)
        assert np.all(h1 <= h2 + 1e-12)
        assert np.all(apply_infection_map(mats, np.ones(spec.nm)) <= 1.0 + 1e-12)


class TestStabilityConditions:
    def test_complete_graph_lambda2_analytic(self):
        # complete-graph flow Laplacian with edge weight q has spectrum
        # {0, n q}; with n = 20, q = 0.2/19 the second eigenvalue is 4/19
        layer = sm.preset_layer("complete", 20, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([20000.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(20, 0.3), delta=np.full(20, 0.31))
        conditions = sm.stability_conditions(spec)
        assert conditions.lambda2 == pytest.approx(20 * 0.2 / 19, abs=1e-10)
        assert conditions.s_lower == pytest.approx(-(4 / 19) / 81, abs=1e-10)
        assert np.allclose(conditions.w, 1.0)

    def test_condition_hierarchy(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            spec = random_spec(rng)
            c = sm.stability_conditions(spec)
            if c.suf_all:
                assert c.nec_exists
                assert all(c.nec_per_node)

    def test_margin_construction_flags_not_applicable_when_uniform(self):
        # equal deficit at every node: the bound's hypothesis fails
        layer = sm.preset_layer("ring", 4, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(4, 0.3), delta=np.full(4, 0.25))
        c = sm.stability_conditions(spec)
        assert c.suf_lambda2 is None
        assert c.condition_value is None
        assert c.lambda2 is not None

    def test_scalar_has_no_lambda2(self, scalar_spec):
        c = sm.stability_conditions(scalar_spec)
        assert c.lambda2 is None and c.suf_lambda2 is None
        assert c.s == pytest.approx(-0.2)

    def test_lambda2_certificates_fire_on_a_mutated_w(self, monkeypatch):
        spec = sm.load_scenario(SCENARIOS / "fig1_complete_line.json").spec
        assert sm.stability_conditions(spec).lambda2 > 0.0  # certified as solved
        solve = sm.equilibria.left_null_vector

        def mutated(A):
            w = solve(A)
            w[3] *= 1.1
            return w

        monkeypatch.setattr(sm.equilibria, "left_null_vector", mutated)
        with pytest.raises(sm.ConvergenceError, match=r"^lambda2: left null vector residual "):
            sm.stability_conditions(spec)
        # past the residual check, the symmetrized matrix loses its zero eigenvalue
        monkeypatch.setattr(sm.equilibria, "NULL_VECTOR_TOL", np.inf)
        with pytest.raises(sm.ConvergenceError,
                           match=r"^lambda2: smallest eigenvalue -\S+ is not 0 to within "):
            sm.stability_conditions(spec)

    def test_flow_diagonal_equals_exit_rates_at_equilibrium(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            spec = random_spec(rng)
            mats = sm.equilibrium_matrices(spec)
            n = spec.n
            for a, layer in enumerate(spec.net.layers):
                block = mats.L[a * n:(a + 1) * n, a * n:(a + 1) * n]
                assert np.max(np.abs(np.diag(block) + np.diag(layer.Q))) <= 1e-10


class TestMarginRecoveryRates:
    def test_condition_holds_and_dfe_is_stable(self):
        layer = sm.preset_layer("complete", 20, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([20000.0]))
        beta = np.full(20, 0.3)
        delta, info = sm.margin_recovery_rates(net, beta, 0.8, [0, 19])
        assert info["s"] < 0 < info["d"]
        assert delta[0] < beta[0]          # genuine deficit at the chosen nodes
        spec = sm.ModelSpec(net=net, beta=beta, delta=delta)
        report = sm.classify(spec)
        assert report.conditions.suf_lambda2 is True
        assert report.mu <= 0

    def test_rejects_degenerate_inputs(self):
        layer = sm.preset_layer("line", 3, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
        beta = np.full(3, 0.3)
        with pytest.raises(ValueError):
            sm.margin_recovery_rates(net, beta, 1.5, [0])
        with pytest.raises(ValueError):
            sm.margin_recovery_rates(net, beta, 0.8, [0, 1, 2])

    @pytest.mark.parametrize("scale, message", [
        (1e30, "recovery rates would be negative"),    # the deficit s passes -beta
        (1e308, "matrix has NaN or infinite entries"),  # refused before eigvalsh
    ])
    def test_rejects_rates_the_rule_cannot_use(self, scale, message):
        layer = sm.preset_layer("ring", 3, scale)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
        with pytest.raises(ValueError, match=message):
            sm.margin_recovery_rates(net, np.full(3, 0.3), 0.8, [0])

    @pytest.mark.parametrize("nodes", [[0.7, 2], [0, 2.9], [True, 2], "01", [0, 2.0]])
    def test_rejects_non_integral_nodes(self, nodes):
        layer = sm.preset_layer("line", 3, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
        with pytest.raises(ValueError, match="integer node indices"):
            sm.margin_recovery_rates(net, np.full(3, 0.3), 0.8, nodes)
        sm.margin_recovery_rates(net, np.full(3, 0.3), 0.8, np.array([0, 2]))

    def test_threshold_matches_dense_eigensolver(self):
        # anchor the flagship instance against a full dense spectrum
        layer = sm.preset_layer("complete", 20, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([20000.0]))
        beta = np.full(20, 0.3)
        delta, _ = sm.margin_recovery_rates(net, beta, 0.8, [0, 19])
        mats = sm.equilibrium_matrices(sm.ModelSpec(net=net, beta=beta, delta=delta))
        mu = sm.spectral_abscissa(mats.G).mu
        oracle = float(np.max(np.linalg.eigvals(mats.G).real))
        assert mu == pytest.approx(oracle, abs=1e-10)

    def test_two_layers_heterogeneous_rates(self):
        n = 8
        l1 = sm.preset_layer("ring", n, 0.3)
        l2 = sm.preset_layer("star", n, 0.2, rates="mh_uniform")
        net = sm.MultiLayerNetwork(layers=(l1, l2), N=np.array([500.0, 300.0]))
        beta = np.linspace(0.2, 0.4, n)
        delta, info = sm.margin_recovery_rates(net, beta, 0.7, [2, 5])
        assert delta[2] - beta[2] == pytest.approx(info["s"], abs=1e-12)
        report = sm.classify(sm.ModelSpec(net=net, beta=beta, delta=delta))
        assert report.conditions.suf_lambda2 is True
        assert report.mu <= 0

    def test_specs_on_one_network_assemble_once(self, monkeypatch):
        # the lambda2 rule, classify and any later spec on the network
        # share one read-only assembly at the stationary populations
        calls = []
        original = sm.dynamics.assemble

        def counting(net, x):
            calls.append(net)
            return original(net, x)

        monkeypatch.setattr(sm.dynamics, "assemble", counting)
        scenario = sm.load_scenario(SCENARIOS / "fig3_lambda2.json")
        spec = scenario.spec
        sm.classify(spec)
        sm.classify(sm.ModelSpec(net=spec.net, beta=spec.beta, delta=spec.delta + 0.5))
        assert calls == [spec.net]
        mats = sm.equilibrium_matrices(spec)
        fresh = original(spec.net, sm.network_stationary(spec.net).v)
        for name in ("F", "L", "M"):
            assert np.array_equal(getattr(mats, name), getattr(fresh, name))
            assert not getattr(mats, name).flags.writeable

    def test_a_lane_reads_its_network_and_a_stack_keeps_what_it_built(self):
        # a lane declares its network, b, d and G; F*, L*, M and v are the
        # network's own arrays, and a stack keeps one F* and L* for lanes on
        # one network, else their stacks
        declared = [field.name for field in fields(sm.equilibria.EquilibriumMatrices)]
        assert declared == ["net", "b", "d", "G"]
        scenario = sm.load_scenario(SCENARIOS / "fig3_lambda2.json")
        spec = scenario.spec
        other = sm.MultiLayerNetwork(layers=spec.net.layers, N=spec.net.N * 2)
        shared = [(spec.net, spec.beta, spec.delta), (spec.net, spec.beta, spec.delta + 0.1)]
        for points in (shared, shared + [(other, spec.beta, spec.delta)]):
            stack = sm.equilibria.equilibrium_stack(points)
            for lane, (net, _, _) in zip(stack.lanes, points):
                assert lane.net is net
                for name in ("F", "L", "M"):
                    assert getattr(lane, name) is getattr(net.assembled, name), name
                assert lane.v is net.stationary.v
                assert lane.v_per_layer is net.stationary.v_per_layer
            if len(points) == 2:
                assert stack.F is spec.net.assembled.F and stack.L is spec.net.assembled.L
            else:
                assert stack.F.shape == stack.L.shape == stack.G.shape
                for k, lane in enumerate(stack.lanes):
                    assert np.array_equal(stack.F[k], lane.F)
                    assert np.array_equal(stack.L[k], lane.L)

    def test_lambda2_agrees_with_stability_conditions(self):
        n = 8
        l1 = sm.preset_layer("ring", n, 0.3)
        l2 = sm.preset_layer("star", n, 0.2, rates="mh_uniform")
        net = sm.MultiLayerNetwork(layers=(l1, l2), N=np.array([500.0, 300.0]))
        beta = np.linspace(0.2, 0.4, n)
        delta, info = sm.margin_recovery_rates(net, beta, 0.7, [2, 5])
        report = sm.stability_conditions(sm.ModelSpec(net=net, beta=beta, delta=delta))
        assert info["lambda2"] == pytest.approx(report.lambda2, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("call, kind, message", [
    (lambda: apply_infection_map(sm.equilibrium_matrices(line_spec(delta=0.0)), np.ones(2)),
     ValueError, "H is defined only when some recovery rate is positive"),
    (lambda: sm.margin_recovery_rates(line_spec(3).net, np.full(2, 0.3), 0.8, [0]),
     ValueError, "beta must be n=3 positive infection rates, got shape (2,)"),
    (lambda: sm.margin_recovery_rates(line_spec(3).net, np.full(3, 0.3), 0.8, [0, 5]),
     ValueError, "deficit_nodes out of range for n=3"),
], ids=["map_without_recovery", "margin_beta", "deficit_node_range"])
def test_equilibria_refusals(call, kind, message):
    assert_refused(call, kind, message)
