"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion lines inline).
"""

import numpy as np
import pytest

import sismob as sm
from sismob.dynamics import SystemState
from sismob.equilibria import apply_infection_map
from sismob.spectral import spectral_abscissa, spectral_radius
from sismob.stochastic import seed_infections, simulate_seeds, stationary_counts

from conftest import (SCENARIOS, assert_trajectory_invariants, infection_matrix, random_layer,
                      random_spec, recovery_matrix)


def _passed(line):
    print(f"ACCEPTANCE {line}: PASS")


def _mu_and_r0(spec):
    mats = sm.equilibrium_matrices(spec)
    mu = spectral_abscissa(mats.G).mu
    r0 = None
    if np.any(spec.delta > 0):
        A = np.linalg.solve(mats.L + recovery_matrix(spec), infection_matrix(spec))
        r0 = spectral_radius(A @ mats.F).rho
    return mats, mu, r0


def test_criterion_01_margin_scenario_quantitative():
    scenario = sm.load_scenario(SCENARIOS / "fig3_lambda2.json")
    spec = scenario.spec
    assert spec.n == 20 and spec.m == 1
    assert spec.net.layers[0].Q[0, 1] == pytest.approx(0.2 / 19, abs=1e-15)

    report = sm.classify(spec)
    c = report.conditions
    assert c.lambda2 == pytest.approx(4.0 / 19.0, abs=1e-12)
    assert c.lambda2 == pytest.approx(0.2105, abs=1e-4)
    assert c.s_lower == pytest.approx(-(4.0 / 19.0) / 81.0, abs=1e-12)
    assert c.s_lower == pytest.approx(-0.0026, abs=1e-4)
    assert c.s == pytest.approx(0.8 * -(4.0 / 19.0) / 81.0, abs=1e-9)
    assert c.s == pytest.approx(-0.0021, abs=1e-4)
    delta = np.asarray(spec.delta)
    assert delta[0] == delta[19]
    assert delta[0] == pytest.approx(0.29792, abs=1e-4)
    assert delta[1] == pytest.approx(0.3198, abs=1e-4)
    assert c.suf_lambda2 is True
    assert report.mu <= 0

    # infection dies out: sup-norm below 1e-4 within 2000 time units
    state = SystemState(t=0.0, p=scenario.p0, x=scenario.x0)
    reached = None
    while state.t < 2000.0:
        traj = sm.integrate(spec, state, 100.0, dt=scenario.dt, record_every=100)
        state = SystemState(t=state.t + 100.0, p=traj.p[-1], x=traj.x[-1])
        assert_trajectory_invariants(spec, traj)
        if np.max(traj.p[-1]) < 1e-4:
            reached = state.t
            break
    assert reached is not None and reached <= 2000.0
    _passed(f"01 margin-scenario quantitative (decay by t={reached:g})")


def test_criterion_02_scalar_analytic_oracle(scalar_spec):
    mats, mu, r0 = _mu_and_r0(scalar_spec)
    assert mu == pytest.approx(0.2, abs=1e-10)
    assert r0 == pytest.approx(3.0, abs=1e-10)

    p_star = sm.endemic_fixed_point(scalar_spec, mats)
    assert p_star[0] == pytest.approx(2.0 / 3.0, abs=1e-10)

    initial = SystemState(t=0.0, p=np.array([0.01]), x=np.array([1000.0]))
    traj = sm.integrate(scalar_spec, initial, 500.0, dt=0.01, record_every=1000)
    assert_trajectory_invariants(scalar_spec, traj)
    assert abs(traj.p[-1][0] - p_star[0]) <= 1e-6
    _passed("02 scalar analytic oracle")


def test_criterion_03_threshold_equivalence():
    rng = np.random.default_rng(2024_03)
    checked = 0
    while checked < 100:
        spec = random_spec(rng, n_max=8, m_max=3)
        _, mu, r0 = _mu_and_r0(spec)
        if abs(mu) <= 1e-8:
            continue  # tie: discard and regenerate
        assert (mu > 0) == (r0 > 1.0), (mu, r0)
        checked += 1
    _passed("03 threshold equivalence (100 instances, 0 disagreements)")


def test_criterion_04_endemic_consistency():
    rng = np.random.default_rng(2024_04)
    checked = 0
    while checked < 25:
        spec = random_spec(rng, n_max=6, m_max=3)
        mats, mu, _ = _mu_and_r0(spec)
        if mu < 0.05:   # the finite-horizon ODE oracle needs a real margin
            continue
        p_star = sm.endemic_fixed_point(spec, mats)
        BFp = infection_matrix(spec) @ (mats.F @ p_star)
        residual = np.max(np.abs(mats.G @ p_star - p_star * BFp))
        assert residual <= 1e-8

        initial = SystemState(t=0.0, p=np.full(spec.nm, 0.01), x=mats.v)
        settled = sm.integrate_until_settled(spec, initial, dt=0.05, t_max=4000.0,
                                             settle_tol=1e-10)
        assert np.max(np.abs(np.asarray(settled.p) - p_star)) <= 1e-6
        checked += 1
    _passed("04 endemic fixed point vs ODE limit (25 instances)")


def test_criterion_05_condition_soundness():
    rng = np.random.default_rng(2024_05)
    for _ in range(200):
        spec = random_spec(rng, n_max=7, m_max=3)
        mats, mu, _ = _mu_and_r0(spec)
        c = sm.stability_conditions(spec, mats)
        if c.suf_all or c.suf_lambda2 is True:
            assert mu <= 1e-10, (mu, c)
        if mu <= 0:
            assert all(c.nec_per_node), (mu, c)
            assert c.nec_exists, (mu, c)
    _passed("05 stability-condition soundness (200 instances)")


def test_criterion_06_monotone_map_suite():
    rng = np.random.default_rng(2024_06)
    for _ in range(200):
        spec = random_spec(rng, n_max=6, m_max=3)
        mats = sm.equilibrium_matrices(spec)
        p1 = rng.uniform(0.0, 1.0, size=spec.nm)
        p2 = np.minimum(p1 + rng.uniform(0.0, 1.0, size=spec.nm), 1.0)
        h1 = apply_infection_map(mats, p1)
        h2 = apply_infection_map(mats, p2)
        assert np.all(h2 - h1 >= -1e-12)
        h_top = apply_infection_map(mats, np.ones(spec.nm))
        assert np.all(h_top <= 1.0 + 1e-12)
    _passed("06 monotone-map properties (200 pairs)")


def test_criterion_07_conservation_and_invariance():
    rng = np.random.default_rng(2024_07)
    for _ in range(20):
        spec = random_spec(rng, n_max=5, m_max=3)
        p0 = rng.uniform(0.0, 1.0, size=spec.nm)
        x0 = rng.uniform(1.0, 20.0, size=spec.nm)
        traj = sm.integrate(spec, SystemState(t=0.0, p=p0, x=x0), 25.0, dt=0.01,
                            record_every=5)
        assert_trajectory_invariants(spec, traj)
    _passed("07 conservation & box invariance (20 integrations; also asserted "
            "on every other integration in this suite)")


def _node_mean_fraction_stochastic(run):
    tot = (run.s + run.i).sum(axis=2)
    inf = run.i.sum(axis=2)
    return np.where(tot > 0, inf / np.maximum(tot, 1), 0.0).mean(axis=1)


def _node_mean_fraction_ode(traj, n, m):
    tot = traj.x.reshape(len(traj.t), m, n).sum(axis=1)
    inf = (traj.p * traj.x).reshape(len(traj.t), m, n).sum(axis=1)
    return (inf / tot).mean(axis=1)


def test_criterion_08_stochastic_deterministic_agreement():
    n, m = 20, 2
    layers = (sm.preset_layer("complete", n, 0.2), sm.preset_layer("line", n, 0.2))
    beta = np.linspace(0.25, 0.35, n)
    delta = np.full(n, 0.1)
    t_end, h = 40.0, 0.01
    seeds = range(1, 11)

    gaps = {}
    for per_node in (50, 500, 5000):
        net = sm.MultiLayerNetwork(layers=layers, N=np.array([float(n * per_node)] * m))
        spec = sm.ModelSpec(net=net, beta=beta, delta=delta)
        populations = stationary_counts(spec)
        init = seed_infections(populations, 0.01)

        # deterministic counterpart started from the integerized state
        p0 = (init.i / np.maximum(init.s + init.i, 1)).T.ravel()
        x0 = (init.s + init.i).T.ravel().astype(float)
        traj = sm.integrate(spec, SystemState(t=0.0, p=p0, x=x0), t_end, dt=h)
        assert_trajectory_invariants(spec, traj)
        ode_series = _node_mean_fraction_ode(traj, n, m)

        runs = [_node_mean_fraction_stochastic(run)
                for run in simulate_seeds(spec, init, t_end, h=h, seeds=seeds)]
        mean_series = np.mean(runs, axis=0)
        gaps[per_node] = float(np.max(np.abs(mean_series - ode_series)))

    assert gaps[500] <= 0.05, gaps
    assert gaps[50] > gaps[500] > gaps[5000], gaps
    _passed(f"08 stochastic-deterministic agreement (gaps {gaps})")


def test_criterion_09_integrator_order(two_node_spec):
    initial = SystemState(t=0.0, p=np.array([0.3, 0.05]), x=np.array([70.0, 30.0]))
    t_end = 4.0

    def endpoint(dt):
        traj = sm.integrate(two_node_spec, initial, t_end, dt=dt,
                            record_every=int(round(t_end / dt)))
        return traj.p[-1]

    reference = endpoint(0.025)
    err_coarse = np.max(np.abs(endpoint(0.2) - reference))
    err_fine = np.max(np.abs(endpoint(0.1) - reference))
    ratio = err_coarse / err_fine
    assert 12.0 <= ratio <= 20.0, ratio
    _passed(f"09 integrator order (dt-halving error ratio {ratio:.2f})")


def test_criterion_10_mmatrix_equivalence():
    rng = np.random.default_rng(2024_10)
    for _ in range(100):
        size = int(rng.integers(2, 13))
        layer = random_layer(rng, size)
        lap = -layer.Q  # the Laplacian diag(nu) - Q off the diagonal
        bump = rng.uniform(0.0, 0.5, size=size) * (rng.random(size) < 0.5)
        if not np.any(bump > 0):
            bump[int(rng.integers(0, size))] = rng.uniform(0.1, 0.5)
        report = sm.mmatrix_checks(lap + np.diag(bump))
        assert report.stability and report.inverse_positive and report.semi_positive
        assert report.agree
    _passed("10 M-matrix characterization agreement (100 matrices)")
