import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sismob as sm
from sismob import dynamics
from sismob.dynamics import SystemState, recorded_rows, step_count, write_trajectory_csv

from conftest import (assert_refused, assert_trajectory_invariants, infection_matrix, line_spec,
                      random_layer, random_spec, recovery_matrix)


def componentwise_rhs(spec, p, x):
    """Straight transcription of the per-entry infection derivative,
    used as an oracle for the vectorized path."""
    n, m = spec.n, spec.m
    dp = np.zeros(n * m)
    for a, layer in enumerate(spec.net.layers):
        for i in range(n):
            k = a * n + i
            tot = sum(x[b * n + i] for b in range(m))
            pbar = sum(x[b * n + i] * p[b * n + i] for b in range(m)) / tot
            l_ii = sum(layer.Q[j, i] * x[a * n + j] / x[a * n + i]
                       for j in range(n) if j != i)
            acc = -spec.delta[i] * p[k] + spec.beta[i] * pbar * (1 - p[k]) - l_ii * p[k]
            for j in range(n):
                if j != i:
                    l_ij = -layer.Q[j, i] * x[a * n + j] / x[a * n + i]
                    acc -= l_ij * p[a * n + j]
            dp[k] = acc
    return dp


def rk4_oracle(spec, p, x, dt, steps):
    """Plain classical RK4 on the (p, x) form with the assembled-matrix
    right-hand side, no clamping."""
    B, D, n = infection_matrix(spec), recovery_matrix(spec), spec.n

    def f(p, x):
        mats = sm.assemble(spec.net, x)
        dp = (B @ mats.F - D - mats.L) @ p - p * (B @ (mats.F @ p))
        dx = np.concatenate([layer.Q.T @ x[a * n:(a + 1) * n]
                             for a, layer in enumerate(spec.net.layers)])
        return dp, dx

    for _ in range(steps):
        kp1, kx1 = f(p, x)
        kp2, kx2 = f(p + 0.5 * dt * kp1, x + 0.5 * dt * kx1)
        kp3, kx3 = f(p + 0.5 * dt * kp2, x + 0.5 * dt * kx2)
        kp4, kx4 = f(p + dt * kp3, x + dt * kx3)
        p = p + (dt / 6.0) * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4)
        x = x + (dt / 6.0) * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
    return p, x


def pack_reference(spec, p, x):
    """The (m, 2, n) state (x^a, y^a = x^a p^a) of layer-major p and x."""
    X = np.asarray(x, dtype=float).reshape(spec.m, spec.n)
    return np.stack((X, X * np.asarray(p, dtype=float).reshape(X.shape)), axis=1)


def dz_reference(spec, Z):
    """Derivative of the (m, 2, n) state, every result freshly allocated:
    the bit-for-bit reference of the buffered, compartment-major path."""
    dZ = Z @ spec.net.Q
    totals = Z.sum(axis=0)  # node totals of x and of y
    X, Y = Z[:, 0], Z[:, 1]
    dZ[:, 1] += spec.beta * (totals[1] / totals[0]) * (X - Y) - spec.delta * Y
    return dZ


def rhs_reference(spec, state):
    Z = pack_reference(spec, state.p, state.x)
    dX, dY = dz_reference(spec, Z).transpose(1, 0, 2)
    return ((dY - np.reshape(state.p, dX.shape) * dX) / Z[:, 0]).ravel(), dX.ravel()


def integrate_reference(spec, initial, t_end, dt, record_every=1):
    """RK4 allocating every stage on the (m, 2, n) state, with the same
    operation order, checks and clamp as ``integrate``; returns (t, p, x)."""
    steps = step_count(t_end, dt)
    rows = recorded_rows(steps, record_every)
    Z = pack_reference(spec, initial.p, initial.x)
    X, Y = Z[:, 0], Z[:, 1]
    ps, xs, kept = [initial.p], [initial.x], set(rows.tolist())
    for k in range(1, steps + 1):
        k1 = dz_reference(spec, Z)
        k2 = dz_reference(spec, Z + 0.5 * dt * k1)
        k3 = dz_reference(spec, Z + 0.5 * dt * k2)
        k4 = dz_reference(spec, Z + dt * k3)
        Z += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert X.min() > 0.0
        P = Y / X
        overshoot = max(-P.min(), P.max() - 1.0, 0.0)
        assert overshoot <= dynamics.CLAMP_TOL
        if overshoot > 0.0:
            np.clip(Y, 0.0, X, out=Y)
            np.clip(P, 0.0, 1.0, out=P)
        if k in kept:
            ps.append(P.ravel())
            xs.append(X.flatten())  # a copy: at m = 1, X.ravel() is a view of Z
    return float(initial.t) + dt * rows, np.array(ps), np.array(xs)


def clamped_logistic():
    """The logistic p' = p (1 - p) from p = 0.9 (m = n = 1) and the
    largest dt whose single RK4 step is not refused: it undershoots 0
    within CLAMP_TOL, so the step is clamped."""
    layer = sm.MobilityLayer(n=1, edges=(), Q=np.zeros((1, 1)))
    net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([1000.0]))
    spec = sm.ModelSpec(net=net, beta=np.array([1.0]), delta=np.array([0.0]))
    initial = SystemState(t=0.0, p=np.array([0.9]), x=np.array([1000.0]))

    def refused(dt):
        try:
            sm.integrate(spec, initial, dt, dt=dt)
        except sm.IntegrationError as exc:
            assert str(exc).startswith("p left [0,1] by ")
            return True
        return False

    lo, hi = 1.0, 5.0
    assert not refused(lo) and refused(hi)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    return spec, initial, lo


class TestAssemble:
    def test_single_class_shares_are_identity(self, two_node_spec):
        mats = sm.assemble(two_node_spec.net, np.array([50.0, 50.0]))
        assert np.allclose(mats.F, np.eye(2))
        assert np.allclose(mats.M, 0.0)

    def test_equal_populations_split_half(self):
        layer = sm.preset_layer("line", 2, 0.2)
        net = sm.MultiLayerNetwork(layers=(layer, layer), N=np.array([10.0, 10.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(2, 0.3), delta=np.full(2, 0.1))
        mats = sm.assemble(spec.net, np.array([4.0, 6.0, 4.0, 6.0]))
        assert mats.F[0, 0] == pytest.approx(0.5)
        assert mats.F[0, 2] == pytest.approx(0.5)

    def test_two_node_flow_matrix_by_hand(self, two_node_spec):
        # l_ij = -q_ji x_j / x_i evaluated entrywise at x = v
        mats = sm.assemble(two_node_spec.net, np.array([50.0, 50.0]))
        assert np.allclose(mats.L, [[0.2, -0.2], [-0.2, 0.2]], atol=1e-15)

    def test_nonpositive_population_rejected(self, two_node_spec):
        with pytest.raises(ValueError):
            sm.assemble(two_node_spec.net, np.array([1.0, 0.0]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_share_rows_sum_to_one_and_flow_rows_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        x = rng.uniform(0.5, 5.0, size=spec.nm)
        mats = sm.assemble(spec.net, x)
        assert np.max(np.abs(mats.F.sum(axis=1) - 1.0)) <= 1e-13
        assert np.max(np.abs(mats.L.sum(axis=1))) <= 1e-13
        assert np.max(np.abs(mats.M.sum(axis=1))) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_shares_average_p_over_classes_at_each_node(self, seed):
        # F is an m x m grid of diagonal share blocks, so F p = tile(pbar, m)
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        x = rng.uniform(0.5, 5.0, size=spec.nm)
        p = rng.uniform(0.0, 1.0, size=spec.nm)
        mats = sm.assemble(spec.net, x)
        X, P = x.reshape(spec.m, spec.n), p.reshape(spec.m, spec.n)
        pbar = (X * P).sum(axis=0) / X.sum(axis=0)
        assert np.max(np.abs(mats.F.sum(axis=1) - 1.0)) <= 1e-13
        assert np.allclose(mats.F @ p, np.tile(pbar, spec.m), rtol=0.0, atol=1e-14)


class TestRhs:
    def test_disease_free_state_is_invariant(self, two_node_spec):
        state = SystemState(t=0.0, p=np.zeros(2), x=np.array([30.0, 70.0]))
        dp, _ = sm.rhs(two_node_spec, state)
        assert np.all(dp == 0.0)

    def test_scalar_logistic_form(self, scalar_spec):
        for p in (0.0, 0.2, 0.9):
            state = SystemState(t=0.0, p=np.array([p]), x=np.array([1000.0]))
            dp, dx = sm.rhs(scalar_spec, state)
            assert dp[0] == pytest.approx(0.3 * p * (1 - p) - 0.1 * p, abs=1e-15)
            assert dx[0] == 0.0

    def test_stationary_population_has_zero_flow(self, two_node_spec):
        v = sm.network_stationary(two_node_spec.net).v
        state = SystemState(t=0.0, p=np.full(2, 0.3), x=v)
        _, dx = sm.rhs(two_node_spec, state)
        assert np.max(np.abs(dx)) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matrix_and_componentwise_forms_agree(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        p = rng.uniform(0.0, 1.0, size=spec.nm)
        x = rng.uniform(0.5, 5.0, size=spec.nm)
        dp, _ = sm.rhs(spec, SystemState(t=0.0, p=p, x=x))

        mats = sm.assemble(spec.net, x)
        B, D = infection_matrix(spec), recovery_matrix(spec)
        dp_matrix = (B @ mats.F - D - mats.L) @ p - p * (B @ (mats.F @ p))
        assert np.max(np.abs(dp - dp_matrix)) <= 1e-14

        dp_components = componentwise_rhs(spec, p, x)
        assert np.max(np.abs(dp - dp_components)) <= 1e-14


class TestIntegrate:
    def test_scalar_converges_to_one_minus_delta_over_beta(self, scalar_spec):
        initial = SystemState(t=0.0, p=np.array([0.01]), x=np.array([1000.0]))
        traj = sm.integrate(scalar_spec, initial, 200.0, dt=0.01, record_every=100)
        assert traj.p[-1][0] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert_trajectory_invariants(scalar_spec, traj)

    def test_zero_infection_stays_zero_and_population_settles(self, two_node_spec):
        x0 = np.array([20.0, 80.0])
        initial = SystemState(t=0.0, p=np.zeros(2), x=x0)
        traj = sm.integrate(two_node_spec, initial, 100.0, dt=0.01, record_every=100)
        assert np.all(traj.p == 0.0)
        v = sm.network_stationary(two_node_spec.net).v
        assert np.max(np.abs(traj.x[-1] - v)) <= 1e-8
        assert_trajectory_invariants(two_node_spec, traj)

    def test_positive_seed_spreads_everywhere(self, two_node_spec):
        # nonzero, nonnegative start: strictly positive at any later time
        initial = SystemState(t=0.0, p=np.array([0.05, 0.0]), x=np.array([50.0, 50.0]))
        traj = sm.integrate(two_node_spec, initial, 1.0, dt=0.01)
        assert np.all(traj.p[1:] > 0.0)

    def test_all_infected_start_stays_in_box(self, two_node_spec):
        # boundary start p = 1 flows inward toward the endemic level
        initial = SystemState(t=0.0, p=np.ones(2), x=np.array([50.0, 50.0]))
        traj = sm.integrate(two_node_spec, initial, 200.0, dt=0.01, record_every=100)
        assert_trajectory_invariants(two_node_spec, traj)
        p_star = sm.endemic_fixed_point(two_node_spec)
        assert np.max(np.abs(traj.p[-1] - p_star)) <= 1e-6

    def test_oversized_step_raises(self, two_node_spec):
        initial = SystemState(t=0.0, p=np.full(2, 0.5), x=np.array([50.0, 50.0]))
        with pytest.raises(sm.IntegrationError):
            sm.integrate(two_node_spec, initial, 400.0, dt=25.0)
        with np.errstate(all="ignore"), pytest.raises(sm.IntegrationError):
            sm.integrate(two_node_spec, initial, 1e200, dt=1e200)  # overflows to NaN

    def test_small_undershoot_is_clamped_and_the_run_continues(self):
        # one RK4 step of the logistic p' = p (1 - p) from 0.9 undershoots 0
        # as dt grows: the largest step that is not refused lands within
        # CLAMP_TOL below 0, so it is clamped to 0
        spec, initial, lo = clamped_logistic()
        traj = sm.integrate(spec, initial, 3 * lo, dt=lo)
        assert len(traj.t) == 4 and np.all(traj.p[1:] == 0.0)
        y = traj.p * traj.x
        assert np.all((traj.p >= 0.0) & (traj.p <= 1.0))
        assert np.all((y >= 0.0) & (y <= traj.x))

    def test_ends_exactly_at_t_end_or_refuses(self, two_node_spec):
        initial = SystemState(t=0.0, p=np.full(2, 0.5), x=np.array([50.0, 50.0]))
        traj = sm.integrate(two_node_spec, initial, 0.03, dt=0.01)
        assert len(traj.t) == 4 and traj.t[-1] == pytest.approx(0.03, abs=1e-15)
        with pytest.raises(ValueError, match=r"t_end = 0\.015 .* steps of 0\.01"):
            sm.integrate(two_node_spec, initial, 0.015, dt=0.01)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_box_invariance_and_conservation(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n_max=5, m_max=2)
        p0 = rng.uniform(0.0, 1.0, size=spec.nm)
        x0 = rng.uniform(1.0, 10.0, size=spec.nm)
        traj = sm.integrate(spec, SystemState(t=0.0, p=p0, x=x0), 20.0, dt=0.01,
                            record_every=10)
        assert_trajectory_invariants(spec, traj)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_plain_rk4_on_the_p_x_form_at_stationary_populations(self, seed):
        # constant x makes y = x p a fixed linear map, which RK4 commutes with
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n_max=6, m_max=3)
        p0 = rng.uniform(0.0, 1.0, size=spec.nm)
        x0 = np.asarray(sm.network_stationary(spec.net).v)
        traj = sm.integrate(spec, SystemState(t=0.0, p=p0, x=x0), 3.0, dt=0.01,
                            record_every=300)
        p_ref, x_ref = rk4_oracle(spec, p0, x0, 0.01, 300)
        assert np.max(np.abs(traj.p[-1] - p_ref)) <= 1e-12
        assert np.max(np.abs(traj.x[-1] - x_ref) / x_ref) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_differs_from_plain_rk4_on_the_p_x_form_at_fourth_order(self, seed):
        # moving x makes y = x p nonlinear: both schemes are fourth order,
        # so their gap shrinks ~16x per halving of dt; x itself is linear
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n_max=6, m_max=3)
        p0 = rng.uniform(0.0, 1.0, size=spec.nm)
        x0 = rng.uniform(1.0, 10.0, size=spec.nm)
        gaps = []
        for dt, steps in ((0.05, 40), (0.025, 80)):
            traj = sm.integrate(spec, SystemState(t=0.0, p=p0, x=x0), 2.0, dt=dt,
                                record_every=steps)
            p_ref, x_ref = rk4_oracle(spec, p0, x0, dt, steps)
            gaps.append(np.max(np.abs(traj.p[-1] - p_ref)))
            assert np.max(np.abs(traj.x[-1] - x_ref) / x_ref) <= 1e-12
        assert 12.0 <= gaps[0] / gaps[1] <= 24.0, gaps

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_initial_sample_is_the_initial_state_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        initial = SystemState(t=0.5, p=rng.uniform(0.0, 1.0, size=spec.nm),
                              x=rng.uniform(0.5, 5.0, size=spec.nm))
        for t_end in (0.0, 0.05):
            traj = sm.integrate(spec, initial, t_end, dt=0.01)
            assert traj.t[0] == 0.5
            assert np.array_equal(traj.p[0], initial.p)
            assert np.array_equal(traj.x[0], initial.x)
        assert len(sm.integrate(spec, initial, 0.0).t) == 1

    @pytest.mark.parametrize("every", [1, 3, 7, 40, 41, 100])
    def test_recorded_rows_are_rows_of_the_full_run(self, two_node_spec, every):
        # 40 steps from t = 0.25: 3 and 7 do not divide them, 41 and 100 pass them
        initial = SystemState(t=0.25, p=np.array([0.01, 0.3]), x=np.array([55.0, 45.0]))
        full = sm.integrate(two_node_spec, initial, 0.4, dt=0.01)
        traj = sm.integrate(two_node_spec, initial, 0.4, dt=0.01, record_every=every)
        rows = recorded_rows(40, every)
        assert traj.t.tobytes() == full.t[rows].tobytes()
        assert traj.t.tolist() == [0.25 + k * 0.01 for k in rows.tolist()]
        assert traj.p.tobytes() == full.p[rows].tobytes()
        assert traj.x.tobytes() == full.x[rows].tobytes()

    def test_settle_helper_reaches_equilibrium(self, two_node_spec):
        initial = SystemState(t=0.0, p=np.full(2, 0.01), x=np.array([40.0, 60.0]))
        state = sm.integrate_until_settled(two_node_spec, initial, dt=0.01,
                                           t_max=2000.0, settle_tol=1e-10)
        dp, dx = sm.rhs(two_node_spec, state)
        assert max(np.max(np.abs(dp)), np.max(np.abs(dx))) <= 1e-10


class TestBufferedStep:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 7, 33])
    def test_integrate_and_rhs_have_the_bits_of_the_allocating_reference(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        spec = random_spec(rng, n=n, m=m)
        stationary = np.asarray(sm.network_stationary(spec.net).v)
        for x0 in (stationary, rng.uniform(1.0, 10.0, size=spec.nm)):
            initial = SystemState(t=0.25, p=rng.uniform(0.0, 1.0, size=spec.nm), x=x0)
            for every in (1, 7):
                traj = sm.integrate(spec, initial, 0.6, dt=0.01, record_every=every)
                t, p, x = integrate_reference(spec, initial, 0.6, 0.01, every)
                assert traj.t.tobytes() == t.tobytes()
                assert traj.p.tobytes() == p.tobytes()
                assert traj.x.tobytes() == x.tobytes()
            dp, dx = sm.rhs(spec, initial)
            dp_ref, dx_ref = rhs_reference(spec, initial)
            assert dp.tobytes() == dp_ref.tobytes() and dx.tobytes() == dx_ref.tobytes()

    def test_clamped_steps_have_the_bits_of_the_allocating_reference(self):
        spec, initial, dt = clamped_logistic()
        traj = sm.integrate(spec, initial, 3 * dt, dt=dt)
        t, p, x = integrate_reference(spec, initial, 3 * dt, dt)
        assert np.all(traj.p[1:] == 0.0)  # the clamp did act
        assert traj.t.tobytes() == t.tobytes()
        assert traj.p.tobytes() == p.tobytes()
        assert traj.x.tobytes() == x.tobytes()

    def test_recorded_rows_share_no_memory(self, monkeypatch):
        # every array _dz reads or writes is a buffer the step loop reuses
        buffers, real = [], dynamics._dz

        def spy(work, src, out):
            buffers.extend([*work, *src, *out])
            real(work, src, out)

        monkeypatch.setattr(dynamics, "_dz", spy)
        spec = random_spec(np.random.default_rng(3), n=4, m=2)
        initial = SystemState(t=0.0, p=np.full(spec.nm, 0.2), x=np.linspace(1.0, 2.0, spec.nm))
        traj = sm.integrate(spec, initial, 0.05, dt=0.01)
        rows = [*traj.p, *traj.x]
        for k, row in enumerate(rows):
            assert not any(np.shares_memory(row, other) for other in rows[k + 1:])
            assert not any(np.shares_memory(row, buffer) for buffer in buffers)
        assert len({row.tobytes() for row in traj.x}) == len(traj.x)

    def test_a_leaking_derivative_fails_the_conservation_certificate(self, monkeypatch):
        # class 1 gains 4e-9 of its mass per unit time: 8e-10 at t = 0.2
        # passes, 1.2e-9 at the next recorded row does not
        real = dynamics._dz

        def leaky(work, src, out):
            real(work, src, out)
            out[2][1] += 4e-9 * src[2][1]

        monkeypatch.setattr(dynamics, "_dz", leaky)
        spec = random_spec(np.random.default_rng(4), n=3, m=2)
        initial = SystemState(t=0.0, p=np.full(spec.nm, 0.1), x=np.linspace(1.0, 2.0, spec.nm))
        with pytest.raises(sm.IntegrationError,
                           match=r"^class 1 total drifted by \S+ from 5\.4 at t=0\.3$"):
            sm.integrate(spec, initial, 1.0, dt=0.01, record_every=10)
        monkeypatch.setattr(dynamics, "_dz", real)
        assert_trajectory_invariants(spec, sm.integrate(spec, initial, 1.0, dt=0.01))


def rk4_amplification(z):
    """|R(z)| with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: RK4's growth per step
    of a mode whose eigenvalue times dt is z."""
    return np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)


class TestRK4Stability:
    def test_rk4_is_stable_on_the_disc_of_diameter_rk4_stability(self):
        # the disc |z + r| <= r, r = RK4_STABILITY / 2, holds dt times every
        # eigenvalue of a generator with dt * 2 * (largest exit rate) <= RK4_STABILITY
        r = dynamics.RK4_STABILITY / 2.0
        z = -r + r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 100001))
        assert rk4_amplification(z).max() <= 1.0 + 1e-12
        assert rk4_amplification(-2.7852) <= 1.0 < rk4_amplification(-2.7854)  # the real limit

    @pytest.mark.parametrize("seed", range(20))
    def test_non_reversible_generators_step_stably_at_the_bound(self, seed):
        # a directed random layer's spectrum is complex; at the largest dt the
        # run accepts, no mode grows
        Q = random_layer(np.random.default_rng(seed), 2 + seed).Q
        dt = dynamics.RK4_STABILITY / (2.0 * float(-np.diag(Q).min()))
        assert rk4_amplification(dt * np.linalg.eigvals(Q)).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_recovery_joins_the_bound_of_a_y_row(self, seed):
        # the linear part of a y row is Q - diag(delta); at the largest dt
        # that dt * max(2 nu + delta) <= RK4_STABILITY accepts, no mode grows
        rng = np.random.default_rng(seed)
        Q = random_layer(rng, 2 + seed).Q
        delta = rng.uniform(0.0, 3.0, size=len(Q)) * rng.integers(0, 2)  # also all zero
        dt = dynamics.RK4_STABILITY / float((-2.0 * np.diag(Q) + delta).max())
        assert rk4_amplification(dt * np.linalg.eigvals(Q - np.diag(delta))).max() <= 1.0 + 1e-12

    def test_a_directed_ring_past_the_bound_grows(self):
        # its spectrum nu (e^(2 pi i k / n) - 1) lies on the disc's edge and
        # reaches -2 nu at even n; here nu = 1 and dt * 2 nu = 2.80
        Q = np.roll(np.eye(8), 1, axis=1) - np.eye(8)
        assert rk4_amplification(1.40 * np.linalg.eigvals(Q)).max() > 1.02


class TestRecordedRows:
    def test_rows_are_the_strided_steps_and_the_last(self):
        for steps in (0, 1, 2, 5, 9, 10, 203):
            for every in (1, 2, 3, 7, 10, 300):
                rows = recorded_rows(steps, every)
                expected = np.unique(np.r_[0:steps + 1:every, steps])
                assert rows.dtype == expected.dtype, (steps, every)
                assert np.array_equal(rows, expected), (steps, every)

    def test_every_must_be_positive(self, two_node_spec):
        with pytest.raises(ValueError, match="record_every must be >= 1"):
            recorded_rows(5, 0)
        initial = SystemState(t=0.0, p=np.array([0.01, 0.3]), x=np.array([55.0, 45.0]))
        with pytest.raises(ValueError, match="record_every must be >= 1"):
            sm.integrate(two_node_spec, initial, 0.1, dt=0.01, record_every=0)


class TestTrajectoryCsv:
    def test_round_trip_exact(self, two_node_spec, tmp_path):
        initial = SystemState(t=0.0, p=np.array([0.01, 0.02]), x=np.array([55.0, 45.0]))
        traj = sm.integrate(two_node_spec, initial, 1.0, dt=0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, two_node_spec.n, two_node_spec.m)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert len(data) == len(traj.t)
        assert np.array_equal(data["t"], traj.t)
        assert np.array_equal(data["p00"], traj.p[:, 0])   # header p[0][0]
        assert np.array_equal(data["x01"], traj.x[:, 1])


@pytest.mark.parametrize("call, kind, message", [
    (lambda: sm.ModelSpec(net=line_spec().net, beta=np.ones(3), delta=np.zeros(2)),
     ValueError, "beta must have length n=2, got shape (3,)"),
    (lambda: sm.ModelSpec(net=line_spec().net, beta=np.ones(2), delta=np.zeros(3)),
     ValueError, "delta must have length n=2, got shape (3,)"),
    (lambda: sm.ModelSpec(net=line_spec().net, beta=[0.3, 0.0], delta=np.zeros(2)),
     ValueError, "infection rates beta must be positive"),
    (lambda: sm.ModelSpec(net=line_spec().net, beta=np.ones(2), delta=[0.1, -0.1]),
     ValueError, "recovery rates delta must be nonnegative"),
    (lambda: SystemState(t=0.0, p=np.zeros(2), x=np.ones(3)),
     ValueError, "p and x must be equal-length vectors, got (2,), (3,)"),
    (lambda: SystemState(t=0.0, p=[0.5, 1.5], x=np.ones(2)),
     ValueError, "infected fractions p must lie in [0, 1]"),
    (lambda: SystemState(t=0.0, p=np.zeros(2), x=[1.0, 0.0]),
     ValueError, "class populations x must be positive"),
    (lambda: sm.assemble(line_spec().net, np.ones(3)),
     ValueError, "x must have length nm=2, got shape (3,)"),
    (lambda: sm.integrate(line_spec(), SystemState(t=0.0, p=[0.5, 0.5], x=[50.0, 50.0]), 1.0,
                          dt=0.0),
     ValueError, "dt must be positive, got 0.0"),
    (lambda: sm.integrate_until_settled(line_spec(),
                                        SystemState(t=0.0, p=[0.5, 0.5], x=[50.0, 50.0]),
                                        dt=0.01, t_max=0.02),
     sm.IntegrationError, "state did not settle to 1e-09 within t=0.02"),
], ids=["beta_length", "delta_length", "beta_positive", "delta_nonnegative", "state_shapes",
        "p_range", "x_positive", "assemble_x_length", "integrate_dt", "unsettled"])
def test_dynamics_refusals(call, kind, message):
    assert_refused(call, kind, message)
