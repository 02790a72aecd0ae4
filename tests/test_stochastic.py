import json
import re

import numpy as np
import pytest

import sismob as sm
from sismob.cli import main
from sismob.dynamics import SystemState, recorded_rows
from sismob.stochastic import (AgentCounts, StochasticRun, _lanes, seed_infections,
                               simulate, simulate_seeds, stationary_counts, step,
                               write_stochastic_csv)

from conftest import assert_refused, line_spec, random_spec


def oracle_spec() -> sm.ModelSpec:
    """m=2, n=4: an explicit layer with unequal rates, edges listed out
    of origin order, plus a complete layer; the epidemic sub-step is the
    identity up to beta = 1e-12."""
    layer0 = sm.layer_from_edge_rates(4, [(2, 0, 0.3), (0, 1, 0.5), (3, 2, 0.2),
                                          (1, 3, 0.35), (0, 3, 0.1), (1, 2, 0.4),
                                          (2, 3, 0.15), (0, 2, 0.25), (3, 0, 0.45)])
    layer1 = sm.preset_layer("complete", 4, 0.9)
    net = sm.MultiLayerNetwork(layers=(layer0, layer1), N=np.array([620.0, 530.0]))
    return sm.ModelSpec(net=net, beta=np.full(4, 1e-12), delta=np.zeros(4))


ORACLE_COUNTS = AgentCounts(s=np.array([[300, 40], [0, 120], [80, 200], [35, 0]]),
                            i=np.array([[20, 5], [60, 0], [0, 15], [10, 90]]))


class PinnedUniforms:
    """Generator stand-in: real binomial draws (kept in ``binomials``),
    every uniform pinned to ``u``."""

    def __init__(self, u: float, seed: int):
        self.u, self.rng, self.binomials = u, np.random.default_rng(seed), []

    def binomial(self, n, p):
        self.binomials.append(self.rng.binomial(n, p))
        return self.binomials[-1]

    def random(self, size):
        return np.full(size, self.u)


def pinned_oracle(spec, rng: PinnedUniforms, u: float) -> np.ndarray:
    """(2, m, n) counts one step after ORACLE_COUNTS with rng's leavers
    each moved to its origin row's first (u = 0) or last destination."""
    leavers, flips = rng.binomials
    assert not np.any(flips)
    expected = np.stack((ORACLE_COUNTS.s.T, ORACLE_COUNTS.i.T)) - leavers
    for a, layer in enumerate(spec.net.layers):
        for i in range(spec.n):
            targets = [j for j in range(spec.n) if j != i and layer.Q[i, j] > 0]
            expected[:, a, targets[0] if u == 0.0 else targets[-1]] += leavers[:, a, i]
    return expected


def node_mean_fraction(run):
    """Mean over nodes of the node-level infected fraction, per sample."""
    tot = (run.s + run.i).sum(axis=2)
    inf = run.i.sum(axis=2)
    return np.where(tot > 0, inf / np.maximum(tot, 1), 0.0).mean(axis=1)


class TestStep:
    def test_zero_width_step_changes_nothing(self, two_node_spec):
        counts = AgentCounts(s=np.array([[40], [50]]), i=np.array([[5], [5]]))
        rng = np.random.default_rng(0)
        out = step(two_node_spec, counts, 0.0, rng)
        assert np.array_equal(out.s, counts.s) and np.array_equal(out.i, counts.i)

    def test_disease_free_is_absorbing(self, two_node_spec):
        counts = AgentCounts(s=np.array([[50], [50]]), i=np.zeros((2, 1), dtype=int))
        rng = np.random.default_rng(1)
        for _ in range(200):
            counts = step(two_node_spec, counts, 0.01, rng)
            assert np.all(counts.i == 0)

    def test_single_node_matches_scalar_ode_limit(self, scalar_spec):
        # large population: t = 100 mean infected fraction near 1 - delta/beta
        big = sm.ModelSpec(net=sm.MultiLayerNetwork(layers=scalar_spec.net.layers,
                                                    N=np.array([100000.0])),
                           beta=scalar_spec.beta, delta=scalar_spec.delta)
        init = seed_infections(stationary_counts(big), 0.01)
        finals = [run.i[-1, 0, 0] / (run.s[-1, 0, 0] + run.i[-1, 0, 0])
                  for run in simulate_seeds(big, init, 100.0, h=0.01, seeds=range(10))]
        assert abs(np.mean(finals) - 2.0 / 3.0) < 0.01

    def test_oversized_probabilities_rejected(self, two_node_spec):
        counts = AgentCounts(s=np.array([[50], [50]]), i=np.array([[1], [1]]))
        with pytest.raises(sm.StepSizeError):
            step(two_node_spec, counts, 5.0, np.random.default_rng(0))

    def test_step_size_is_checked_against_the_drawn_leave_rate(self):
        # -diag(Q) = (0.5, 0.3) but the step draws leavers at the positive
        # off-diagonal row sum (2.0, 0.3): h = 0.9 is too large.
        layer = sm.MobilityLayer(n=2, edges=((0, 1), (1, 0)),
                                 Q=np.array([[-0.5, 2.0], [0.3, -0.3]]))
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(2, 0.3), delta=np.full(2, 0.1))
        counts = AgentCounts(s=np.array([[45], [45]]), i=np.array([[5], [5]]))
        with pytest.raises(sm.StepSizeError, match="exit rate 2.0"):
            step(spec, counts, 0.9, np.random.default_rng(0))
        with pytest.raises(sm.StepSizeError, match="exit rate 2.0"):
            simulate(spec, counts, 0.9, h=0.9, seed=0)

    def test_empty_node_is_safe(self, two_node_spec):
        counts = AgentCounts(s=np.array([[0], [50]]), i=np.array([[0], [5]]))
        rng = np.random.default_rng(4)
        out = step(two_node_spec, counts, 0.01, rng)
        assert np.all(out.s >= 0) and np.all(out.i >= 0)
        assert out.class_totals()[0] == 55
        frac = counts.infected_fractions()
        assert np.isnan(frac[0, 0]) and frac[1, 0] == pytest.approx(5 / 55)

    def test_mobility_matches_multinomial_mean_and_covariance(self):
        # Arrivals of one step: for class a and compartment counts c,
        # mean c P and covariance sum_i c_i (diag P_i - P_i P_i^T) with
        # P = I + h Q^a. 16 mean and 64 covariance z-scores, each within
        # 4.5 (a false failure per score has probability ~7e-6).
        spec, h, samples = oracle_spec(), 0.5, 10000
        rng = np.random.default_rng(2024)
        draws = np.empty((samples, 2, spec.m, spec.n))
        for k in range(samples):
            out = step(spec, ORACLE_COUNTS, h, rng)
            draws[k] = (out.s.T, out.i.T)
        for comp, start in enumerate((ORACLE_COUNTS.s.T, ORACLE_COUNTS.i.T)):
            for a, layer in enumerate(spec.net.layers):
                c, P = start[a], np.eye(spec.n) + h * layer.Q
                mean = c @ P
                cov = sum(c[i] * (np.diag(P[i]) - np.outer(P[i], P[i]))
                          for i in range(spec.n))
                x = draws[:, comp, a]
                var = np.diag(cov)
                z_mean = (x.mean(axis=0) - mean) / np.sqrt(var / samples)
                z_cov = ((np.cov(x, rowvar=False) - cov)
                         / np.sqrt((np.outer(var, var) + cov ** 2) / samples))
                assert np.all(np.abs(z_mean) < 4.5), (comp, a, z_mean)
                assert np.all(np.abs(z_cov) < 4.5), (comp, a, z_cov)

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53])
    def test_extreme_uniforms_route_inside_the_origin_row(self, u):
        # Generator.random lies in [0, 1 - 2**-53]: the smallest draw
        # must pick each origin's first destination, the largest its last.
        spec, h = oracle_spec(), 0.5
        rng = PinnedUniforms(u, seed=5)
        out = step(spec, ORACLE_COUNTS, h, rng)
        expected = pinned_oracle(spec, rng, u)
        assert np.array_equal(out.s.T, expected[0]) and np.array_equal(out.i.T, expected[1])

    def test_counts_of_the_wrong_shape_are_refused(self, two_node_spec):
        counts = AgentCounts(s=np.full((2, 2), 10), i=np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"shape \(n, m\) = \(2, 1\), got \(2, 2\)"):
            step(two_node_spec, counts, 0.01, np.random.default_rng(0))

    def test_step_size_is_refused_before_the_shape_and_t_end(self, two_node_spec):
        wrong = AgentCounts(s=np.full((2, 2), 10), i=np.ones((2, 2)))
        right = AgentCounts(s=np.array([[40], [50]]), i=np.array([[5], [5]]))
        with pytest.raises(sm.StepSizeError):
            step(two_node_spec, wrong, 5.0, np.random.default_rng(0))
        with pytest.raises(sm.StepSizeError):
            simulate_seeds(two_node_spec, wrong, 10.0, h=5.0, seeds=[0])
        with pytest.raises(sm.StepSizeError):
            simulate_seeds(two_node_spec, right, 7.5, h=5.0, seeds=[0])
        with pytest.raises(ValueError, match=r"shape \(n, m\)"):
            simulate_seeds(two_node_spec, wrong, 0.015, h=0.01, seeds=[0])

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_step_is_the_first_step_of_simulate(self, seed):
        spec, counts = three_class_counts()
        out = step(spec, counts, 0.01, np.random.default_rng(seed))
        run = simulate(spec, counts, 0.01, h=0.01, seed=seed)
        assert np.array_equal(out.s, run.s[1]) and np.array_equal(out.i, run.i[1])


def three_class_counts():
    """m=3, n=5 random spec and stationary counts with one empty cell."""
    spec = random_spec(np.random.default_rng(21), n=5, m=3)
    counts = seed_infections(stationary_counts(spec), 0.1)
    s, i = counts.s.copy(), counts.i.copy()
    s[2, 1] = i[2, 1] = 0
    return spec, AgentCounts(s=s, i=i)


def assert_same_run(run, alone, rows=slice(None)):
    assert run.seed == alone.seed and run.h == alone.h
    assert run.t.tobytes() == alone.t[rows].tobytes()
    assert np.array_equal(run.s, alone.s[rows]) and np.array_equal(run.i, alone.i[rows])


class TestLockstepSeeds:
    def test_each_lane_has_the_bits_of_its_seed_alone(self):
        spec, init = three_class_counts()
        seeds = [5, 3, 5, 0]
        runs = simulate_seeds(spec, init, 2.0, h=0.01, seeds=seeds)
        assert [run.seed for run in runs] == seeds
        assert runs[0].s[0, 2, 1] == runs[0].i[0, 2, 1] == 0
        for run in runs:
            assert_same_run(run, simulate(spec, init, 2.0, h=0.01, seed=run.seed))

    @pytest.mark.parametrize("every", [1, 7, 10, 203, 500])
    def test_recorded_rows_are_rows_of_the_full_series(self, every):
        # 203 steps: 10 does not divide them, so the final row is extra
        spec, init = three_class_counts()
        rows = recorded_rows(203, every)
        assert rows[0] == 0 and rows[-1] == 203
        assert np.array_equal(rows, np.unique([*range(0, 204, every), 203]))
        runs = simulate_seeds(spec, init, 2.03, h=0.01, seeds=[8, 2], record_every=every)
        for run in runs:
            assert_same_run(run, simulate(spec, init, 2.03, h=0.01, seed=run.seed), rows)
        assert_same_run(simulate(spec, init, 2.03, h=0.01, seed=8, record_every=every), runs[0])

    def test_record_every_must_be_positive(self, two_node_spec):
        init = AgentCounts(s=np.array([[40], [50]]), i=np.array([[5], [5]]))
        with pytest.raises(ValueError, match="record_every must be >= 1"):
            simulate_seeds(two_node_spec, init, 1.0, h=0.01, seeds=[1], record_every=0)

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53])
    def test_extreme_uniforms_route_every_lane_inside_its_origin_row(self, u):
        # lanes after the first add their cell offset to the destination
        spec, h = oracle_spec(), 0.5
        rngs = [PinnedUniforms(u, seed=seed) for seed in (5, 6, 7)]
        x0 = np.stack((ORACLE_COUNTS.s.T, ORACLE_COUNTS.i.T))
        _, out = _lanes(spec, ORACLE_COUNTS, h, rngs)
        for lane, rng in zip(out.transpose(0, 2, 1, 4, 3), rngs):
            assert np.array_equal(lane[0], x0)
            assert np.array_equal(lane[1], pinned_oracle(spec, rng, u))


class TestSimulate:
    def test_degenerate_rates_give_constant_series(self):
        layer = sm.MobilityLayer(n=2, edges=(), Q=np.zeros((2, 2)))
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
        spec = sm.ModelSpec(net=net, beta=np.full(2, 1e-12), delta=np.zeros(2))
        init = AgentCounts(s=np.array([[60], [30]]), i=np.array([[10], [0]]))
        run = simulate(spec, init, 5.0, h=0.01, seed=9)
        assert np.all(run.s == run.s[0]) and np.all(run.i == run.i[0])

    def test_ends_exactly_at_t_end_or_refuses(self, two_node_spec):
        init = AgentCounts(s=np.array([[40], [50]]), i=np.array([[5], [5]]))
        run = simulate(two_node_spec, init, 0.03, h=0.01, seed=0)
        assert len(run.t) == 4 and run.t[-1] == pytest.approx(0.03, abs=1e-15)
        with pytest.raises(ValueError, match=r"t_end = 0\.015 .* steps of 0\.01"):
            simulate(two_node_spec, init, 0.015, h=0.01, seed=0)

    def test_same_seed_bit_identical(self, two_node_spec):
        init = AgentCounts(s=np.array([[45], [45]]), i=np.array([[5], [5]]))
        a = simulate(two_node_spec, init, 5.0, h=0.01, seed=42)
        b = simulate(two_node_spec, init, 5.0, h=0.01, seed=42)
        assert np.array_equal(a.s, b.s) and np.array_equal(a.i, b.i)

    def test_population_conserved_exactly(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, n_max=5, m_max=3)
        init = seed_infections(stationary_counts(spec), 0.05)
        run = simulate(spec, init, 10.0, h=0.01, seed=3)
        class_totals = (run.s + run.i).sum(axis=1)
        assert np.all(class_totals == class_totals[0])

    def test_class_totals_exact_on_every_row_with_three_classes(self):
        spec = random_spec(np.random.default_rng(12), n=6, m=3)
        init = seed_infections(stationary_counts(spec), 0.1)
        run = simulate(spec, init, 5.0, h=0.01, seed=8)
        assert np.all(run.s >= 0) and np.all(run.i >= 0)
        class_totals = (run.s + run.i).sum(axis=1)
        assert np.all(class_totals == np.round(spec.net.N).astype(np.int64))

    def test_a_broken_class_total_fails_the_certificate(self, monkeypatch):
        # the third step's arrivals gain one susceptible in lane 1, class 1, node 0
        spec = random_spec(np.random.default_rng(5), n=3, m=2)
        init = seed_infections(stationary_counts(spec), 0.1)
        real, calls = np.bincount, []

        def leaky(*args, **kwargs):
            counts = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 3:
                counts[((1 * 2 + 0) * spec.m + 1) * spec.n + 0] += 1
            return counts

        monkeypatch.setattr(np, "bincount", leaky)
        with pytest.raises(sm.IntegrationError) as exc:
            simulate_seeds(spec, init, 0.05, h=0.01, seeds=[1, 2], record_every=1)
        found = re.fullmatch(r"lane 1 class 1 total (\d+) at step 3 is not its initial (\d+)",
                             str(exc.value))
        assert found and int(found[1]) == int(found[2]) + 1, exc.value
        assert len(calls) == 5  # the check runs once, after the steps

    @pytest.mark.parametrize("shape", [(2, 2), (3, 1)])
    def test_counts_of_the_wrong_shape_are_refused(self, two_node_spec, shape):
        init = AgentCounts(s=np.full(shape, 10), i=np.ones(shape))
        with pytest.raises(ValueError, match=r"shape \(n, m\) = \(2, 1\), got " + re.escape(str(shape))):
            simulate(two_node_spec, init, 1.0, h=0.01, seed=0)

    def test_mean_field_gap_shrinks_with_population(self):
        # ODE trajectory vs across-seed mean at class populations 1e2..1e4
        layer1 = sm.preset_layer("complete", 4, 0.2)
        layer2 = sm.preset_layer("line", 4, 0.2)
        beta = np.array([0.32, 0.3, 0.28, 0.26])
        delta = np.full(4, 0.1)
        t_end, h, seeds = 30.0, 0.01, range(6)

        gaps = []
        for class_population in (100, 1000, 10000):
            net = sm.MultiLayerNetwork(layers=(layer1, layer2),
                                       N=np.array([class_population] * 2, dtype=float))
            spec = sm.ModelSpec(net=net, beta=beta, delta=delta)
            x0 = stationary_counts(spec)
            init = seed_infections(x0, 0.02)

            p0 = (init.i / np.maximum(init.s + init.i, 1)).T.ravel()
            state = SystemState(t=0.0, p=p0, x=(init.s + init.i).T.ravel().astype(float))
            traj = sm.integrate(spec, state, t_end, dt=h)
            n = spec.n
            tot = traj.x.reshape(len(traj.t), spec.m, n)
            inf = (traj.p * traj.x).reshape(len(traj.t), spec.m, n)
            ode_mean = (inf.sum(axis=1) / tot.sum(axis=1)).mean(axis=1)

            mean_sto = np.mean([node_mean_fraction(run)
                                for run in simulate_seeds(spec, init, t_end, h=h, seeds=seeds)],
                               axis=0)
            gaps.append(float(np.max(np.abs(mean_sto - ode_mean))))

        assert gaps[0] > gaps[1] > gaps[2], gaps


class TestInitialConditions:
    def test_stationary_counts_match_totals(self):
        rng = np.random.default_rng(10)
        spec = random_spec(rng, n_max=6, m_max=3)
        x = stationary_counts(spec)
        assert np.array_equal(x.sum(axis=0), np.round(spec.net.N).astype(int))

    def test_seeding_hits_requested_totals(self):
        pops = np.array([[50, 500], [50, 500], [50, 500], [50, 500]])
        counts = seed_infections(pops, 0.01)
        # 0.01 * 200 = 2 infected in class 0, 0.01 * 2000 = 20 in class 1
        assert counts.i[:, 0].sum() == 2
        assert counts.i[:, 1].sum() == 20
        assert np.array_equal(counts.s + counts.i, pops)

    @pytest.mark.parametrize("p0", [0.0, [0.0] * 4 + [0.01] * 4], ids=["zero", "one_class_zero"])
    def test_a_class_at_p0_zero_seeds_no_infection(self, p0):
        # a class with nothing to allocate gets zeros, not 0 / 0.0 (a RuntimeWarning)
        pops = np.array([[50, 500], [50, 500], [50, 500], [50, 500]])
        counts = seed_infections(pops, p0)
        assert counts.i[:, 0].sum() == 0
        assert counts.i[:, 1].sum() == (0 if p0 == 0.0 else 20)
        assert np.array_equal(counts.s + counts.i, pops)

    def test_a_run_at_p0_zero_writes_no_infected(self, tmp_path):
        doc = {"name": "healthy", "n": 2, "m": 1,
               "layers": [{"preset": "line", "rate_scale": 0.2}], "beta": 0.3, "delta": 0.1,
               "N": [1000], "p0": 0, "t_end": 1.0, "dt": 0.01, "sample_every": 10,
               "stochastic": {"enabled": True, "h": 0.01, "seeds": [1, 2]}}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        for seed in (1, 2):
            lines = (tmp_path / "out" / f"healthy_stochastic_seed{seed}.csv").read_text().split()
            header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
            infected = [k for k, name in enumerate(header) if name.startswith("i[")]
            assert len(infected) == 2 and len(rows) == 11
            assert all(row[k] == "0" for row in rows for k in infected)

    def test_nan_fractions_are_refused(self):
        with pytest.raises(ValueError, match="p0 must be numbers, got NaN"):
            seed_infections(np.full((2, 1), 10), np.nan)


class TestAgentCounts:
    @pytest.mark.parametrize("s, i", [
        ([[2.7], [3.9]], [[0.5], [1.2]]),
        ([[2.0], [np.nan]], [[0.0], [1.0]]),
        ([[2.0], [3.0]], [[np.inf], [1.0]]),
    ])
    def test_non_whole_counts_are_refused(self, s, i):
        with pytest.raises(ValueError, match="finite whole numbers"):
            AgentCounts(s=s, i=i)

    def test_whole_float_counts_are_kept(self):
        counts = AgentCounts(s=[[2.0], [3.0]], i=[[0.0], [1.0]])
        assert counts.s.dtype == np.int64 and counts.s.tolist() == [[2], [3]]


PINNED_CSV = """\
t,p[0][0],p[0][1],p[1][0],p[1][1],x[0][0],x[0][1],x[1][0],x[1][1],\
s[0][0],s[0][1],s[1][0],s[1][1],i[0][0],i[0][1],i[1][0],i[1][1]
0,0,1,nan,0.22222222222222221,3,1,0,9,3,0,0,7,0,1,0,2
0.20000000000000001,0.33333333333333331,0,1,0.375,3,1,1,8,2,1,0,5,1,0,1,3
0.40000000000000002,1,0,nan,0.5714285714285714,3,4,0,7,0,4,0,3,3,0,0,4
0.5,1,0.25,0.5,0.5714285714285714,2,4,2,7,0,3,1,3,2,1,1,4
"""


class TestCsvExport:
    def test_bytes_are_pinned(self, tmp_path):
        # n=2, m=2, an empty cell, and the rows that record_every = 2 keeps
        # of 5 steps: 0, 2, 4 and the final 5
        s = np.array([[[3, 0], [0, 7]], [[2, 1], [0, 6]], [[2, 0], [1, 5]],
                      [[1, 0], [2, 5]], [[0, 0], [4, 3]], [[0, 1], [3, 3]]])
        i = np.array([[[0, 0], [1, 2]], [[1, 0], [1, 2]], [[1, 1], [0, 3]],
                      [[2, 1], [0, 3]], [[3, 0], [0, 4]], [[2, 1], [1, 4]]])
        rows = [0, 2, 4, 5]
        run = StochasticRun(seed=7, h=0.1, t=0.1 * np.arange(6)[rows], s=s[rows], i=i[rows])
        path = tmp_path / "pinned.csv"
        write_stochastic_csv(run, path)
        assert path.read_bytes() == PINNED_CSV.encode()

    def test_columns_and_missing_fractions(self, two_node_spec, tmp_path):
        init = AgentCounts(s=np.array([[0], [90]]), i=np.array([[0], [10]]))
        run = simulate(two_node_spec, init, 0.5, h=0.01, seed=1)
        path = tmp_path / "run.csv"
        write_stochastic_csv(run, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["t", "p[0][0]", "p[0][1]", "x[0][0]", "x[0][1]",
                          "s[0][0]", "s[0][1]", "i[0][0]", "i[0][1]"]
        first = path.read_text().splitlines()[1].split(",")
        assert first[1] == "nan"  # empty node has no defined fraction
        meta = {"seed": run.seed, "h": run.h}
        (tmp_path / "run.json").write_text(json.dumps(meta))
        assert json.loads((tmp_path / "run.json").read_text())["seed"] == 1


def line_counts() -> AgentCounts:
    return AgentCounts(s=np.array([[40], [40]]), i=np.array([[10], [10]]))


@pytest.mark.parametrize("call, kind, message", [
    (lambda: AgentCounts(s=np.zeros((2, 1)), i=np.zeros((2, 2))),
     ValueError, "s and i must be equal-shape (n, m) matrices, got (2, 1) and (2, 2)"),
    (lambda: AgentCounts(s=np.array([[1], [-1]]), i=np.zeros((2, 1))),
     ValueError, "counts must be nonnegative"),
    (lambda: step(line_spec(), line_counts(), -0.01, np.random.default_rng(0)),
     sm.StepSizeError, "h must be nonnegative, got -0.01"),
    (lambda: simulate_seeds(line_spec(), line_counts(), 1.0, h=0.0),
     sm.StepSizeError, "simulate needs h > 0, got 0.0"),
    (lambda: seed_infections(np.array([[50], [50]]), 1.5),
     ValueError, "initial fractions p0 must lie in [0, 1]"),
], ids=["count_shapes", "count_signs", "step_h", "simulate_h", "p0_range"])
def test_stochastic_refusals(call, kind, message):
    assert_refused(call, kind, message)
