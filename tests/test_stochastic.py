import json

import numpy as np
import pytest

import sismob as sm
from sismob.dynamics import SystemState
from sismob.stochastic import (AgentCounts, seed_infections, simulate,
                               stationary_counts, step, write_stochastic_csv)

from conftest import random_spec


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
        init = seed_infections(stationary_counts(big), 0.01, 1, 1)
        finals = [simulate(big, init, 100.0, h=0.01, seed=seed).fractions()[-1, 0, 0]
                  for seed in range(10)]
        assert abs(np.mean(finals) - 2.0 / 3.0) < 0.01

    def test_oversized_probabilities_rejected(self, two_node_spec):
        counts = AgentCounts(s=np.array([[50], [50]]), i=np.array([[1], [1]]))
        with pytest.raises(sm.StepSizeError):
            step(two_node_spec, counts, 5.0, np.random.default_rng(0))

    def test_empty_node_is_safe(self, two_node_spec):
        counts = AgentCounts(s=np.array([[0], [50]]), i=np.array([[0], [5]]))
        rng = np.random.default_rng(4)
        out = step(two_node_spec, counts, 0.01, rng)
        assert np.all(out.s >= 0) and np.all(out.i >= 0)
        assert out.class_totals()[0] == 55
        frac = counts.infected_fractions()
        assert np.isnan(frac[0, 0]) and frac[1, 0] == pytest.approx(5 / 55)


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
        init = seed_infections(stationary_counts(spec), 0.05, spec.n, spec.m)
        run = simulate(spec, init, 10.0, h=0.01, seed=3)
        class_totals = (run.s + run.i).sum(axis=1)
        assert np.all(class_totals == class_totals[0])

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
            init = seed_infections(x0, 0.02, 4, 2)

            p0 = (init.i / np.maximum(init.s + init.i, 1)).T.ravel()
            state = SystemState(t=0.0, p=p0, x=(init.s + init.i).T.ravel().astype(float))
            traj = sm.integrate(spec, state, t_end, dt=h)
            n = spec.n
            tot = traj.x.reshape(len(traj.t), spec.m, n)
            inf = (traj.p * traj.x).reshape(len(traj.t), spec.m, n)
            ode_mean = (inf.sum(axis=1) / tot.sum(axis=1)).mean(axis=1)

            mean_sto = np.mean([node_mean_fraction(simulate(spec, init, t_end, h=h, seed=s))
                                for s in seeds], axis=0)
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
        counts = seed_infections(pops, 0.01, 4, 2)
        # 0.01 * 200 = 2 infected in class 0, 0.01 * 2000 = 20 in class 1
        assert counts.i[:, 0].sum() == 2
        assert counts.i[:, 1].sum() == 20
        assert np.array_equal(counts.s + counts.i, pops)


class TestCsvExport:
    def test_columns_and_missing_fractions(self, two_node_spec, tmp_path):
        init = AgentCounts(s=np.array([[0], [90]]), i=np.array([[0], [10]]))
        run = simulate(two_node_spec, init, 0.5, h=0.01, seed=1)
        path = tmp_path / "run.csv"
        write_stochastic_csv(run, path, 2, 1)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["t", "p[0][0]", "p[0][1]", "x[0][0]", "x[0][1]",
                          "s[0][0]", "s[0][1]", "i[0][0]", "i[0][1]"]
        first = path.read_text().splitlines()[1].split(",")
        assert first[1] == "nan"  # empty node has no defined fraction
        meta = {"seed": run.seed, "h": run.h}
        (tmp_path / "run.json").write_text(json.dumps(meta))
        assert json.loads((tmp_path / "run.json").read_text())["seed"] == 1
