import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sismob as sm
from sismob.cli import (GRID_MAX_POINTS, _document, _grid_point_doc, _parse_grid,
                        build_parser, main)

from conftest import SCENARIOS


def two_layer_doc(**overrides):
    doc = {
        "name": "pair_layers",
        "n": 4, "m": 2,
        "layers": [{"preset": "complete", "rate_scale": 0.2},
                   {"preset": "line", "rate_scale": 0.2}],
        "beta": [0.3, 0.25, 0.35, 0.28], "delta": 0.1,
        "N": [1000, 1000],
        "t_end": 1.0, "dt": 0.01,
    }
    doc.update(overrides)
    return doc


LAMBDA2_RULE = {"rule": "lambda2_sufficient", "s_factor": 0.8, "deficit_nodes": [0, 3]}


def pointwise_rows(argv):
    """The sweep's CSV rows, each from a full parse of its own grid point."""
    args = build_parser().parse_args(argv)
    doc = _document(args)
    field, values = _parse_grid(args.grid)
    rows = []
    for idx, value in enumerate(values):
        try:
            point = sm.parse_scenario(_grid_point_doc(doc, field, float(value)))
            mu, r0, cls = sm.equilibria.threshold(sm.equilibrium_matrices(point.spec))
        except (ValueError, RuntimeError) as exc:
            rows.append(f"{idx},{value:.17g},,,,\"{type(exc).__name__}: {exc}\"")
            continue
        r0_s = "" if r0 is None else format(r0, ".17g")
        rows.append(f"{idx},{value:.17g},{mu:.17g},{r0_s},{cls},")
    return rows


_LINSPACE = np.linspace


def _bounded_linspace(start, stop, num, *args, **kwargs):
    """np.linspace that refuses an oversize grid instead of allocating it."""
    assert num <= GRID_MAX_POINTS, f"np.linspace asked for {num} points"
    return _LINSPACE(start, stop, num, *args, **kwargs)


def scalar_doc(**overrides):
    doc = {
        "name": "scalar",
        "n": 1, "m": 1,
        "layers": [{"edges": []}],
        "beta": 0.3, "delta": 0.1,
        "N": [1000],
        "t_end": 5.0, "dt": 0.01,
    }
    doc.update(overrides)
    return doc


class TestScenarioParsing:
    def test_bundled_scenarios_all_parse(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            scenario = sm.load_scenario(path)
            assert scenario.spec.nm >= 1, path

    def test_mismatched_beta_length_names_field(self):
        doc = scalar_doc(n=2, m=1, layers=[{"preset": "line", "rate_scale": 0.2}],
                         beta=[0.3, 0.2, 0.4])
        with pytest.raises(sm.ScenarioError, match="beta"):
            sm.parse_scenario(doc)

    def test_unknown_field_rejected(self):
        with pytest.raises(sm.ScenarioError, match="betaa"):
            sm.parse_scenario(scalar_doc(betaa=0.3))

    def test_disconnected_layer_names_layer(self):
        doc = scalar_doc(n=3, layers=[{"edges": [[0, 1, 0.2], [1, 0, 0.2]]}])
        with pytest.raises(sm.ScenarioError, match=r"layers\[0\]"):
            sm.parse_scenario(doc)

    def test_p0_range_checked(self):
        with pytest.raises(sm.ScenarioError, match="p0"):
            sm.parse_scenario(scalar_doc(p0=1.5))

    def test_defaults_are_resolved_into_manifest_form(self):
        scenario = sm.parse_scenario(scalar_doc())
        resolved = scenario.resolved
        # silent defaults must be visible
        assert resolved["p0"] == [0.01]
        assert resolved["x0"] == [1000.0]
        assert resolved["sample_every"] == 1
        assert resolved["stochastic"] == {"enabled": False, "h": 0.01, "seeds": [0]}
        assert resolved["output_dir"] == "out"

    def test_stationary_x0_resolved(self):
        doc = scalar_doc(n=2, layers=[{"edges": [[0, 1, 0.1], [1, 0, 0.3]]}],
                         beta=0.3, delta=0.1, x0="stationary")
        scenario = sm.parse_scenario(doc)
        assert np.allclose(scenario.x0, [750.0, 250.0])

    def test_stochastic_enabled_must_be_a_json_boolean(self, tmp_path, capsys):
        doc = scalar_doc(stochastic={"enabled": "false"})
        with pytest.raises(sm.ScenarioError, match=r"stochastic\.enabled"):
            sm.parse_scenario(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "stochastic.enabled" in capsys.readouterr().err

    @pytest.mark.parametrize("field, overrides", [
        ("beta", {"beta": float("nan")}),
        ("beta", {"beta": float("inf")}),
        ("beta", {"beta": [True]}),
        ("delta", {"delta": ["0.1"]}),
        ("N", {"N": [float("inf")]}),
        ("p0", {"p0": None}),
        ("t_end", {"t_end": float("nan")}),
        ("t_end", {"t_end": "abc"}),
        ("t_end", {"t_end": 0.015}),
        ("t_end", {"t_end": 0.5, "stochastic": {"enabled": True, "h": 0.3}}),
        ("dt", {"dt": float("inf")}),
        ("stochastic.h", {"stochastic": {"h": float("nan")}}),
        ("N", {"N": [1.5], "stochastic": {"enabled": True}}),
        ("stochastic.seeds", {"stochastic": {"seeds": [-1]}}),
        ("stochastic.h", {"stochastic": {"enabled": True, "h": 5.0}}),
        ("stochastic.h", {"beta": 0.1, "delta": 0.4,
                          "stochastic": {"enabled": True, "h": 2.5}}),
        ("stochastic.h", {"n": 3, "layers": [{"preset": "ring", "rate_scale": 0.5}],
                          "beta": 0.1, "stochastic": {"enabled": True, "h": 2.5}}),
        ("layers[0].rate_scale", {"n": 3, "layers": [{"preset": "ring", "rate_scale": "x"}]}),
        ("layers[0].mh.rate_scale",
         {"n": 3, "layers": [{"mh": {"graph": "ring", "rate_scale": float("nan")}}]}),
        ("delta.s_factor", {"n": 3, "layers": [{"preset": "ring", "rate_scale": 0.2}],
                            "delta": {"rule": "lambda2_sufficient", "s_factor": float("inf")}}),
        *[("delta.deficit_nodes",
           {"n": 3, "layers": [{"preset": "ring", "rate_scale": 0.2}],
            "delta": {"rule": "lambda2_sufficient", "deficit_nodes": nodes}})
          for nodes in ([0.7, 2], [0, 2.9], [True, 2], "01")],
    ])
    def test_bad_numbers_name_the_field(self, field, overrides, tmp_path, capsys):
        doc = scalar_doc(**overrides)
        with pytest.raises(sm.ScenarioError) as info:
            sm.parse_scenario(doc)
        assert str(info.value).startswith(field + ":"), str(info.value)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert f"scenario error: {field}:" in capsys.readouterr().err

    def test_each_layer_is_validated_once(self, monkeypatch):
        # load, classify and stationary counts share each layer's law
        calls = []
        original = sm.network.validate_layer

        def counting(layer):
            calls.append(layer)
            return original(layer)

        monkeypatch.setattr(sm.network, "validate_layer", counting)
        scenario = sm.load_scenario(SCENARIOS / "fig1_complete_line.json")
        sm.classify(scenario.spec)
        sm.stationary_counts(scenario.spec)
        assert len(calls) == scenario.spec.m
        assert {id(layer) for layer in calls} == {id(layer) for layer in scenario.spec.net.layers}

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "a\0b", ".", "..", "",
                                      {"a": 1}, 7, None, True])
    def test_name_must_be_a_file_name(self, name, tmp_path, capsys):
        # outputs are named <name>_*.json: a name must not leave --out
        with pytest.raises(sm.ScenarioError, match="^name:"):
            sm.parse_scenario(scalar_doc(name=name))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scalar_doc(name=name)))
        out = str(tmp_path / "out")
        for argv in (["validate"], ["analyze", "--out", out], ["run", "--out", out],
                     ["sweep", "--out", out, "--grid", "delta=0.1:0.5:3"]):
            assert main([*argv, "--scenario", str(path)]) == 2
            assert "scenario error: name:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    @pytest.mark.parametrize("name", ["fig1_complete_line", "sweep_n20", "analyze_lambda2_n80",
                                      "fig1_n160", "fig1_n80_lambda2", "a..b", "with space"])
    def test_file_name_stems_are_accepted(self, name):
        assert sm.parse_scenario(scalar_doc(name=name)).name == name

    def test_delta_rule_resolves_to_explicit_vector(self):
        scenario = sm.load_scenario(SCENARIOS / "fig3_lambda2.json")
        assert scenario.resolved["delta_rule"]["rule"] == "lambda2_sufficient"
        assert len(scenario.resolved["delta"]) == 20


    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_resolved_form_parses_back_to_itself(self, path):
        resolved = sm.load_scenario(path).resolved
        assert sm.parse_scenario(resolved).resolved == resolved

    @pytest.mark.parametrize("delta, delta_rule", [
        (0.1, 5),
        (0.1, None),
        ({"rule": "lambda2_sufficient"}, {"rule": "lambda2_sufficient"}),
    ])
    def test_delta_rule_is_provenance_of_an_explicit_delta(self, delta, delta_rule):
        with pytest.raises(sm.ScenarioError, match="^delta_rule:"):
            sm.parse_scenario(scalar_doc(delta=delta, delta_rule=delta_rule))


class TestCli:
    def test_analyze_scalar_values(self, tmp_path):
        scenario_path = tmp_path / "scalar.json"
        scenario_path.write_text(json.dumps(scalar_doc()))
        assert main(["analyze", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "scalar_analysis.json").read_text())
        assert doc["mu"] == pytest.approx(0.2, abs=1e-12)
        assert doc["R0"] == pytest.approx(3.0, abs=1e-10)
        assert doc["p_star"][0] == pytest.approx(2 / 3, abs=1e-6)

    def test_analyze_just_above_threshold(self, tmp_path):
        # a uniform delta shifts mu one-for-one, so this document has
        # mu = 1e-6 up to rounding; its endemic point must still be found
        zero = sm.parse_scenario(two_layer_doc(delta=0.0))
        mu0 = sm.spectral_abscissa(sm.equilibrium_matrices(zero.spec).G).mu
        scenario_path = tmp_path / "near.json"
        scenario_path.write_text(json.dumps(two_layer_doc(delta=mu0 - 1e-6)))
        assert main(["analyze", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "pair_layers_analysis.json").read_text())
        assert doc["mu"] == pytest.approx(1e-6, rel=1e-6)
        assert doc["classification"] == "DFE_unstable_EE_exists"
        assert min(doc["p_star"]) > 0

    def test_analyze_bundled_margin_scenario(self, tmp_path):
        assert main(["analyze", "--scenario", str(SCENARIOS / "fig3_lambda2.json"),
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "fig3_lambda2_analysis.json").read_text())
        assert doc["conditions"]["lambda2"] == pytest.approx(0.2105, abs=1e-4)
        assert doc["conditions"]["s_lower"] == pytest.approx(-0.0026, abs=1e-4)
        assert doc["conditions"]["suf_lambda2"] is True
        assert doc["classification"] == "DFE_stable"

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scalar_doc(beta=[0.1, 0.2])))
        assert main(["validate", "--scenario", str(bad)]) == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("edge", [[2, 5, 0.2], [-1, 1, 0.2]])
    def test_out_of_range_edge_exit_code(self, edge, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scalar_doc(n=3, layers=[{"edges": [edge]}])))
        assert main(["validate", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"layers[0]: edge ({edge[0]},{edge[1]}) names a node outside" in err

    def test_run_refuses_oversized_stochastic_step_before_writing(self, tmp_path, capsys):
        enabled = tmp_path / "enabled.json"
        enabled.write_text(json.dumps(
            scalar_doc(stochastic={"enabled": True, "h": 5.0, "seeds": [1]})))
        disabled = tmp_path / "disabled.json"
        disabled.write_text(json.dumps(
            scalar_doc(stochastic={"enabled": False, "h": 5.0, "seeds": [1]})))
        assert main(["validate", "--scenario", str(disabled)]) == 0
        out = tmp_path / "out"
        for argv in (["--scenario", str(enabled)],
                     ["--scenario", str(disabled), "--seed", "1"]):
            capsys.readouterr()
            assert main(["run", *argv, "--out", str(out)]) == 2
            assert ("scenario error: stochastic.h: h = 5.0 times the largest "
                    "infection rate 0.3" in capsys.readouterr().err)
            assert not out.exists()

    def test_validate_applies_overrides(self, tmp_path, capsys):
        scalar = tmp_path / "scalar.json"
        scalar.write_text(json.dumps(scalar_doc()))
        assert main(["validate", "--scenario", str(scalar), "--t-end", "3.333"]) == 2
        assert "scenario error: t_end: t_end = 3.333" in capsys.readouterr().err
        disabled = tmp_path / "disabled.json"
        disabled.write_text(json.dumps(
            scalar_doc(stochastic={"enabled": False, "h": 5.0, "seeds": [1]})))
        assert main(["validate", "--scenario", str(disabled), "--seed", "1"]) == 2
        assert "scenario error: stochastic.h: h = 5.0" in capsys.readouterr().err

    def test_run_writes_bundle(self, tmp_path):
        doc = scalar_doc(t_end=2.0,
                         stochastic={"enabled": True, "h": 0.01, "seeds": [3, 4]})
        scenario_path = tmp_path / "scalar.json"
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"scalar_deterministic.csv",
                         "scalar_stochastic_seed3.csv", "scalar_stochastic_seed3.json",
                         "scalar_stochastic_seed4.csv", "scalar_stochastic_seed4.json",
                         "scalar_analysis.json", "scalar_manifest.json"}
        manifest = json.loads((out / "scalar_manifest.json").read_text())
        assert manifest["scenario"]["stochastic"]["seeds"] == [3, 4]
        assert len(manifest["outputs"]) == 6

    def test_byte_identical_reruns(self, tmp_path):
        doc = scalar_doc(t_end=1.0,
                         stochastic={"enabled": True, "h": 0.01, "seeds": [7]})
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(doc))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--scenario", str(scenario_path), "--out", str(out1)]) == 0
        assert main(["run", "--scenario", str(scenario_path), "--out", str(out2)]) == 0
        for p1 in sorted(out1.iterdir()):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes(), p1.name

    def test_overrides_reach_manifest(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scalar_doc()))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario_path), "--out", str(out),
                     "--t-end", "1.0", "--dt", "0.02", "--seed", "11"]) == 0
        manifest = json.loads((out / "scalar_manifest.json").read_text())
        assert manifest["scenario"]["t_end"] == 1.0
        assert manifest["scenario"]["dt"] == 0.02
        assert manifest["scenario"]["stochastic"]["enabled"] is True
        assert manifest["scenario"]["stochastic"]["seeds"] == [11]

    def test_sweep_sign_change_at_threshold(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scalar_doc()))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", "delta=0.1:0.5:9"]) == 0
        rows = (out / "scalar_sweep.csv").read_text().splitlines()
        assert rows[0] == "index,delta,mu,R0,classification,error"
        mus = [float(r.split(",")[2]) for r in rows[1:]]
        deltas = [float(r.split(",")[1]) for r in rows[1:]]
        # mu = beta - delta in the scalar case: one sign change at delta = 0.3
        for mu, delta in zip(mus, deltas):
            assert mu == pytest.approx(0.3 - delta, abs=1e-10)

    def test_sweep_against_pointwise_analysis(self, tmp_path):
        # two-node sweep checked against direct per-point classification
        doc = {
            "name": "pair", "n": 2, "m": 1,
            "layers": [{"edges": [[0, 1, 0.2], [1, 0, 0.2]]}],
            "beta": [0.3, 0.2], "delta": 0.1, "N": [100],
            "t_end": 1.0, "dt": 0.01,
        }
        scenario_path = tmp_path / "pair.json"
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", "delta=0.05:0.4:8"]) == 0
        rows = (out / "pair_sweep.csv").read_text().splitlines()[1:]
        layer = sm.layer_from_edge_rates(2, [(0, 1, 0.2), (1, 0, 0.2)])
        net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
        for row in rows:
            _, delta_s, mu_s, r0_s, cls, _ = row.split(",")
            spec = sm.ModelSpec(net=net, beta=np.array([0.3, 0.2]),
                                delta=np.full(2, float(delta_s)))
            report = sm.classify(spec)
            assert float(mu_s) == pytest.approx(report.mu, abs=1e-12)
            assert cls == report.classification

    def test_sweep_mobility_rate_against_pointwise_oracle(self, tmp_path):
        # two-node instance swept over the exit rate; each tabulated mu is
        # checked against a direct spectral-abscissa evaluation
        doc = {
            "name": "nu_sweep", "n": 2, "m": 1,
            "layers": [{"preset": "line", "rate_scale": 0.2}],
            "beta": [0.3, 0.2], "delta": [0.1, 0.25], "N": [100],
            "t_end": 1.0, "dt": 0.01,
        }
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", "rate_scale=0.05:0.8:6"]) == 0
        rows = (out / "nu_sweep_sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            _, nu_s, mu_s, _, _, _ = row.split(",")
            layer = sm.preset_layer("line", 2, float(nu_s))
            net = sm.MultiLayerNetwork(layers=(layer,), N=np.array([100.0]))
            spec = sm.ModelSpec(net=net, beta=np.array([0.3, 0.2]),
                                delta=np.array([0.1, 0.25]))
            mats = sm.equilibrium_matrices(spec)
            oracle = sm.spectral_abscissa(mats.G).mu
            assert float(mu_s) == pytest.approx(oracle, abs=1e-12)

    def test_sweep_empty_grid(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scalar_doc()))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", "delta=0.1:0.5:0"]) == 0
        rows = (out / "scalar_sweep.csv").read_text().splitlines()
        assert rows == ["index,delta,mu,R0,classification,error"]

    def test_sweep_records_per_point_failures(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scalar_doc()))
        out = tmp_path / "out"
        # negative delta values are invalid per-point but the sweep continues
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", "delta=-0.1:0.1:3"]) == 0
        rows = (out / "scalar_sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert "ScenarioError" in rows[0]
        assert rows[-1].split(",")[4] == "DFE_unstable_EE_exists"

    def test_sweep_points_get_the_seed_override(self, tmp_path):
        # --seed enables stochastic runs at every point, so h = 0.01 is
        # checked against each point's beta: beta * h >= 1 from beta = 100
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scalar_doc()))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--seed", "1", "--grid", "beta=50:150:3"]) == 0
        rows = (out / "scalar_sweep.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("0,50,") and rows[0].endswith(",DFE_unstable_EE_exists,")
        for row, beta in zip(rows[1:], ("100", "150")):
            assert row == (f"{row[0]},{beta},,,,\"ScenarioError: stochastic.h: h = 0.01 "
                           f"times the largest infection rate {beta}.0 is not a valid "
                           f"probability\"")
        manifest = json.loads((out / "scalar_manifest.json").read_text())
        assert manifest["scenario"]["stochastic"]["seeds"] == [1]

    @pytest.mark.parametrize("doc, extra, grid, failing", [
        (two_layer_doc(delta=LAMBDA2_RULE), [], "beta=0.05:0.6:7", 0),
        (two_layer_doc(delta=LAMBDA2_RULE), [], "delta=-0.05:0.6:6", 1),
        (two_layer_doc(stochastic={"h": 0.01}), ["--seed", "1"], "beta=50:150:3", 2),
        (two_layer_doc(), [], "beta=-0.1:0.5:7", 2),
        (two_layer_doc(delta=LAMBDA2_RULE), [], "rate_scale=-0.1:0.6:8", 2),
    ], ids=["beta_over_lambda2_rule", "delta_over_lambda2_rule",
            "beta_with_seed_h_check", "beta_from_nonpositive",
            "rate_scale_over_lambda2_rule"])
    def test_sweep_rows_match_pointwise_full_parse(self, doc, extra, grid, failing,
                                                   tmp_path):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(doc))
        argv = ["sweep", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
                *extra, "--grid", grid]
        assert main(argv) == 0
        rows = (tmp_path / "out" / "pair_layers_sweep.csv").read_text().splitlines()[1:]
        assert rows == pointwise_rows(argv)
        assert sum("ScenarioError" in row for row in rows) == failing

    @pytest.mark.parametrize("grid, calls", [
        ("delta=0.05:0.6:50", 2),
        ("beta=0.05:0.6:50", 2),
        ("rate_scale=0.05:0.6:10", 2 * (10 + 1)),
    ])
    def test_network_work_runs_once_per_beta_or_delta_sweep(self, grid, calls, tmp_path,
                                                            monkeypatch):
        # a beta or delta grid shares the up-front parse's layers; a
        # rate_scale grid builds and validates them again at every point
        seen = []
        original = sm.network.validate_layer

        def counting(layer):
            seen.append(layer)
            return original(layer)

        monkeypatch.setattr(sm.network, "validate_layer", counting)
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(two_layer_doc()))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", grid]) == 0
        rows = (out / "pair_layers_sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == int(grid.rsplit(":", 1)[1])
        assert all(row.endswith(",") for row in rows)
        assert len(seen) == calls

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["delta=0:inf:3", "beta=1e308:1e309:2",
                                      "delta=nan:0.5:3", "beta=-1.7e308:1.7e308:3"])
    def test_sweep_refuses_non_finite_grids(self, grid, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scalar_doc()))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", grid]) == 2
        assert capsys.readouterr().err.startswith("scenario error: --grid: ")
        assert not out.exists()

    def test_sweep_refuses_oversize_grid_before_allocating(self, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scalar_doc()))
        out = tmp_path / "out"
        with mock.patch.object(np, "linspace", _bounded_linspace):
            assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                         "--grid", "delta=0:1:10000000000"]) == 2
        assert capsys.readouterr().err.startswith("scenario error: --grid: count ")
        assert not out.exists()

    def test_grid_bound_is_inclusive(self):
        _, values = _parse_grid(f"delta=0:1:{GRID_MAX_POINTS}")
        assert len(values) == GRID_MAX_POINTS and values[-1] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(["beta", "delta", "rate_scale", " delta ", "gamma", ""]),
           ends=st.lists(st.one_of(st.floats().map(repr),
                                   st.sampled_from(["", "x", "1e400", "-0", "3"])),
                         min_size=2, max_size=2),
           count=st.one_of(st.integers(-3, 40).map(str),
                           st.integers(GRID_MAX_POINTS + 1, 10**30).map(str),
                           st.sampled_from(["", "2.5", "1e3", "ten"])),
           shape=st.sampled_from(["ok", "extra ':'", "missing ':'", "no '='"]))
    @example(field="delta", ends=["0.6", "0.05"], count="5", shape="ok")        # reversed
    @example(field="beta", ends=["0.1", "0.5"], count="0", shape="ok")         # empty
    @example(field="beta", ends=["0.1", "0.5"], count="1000001", shape="ok")   # oversize
    @example(field="beta", ends=["0.1", ""], count="3", shape="ok")            # empty field
    def test_parse_grid_gives_count_finite_points_or_refuses(self, field, ends, count, shape):
        parts = {"ok": [*ends, count], "extra ':'": [*ends, count, "3"],
                 "missing ':'": [ends[0], count], "no '='": [*ends, count]}[shape]
        text = ("" if shape == "no '='" else field + "=") + ":".join(parts)
        try:
            with mock.patch.object(np, "linspace", _bounded_linspace):
                got_field, values = _parse_grid(text)
        except sm.ScenarioError as exc:
            assert str(exc).startswith("--grid:"), (text, str(exc))
            try:
                start, stop, k = float(ends[0]), float(ends[1]), int(count)
            except ValueError:
                return
            # refusing a well-formed, modest grid would be a false alarm
            assert not (shape == "ok" and field.strip() in ("beta", "delta", "rate_scale")
                        and 0 <= k <= GRID_MAX_POINTS
                        and max(abs(start), abs(stop)) < 1e300), (text, str(exc))
            return
        assert shape == "ok" and got_field == field.strip(), text
        assert len(values) == int(count) <= GRID_MAX_POINTS, text
        assert np.all(np.isfinite(values)), text
        if len(values) >= 1:
            assert values[0] == float(ends[0]), text
        if len(values) >= 2:
            assert values[-1] == float(ends[1]), text

    def test_sweep_propagates_programming_errors(self, tmp_path, monkeypatch):
        # only the package's own (ValueError/RuntimeError) failures are sweep data
        def broken(mats):
            raise TypeError("bug")

        monkeypatch.setattr("sismob.cli.threshold", broken)
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scalar_doc()))
        with pytest.raises(TypeError, match="bug"):
            main(["sweep", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
                  "--grid", "delta=0.1:0.5:3"])
