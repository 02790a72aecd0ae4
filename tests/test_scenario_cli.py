import contextlib
import copy
import errno
import io
import json
import math
import re
import sys
import tempfile
import types
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sismob as sm
from sismob.cli import GRID_MAX_POINTS, _parse_grid, build_parser, main
from sismob.equilibria import equilibrium_stack, threshold
from sismob.scenario import _as_number, _as_vector, parse_point, read_document, set_fields
from sismob.stochastic import seed_infections, simulate, stationary_counts, write_stochastic_csv

from conftest import LOGISTIC, SCENARIOS, resolved


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
HUGE = 10**400  # a JSON integer past the float range
FLOAT_MAX_INT = int(sys.float_info.max)


def pointwise_rows(argv):
    """The sweep's CSV rows, each from a full parse of its own grid point."""
    args = build_parser().parse_args(argv)
    doc = set_fields(read_document(args.scenario), dt=args.dt, t_end=args.t_end,
                     seeds=args.seed or None)
    field, values = _parse_grid(args.grid)
    rows = []
    for idx, value in enumerate(values):
        try:
            point = sm.parse_scenario(set_fields(doc, **{field: float(value)}))
            spec = point.spec
            mu, r0, cls = threshold(equilibrium_stack([(spec.net, spec.beta, spec.delta)]))[0]
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


def every_object_doc():
    """A valid document holding every kind of checked object: the top
    level, each layer form, an mh block, a delta rule and stochastic."""
    return {
        "name": "every_object", "n": 3, "m": 3,
        "layers": [{"preset": "ring", "rate_scale": 0.2, "rates": "equal_exit"},
                   {"edges": [[0, 1, 0.2], [1, 2, 0.2], [2, 0, 0.2]]},
                   {"mh": {"graph": "line", "target": "uniform", "rate_scale": 0.3}}],
        "beta": 0.3,
        "delta": {"rule": "lambda2_sufficient", "s_factor": 0.8, "deficit_nodes": [0]},
        "N": [100, 100, 100], "p0": 0.01, "x0": "stationary",
        "t_end": 1.0, "dt": 0.01, "sample_every": 1,
        "stochastic": {"enabled": False, "h": 0.01, "seeds": [0]},
        "output_dir": "out",
    }


# path of each checked object of every_object_doc -> how to reach it
OBJECTS = {
    "": lambda doc: doc,
    "layers[0]": lambda doc: doc["layers"][0],
    "layers[1]": lambda doc: doc["layers"][1],
    "layers[2]": lambda doc: doc["layers"][2],
    "layers[2].mh": lambda doc: doc["layers"][2]["mh"],
    "delta": lambda doc: doc["delta"],
    "stochastic": lambda doc: doc["stochastic"],
}
KNOWN_KEYS = {"name", "n", "m", "layers", "beta", "delta", "delta_rule", "N", "p0", "x0",
              "t_end", "dt", "sample_every", "stochastic", "output_dir", "preset",
              "rate_scale", "rates", "edges", "mh", "graph", "target", "rule", "s_factor",
              "deficit_nodes", "enabled", "h", "seeds"}


class StderrReader(io.StringIO):
    """A stand-in for capsys where hypothesis runs a test's examples under
    one set of fixtures: redirect sys.stderr here, and ``readouterr().err``
    reads and clears what was written."""

    def readouterr(self):
        err = self.getvalue()
        self.seek(0)
        self.truncate()
        return types.SimpleNamespace(err=err)


def assert_refused_without_writing(doc, prefix, tmp_path, capsys, commands):
    """Each command exits 2 naming ``prefix`` and writes nothing."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    for argv in commands:
        assert main([*argv, "--scenario", str(path)]) == 2, argv
        assert capsys.readouterr().err.startswith(f"scenario error: {prefix}"), argv
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


class TestScenarioParsing:
    def test_bundled_scenarios_all_parse(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            scenario = sm.load_scenario(path)
            assert scenario.spec.nm >= 1, path

    @staticmethod
    def fig1_at_rate(rate):
        """fig1_complete_line, both layers at ``rate_scale`` rate, stochastic runs off."""
        doc = read_document(SCENARIOS / "fig1_complete_line.json")
        return {**doc, "layers": [{**layer, "rate_scale": rate} for layer in doc["layers"]],
                "stochastic": {**doc["stochastic"], "enabled": False}}

    def test_dt_outside_rk4_stability_is_refused_by_run_and_validate(self, tmp_path, capsys):
        # dt * (2 * 145 + delta 0.1) = 2.901 is past RK4_STABILITY: RK4 would
        # leave [0, 1] at t = 0.87; the document is parsed here, never integrated
        doc = self.fig1_at_rate(145)
        scenario = sm.parse_scenario(doc)
        with pytest.raises(sm.ScenarioError, match=r"^dt: 0\.01 times the largest 2 \* exit "
                                                   r"rate \+ recovery rate of a node, 290\.1, is "
                                                   r"above 2\.785, the edge of RK4"):
            sm.scenario.check_run(scenario)
        out = ["--out", str(tmp_path / "out")]
        assert_refused_without_writing(doc, "dt: ", tmp_path, capsys,
                                       [["validate"], ["run", *out]])
        # at 138 (2.761) it passes; --dt takes the same check
        stable = self.fig1_at_rate(138)
        sm.scenario.check_run(sm.parse_scenario(stable))
        assert_refused_without_writing(stable, "dt: 0.0125 times", tmp_path, capsys,
                                       [["validate", "--dt", "0.0125"],
                                        ["run", "--dt", "0.0125", *out]])

    def test_recovery_rate_joins_the_rk4_bound(self, tmp_path, capsys):
        # scalar_sis has no mobility; at delta 300, dt * delta = 3 is past
        # RK4_STABILITY and run used to stop at t = 0.15 with p left [0, 1]
        doc = {**read_document(SCENARIOS / "scalar_sis.json"), "delta": 300}
        out = ["--out", str(tmp_path / "out")]
        assert_refused_without_writing(
            doc, "dt: 0.01 times the largest 2 * exit rate + recovery rate of a node, 300, is "
            "above 2.785", tmp_path, capsys, [["validate"], ["run", *out]])
        # at delta 278 (2.78) it passes
        sm.scenario.check_run(sm.parse_scenario({**doc, "delta": 278}))

    def test_infection_rate_does_not_join_the_rk4_bound(self, tmp_path, capsys):
        # the logistic document (no edges, delta 0) validates; its infection
        # term carries p out of [0, 1] in the one step, and run stops (exit 1)
        path = tmp_path / "logistic.json"
        path.write_text(json.dumps(LOGISTIC))
        assert main(["validate", "--scenario", str(path)]) == 0
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: p left [0,1] by ")

    def test_infection_rate_past_the_rounding_bound_is_refused(self, tmp_path, capsys):
        # this document used to validate; run then sent inf and NaN through
        # the RK4 step.  analyze refuses it too, as it refuses a layer's exit
        # rate past the same bound
        doc = {"name": "hugebeta", "n": 1, "m": 1, "layers": [{"edges": []}], "beta": 1e305,
               "delta": 0.1, "N": [1e10], "p0": 0.5, "t_end": 0.02, "dt": 0.01}
        out = ["--out", str(tmp_path / "out")]
        assert_refused_without_writing(
            doc, f"beta: largest infection rate 1e+305 is above {sm.scenario.MAX_RATE:.6g}",
            tmp_path, capsys, [["validate"], ["analyze", *out], ["run", *out]])
        assert sm.scenario.MAX_RATE == pytest.approx(4.5036e5, rel=1e-4)
        sm.parse_scenario({**doc, "beta": [sm.scenario.MAX_RATE]})  # the bound itself passes

    def test_sweep_point_past_the_infection_rate_bound_is_a_failing_row(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(two_layer_doc()))
        argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                "--grid", "beta=0.3:1e6:2"]
        assert main(argv) == 0
        rows = (tmp_path / "out" / "pair_layers_sweep.csv").read_text().splitlines()[1:]
        assert rows[0].endswith(",")
        assert rows[1].startswith('1,1000000,,,,"ScenarioError: beta: largest infection rate '
                                  '1e+06 is above 450360')
        assert rows == pointwise_rows(argv)

    def test_threshold_commands_take_no_step_and_keep_high_mobility(self, tmp_path):
        # analyze and a rate_scale sweep past the RK4 bound still give mu and R0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.fig1_at_rate(145)))
        out = str(tmp_path / "out")
        assert main(["analyze", "--scenario", str(path), "--out", out]) == 0
        assert main(["sweep", "--scenario", str(path), "--out", out,
                     "--grid", "rate_scale=100:1000:3"]) == 0
        rows = (tmp_path / "out" / "fig1_complete_line_sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 and all(row.endswith(",") for row in rows), rows

    def test_mismatched_beta_length_names_field(self):
        doc = scalar_doc(n=2, m=1, layers=[{"preset": "line", "rate_scale": 0.2}],
                         beta=[0.3, 0.2, 0.4])
        with pytest.raises(sm.ScenarioError, match="beta"):
            sm.parse_scenario(doc)

    def test_unknown_field_rejected(self):
        with pytest.raises(sm.ScenarioError, match="betaa"):
            sm.parse_scenario(scalar_doc(betaa=0.3))

    def test_every_object_doc_parses(self):
        assert sm.parse_scenario(every_object_doc()).spec.nm == 9

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(sorted(OBJECTS)), data=st.data(),
           new_key=st.text(min_size=1, max_size=12).filter(lambda k: k not in KNOWN_KEYS))
    def test_unknown_key_in_any_object_names_its_path(self, path, data, new_key):
        # a misspelled key must not leave a default (or the correctly
        # spelled key) in force: rename one key, or add one, in one object
        doc = every_object_doc()
        obj = OBJECTS[path](doc)
        renamed = data.draw(st.sampled_from([None, *sorted(obj)]), label="renamed")
        obj[new_key] = obj.pop(renamed) if renamed else 1.0
        key_path = f"{path}.{new_key}" if path else new_key
        with pytest.raises(sm.ScenarioError) as info:
            sm.parse_scenario(doc)
        assert str(info.value).startswith(f"{key_path}: unknown field"), str(info.value)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "s.json").write_text(json.dumps(doc))
            stderr = io.StringIO()
            for argv in (["validate"], ["analyze", "--out", str(tmp / "out")]):
                with contextlib.redirect_stderr(stderr):
                    assert main([*argv, "--scenario", str(tmp / "s.json")]) == 2
            assert stderr.getvalue().count(f"scenario error: {key_path}: unknown field") == 2
            assert [p.name for p in tmp.iterdir()] == ["s.json"]

    @pytest.mark.parametrize("edit, key_path", [
        (lambda doc: doc["layers"][0].update(rate_scal=5.0), "layers[0].rate_scal"),
        (lambda doc: doc["layers"].__setitem__(1, {"mh": {"graph": "line", "rate_scal": 9.0}}),
         "layers[1].mh.rate_scal"),
        (lambda doc: doc.update(delta={"rule": "lambda2_sufficient", "s_facter": 0.1}),
         "delta.s_facter"),
    ], ids=["layer", "mh", "delta_rule"])
    def test_misspelled_keys_stop_every_command(self, edit, key_path, tmp_path, capsys):
        doc = read_document(SCENARIOS / "fig1_complete_line.json")
        edit(doc)
        out = str(tmp_path / "out")
        assert_refused_without_writing(
            doc, f"{key_path}: unknown field", tmp_path, capsys,
            (["validate"], ["analyze", "--out", out], ["run", "--out", out],
             ["sweep", "--out", out, "--grid", "delta=0.1:0.5:3"]))

    @pytest.mark.parametrize("output_dir", [[1, 2], None, 5, {"a": "b"}, True])
    def test_output_dir_must_be_a_string(self, output_dir, tmp_path, capsys):
        doc = scalar_doc(output_dir=output_dir)
        with pytest.raises(sm.ScenarioError, match="^output_dir: expected a string"):
            sm.parse_scenario(doc)
        assert_refused_without_writing(doc, "output_dir:", tmp_path, capsys,
                                       (["validate"],))

    def test_repeated_seeds_are_refused_in_the_document_and_by_seed(self, tmp_path, capsys):
        # a seed names its two output files: a repeat would write them twice,
        # once from each process of a split run
        doc = read_document(SCENARIOS / "fig1_complete_line.json")
        out = ["--out", str(tmp_path / "out")]
        message = "stochastic.seeds: expected a nonempty list of distinct integers >= 0"
        repeated = {**doc, "stochastic": {**doc["stochastic"], "seeds": [1, 2, 1]}}
        assert_refused_without_writing(repeated, message, tmp_path, capsys,
                                       (["validate"], ["run", "--t-end", "2", *out]))
        assert_refused_without_writing(doc, message, tmp_path, capsys,
                                       (["validate", "--seed", "5", "5"],
                                        ["run", "--t-end", "2", "--seed", "5", "5", *out]))

    def test_disconnected_layer_names_layer(self):
        doc = scalar_doc(n=3, layers=[{"edges": [[0, 1, 0.2], [1, 0, 0.2]]}])
        with pytest.raises(sm.ScenarioError, match=r"layers\[0\]"):
            sm.parse_scenario(doc)

    def test_p0_range_checked(self):
        with pytest.raises(sm.ScenarioError, match="p0"):
            sm.parse_scenario(scalar_doc(p0=1.5))

    def test_defaults_are_resolved_into_manifest_form(self):
        scenario = sm.parse_scenario(scalar_doc())
        listed = resolved(scenario)
        # silent defaults must be visible
        assert listed["p0"] == [0.01]
        assert listed["x0"] == [1000.0]
        assert listed["sample_every"] == 1
        assert listed["stochastic"] == {"enabled": False, "h": 0.01, "seeds": [0]}
        assert listed["output_dir"] == "out"

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
        # t_end / dt, or only t_end / h, overflows to inf
        ("t_end", {"t_end": 1e308}),
        ("t_end", {"t_end": 1e300, "dt": 1e290, "stochastic": {"enabled": True, "h": 1e-10}}),
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
        # integers past the float range (math.isfinite and float() overflow)
        ("beta", {"beta": HUGE}),
        ("beta", {"n": 3, "layers": [{"preset": "ring"}], "beta": [0.3, HUGE, "x"]}),
        ("delta", {"delta": -HUGE}),
        ("N", {"N": [HUGE]}),
        ("t_end", {"t_end": HUGE}),
        ("dt", {"dt": HUGE}),
        ("p0", {"p0": [HUGE]}),
        ("stochastic.h", {"stochastic": {"h": HUGE}}),
        ("layers[0].rate_scale", {"n": 3, "layers": [{"preset": "ring", "rate_scale": HUGE}]}),
        ("layers[0].mh.rate_scale", {"n": 3, "layers": [{"mh": {"graph": "ring",
                                                                "rate_scale": HUGE}}]}),
        ("layers[0].mh.target", {"n": 3, "layers": [{"mh": {"graph": "ring",
                                                            "target": [0.5, 0.5, HUGE]}}]}),
        ("layers[0]", {"n": 2, "layers": [{"edges": [[0, 1, 1.0], [1, 0, -HUGE]]}]}),
        ("layers[0]", {"n": 2, "layers": [{"edges": [[0, 1, True], [1, 0, 0.5]]}]}),
        ("layers[0]", {"n": 2, "layers": [{"edges": [[0, 1, 0.5], [1, 0, "0.5"]]}]}),
        ("delta.s_factor", {"n": 3, "layers": [{"preset": "ring", "rate_scale": 0.2}],
                            "delta": {"rule": "lambda2_sufficient", "s_factor": HUGE}}),
        # the rule's deficit below -beta; past the exit-rate bound the layer is
        # named first, as the network stage ends with that bound
        *[(field, {"n": 3, "layers": [{"preset": "ring", "rate_scale": scale}],
                   "delta": {"rule": "lambda2_sufficient"}})
          for field, scale in (("delta", 10), ("layers[0]", 1e30), ("layers[0]", 1e308))],
        # too many leavers per step (h * exit rate * sum(N) = 2e9), or N past 2**53
        *[("N", {"n": 3, "layers": [{"preset": "ring", "rate_scale": 0.2}], "N": [N],
                 "t_end": 0.02, "stochastic": {"enabled": True, "h": 0.01}})
          for N in (1e12, 1e19, 1e300, 2**53 + 2)],
        # with an explicit delta, an exit rate above MU_TIE_TOL / eps (about
        # 4.5e5), where rounding moves the threshold past its tie tolerance
        *[("layers[0]", {"n": 3, "layers": [{"preset": "ring", "rate_scale": scale}]})
          for scale in (1e6, 1e10, 1e308)],
        # the shape of the document, of each layer form and of the run settings
        ("n", {"n": 0}),
        ("layers[0]", {"n": 3, "layers": [{"preset": "ring", "edges": []}]}),
        ("layers[0].preset", {"n": 3, "layers": [{"preset": "hexagon"}]}),
        ("layers[0].mh.graph", {"n": 3, "layers": [{"mh": {"graph": "hexagon"}}]}),
        ("layers[0].mh.target", {"n": 3, "layers": [{"mh": {"graph": "ring", "target": "x"}}]}),
        ("layers", {"m": 2}),
        ("N", {"N": [0]}),
        ("delta.rule", {"delta": {"rule": "lambda2"}}),
        ("x0", {"x0": "x"}),
        ("x0", {"x0": [0]}),
        ("dt", {"dt": 0}),
        ("stochastic.h", {"stochastic": {"h": 0}}),
        ("layers[0]", {"n": 2, "layers": [{"edges": [[0, 2**64, 0.5], [1, 0, 0.5]]}]}),
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

    @pytest.mark.parametrize("field, text", [
        ("scenario", "[1, 2]"),
        ("scenario file", '{"name": "scalar",'),
        ("name", json.dumps({k: v for k, v in scalar_doc().items() if k != "name"})),
    ], ids=["not_an_object", "invalid_json", "missing_name"])
    def test_bad_documents_name_the_field(self, field, text, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(sm.ScenarioError) as info:
            sm.load_scenario(path)
        assert str(info.value).startswith(field + ":"), str(info.value)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert f"scenario error: {field}:" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(
        st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
        st.integers(-2**64, 2**64), st.integers(2**53 - 3, 2**53 + 3),
        st.integers(-2**53 - 3, -2**53 + 3),
        st.integers(FLOAT_MAX_INT - 2**970, FLOAT_MAX_INT + 2**971),  # float() overflows above
        st.sampled_from([HUGE, -HUGE, True, None, "1", np.float64(0.5)])), min_size=1, max_size=6))
    @example(values=[2**53 + 1, -0.0])
    @example(values=[FLOAT_MAX_INT + 2**970 - 1, FLOAT_MAX_INT + 2**970])
    @example(values=[0.5, HUGE, float("nan")])
    def test_vector_fast_path_equals_the_entry_loop(self, values):
        # one numpy pass for finite ints and floats: the same bits as the
        # per-entry loop, and the same first bad entry otherwise
        def outcome(convert):
            try:
                vector = convert()
            except sm.ScenarioError as exc:
                return str(exc)
            return vector.dtype, vector.shape, vector.tobytes()

        loop = outcome(lambda: np.array([_as_number(v, "x") for v in values]))
        assert outcome(lambda: _as_vector(values, len(values), "x")) == loop

    @pytest.mark.parametrize("field, overrides", [
        # N's node totals overflow: an RK4 run dropped the infection term
        # (pbar = y / inf) and analyze failed its null-vector solve
        ("N", {"N": [1e308, 1e308]}),
        ("N", {"N": [2.0**1000, 2.0**990]}),
        ("x0", {"N": [1.0, 1.0], "x0": [1e308, 1e308]}),
        ("x0", {"N": [1.0, 1.0], "x0": [2.0**999, 2.0**999 * (1 + 2**-50)]}),
        (None, {"N": [1e300, 1e300]}),
        (None, {"N": [1.0, 1.0], "x0": [2.0**999, 2.0**999]}),
    ])
    def test_populations_whose_node_totals_overflow_are_refused(self, field, overrides,
                                                                tmp_path, capsys):
        # only parsed: a sum above MAX_POPULATION = 2**1000 is refused, one at it is not
        doc = scalar_doc(name="hugeN", m=2, layers=[{"edges": []}, {"edges": []}],
                         p0=0.5, t_end=1, **overrides)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        if field is None:
            assert main(["validate", "--scenario", str(path)]) == 0
            return
        for argv in (["validate"], ["analyze", "--out", str(out)]):
            assert main([*argv, "--scenario", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"scenario error: {field}: populations "
                                                      "sum to more than MAX_POPULATION")
        assert not out.exists()

    @pytest.mark.parametrize("n, m, field", [(10**6, 1, "n"), (1025, 1, "n"), (1, 1025, "n"),
                                             (1, 1024, "layers")])
    def test_networks_past_max_nm_are_refused_before_any_layer(self, n, m, field, tmp_path,
                                                               capsys):
        # a complete preset at n = 10**6 would allocate 10**12 edges first
        doc = scalar_doc(n=n, m=m, layers=[{"preset": "complete"}], N=[1000])
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with mock.patch.object(sm.graphs, "preset_edges",
                               side_effect=AssertionError("preset edges built")) as edges:
            assert main(["analyze", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"scenario error: {field}: ")
        assert edges.call_count == 0
        assert not out.exists()

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
        assert resolved(scenario)["delta_rule"]["rule"] == "lambda2_sufficient"
        assert len(resolved(scenario)["delta"]) == 20


    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_resolved_form_parses_back_to_itself(self, path):
        listed = resolved(sm.load_scenario(path))
        assert resolved(sm.parse_scenario(listed)) == listed

    @pytest.mark.parametrize("delta, delta_rule", [
        (0.1, 5),
        (0.1, None),
        ({"rule": "lambda2_sufficient"}, {"rule": "lambda2_sufficient"}),
    ])
    def test_delta_rule_is_provenance_of_an_explicit_delta(self, delta, delta_rule):
        with pytest.raises(sm.ScenarioError, match="^delta_rule:"):
            sm.parse_scenario(scalar_doc(delta=delta, delta_rule=delta_rule))



def skewed_chain(rate):
    """A three-node chain whose backward rates are ``rate``: its stationary
    law is proportional to (rate**2, rate, 1)."""
    return {"name": "u", "n": 3, "m": 1,
            "layers": [{"edges": [[0, 1, 1], [1, 0, rate], [1, 2, 1], [2, 1, rate]]}],
            "beta": 0.3, "delta": 0.1, "N": [100]}


DELETE = object()
# every mutation value of the scenario fuzz: scalars, the float range's
# edges, non-finite floats, containers, big integers and deletion
FUZZ_VALUES = [None, True, False, 0, 1, -1, 0.5, 1e308, -1e308, math.nan, math.inf, -math.inf,
               "text", [], [1], [0.5, 0.5], {}, {"k": 1}, 10**30, 2**53 + 1, DELETE]
TOP_FIELD = re.compile(r"(name|n|m|layers|beta|delta|delta_rule|N|p0|x0|t_end|dt|sample_every|"
                       r"stochastic|output_dir)[\[.:]")


def value_paths(value, path=()):
    """The path of every value inside a document, depth first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from value_paths(item, path + (key,))


BUNDLED = {path.stem: read_document(path) for path in sorted(SCENARIOS.glob("*.json"))}
MUTATION_SITES = [(stem, path) for stem, doc in BUNDLED.items() for path in value_paths(doc)]


class TestBoundsAndRefusals:
    def test_bundled_scenarios_are_within_the_run_bounds(self):
        for stem, doc in BUNDLED.items():
            sm.scenario.check_run(sm.parse_scenario(doc))

    @pytest.mark.parametrize("overrides, message", [
        # 1e11 RK4 steps; run would first ask for 1e10 recorded-row indices
        ({"t_end": 1e9}, "t_end: 1e+11 RK4 steps times n * m = 40 is 4e+12 cell-steps, above "
                         "MAX_CELL_STEPS = 10**9"),
        # 1e7 RK4 steps pass; 1e9 stochastic steps times 10 seeds do not
        ({"t_end": 1e5, "stochastic": {"enabled": True, "h": 1e-4, "seeds": list(range(10))}},
         "t_end: 1e+09 stochastic steps times n * m = 40 times 10 seeds is 4e+11 cell-steps"),
        # 1e6 RK4 steps pass; each recorded they take 6.4e8 bytes
        ({"t_end": 1e4, "sample_every": 1, "stochastic": {"enabled": False}},
         "sample_every: 1000001 recorded rows of n * m = 40 cells take 6.4e+08 bytes, above "
         "MAX_RECORD_BYTES = 2**28"),
    ], ids=["rk4_steps", "stochastic_steps", "recorded_rows"])
    def test_oversize_runs_are_refused_before_any_step(self, overrides, message, tmp_path,
                                                        capsys):
        # parsed and validated only, never run
        doc = {**BUNDLED["fig1_complete_line"], **overrides}
        with pytest.raises(sm.ScenarioError, match=f"^{re.escape(message)}"):
            sm.scenario.check_run(sm.parse_scenario(doc))
        assert_refused_without_writing(doc, message, tmp_path, capsys, [["validate"]])

    def test_bounds_are_inclusive(self):
        # n * m = 1 and dt = h = 1: steps are cell-steps, rows are 16 bytes
        doc = scalar_doc(dt=1.0, sample_every=10**9)
        sm.scenario.check_run(sm.parse_scenario({**doc, "t_end": 1e9}))
        with pytest.raises(sm.ScenarioError, match=r"^t_end: 1e\+09 RK4 steps"):
            sm.scenario.check_run(sm.parse_scenario({**doc, "t_end": 1e9 + 1}))
        stochastic = {"enabled": True, "h": 1.0, "seeds": list(range(10))}
        sm.scenario.check_run(sm.parse_scenario({**doc, "t_end": 1e8, "stochastic": stochastic}))
        with pytest.raises(sm.ScenarioError, match="^t_end: 1e\\+08 stochastic steps times "
                                                   "n \\* m = 1 times 11 seeds"):
            sm.scenario.check_run(sm.parse_scenario(
                {**doc, "t_end": 1e8, "stochastic": {**stochastic, "seeds": list(range(11))}}))
        rows = sm.scenario.MAX_RECORD_BYTES // 16  # the initial row and every step
        doc = scalar_doc(dt=1.0, sample_every=1)
        sm.scenario.check_run(sm.parse_scenario({**doc, "t_end": rows - 1}))
        with pytest.raises(sm.ScenarioError, match=f"^sample_every: {rows + 1} recorded rows"):
            sm.scenario.check_run(sm.parse_scenario({**doc, "t_end": rows}))

    def test_law_past_the_analysis_precision_fails_with_its_span(self, tmp_path, capsys):
        # the law spans 1e40: the parse certifies it, while lambda2's weights
        # round to (0, 0, 1); no matrix here is reducible
        path = tmp_path / "s.json"
        path.write_text(json.dumps(skewed_chain(1e-20)))
        assert main(["validate", "--scenario", str(path)]) == 0
        assert main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lambda2: left null vector has nonpositive entries")
        assert "span more orders of magnitude than double precision resolves" in err
        assert "irreducible" not in err

    def test_assembly_forms_no_ratio_off_the_edges(self, tmp_path):
        # x_2 / x_0 = 1e320 overflows; no edge joins nodes 0 and 2
        spec = sm.parse_scenario(skewed_chain(1e-160)).spec
        mats = sm.assemble(spec, spec.net.stationary.v)
        assert np.isfinite(mats.L).all()
        assert mats.L[0, 2] == mats.L[2, 0] == 0.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(skewed_chain(1e-160)))
        assert main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_law_past_double_precision_is_refused_by_its_span(self, tmp_path, capsys):
        # the layer is strongly connected; its law's smallest entry, 1e-400, is 0
        assert_refused_without_writing(
            skewed_chain(1e-200), "layers[0]: stationary vector has nonpositive entries "
            "(smallest 0.000e+00, largest 1.000e+00): the law spans more orders of magnitude "
            "than double precision resolves", tmp_path, capsys, [["validate"]])

    def test_target_entries_past_one_are_refused_without_overflow(self, tmp_path, capsys):
        doc = copy.deepcopy(BUNDLED["fig2_line_line"])
        doc["layers"][0]["mh"]["target"] = 1e308
        assert_refused_without_writing(
            doc, "layers[0]: target distribution entries must be at most one", tmp_path,
            capsys, [["validate"]])

    @settings(max_examples=400, deadline=None)
    @given(site=st.sampled_from(MUTATION_SITES), value=st.sampled_from(FUZZ_VALUES))
    @example(site=("fig2_line_line", ("layers", 0, "mh", "target")), value=1e308)
    def test_a_mutated_bundled_document_parses_or_names_its_field(self, site, value):
        # every value of a bundled scenario set to another JSON value, or
        # deleted: the parse and the run bounds accept the document or raise a
        # ScenarioError naming a field, and no warning fires on the way; a
        # document the parse refuses makes validate and analyze exit 2 with
        # that error, writing nothing, and one only the run bounds refuse
        # makes validate do so
        stem, path = site
        doc = copy.deepcopy(BUNDLED[stem])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
        with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
            warnings.simplefilter("error")
            commands = [["validate"], ["analyze", "--out", str(Path(tmp) / "out")]]
            try:
                scenario = sm.parse_scenario(doc)
                commands = commands[:1]
                sm.scenario.check_run(scenario)
            except sm.ScenarioError as exc:
                assert TOP_FIELD.match(str(exc)), str(exc)
                stderr = StderrReader()
                with contextlib.redirect_stderr(stderr):
                    assert_refused_without_writing(doc, str(exc), Path(tmp), stderr, commands)


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

    @pytest.mark.parametrize("n, preset", [(3, "ring"), (20, "complete")])
    def test_huge_exit_rate_is_refused_before_writing(self, n, preset, tmp_path, capsys):
        # unrefused, the ring (mu = 0.2 at any rate) swept as mu = 0, DFE_stable
        doc = scalar_doc(n=n, layers=[{"preset": preset, "rate_scale": 1e308}])
        out = str(tmp_path / "out")
        assert_refused_without_writing(
            doc, "layers[0]: largest exit rate 1e+308", tmp_path, capsys,
            (["validate"], ["analyze", "--out", out], ["run", "--out", out],
             ["sweep", "--out", out, "--grid", "delta=0.05:0.25:3"]))

    @pytest.mark.parametrize("command", [["analyze"], ["run"],
                                         ["sweep", "--grid", "delta=0.1:0.5:3"]])
    def test_out_naming_a_file_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scalar_doc()))
        taken = tmp_path / "taken"
        taken.write_text("kept")
        assert main([*command, "--scenario", str(path), "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith(f"error: [Errno {errno.EEXIST}]")
        assert taken.read_text() == "kept"

    def test_integration_error_exits_1_without_writing(self, tmp_path, capsys):
        # one RK4 step of width 5 on the logistic p' = p (1 - p) from 0.9
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scalar_doc(beta=1, delta=0, p0=0.9, t_end=5, dt=5)))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: p left [0,1] by ")
        assert list(out.iterdir()) == []

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

    def test_seed_in_a_multi_seed_run_writes_its_single_seed_bytes(self, tmp_path):
        # 20 steps recorded at 0, 3, ..., 18 and 20: (20 + 1) // 8 = 2 seeds
        # a chunk, so the five seeds run as [4, 9], [7, 11] and [2]
        doc = two_layer_doc(t_end=0.2, sample_every=3,
                            stochastic={"enabled": True, "h": 0.01, "seeds": [4, 9, 7, 11, 2]})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        chunks, lockstep = [], sm.cli.simulate_seeds

        def spy(*args, **kwargs):
            chunks.append(list(kwargs["seeds"]))
            return lockstep(*args, **kwargs)

        with mock.patch("sismob.cli.simulate_seeds", spy):
            assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "all")]) == 0
        assert chunks == [[4, 9], [7, 11], [2]]

        scenario = sm.parse_scenario(doc)
        init = seed_infections(stationary_counts(scenario.spec), scenario.p0)
        for seed in (4, 9, 7, 11, 2):
            alone = tmp_path / f"seed{seed}"
            assert main(["run", "--scenario", str(path), "--seed", str(seed),
                         "--out", str(alone)]) == 0
            # the same seed through the library
            library = tmp_path / f"library{seed}.csv"
            write_stochastic_csv(simulate(scenario.spec, init, 0.2, h=0.01, seed=seed,
                                          record_every=3), library)
            name = f"pair_layers_stochastic_seed{seed}"
            csv = (tmp_path / "all" / f"{name}.csv").read_bytes()
            assert csv == (alone / f"{name}.csv").read_bytes() == library.read_bytes()
            assert csv.count(b"\n") == 1 + 8
            assert ((tmp_path / "all" / f"{name}.json").read_bytes()
                    == (alone / f"{name}.json").read_bytes())

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

    # h * exit rate reaches 1 from rate_scale 100 on the complete layer; below
    # it, h * exit rate * sum(N) passes MAX_LEAVERS from rate_scale 50; the
    # exit-rate bound is about 4.5e5, and the lambda2 rule fails from about 1
    BOUND_VALUES = [-1.0, 0.0, 1e-3, 0.3, 60.0, 99.0, 100.0, 150.0, 4.5e5, 1e6, 1e30, 1e300]

    @settings(max_examples=60, deadline=None)
    @given(stochastic=st.booleans(), field=st.sampled_from(["beta", "delta", "rate_scale"]),
           ends=st.lists(st.one_of(st.sampled_from(BOUND_VALUES),
                                   st.floats(-10, 1e6, allow_subnormal=False)),
                         min_size=2, max_size=2),
           count=st.integers(1, 4))
    @example(stochastic=True, field="rate_scale", ends=[60.0, 1e6], count=4)
    @example(stochastic=False, field="rate_scale", ends=[0.0, 1e30], count=4)
    @example(stochastic=True, field="beta", ends=[-1.0, 150.0], count=4)
    def test_sweep_rows_across_the_bounds_match_pointwise_full_parse(
            self, stochastic, field, ends, count):
        # every field's points, on both sides of every network and rate bound,
        # get the rows a full parse of each point gives
        doc = (two_layer_doc(N=[10**6, 10**6], stochastic={"enabled": True, "h": 0.01})
               if stochastic else two_layer_doc(delta=LAMBDA2_RULE))
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "s.json").write_text(json.dumps(doc))
            argv = ["sweep", "--scenario", str(Path(tmp) / "s.json"), "--out",
                    str(Path(tmp) / "out"), "--grid", f"{field}={ends[0]!r}:{ends[1]!r}:{count}"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            rows = (Path(tmp) / "out" / "pair_layers_sweep.csv").read_text().splitlines()[1:]
            assert rows == pointwise_rows(argv)

    @pytest.mark.parametrize("lanes", [1, 3, None], ids=["alone", "chunks_of_3", "one_chunk"])
    @pytest.mark.parametrize("doc, grid", [
        (two_layer_doc(), "beta=-0.1:0.5:8"),
        (two_layer_doc(delta=LAMBDA2_RULE), "rate_scale=-0.1:0.6:8"),
        (two_layer_doc(delta=[0.1, 0.0, 0.2, 0.0]), "beta=0.05:0.6:8"),
        (two_layer_doc(), "delta=0:0.3:8"),
    ], ids=["failing_rows", "rate_scale", "mixed_recovery", "lane_without_recovery"])
    def test_sweep_rows_do_not_depend_on_chunking(self, doc, grid, lanes, tmp_path,
                                                  monkeypatch):
        # every row, alone, mid-chunk or next to a chunk boundary, is the row
        # a full parse of its own point gives; each chunk is one stacked call
        calls = []

        def recording(stack):
            calls.append(len(stack.lanes))
            return threshold(stack)

        monkeypatch.setattr("sismob.cli.threshold", recording)
        # one CPU: a forked child's calls would not reach this process's list
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        if lanes:
            monkeypatch.setattr("sismob.cli.STACK_BYTES", lanes * (8 * 8**2 + 1024))  # nm = 8
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(doc))
        argv = ["sweep", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
                "--grid", grid]
        assert main(argv) == 0
        rows = (tmp_path / "out" / "pair_layers_sweep.csv").read_text().splitlines()[1:]
        assert rows == pointwise_rows(argv)
        parsed = ["Error" not in row for row in rows]
        chunks = [sum(parsed[k:k + (lanes or 8)]) for k in range(0, 8, lanes or 8)]
        assert calls == [count for count in chunks if count]

    @pytest.mark.parametrize("lanes", [1, 2, None])
    def test_sweep_lane_with_singular_z_solve_keeps_its_error_row(self, lanes, tmp_path,
                                                                  monkeypatch, capsys):
        # delta = 1e-20 vanishes in L* + D (0.2 + 1e-20 == 0.2): that point's
        # (L* + D) Z = B U solve is exactly singular and fails its chunk's
        # stacked solve, so each lane of the chunk is rerun alone
        doc = {"name": "pair", "n": 2, "m": 1,
               "layers": [{"edges": [[0, 1, 0.2], [1, 0, 0.2]]}],
               "beta": [0.3, 0.2], "delta": 0.1, "N": [100], "t_end": 1.0, "dt": 0.01}
        if lanes:
            monkeypatch.setattr("sismob.cli.STACK_BYTES", lanes * (8 * 2**2 + 1024))  # nm = 2
        scenario_path = tmp_path / "pair.json"
        scenario_path.write_text(json.dumps(doc))
        argv = ["sweep", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
                "--grid", "delta=0.3:1e-20:4"]
        assert main(argv) == 0
        rows = (tmp_path / "out" / "pair_sweep.csv").read_text().splitlines()[1:]
        assert rows == pointwise_rows(argv)
        # the rows the unstacked, point-by-point sweep wrote
        assert rows == ["0,0.29999999999999999,-0.043844718719116951,0.85714285714285721,"
                        "DFE_stable,",
                        "1,0.20000000000000001,0.056155281280883006,1.2742918851774316,"
                        "DFE_unstable_EE_exists,",
                        "2,0.10000000000000001,0.15615528128088302,2.5246950765959593,"
                        "DFE_unstable_EE_exists,",
                        '3,9.9999999999999995e-21,,,,"LinAlgError: Singular matrix"']

    @pytest.mark.parametrize("argv", [["validate"], ["analyze", "--out", "OUT"],
                                      ["run", "--out", "OUT"],
                                      ["sweep", "--out", "OUT", "--grid", "delta=0.1:0.5:3"]])
    def test_bare_seed_is_refused(self, argv, tmp_path, capsys):
        # --seed enables stochastic runs, so it needs at least one seed
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scalar_doc()))
        argv = [a.replace("OUT", str(tmp_path / "out")) for a in argv]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--scenario", str(path), "--seed"])
        assert info.value.code == 2
        assert "--seed: expected at least one argument" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    def test_set_fields_copies_only_the_edited_path(self):
        doc = every_object_doc()
        before = json.loads(json.dumps(doc))
        point = set_fields(doc, rate_scale=0.5, seeds=[3], dt=0.02, t_end=None)
        assert doc == before
        assert [spec.get("rate_scale") for spec in point["layers"]] == [0.5, None, None]
        assert point["layers"][2]["mh"] == {"graph": "line", "target": "uniform",
                                            "rate_scale": 0.5}
        assert point["layers"][1] is doc["layers"][1]
        assert point["stochastic"] == {"enabled": True, "h": 0.01, "seeds": [3]}
        assert (point["dt"], point["t_end"]) == (0.02, 1.0)

    def test_rate_scale_sweep_needs_a_preset_or_mh_layer(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(
            scalar_doc(n=2, layers=[{"edges": [[0, 1, 0.2], [1, 0, 0.2]]}])))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", "rate_scale=0.1:0.5:2"]) == 0
        rows = (out / "scalar_sweep.csv").read_text().splitlines()[1:]
        assert rows == [f"{idx},{value:.17g},,,,\"ScenarioError: layers: rate_scale sweeps need "
                        f"preset or mh layer specs\"" for idx, value in ((0, 0.1), (1, 0.5))]

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

    @pytest.mark.parametrize("grid, table_builds", [
        ("delta=0.05:0.6:50", 1),
        ("beta=0.05:0.6:50", 1),
        ("rate_scale=0.05:0.6:10", 1 + 10),
    ])
    def test_beta_or_delta_points_skip_the_network_and_settings_work(
            self, grid, table_builds, tmp_path, monkeypatch):
        # a beta or delta point parses only its rates on the shared network,
        # whose leave-rate table (MultiLayerNetwork.moves) is built once; a
        # rate_scale point builds its own network and table; no point runs
        # the stationary x0 or the settings stage (_parse_instance) again
        calls = {"moves": 0, "_parse_instance": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for module in (sm.scenario, sm.stochastic, sm.network):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        moves = sm.network.MultiLayerNetwork.moves
        monkeypatch.setattr(moves, "func", counting("moves", moves.func))
        doc = two_layer_doc(stochastic={"enabled": True, "h": 0.01, "seeds": [1]})
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", grid]) == 0
        rows = (out / "pair_layers_sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == int(grid.rsplit(":", 1)[1])
        assert all(row.endswith(",") for row in rows)
        assert calls == {"moves": table_builds, "_parse_instance": 1}

    def test_delta_point_checks_h_against_its_recovery_rate(self, tmp_path):
        # the point's own rates meet stochastic.h, with a full parse's message
        doc = two_layer_doc(stochastic={"enabled": True, "h": 0.01, "seeds": [1]})
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(doc))
        argv = ["sweep", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
                "--grid", "delta=0.1:150:3"]
        assert main(argv) == 0
        rows = (tmp_path / "out" / "pair_layers_sweep.csv").read_text().splitlines()[1:]
        assert rows == pointwise_rows(argv)
        assert [row.endswith(",") for row in rows] == [True, True, False]
        assert rows[2] == ('2,150,,,,"ScenarioError: stochastic.h: h = 0.01 times the largest '
                           'recovery rate 150.0 is not a valid probability"')

    @pytest.mark.parametrize("doc, field, values", [
        (two_layer_doc(), "beta", [0.05, 0.3, 0.6]),
        (two_layer_doc(), "delta", [0.0, 0.3, 0.6]),
        (two_layer_doc(delta=LAMBDA2_RULE), "beta", [0.05, 0.3, 0.6]),
        (two_layer_doc(delta=LAMBDA2_RULE), "delta", [0.0, 0.3, 0.6]),
        (two_layer_doc(delta=LAMBDA2_RULE), "rate_scale", [0.05, 0.2, 1.0]),
        (two_layer_doc(delta=[0.1, 0.0, 0.2, 0.0]), "rate_scale", [0.05, 0.2, 1.0]),
    ], ids=["beta", "delta", "beta_over_lambda2_rule", "delta_over_lambda2_rule",
            "rate_scale_over_lambda2_rule", "rate_scale"])
    def test_stacked_lanes_equal_a_full_parse_of_each_point(self, doc, field, values):
        # one broadcast builds every lane's G; each lane holds the arrays
        # equilibrium_matrices gives a full parse of its own point
        scenario = sm.parse_scenario(doc)
        lanes = equilibrium_stack([parse_point(doc, scenario, field, v) for v in values])
        for value, lane in zip(values, lanes.lanes):
            alone = sm.equilibrium_matrices(
                sm.parse_scenario(set_fields(doc, **{field: value})).spec)
            for name in ("G", "BF", "b", "d", "F", "L", "M", "v"):
                assert np.array_equal(getattr(lane, name), getattr(alone, name)), name
            assert all(np.array_equal(a, b) for a, b in zip(lane.v_per_layer, alone.v_per_layer))
            assert np.array_equal(lane.G, np.diag(lane.b) @ lane.F - np.diag(lane.d) - lane.L)

    @pytest.mark.parametrize("field, values", [("delta", [0.0, 0.1, 0.3, 0.6]),
                                               ("rate_scale", [0.05, 0.2, 1.0])])
    def test_threshold_solves_the_stack_its_lanes_were_built_in(self, field, values,
                                                                monkeypatch):
        # a chunk's G stack reaches the Noda solver as built, not copied; lanes
        # stacked in another order get, in that order, the bits each gets alone
        doc = two_layer_doc()
        scenario = sm.parse_scenario(doc)
        points = [parse_point(doc, scenario, field, v) for v in values]
        alone = [repr(threshold(equilibrium_stack([point]))[0]) for point in points]
        solved, abscissas = [], sm.equilibria.spectral_abscissas

        def spy(G):
            solved.append(G)
            return abscissas(G)

        monkeypatch.setattr(sm.equilibria, "spectral_abscissas", spy)
        stack = equilibrium_stack(points)
        assert [repr(row) for row in threshold(stack)] == alone
        assert solved[-1] is stack.G
        assert all(np.shares_memory(solved[-1], lane.G) for lane in stack.lanes)
        assert [repr(row) for row in threshold(equilibrium_stack(points[::-1]))] == alone[::-1]

    @pytest.mark.parametrize("lanes", [1, None], ids=["alone", "one_chunk"])
    def test_sweep_lane_failing_the_z_certificate_keeps_its_error_row(self, lanes, tmp_path,
                                                                      monkeypatch):
        # a (L* + D) Z = B U solve off by 1e-6 in the delta = 0.6 lane alone
        # fails the certificate: that lane's row is the error, every other
        # row is its own, whether the lane was stacked with them or not
        solve = np.linalg.solve

        def skewed(A, B):
            X = solve(A, B)
            if B.ndim == 3 and B.shape[2] > 1:  # threshold's Z stack, not a Noda step
                X[A[:, 0].sum(axis=1) > 0.5] *= 1.0 + 1e-6  # rows of L* + D sum to delta
            return X

        monkeypatch.setattr(np.linalg, "solve", skewed)
        if lanes:
            monkeypatch.setattr("sismob.cli.STACK_BYTES", lanes * (8 * 8**2 + 1024))  # nm = 8
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(two_layer_doc()))
        argv = ["sweep", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
                "--grid", "delta=0:0.6:4"]
        assert main(argv) == 0
        rows = (tmp_path / "out" / "pair_layers_sweep.csv").read_text().splitlines()[1:]
        assert rows == pointwise_rows(argv)
        assert [row.endswith(",") for row in rows] == [True, True, True, False]
        assert rows[3].startswith('3,0.59999999999999998,,,,"ConvergenceError: (L* + D) Z = B U '
                                  'solve: relative backward error ')

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
    @example(field="beta", ends=["0.0", "nan"], count="0", shape="ok")         # NaN stop
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
                        and abs(start) < 1e300 and abs(stop) < 1e300), (text, str(exc))
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
