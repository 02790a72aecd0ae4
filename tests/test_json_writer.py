"""The CLI's JSON writer against the standard library's indent-2 output."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sismob as sm
from sismob.cli import JSON_BLOCK, _analysis_payload, _manifest, _write_json, main

from conftest import SCENARIOS, resolved


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def written(obj) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        _write_json(path, obj)
        return path.read_text(encoding="utf-8")


def assert_same_text(got: str, want: str):
    """got == want.  A mismatch reports at once its first differing offset
    with about 80 characters of each side there; pytest's own diff of two
    multi-MB texts runs for minutes."""
    if got == want:
        return
    at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(0, at - 40)
    pytest.fail(f"texts differ at offset {at} (lengths {len(got)} and {len(want)}):\n"
                f"  got  {got[lo:at + 40]!r}\n  want {want[lo:at + 40]!r}", pytrace=False)


numbers = (st.integers() | st.floats()
           | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]))
tricky_text = st.text() | st.sampled_from(["", "],[", ",", "[]", "{", '"', "\\", "é", "日本",
                                           "a],[\"b\\", "\n\t\x00"])
scalars = st.none() | st.booleans() | numbers | tricky_text
rows = st.lists(st.lists(numbers, min_size=1, max_size=4), min_size=1, max_size=8)
# rows with one empty or nested row somewhere among them
broken_rows = st.tuples(rows, st.sampled_from([[], [[1]], [1, [2.5]], ["x"], [{}]]),
                        st.integers(0, 8)).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
leaves = scalars | st.lists(numbers) | rows | broken_rows
payloads = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(tricky_text, children, max_size=5),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(payloads | st.dictionaries(tricky_text, payloads, max_size=4))
def test_writer_matches_json_dumps(payload):
    assert_same_text(written(payload), reference(payload))


@pytest.mark.parametrize("payload", [
    {}, [], {"a": []}, {"a": {}}, {"a": [[]]}, {"a": [[], {}]}, [[[]]], [[{}]],
    {"a": [1, 2.5, True, False, None, "s,t", "],[", "[", "]"]}, {"a": [[1, "s,t"], [2]]},
    {"a": [1, {}]}, {"a": [[{}], [1, {}]]}, {1: 2, 2.5: [1], 3: {}}, {None: [1]}, {False: 0, True: 1},
    {"a": [-0.0, 5e-324, 1e308, float("nan"), float("inf"), -float("inf")]},
    {"a": [[1, [2]]]}, {"a": [[1], 2]}, {"a": [[1], 2, [3]]}, {"a": ((1, 2), (3,))},
    {"k],[\"\\é": ["],[", ",", '"', "\\", "é"]},
], ids=repr)
def test_fixed_edge_cases(payload):
    assert_same_text(written(payload), reference(payload))


@pytest.mark.parametrize("count", sorted({1, 1023, 1024, 1025, JSON_BLOCK - 1, JSON_BLOCK,
                                          JSON_BLOCK + 1, 3 * JSON_BLOCK + 7}))
def test_edge_lists_across_block_boundaries(count):
    rng = np.random.default_rng(count)
    edges = [[int(i), int(j), float(r)] for i, j, r in
             zip(rng.integers(0, 200, count), rng.integers(0, 200, count),
                 rng.uniform(0.0, 1.0, count))]
    payload = {"layers": [{"edges": edges}], "v": [e[2] for e in edges]}
    assert_same_text(written(payload), reference(payload))
    # a row that cannot take the compact path, at and after a boundary
    for at in {0, count - 1, min(count, JSON_BLOCK)}:
        odd = edges[:at] + [[], [1, "x,y"]] + edges[at:]
        assert_same_text(written({"edges": odd}), reference({"edges": odd}))


def test_bench_shaped_n160_outputs():
    # the shape of the benchmark's largest analyze call: a complete and a
    # line layer at n = 160 list 25,758 edges in the manifest
    rng = np.random.default_rng(160)
    doc = {"name": "bench_n160", "n": 160, "m": 2,
           "layers": [{"preset": "complete", "rate_scale": 0.2},
                      {"preset": "line", "rate_scale": 0.2}],
           "beta": rng.uniform(0.25, 0.35, 160).round(6).tolist(), "delta": 0.1,
           "N": [10000, 10000], "p0": 0.01, "x0": "stationary"}
    scenario = sm.parse_scenario(doc)
    manifest = _manifest(scenario, "analyze", ["bench_n160_analysis.json"])
    assert sum(len(layer.edges) for layer in scenario.spec.net.layers) > 25 * JSON_BLOCK
    analysis = _analysis_payload(scenario)
    for payload, listed in ((manifest, {**manifest, "scenario": resolved(scenario)}),
                            (analysis, analysis)):
        assert_same_text(written(payload), reference(listed))


def cycle(count: int) -> dict:
    """A directed cycle through ``count`` nodes: ``count`` rows, distinct rates."""
    rates = np.random.default_rng(count).uniform(0.01, 2.0, count).tolist()
    return {"edges": [[i, (i + 1) % count, rate] for i, rate in enumerate(rates)]}


AWKWARD = [0.1 + 0.2, 3, 1e-7, 2**-30, 12345.678, 0.5]


@pytest.mark.parametrize("n, layer", [
    (3, {"edges": [[i, j, rate] for (i, j), rate in
                   zip([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], AWKWARD)]}),
    (9, {"mh": {"graph": "complete", "rate_scale": 0.7,
                "target": [k / 45 for k in range(1, 10)]}}),
    (7, {"preset": "star", "rate_scale": 0.3, "rates": "mh_uniform"}),
    (1, {"edges": []}),
    *((count, cycle(count)) for count in sorted({2, JSON_BLOCK - 1, JSON_BLOCK, JSON_BLOCK + 1,
                                                 2 * JSON_BLOCK, 3 * JSON_BLOCK + 7})),
], ids=lambda v: v if isinstance(v, int) else next(iter(v)))
def test_manifest_layers_match_their_listing(n, layer):
    doc = {"name": "layers", "n": n, "m": 2, "layers": [layer, {"preset": "ring"}],
           "beta": 0.3, "delta": 0.1, "N": [1000, 500]}
    scenario = sm.parse_scenario(doc)
    manifest = _manifest(scenario, "analyze", ["layers_analysis.json"])
    assert_same_text(written(manifest), reference({**manifest, "scenario": resolved(scenario)}))


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_written_manifest_parses_back_to_its_scenario(path, tmp_path):
    assert main(["analyze", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    (manifest_path,) = tmp_path.glob("*_manifest.json")
    text = manifest_path.read_text(encoding="utf-8")
    listed = json.loads(text)["scenario"]
    assert resolved(sm.parse_scenario(listed)) == listed
    assert_same_text(text, reference(json.loads(text)))
