"""The numeric-difference report of scripts/compare_outputs.py."""

import importlib.util
import json

from conftest import REPO

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", REPO / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

HEADER = "index,delta,mu,R0,classification,error\n"


def write_pair(tmp_path, suffix, old, new):
    paths = tmp_path / f"old{suffix}", tmp_path / f"new{suffix}"
    paths[0].write_text(old)
    paths[1].write_text(new)
    return paths


def test_csv_differences_per_column_with_zeros(tmp_path):
    old, new = write_pair(
        tmp_path, ".csv",
        HEADER + "0,0.1,0.5,2,DFE_unstable_EE_exists,\n1,0.2,0,,DFE_stable,\n"
        "2,-1,,,,\"ScenarioError: delta: a, b\"\n",
        HEADER + "0,0.1,0.50000000000000011,2.0000000000000004,DFE_unstable_EE_exists,\n"
        "1,0.2,1e-17,,DFE_stable,\n2,-1,,,,\"ScenarioError: delta: a, b\"\n")
    worst = compare_outputs.numeric_differences(old, new)
    assert set(worst) == {"mu[]", "R0[]"}
    assert worst["R0[]"] == (4.440892098500626e-16, 4.440892098500626e-16 / 2.0000000000000004)
    # 0 against 1e-17: the relative difference is 1, not a division by zero
    assert worst["mu[]"] == (1.1102230246251565e-16, 1.0)


def test_csv_with_a_changed_label_is_not_only_numbers(tmp_path):
    old, new = write_pair(tmp_path, ".csv",
                          HEADER + "0,0.1,1e-11,,DFE_unstable_EE_exists,\n",
                          HEADER + "0,0.1,-1e-11,,DFE_stable,\n")
    assert compare_outputs.numeric_differences(old, new) is None


def test_json_differences_per_key_with_list_entries_sharing_it(tmp_path):
    doc = {"mu": 0.2, "R0": 3.0, "classification": "DFE_unstable_EE_exists",
           "p_star": [0.1, 0.2], "conditions": {"nec_exists": True, "s": 0.0}}
    changed = {**doc, "mu": 0.2 + 2**-54, "p_star": [0.1, 0.2 + 2**-54]}
    old, new = write_pair(tmp_path, ".json", json.dumps(doc), json.dumps(changed))
    worst = compare_outputs.numeric_differences(old, new)
    assert set(worst) == {"mu", "p_star[]"}
    flipped = {**doc, "conditions": {"nec_exists": False, "s": 0.0}}
    old, new = write_pair(tmp_path, ".json", json.dumps(doc), json.dumps(flipped))
    assert compare_outputs.numeric_differences(old, new) is None
