"""``run`` hands its last seeds to one helper interpreter: the files are the
serial path's, byte for byte, and no helper outlives the call."""

import json
import os
import subprocess
import sys
import threading

import pytest

from sismob import cli
from sismob.cli import main

from conftest import LOGISTIC, REPO, SCENARIOS

WAIT_S = 120  # every wait on a helper or a run in these tests ends by then
FIG1 = ["run", "--scenario", str(SCENARIOS / "fig1_complete_line.json"), "--t-end", "2"]


def cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture
def started(monkeypatch):
    """Every process ``subprocess.Popen`` starts in the test; each wait on
    one ends within WAIT_S."""
    processes = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            processes.append(self)

        def wait(self, timeout=None):
            return super().wait(WAIT_S if timeout is None else timeout)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return processes


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def run_main(argv) -> int:
    """``main(argv)``, which must return within WAIT_S."""
    result = []
    thread = threading.Thread(target=lambda: result.append(main(argv)), daemon=True)
    thread.start()
    thread.join(WAIT_S)
    assert result, f"main did not return within {WAIT_S} s"
    return result[0]


def assert_reaped(processes):
    for proc in processes:
        assert proc.returncode is not None
        with pytest.raises(ChildProcessError):  # no zombie is left to reap
            os.waitpid(proc.pid, os.WNOHANG)


@pytest.mark.skipif(cpus() < 2, reason="the helper needs a second CPU")
def test_split_and_serial_runs_write_the_same_bytes(tmp_path, monkeypatch, started):
    files = {}
    for path, lane_steps in (("serial", 10**12), ("split", 0)):
        monkeypatch.setattr(cli, "HELPER_LANE_STEPS", lane_steps)
        assert run_main([*FIG1, "--out", str(tmp_path / path)]) == 0
        files[path] = {p.name: p.read_bytes() for p in (tmp_path / path).iterdir()}
    assert len(started) == 1 and started[0].returncode == 0  # the split run's helper
    assert_reaped(started)
    assert len(files["split"]) == 23  # trajectory, 10 seeds' CSVs and sidecars, analysis, manifest
    assert files["split"] == files["serial"]


def test_the_helper_takes_the_last_half_of_big_runs(monkeypatch, two_cpus):
    doc = json.loads((SCENARIOS / "fig1_complete_line.json").read_text())
    scenario = cli.parse_scenario(doc)  # 10 seeds of 4,000 steps
    assert cli._helper_seeds(scenario, [1, 2, 3]) == 1  # the parent keeps the rounded-up half
    assert cli._helper_seeds(scenario, [1]) == 0
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", 3 * 4000 + 1)
    assert cli._helper_seeds(scenario, [1, 2, 3]) == 0
    assert cli._helper_seeds(scenario, [1, 2, 3, 4]) == 2
    with monkeypatch.context() as patch:
        patch.setattr(sys, "executable", "")  # an interpreter that cannot say where it is
        assert cli._helper_seeds(scenario, [1, 2, 3, 4]) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli._helper_seeds(scenario, [1, 2, 3, 4]) == 0


def test_a_failing_helper_fails_the_run(tmp_path, monkeypatch, capsys, started, two_cpus):
    # an "interpreter" that ignores its job, says why on stderr and exits 1
    broken = tmp_path / "broken-python"
    broken.write_text("#!/bin/sh\necho 'Traceback ...' >&2\necho 'helper broke' >&2\nexit 1\n")
    broken.chmod(0o755)
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", 0)
    monkeypatch.setattr(sys, "executable", str(broken))
    assert run_main([*FIG1, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: seed helper exited with 1: helper broke\n"
    assert len(started) == 1
    assert_reaped(started)
    assert not (tmp_path / "out" / "fig1_complete_line_manifest.json").exists()


def test_a_failing_integrate_kills_the_helper(tmp_path, monkeypatch, capsys, started, two_cpus):
    path = tmp_path / "logistic.json"
    path.write_text(json.dumps({**LOGISTIC, "stochastic": {"enabled": True, "h": 0.5,
                                                           "seeds": [1, 2]}}))
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", 0)
    assert run_main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: p left [0,1] by ")
    assert len(started) == 1
    assert_reaped(started)


def test_importing_the_cli_leaves_subprocess_out():
    # analyze and sweep never start a helper, so they do not pay its import
    code = "import sys, sismob.cli; print('subprocess' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=WAIT_S, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
