"""``run`` forks one child for its last seeds: the files are the serial
path's, byte for byte, the child ends by ``os._exit`` whatever it raises,
and no child outlives the call."""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from sismob import cli
from sismob.cli import main

from conftest import LOGISTIC, REPO, SCENARIOS

WAIT_S = 120  # every wait on a child or a run in these tests ends by then
FIG1 = ["run", "--scenario", str(SCENARIOS / "fig1_complete_line.json"), "--t-end", "2"]
linux_only = pytest.mark.skipif(sys.platform != "linux", reason="run forks only on Linux")


def cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture
def forked(monkeypatch):
    """The pid of every child ``os.fork`` makes in the test."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def in_child(monkeypatch):
    """Make ``_write_seeds`` call ``act()`` in any process but the test's
    own, and write the seeds as before in the test's."""
    def patch(act):
        test_pid, write_seeds = os.getpid(), cli._write_seeds

        def patched(*args):
            if os.getpid() != test_pid:
                act()
            return write_seeds(*args)

        monkeypatch.setattr(cli, "_write_seeds", patched)
    return patch


def run_main(argv, log) -> int:
    """``main(argv)``, which must return within WAIT_S and only in this
    process: every process that returns from it appends its pid to ``log``,
    and one that is not this process then ends."""
    result, test_pid = [], os.getpid()

    def target():
        code = main(argv)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != test_pid:
            os._exit(0)
        result.append(code)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(WAIT_S)
    assert result, f"main did not return within {WAIT_S} s"
    assert log.read_text() == f"{test_pid}\n"  # main returned once, in this process
    return result[0]


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no zombie is left to reap
            os.waitpid(pid, os.WNOHANG)


@linux_only
@pytest.mark.skipif(cpus() < 2, reason="the child needs a second CPU")
def test_split_and_serial_runs_write_the_same_bytes(tmp_path, monkeypatch, forked):
    files = {}
    for path, lane_steps in (("serial", 10**12), ("split", 0)):
        monkeypatch.setattr(cli, "HELPER_LANE_STEPS", lane_steps)
        assert run_main([*FIG1, "--out", str(tmp_path / path)], tmp_path / f"{path}.log") == 0
        files[path] = {p.name: p.read_bytes() for p in (tmp_path / path).iterdir()}
    assert len(forked) == 1  # the split run's child
    assert_reaped(forked)
    assert len(files["split"]) == 23  # trajectory, 10 seeds' CSVs and sidecars, analysis, manifest
    assert files["split"] == files["serial"]


def test_the_helper_takes_the_last_half_of_big_runs(monkeypatch, two_cpus):
    monkeypatch.setattr(sys, "platform", "linux")
    doc = json.loads((SCENARIOS / "fig1_complete_line.json").read_text())
    scenario = cli.parse_scenario(doc)  # 10 seeds of 4,000 steps
    assert cli._helper_seeds(scenario, [1, 2, 3]) == 1  # the parent keeps the rounded-up half
    assert cli._helper_seeds(scenario, [1]) == 0
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", 3 * 4000 + 1)
    assert cli._helper_seeds(scenario, [1, 2, 3]) == 0
    assert cli._helper_seeds(scenario, [1, 2, 3, 4]) == 2
    for platform in ("darwin", "win32", "freebsd"):  # fork is used on Linux alone
        with monkeypatch.context() as patch:
            patch.setattr(sys, "platform", platform)
            assert cli._helper_seeds(scenario, [1, 2, 3, 4]) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli._helper_seeds(scenario, [1, 2, 3, 4]) == 0


@linux_only
def test_a_failing_helper_fails_the_run(tmp_path, monkeypatch, capsys, forked, two_cpus,
                                        in_child):
    def broke():
        raise RuntimeError("helper broke")

    in_child(broke)
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", 0)
    assert run_main([*FIG1, "--out", str(tmp_path / "out")], tmp_path / "log") == 1
    assert capsys.readouterr().err == ("error: seed helper exited with 1: "
                                       "RuntimeError: helper broke\n")
    assert len(forked) == 1
    assert_reaped(forked)
    assert not (tmp_path / "out" / "fig1_complete_line_manifest.json").exists()


@linux_only
def test_a_killed_child_fails_the_run(tmp_path, monkeypatch, capsys, forked, two_cpus,
                                      in_child):
    in_child(lambda: os.kill(os.getpid(), signal.SIGKILL))
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", 0)
    assert run_main([*FIG1, "--out", str(tmp_path / "out")], tmp_path / "log") == 1
    assert capsys.readouterr().err == "error: seed helper exited with -9: no message\n"
    assert len(forked) == 1
    assert_reaped(forked)
    assert not (tmp_path / "out" / "fig1_complete_line_manifest.json").exists()


@linux_only
@pytest.mark.parametrize("exc, message", [(KeyboardInterrupt, "KeyboardInterrupt: "),
                                          (SystemExit(0), "SystemExit: 0")])
def test_an_interrupted_or_exiting_child_still_ends_by_os_exit(
        exc, message, tmp_path, monkeypatch, capsys, forked, two_cpus, in_child):
    # neither reaches the caller's frames in the child: run_main checks that
    # main returns once, in the test's own process
    def interrupt():
        raise exc

    in_child(interrupt)
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", 0)
    assert run_main([*FIG1, "--out", str(tmp_path / "out")], tmp_path / "log") == 1
    assert capsys.readouterr().err == f"error: seed helper exited with 1: {message}\n"
    assert len(forked) == 1
    assert_reaped(forked)


@linux_only
def test_a_failing_integrate_kills_the_helper(tmp_path, monkeypatch, capsys, forked,
                                              two_cpus, in_child):
    # the child would sleep past every wait here: run returns only by killing it
    in_child(lambda: time.sleep(2 * WAIT_S))
    path = tmp_path / "logistic.json"
    path.write_text(json.dumps({**LOGISTIC, "stochastic": {"enabled": True, "h": 0.5,
                                                           "seeds": [1, 2]}}))
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", 0)
    argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out")]
    assert run_main(argv, tmp_path / "log") == 1
    assert capsys.readouterr().err.startswith("error: p left [0,1] by ")
    assert len(forked) == 1
    assert_reaped(forked)


@linux_only
def test_a_failed_fork_fails_the_run_and_closes_its_pipe(tmp_path, monkeypatch, capsys,
                                                        two_cpus):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", 0)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert main([*FIG1, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: [Errno 11] Resource temporarily unavailable\n"
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_importing_the_cli_leaves_subprocess_out():
    # no command starts a process by subprocess, so none pays for its import
    code = "import sys, sismob.cli; print('subprocess' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=WAIT_S, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
