"""``run`` forks one child for its last seeds and ``sweep`` one for its last
grid points: the files are the serial path's, byte for byte, the child ends
by ``os._exit`` whatever it raises, and no child outlives the call."""

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


def run_main(argv, log):
    """``main(argv)``, or the exception it raises, which must come within
    WAIT_S and only in this process: every process that leaves it appends its
    pid to ``log``, and one that is not this process then ends."""
    result, test_pid = [], os.getpid()

    def target():
        try:
            code = main(argv)
        except Exception as exc:  # the parent's own failure
            code = exc
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


# nm = 40: a chunk holds 16 points, and a grid of 64 points or more forks
SWEEP = ["sweep", "--scenario", str(SCENARIOS / "fig1_complete_line.json")]
sweep_forks = pytest.mark.skipif(sys.platform != "linux" or not cli._fork_safe_blas(),
                                 reason="sweep forks only on Linux over a fork-safe BLAS")


@pytest.fixture
def in_sweep_child(monkeypatch):
    """Make ``parse_point`` call ``act()`` in any process but the test's own,
    and ``own()`` in the test's, then parse the point as before."""
    def patch(act, own=lambda: None):
        test_pid, parse_point = os.getpid(), cli.parse_point

        def patched(*args):
            act() if os.getpid() != test_pid else own()
            return parse_point(*args)

        monkeypatch.setattr(cli, "parse_point", patched)
    return patch


def sweep_files(tmp_path, name, grid) -> dict:
    out = tmp_path / name
    assert run_main([*SWEEP, "--grid", grid, "--out", str(out)], tmp_path / f"{name}.log") == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


@sweep_forks
@pytest.mark.parametrize("grid, errors", [
    ("delta=0.05:0.6:200", 0),   # the benchmark's grid
    ("delta=-0.05:150:80", 28),  # a negative rate, then h * delta past 1 from point 53 on
    ("rate_scale=0.05:1.5:80", 0),
    # h * delta passes 1 from point 400 on, and the child's 600 error rows take
    # more than the 64 KiB pipe buffer: the child blocks until the parent reads
    ("delta=0.05:300:1200", 800),
])
def test_forked_and_one_cpu_sweeps_write_the_same_bytes(grid, errors, tmp_path, monkeypatch,
                                                        forked):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = sweep_files(tmp_path, "serial", grid)
    assert not forked
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    split = sweep_files(tmp_path, "split", grid)
    assert len(forked) == 1
    assert_reaped(forked)
    assert sorted(split) == ["fig1_complete_line_manifest.json", "fig1_complete_line_sweep.csv"]
    assert split == serial
    rows = split["fig1_complete_line_sweep.csv"].decode().splitlines(keepends=True)[1:]
    assert sum("Error" in row for row in rows) == errors
    if grid.endswith(":1200"):
        assert len("".join(rows[600:]).encode()) > 65536


@sweep_forks
def test_a_failing_sweep_child_fails_the_sweep(tmp_path, capsys, forked, two_cpus,
                                               in_sweep_child):
    def broke():
        raise TypeError("sweep broke")

    in_sweep_child(broke)
    out = tmp_path / "out"
    assert run_main([*SWEEP, "--grid", "delta=0.05:0.6:64", "--out", str(out)],
                    tmp_path / "log") == 1
    assert capsys.readouterr().err == ("error: sweep helper exited with 1: "
                                       "TypeError: sweep broke\n")
    assert len(forked) == 1
    assert_reaped(forked)
    assert list(out.iterdir()) == []  # neither the CSV nor the manifest


@sweep_forks
def test_a_killed_sweep_child_fails_the_sweep(tmp_path, capsys, forked, two_cpus,
                                              in_sweep_child):
    in_sweep_child(lambda: os.kill(os.getpid(), signal.SIGKILL))
    out = tmp_path / "out"
    assert run_main([*SWEEP, "--grid", "delta=0.05:0.6:64", "--out", str(out)],
                    tmp_path / "log") == 1
    assert capsys.readouterr().err == "error: sweep helper exited with -9: no message\n"
    assert len(forked) == 1
    assert_reaped(forked)
    assert list(out.iterdir()) == []


@sweep_forks
def test_a_failing_parent_half_kills_the_sweep_child(tmp_path, forked, two_cpus,
                                                     in_sweep_child):
    # the child would sleep past every wait here: sweep returns only by killing it
    def broke():
        raise TypeError("parent broke")

    in_sweep_child(lambda: time.sleep(2 * WAIT_S), broke)
    out = tmp_path / "out"
    raised = run_main([*SWEEP, "--grid", "delta=0.05:0.6:64", "--out", str(out)],
                      tmp_path / "log")
    assert isinstance(raised, TypeError) and str(raised) == "parent broke"
    assert len(forked) == 1
    assert_reaped(forked)
    assert list(out.iterdir()) == []


def test_a_failing_serial_sweep_raises_as_its_parent_half_does(tmp_path, monkeypatch, forked,
                                                               in_sweep_child):
    # in this process an error that is no ValueError or RuntimeError keeps its
    # type and traceback, in a serial sweep as in a forked one's parent half;
    # only the child's crosses the pipe, as "<type>: <message>" and exit 1
    def broke():
        raise TypeError("serial broke")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    in_sweep_child(lambda: None, broke)
    out = tmp_path / "out"
    raised = run_main([*SWEEP, "--grid", "delta=0.05:0.6:64", "--out", str(out)],
                      tmp_path / "log")
    assert isinstance(raised, TypeError) and str(raised) == "serial broke"
    assert not forked
    assert list(out.iterdir()) == []


def fake_config(name, config):
    blas = {"name": name, "openblas configuration": config}
    return lambda mode: {"Build Dependencies": {"blas": blas, "lapack": blas}}


def old_show_config():  # numpy < 1.25 takes no mode
    return None


@sweep_forks
@pytest.mark.parametrize("grid, gate", [
    ("delta=0.05:0.6:63", {}),  # 63 points take 3.94 STACK_BYTES, short of 4
    ("delta=0.05:0.6:64", {"sched_getaffinity": lambda pid: {0}}),
    ("delta=0.05:0.6:64", {"platform": "darwin"}),
    ("delta=0.05:0.6:64", {"platform": "freebsd"}),
    ("delta=0.05:0.6:64", {"show_config": fake_config(
        "scipy-openblas", "OpenBLAS 0.3.31  USE64BITINT USE_OPENMP DYNAMIC_ARCH Haswell")}),
    ("delta=0.05:0.6:64", {"show_config": fake_config("mkl-sdl", "unknown")}),
    ("delta=0.05:0.6:64", {"show_config": fake_config("accelerate", None)}),
    ("delta=0.05:0.6:64", {"show_config": old_show_config}),
], ids=["small_grid", "one_cpu", "darwin", "freebsd", "openmp", "mkl", "accelerate",
        "old_numpy"])
def test_the_sweep_gate(grid, gate, tmp_path, monkeypatch, forked, two_cpus):
    expected = sweep_files(tmp_path, "forked", "delta=0.05:0.6:64")
    assert len(forked) == 1  # 64 points take 4 STACK_BYTES: the ungated sweep forks
    targets = {"sched_getaffinity": os, "platform": sys, "show_config": cli.np}
    for name, value in gate.items():
        monkeypatch.setattr(targets[name], name, value)
    files = sweep_files(tmp_path, "gated", grid)
    assert len(forked) == 1
    assert_reaped(forked)
    if grid == "delta=0.05:0.6:64":
        assert files == expected


@sweep_forks
@pytest.mark.parametrize("n, forks", [(48, 1), (50, 0)])
def test_sweeps_past_nm_96_stay_serial(n, forks, tmp_path, forked, two_cpus):
    # from nm = 100 on, BLAS threads its solves in each process, and forked sweeps
    # ran 2-80 times slower than serial ones on 2 CPUs
    doc = {**json.loads((SCENARIOS / "fig1_complete_line.json").read_text()),
           "n": n, "beta": 0.3}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["sweep", "--scenario", str(path), "--grid", "delta=0.05:0.6:12", "--out", str(out)]
    assert run_main(argv, tmp_path / "log") == 0  # 12 points: 4.06 and 4.4 STACK_BYTES
    assert len(forked) == forks
    assert_reaped(forked)
