"""``run`` forks one child for its last seeds and ``sweep`` one for its last
grid points, and the second CPU stays unobservable: the exit code, stdout,
stderr and files are the one-CPU path's, byte for byte, whether the child
succeeds, raises, is killed, interrupted or exits, and whether the fork
fails; the child ends by ``os._exit`` whatever it raises, a healthy child's
half is never redone, and no child outlives the call."""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from sismob import cli
from sismob.cli import main

from conftest import LOGISTIC, REPO, SCENARIOS

WAIT_S = 120  # every wait on a child or a run in these tests ends by then
FULL = ["run", "--scenario", str(SCENARIOS / "fig1_complete_line.json")]  # 10 seeds, 4,000 steps
FIG1 = [*FULL, "--t-end", "2"]
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
def wrap(monkeypatch, tmp_path):
    """``wrap(name, child, parent)`` makes each call of ``cli.<name>`` log its
    last argument, then call ``child()`` in any process but the test's own and
    ``parent()`` in the test's, then make the call as before.  ``wrap.calls()``
    reads the logged arguments in call order, under "parent" for the test's
    process and "child" for any other."""
    test_pid, log = os.getpid(), tmp_path / "calls.jsonl"

    def patch(name, child=lambda: None, parent=lambda: None):
        original = getattr(cli, name)

        def patched(*args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps([os.getpid() == test_pid, args[-1]]) + "\n")
            child() if os.getpid() != test_pid else parent()
            return original(*args)

        monkeypatch.setattr(cli, name, patched)

    def calls():
        found = {"parent": [], "child": []}
        for line in log.read_text().splitlines():
            in_test, arg = json.loads(line)
            found["parent" if in_test else "child"].append(arg)
        return found

    patch.calls = calls
    return patch


def raiser(exc):
    def act():
        raise exc
    return act


# every way a child can end but by sending its text: each must leave the outcome one CPU's
child_faults = pytest.mark.parametrize("fault", [
    raiser(TypeError("child broke")), lambda: os.kill(os.getpid(), signal.SIGKILL),
    raiser(KeyboardInterrupt()), raiser(SystemExit(0)),
], ids=["raises", "killed", "interrupted", "exits"])


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


def outcome(argv, out, n_cpus, monkeypatch, capsys):
    """``main(argv + --out out)`` on ``n_cpus`` CPUs: its exit code (the repr
    of an exception it raises), stdout and stderr with ``out`` masked, and
    each file under ``out`` by name (None for a directory)."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False)
        code = run_main([*argv, "--out", str(out)], out.with_suffix(".log"))
    std = capsys.readouterr()
    files = {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}
    return (code if isinstance(code, int) else repr(code),
            std.out.replace(str(out), "OUT"), std.err.replace(str(out), "OUT"), files)


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


@linux_only
@pytest.mark.parametrize("seeds, lane_steps, gate, forks", [
    (["1"], 0, {}, 0),
    (["1", "2", "3"], 3 * 4000, {}, 1),  # 3 seeds of 4,000 steps reach the bound
    (["1", "2", "3"], 3 * 4000 + 1, {}, 0),
    (["1", "2", "3"], 3 * 4000, {"platform": "darwin"}, 0),
    (["1", "2", "3"], 3 * 4000, {"platform": "freebsd"}, 0),
    (["1", "2", "3"], 3 * 4000, {"sched_getaffinity": lambda pid: {0}}, 0),
], ids=["one_seed", "at_bound", "past_bound", "darwin", "freebsd", "one_cpu"])
def test_the_run_gate(seeds, lane_steps, gate, forks, tmp_path, monkeypatch, forked, two_cpus,
                      wrap):
    monkeypatch.setattr(cli, "HELPER_LANE_STEPS", lane_steps)
    targets = {"sched_getaffinity": os, "platform": sys}
    for name, value in gate.items():
        monkeypatch.setattr(targets[name], name, value)
    wrap("_write_seeds")
    argv = [*FULL, "--seed", *seeds, "--out", str(tmp_path / "out")]
    assert run_main(argv, tmp_path / "log") == 0
    assert len(forked) == forks
    assert_reaped(forked)
    seeds = [int(seed) for seed in seeds]  # the parent keeps the rounded-up half
    expected = {"parent": [[1, 2]], "child": [[3]]} if forks else {"parent": [seeds], "child": []}
    assert wrap.calls() == expected


@linux_only
def test_a_healthy_seed_child_is_never_redone(tmp_path, forked, two_cpus, wrap):
    wrap("_write_seeds")
    assert run_main([*FIG1, "--out", str(tmp_path / "out")], tmp_path / "log") == 0
    assert len(forked) == 1
    assert_reaped(forked)
    assert wrap.calls() == {"parent": [[1, 2, 3, 4, 5]], "child": [[6, 7, 8, 9, 10]]}


@linux_only
@child_faults
def test_a_failing_seed_child_leaves_its_seeds_to_the_run(fault, tmp_path, monkeypatch, capsys,
                                                         forked, wrap):
    one_cpu = outcome(FIG1, tmp_path / "one", 1, monkeypatch, capsys)
    assert one_cpu[:3] == (0, "wrote 23 files under OUT\n", "") and not forked
    wrap("_write_seeds", child=fault)
    assert outcome(FIG1, tmp_path / "two", 2, monkeypatch, capsys) == one_cpu
    assert len(forked) == 1
    assert_reaped(forked)
    assert wrap.calls() == {"parent": [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]],
                            "child": [[6, 7, 8, 9, 10]]}


@linux_only
def test_a_fault_in_every_process_ends_the_run_as_on_one_cpu(tmp_path, monkeypatch, capsys,
                                                            forked):
    # the child steps seeds 6-10 and fails on seed 10's CSV; the parent then
    # redoes them and fails there too, as the one-CPU run does
    for name in ("one", "two"):
        (tmp_path / name / "fig1_complete_line_stochastic_seed10.csv").mkdir(parents=True)
    one_cpu = outcome(FULL, tmp_path / "one", 1, monkeypatch, capsys)
    assert one_cpu[:3] == (2, "", "error: [Errno 21] Is a directory: "
                                  "'OUT/fig1_complete_line_stochastic_seed10.csv'\n")
    assert not forked
    assert outcome(FULL, tmp_path / "two", 2, monkeypatch, capsys) == one_cpu
    assert len(forked) == 1
    assert_reaped(forked)


@linux_only
def test_a_failing_integrate_kills_the_helper(tmp_path, monkeypatch, capsys, forked,
                                              two_cpus, wrap):
    # the child would sleep past every wait here: run returns only by killing it
    wrap("_write_seeds", child=lambda: time.sleep(2 * WAIT_S))
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
def test_a_failed_fork_runs_serially_and_closes_its_pipe(tmp_path, monkeypatch, capsys):
    one_cpu = outcome(FIG1, tmp_path / "one", 1, monkeypatch, capsys)
    tried = []

    def no_fork():
        tried.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert outcome(FIG1, tmp_path / "two", 2, monkeypatch, capsys) == one_cpu
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert tried == [1]


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
@pytest.mark.parametrize("stop, count", [(0.6, 64), (300, 1200)])  # 1200: past the pipe's buffer
def test_a_healthy_sweep_child_is_never_redone(stop, count, tmp_path, forked, two_cpus, wrap):
    wrap("parse_point")
    sweep_files(tmp_path, "out", f"delta=0.05:{stop}:{count}")
    assert len(forked) == 1
    assert_reaped(forked)
    values = np.linspace(0.05, stop, count).tolist()
    assert wrap.calls() == {"parent": values[:count // 2], "child": values[count // 2:]}


@sweep_forks
@child_faults
def test_a_failing_sweep_child_leaves_its_points_to_the_sweep(fault, tmp_path, monkeypatch,
                                                             capsys, forked, wrap):
    argv = [*SWEEP, "--grid", "delta=0.05:0.6:64"]
    one_cpu = outcome(argv, tmp_path / "one", 1, monkeypatch, capsys)
    assert one_cpu[0] == 0 and len(one_cpu[3]) == 2 and not forked
    wrap("parse_point", child=fault)
    assert outcome(argv, tmp_path / "two", 2, monkeypatch, capsys) == one_cpu
    assert len(forked) == 1
    assert_reaped(forked)
    values = np.linspace(0.05, 0.6, 64).tolist()
    assert wrap.calls() == {"parent": values, "child": values[32:33]}  # it failed on its first


@sweep_forks
def test_a_fault_in_every_process_ends_the_sweep_as_on_one_cpu(tmp_path, monkeypatch, capsys,
                                                              forked, wrap):
    # no row records an error that is no ValueError or RuntimeError: it reaches
    # main's caller with its type, and neither the CSV nor the manifest is written
    broke = raiser(TypeError("broke"))
    wrap("parse_point", child=broke, parent=broke)
    argv = [*SWEEP, "--grid", "delta=0.05:0.6:64"]
    one_cpu = outcome(argv, tmp_path / "one", 1, monkeypatch, capsys)
    assert one_cpu == ("TypeError('broke')", "", "", {}) and not forked
    assert outcome(argv, tmp_path / "two", 2, monkeypatch, capsys) == one_cpu
    assert len(forked) == 1
    assert_reaped(forked)


@sweep_forks
def test_a_failing_parent_half_kills_the_sweep_child(tmp_path, forked, two_cpus, wrap):
    # the child would sleep past every wait here: sweep returns only by killing it
    wrap("parse_point", child=lambda: time.sleep(2 * WAIT_S),
         parent=raiser(TypeError("parent broke")))
    out = tmp_path / "out"
    raised = run_main([*SWEEP, "--grid", "delta=0.05:0.6:64", "--out", str(out)],
                      tmp_path / "log")
    assert isinstance(raised, TypeError) and str(raised) == "parent broke"
    assert len(forked) == 1
    assert_reaped(forked)
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
