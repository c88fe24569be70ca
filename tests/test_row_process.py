"""``chemolab run`` with its rows computed in a forked row process.

On Linux with at least two CPUs the rows after t = 0 are computed by a child
that ``cli._RowProcess`` forks at the first of them.  These tests check that
the files and the exit code do not depend on it, that a row error comes back
as it is, that a child that dies ends the run with exit code 1 and that no
child is ever left behind."""

import os
import sys

import pytest

import chemolab.cli as cli
import chemolab.solver as solver
from chemolab.cli import main
from chemolab.errors import DomainError

from test_config_cli import CART_CONFIG, write_config

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the row process is Linux only")

DENSE_CONFIG = (
    CART_CONFIG.replace("t_end = 0.5", "t_end = 0.1")
    .replace("output_interval = 0.1", "output_interval = 0.002")
    .replace("pr_source = bootstrap", "pr_source = explicit\npr_pairs = 1.5:0.25, 2:0.5, 2.5:0.75, 3:1")
    .replace("q_list = 1, 2", "q_list = 1, 2, 3, 4")
)

BLOWUP_CONFIG = """\
[model]
chi = 5
k = 0.05
n = 2
geometry = cartesian2d
Lx = 1
Ly = 1
nx = 16
ny = 16

[initial]
kind = gaussian
amplitude = 10
v0_base = 0.1

[scheme]
t_end = 5
output_interval = 0.001
blowup_factor = 1.5

[monitors]
q_list = 1, 2
pr_source = explicit
pr_pairs =
"""


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` starts during the test."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_at(tmp_path, monkeypatch, cfg, cpus, name):
    """``chemolab run`` on ``cfg`` in a process that reports ``cpus`` CPUs:
    (exit code, timeseries.csv bytes or None, report.txt bytes or None)."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    out = tmp_path / name
    code = main(["run", str(cfg), "--outdir", str(out)])
    files = [out / "timeseries.csv", out / "report.txt"]
    return (code, *(path.read_bytes() if path.exists() else None for path in files))


def collapsing(real, steps):
    """``real`` (a ``stable_dt``) for ``steps`` calls, then a collapsed dt."""
    calls = []

    def stable_dt(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs) if len(calls) <= steps else 1e-12

    return stable_dt


@pytest.mark.parametrize(
    "text,collapse,status,code",
    [
        (DENSE_CONFIG, None, "completed", 0),
        (CART_CONFIG.replace("output_interval = 0.1", "output_interval = 0.01"), 40, "dt_collapse", 5),
        (BLOWUP_CONFIG, None, "suspected_blowup", 4),
    ],
    ids=["dense_monitors", "dt_collapse", "suspected_blowup"],
)
def test_outputs_do_not_depend_on_the_row_process(tmp_path, monkeypatch, forks, text, collapse, status, code):
    cfg = write_config(tmp_path, text)
    results, real = [], solver.stable_dt
    for cpus in (2, 1):
        if collapse is not None:
            monkeypatch.setattr(solver, "stable_dt", collapsing(real, collapse))
        results.append(run_at(tmp_path, monkeypatch, cfg, cpus, f"at{cpus}"))
        assert len(forks) == 1  # the run at 2 CPUs forked, the run at 1 did not
    apart, inside = results
    assert apart == inside
    report = dict(line.split(": ") for line in apart[2].decode().splitlines())
    assert apart[0] == code and report["status"] == status
    rows = apart[1].decode().splitlines()[1:]
    assert len(rows) > 5 and float(rows[-1].split(",")[0]) == float(report["t_final"])
    assert_no_child_left()


def test_a_row_error_is_raised_again_as_it_is(tmp_path, monkeypatch, forks, capsys):
    real = solver.compute_row

    def compute_row(state, mesh, series, extremes=None):
        if state.t > 0.05:
            raise DomainError(f"injected at t = {state.t!r}")
        return real(state, mesh, series, extremes)

    monkeypatch.setattr(solver, "compute_row", compute_row)
    cfg = write_config(tmp_path, DENSE_CONFIG)
    apart = run_at(tmp_path, monkeypatch, cfg, 2, "apart"), capsys.readouterr()
    assert len(forks) == 1
    inside = run_at(tmp_path, monkeypatch, cfg, 1, "inside"), capsys.readouterr()
    assert apart == inside
    (code, csv, report), (out, err) = apart
    assert code == 1 and csv is None and report is None
    assert err.startswith("chemolab: error: injected at t = ") and out == ""
    assert_no_child_left()


@pytest.mark.parametrize("t_end", ["0.1", "0.01"], ids=["while_stepping", "at_the_end"])
def test_a_row_process_that_dies_ends_the_run(tmp_path, monkeypatch, forks, capsys, t_end):
    # with t_end = 0.01 the only row after t = 0 is the one that forks, so
    # the child's death shows when its rows are read, not on a write
    parent, real = os.getpid(), solver.compute_row

    def compute_row(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(solver, "compute_row", compute_row)
    text = CART_CONFIG.replace("t_end = 0.5", f"t_end = {t_end}")
    text = text.replace("output_interval = 0.1", "output_interval = 0.01")
    code, csv, report = run_at(tmp_path, monkeypatch, write_config(tmp_path, text), 2, "out")
    assert code == 1 and csv is None and report is None and len(forks) == 1
    assert capsys.readouterr().err == (
        f"chemolab: error: the row process (pid {forks[0]}) failed before sending its rows\n"
    )
    assert_no_child_left()


def test_an_interrupted_run_reaps_its_row_process(tmp_path, monkeypatch, forks):
    real, calls = solver.step, []

    def step(*args, **kwargs):
        calls.append(None)
        if len(calls) == 100:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "step", step)
    with pytest.raises(KeyboardInterrupt):
        run_at(tmp_path, monkeypatch, write_config(tmp_path, DENSE_CONFIG), 2, "out")
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize(
    "cpus,text,code",
    [
        (1, DENSE_CONFIG, 0),
        (None, DENSE_CONFIG, 0),
        (2, CART_CONFIG.replace("dt_min = 1e-10", "dt_min = 1"), 5),  # the only row is at t = 0
    ],
    ids=["one_cpu", "unknown_cpus", "only_the_first_row"],
)
def test_no_fork(tmp_path, monkeypatch, forks, cpus, text, code):
    assert run_at(tmp_path, monkeypatch, write_config(tmp_path, text), cpus, "out")[0] == code
    assert forks == []
