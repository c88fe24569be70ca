"""``chemolab run`` with its rows computed in a forked row process.

On Linux with at least two CPUs, a run whose row work (``cli.row_work``:
rows after t = 0 x cells x monitored orders) reaches
``cli.ROW_PROCESS_MIN_WORK`` has its rows computed by a child that
``cli._RowProcess`` forks at the first of them.  These tests check that the
files and the exit code do not depend on it, that a row error comes back as
it is, that a child that dies ends the run with exit code 1, that no child
is ever left behind, that a run with less work never forks and which of
perfbench's documents fork.  Every document that must fork has the fewest
rows after t = 0 that reach the threshold (``at_threshold``)."""

import importlib
import os
import sys
from pathlib import Path

import pytest

import chemolab.cli as cli
import chemolab.solver as solver
from chemolab.cli import main
from chemolab.errors import DomainError
from chemolab.runconfig import build_mesh, build_params, build_scheme, load_run_config, resolve_monitors

from test_config_cli import CART_CONFIG, write_config
from test_scan_rows import collapsing

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the row process is Linux only")


def at_threshold(cells, orders):
    """The fewest rows after t = 0 at which a run of ``cells`` cells that
    monitors ``orders`` orders forks its row process."""
    return -(-cli.ROW_PROCESS_MIN_WORK // (cells * orders))


ROWS = at_threshold(32 * 32, 3)  # rows_every's documents: 2 norms and 1 bootstrap pair


def rows_every(t_end, rows):
    """CART_CONFIG's text on 32x32 cells with ``t_end`` and ``rows`` rows after t = 0."""
    text = CART_CONFIG.replace("nx = 16\nny = 16", "nx = 32\nny = 32")
    text = text.replace("t_end = 0.5", f"t_end = {t_end!r}")
    return text.replace("output_interval = 0.1", f"output_interval = {t_end / rows!r}")


DENSE_CONFIG = (
    rows_every(0.1, at_threshold(32 * 32, 8))
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
output_interval = {!r}
blowup_factor = 1.5

[monitors]
q_list = 1, 2
pr_source = explicit
pr_pairs =
""".format(5 / at_threshold(16 * 16, 2))


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


@pytest.mark.parametrize(
    "text,collapse,status,code",
    [
        (DENSE_CONFIG, None, "completed", 0),
        (rows_every(0.5, ROWS), 40, "dt_collapse", 5),
        (BLOWUP_CONFIG, None, "suspected_blowup", 4),
    ],
    ids=["dense_monitors", "dt_collapse", "suspected_blowup"],
)
def test_outputs_do_not_depend_on_the_row_process(tmp_path, monkeypatch, forks, text, collapse, status, code):
    cfg = write_config(tmp_path, text)
    results, real = [], solver._dt_rule
    for cpus in (2, 1):
        if collapse is not None:
            monkeypatch.setattr(solver, "_dt_rule", collapsing(real, collapse))
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


@pytest.mark.parametrize("last", [False, True], ids=["while_stepping", "at_the_end"])
def test_a_row_process_that_dies_ends_the_run(tmp_path, monkeypatch, forks, capsys, last):
    # a child that dies at its first row shows it to a later write; one that
    # dies at its last row (t = t_end to rounding), after every write, when its rows are read
    parent, real = os.getpid(), solver.compute_row

    def compute_row(state, *args):
        if os.getpid() != parent and (not last or state.t > 0.1 - 1e-12):
            os._exit(3)
        return real(state, *args)

    monkeypatch.setattr(solver, "compute_row", compute_row)
    code, csv, report = run_at(tmp_path, monkeypatch, write_config(tmp_path, rows_every(0.1, ROWS)), 2, "out")
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
        (2, rows_every(0.5, ROWS).replace("dt_min = 1e-10", "dt_min = 1"), 5),  # the only row is at t = 0
        (2, rows_every(0.1, ROWS - 1), 0),
    ],
    ids=["one_cpu", "unknown_cpus", "only_the_first_row", "fewer_rows_than_the_threshold"],
)
def test_no_fork(tmp_path, monkeypatch, forks, cpus, text, code):
    assert run_at(tmp_path, monkeypatch, write_config(tmp_path, text), cpus, "out")[0] == code
    assert forks == []


def test_a_run_below_the_threshold_computes_its_rows_in_process(tmp_path, monkeypatch, forks):
    # a few rows, and one row short of the threshold
    for rows in (5, 6, ROWS - 1):
        cfg = write_config(tmp_path, rows_every(0.5, rows))
        apart, inside = (run_at(tmp_path, monkeypatch, cfg, cpus, f"{rows}at{cpus}") for cpus in (2, 1))
        assert forks == [] and apart == inside and apart[0] == 0
        assert len(apart[1].decode().splitlines()) == 1 + 1 + rows
    assert_no_child_left()


@pytest.mark.parametrize("seed", [0, 11])
def test_only_the_dense_monitor_workload_forks(tmp_path, monkeypatch, seed):
    # perfbench's monitor_dense (1,500 rows of 32x32 cells, 4 norms and 4
    # pairs) forks; run2d, radial3 and radial3 with 2,048 rows, where a row
    # process costs more than it saves, do not
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    scenario = importlib.import_module("workloads").scenario

    def work(workload, rows=None):
        case = scenario(workload, seed)
        text = case.input_text
        if rows is not None:
            interval = f"output_interval = {case.output_interval!r}"
            assert interval in text
            text = text.replace(interval, f"output_interval = {case.t_end / rows!r}")
        cfg = load_run_config(write_config(tmp_path, text))
        return cli.row_work(build_scheme(cfg), build_mesh(cfg), resolve_monitors(cfg, build_params(cfg)))

    assert work("monitor_dense") == 1500 * 1024 * 8 >= cli.ROW_PROCESS_MIN_WORK
    assert max(work("run2d"), work("radial3"), work("radial3", 2048)) < cli.ROW_PROCESS_MIN_WORK
    assert work("radial3", 2048) == 2048 * 128 * 3
