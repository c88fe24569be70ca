"""The names the benchmark under ``perfbench/`` wraps must exist in chemolab.

``perfbench/layers.py`` replaces chemolab functions and mesh methods by
name with span-recording wrappers, and ``perfbench/launch.py`` wraps
``chemolab.cli.run_solver``.  A renamed function would make the traced
benchmark fail, or a per-layer metric read 0; this test fails instead.
The stepping loop must also call the wrapped ``solver.step`` and
``solver.stable_dt`` once per step, so that the traced ``solver.steps`` is
the step count that ``report.txt`` gives, and the wrapped
``solver.compute_row`` once per row of ``timeseries.csv`` when the rows are
computed in process."""

import collections
import importlib
from pathlib import Path

import pytest

import chemolab.cli as cli
import chemolab.meshes as meshes
import chemolab.runconfig as runconfig
import chemolab.solver as solver

from test_config_cli import RADIAL_CONFIG, write_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class Counting:
    """A tracer whose wrappers count their calls by span name."""

    def __init__(self):
        self.calls = collections.Counter()

    def wrap(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


class PassThrough:
    """A tracer whose wrappers are the wrapped functions themselves."""

    def __init__(self):
        self.names = []

    def wrap(self, name, fn):
        self.names.append(name)
        return fn


@pytest.fixture
def layers(monkeypatch):
    """perfbench's layers module, with everything its ``install`` may set
    put back after the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    for module in (cli, runconfig, solver):
        for name, value in list(vars(module).items()):
            if not name.startswith("__"):
                monkeypatch.setattr(module, name, value)
    for cls in (meshes.CartesianMesh2D, meshes.RadialShellMesh):
        for name in layers.MESH_METHODS:
            if hasattr(cls, name):  # a missing one fails the test, not the fixture
                monkeypatch.setattr(cls, name, getattr(cls, name))
    return layers


def test_every_traced_name_exists(layers):
    tracer = PassThrough()
    layers.install(tracer)  # raises AttributeError on a missing name
    assert "solver.step" in tracer.names and "meshes.advective_outflow_max" in tracer.names


def test_launch_wraps_run_solver():
    assert callable(cli.run_solver)


def test_traced_step_calls_are_the_reported_steps(layers, tmp_path, monkeypatch):
    # with one CPU the rows are computed in this process, where they are counted
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    tracer = Counting()
    layers.install(tracer)
    cfg = write_config(tmp_path, RADIAL_CONFIG)
    assert cli.main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
    report = dict(
        line.split(": ", 1) for line in (tmp_path / "out" / "report.txt").read_text().splitlines()
    )
    steps = int(report["steps"])
    assert steps > 0
    assert tracer.calls["solver.step"] == steps
    assert tracer.calls["solver.stable_dt"] == steps
    rows = len((tmp_path / "out" / "timeseries.csv").read_text().splitlines()) - 1
    assert rows > 2 and tracer.calls["diagnostics.compute_row"] == rows
