"""The names the benchmark under ``perfbench/`` wraps must exist in chemolab.

``perfbench/layers.py`` replaces chemolab functions and mesh methods by
name with span-recording wrappers, and ``perfbench/launch.py`` wraps
``chemolab.cli.run_solver``.  A renamed function would make the traced
benchmark fail, or a per-layer metric read 0; this test fails instead."""

import importlib
from pathlib import Path

import pytest

import chemolab.cli as cli
import chemolab.meshes as meshes
import chemolab.runconfig as runconfig
import chemolab.solver as solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
