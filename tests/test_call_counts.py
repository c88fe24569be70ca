"""The numpy calls of one bound explicit step.

On 128 radial shells a step acts on a few hundred doubles, so the fixed cost
of each numpy call, not the arithmetic, sets the cost of a step.  These tests
count the calls of one ``StepPlan.face_velocities()`` plus ``advance(dt)``,
so that a change cannot add calls to the bound step unnoticed."""

import numpy as np
import pytest

import chemolab.meshes as meshes
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, StepPlan
from chemolab.solver import initial_state


class CountingNumpy:
    """Stands in for ``numpy`` in ``meshes``: counts the calls of its
    functions and ufuncs (array methods such as ``fill`` are not counted)
    and records the positional operands of each."""

    def __init__(self):
        self.operands = []  # (name, positional operands) of each counted call

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.operands.append((name, args))
            return attr(*args, **kwargs)

        return counted


CASES = pytest.mark.parametrize(
    "mesh, k, calls",
    [
        (RadialShellMesh(3, 1.0, 7), 1.0, 19),
        (RadialShellMesh(3, 1.0, 7), 1.3, 20),
        (CartesianMesh2D(1.0, 1.0, 5, 4), 1.0, 28),
        (CartesianMesh2D(1.0, 1.0, 5, 4), 1.3, 29),
    ],
    ids=["radial-unit_k", "radial", "cart-unit_k", "cart"],
)


def _one_bound_step(monkeypatch, mesh, k):
    """The counting stand-in after one bound step of a one-point plan."""
    counting = CountingNumpy()
    monkeypatch.setattr(meshes, "np", counting)
    start = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
    plan = StepPlan(mesh, start.uv()[:, None], [0.6], [k])
    counting.operands = []
    plan.face_velocities()
    plan.advance(1e-3)
    return counting


@CASES
def test_numpy_calls_of_a_bound_step(monkeypatch, mesh, k, calls):
    assert len(_one_bound_step(monkeypatch, mesh, k).operands) == calls


@CASES
def test_every_operand_of_a_bound_step_is_an_array(monkeypatch, mesh, k, calls):
    """A Python number handed to a ufunc is converted on every call (NEP 50
    weak scalars); the plan binds every scalar as a 0-d array instead."""
    for name, args in _one_bound_step(monkeypatch, mesh, k).operands:
        assert all(isinstance(a, np.ndarray) for a in args), (name, [type(a).__name__ for a in args])
