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
    functions and ufuncs (array methods such as ``fill`` are not counted)."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize(
    "mesh, k, calls",
    [
        (RadialShellMesh(3, 1.0, 7), 1.0, 19),
        (RadialShellMesh(3, 1.0, 7), 1.3, 20),
        (CartesianMesh2D(1.0, 1.0, 5, 4), 1.0, 28),
        (CartesianMesh2D(1.0, 1.0, 5, 4), 1.3, 29),
    ],
    ids=["radial-unit_k", "radial", "cart-unit_k", "cart"],
)
def test_numpy_calls_of_a_bound_step(monkeypatch, mesh, k, calls):
    counting = CountingNumpy()
    monkeypatch.setattr(meshes, "np", counting)
    start = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
    plan = StepPlan(mesh, start.uv()[:, None], [0.6], [k])
    counting.calls = 0
    plan.face_velocities()
    plan.advance(1e-3)
    assert counting.calls == calls
