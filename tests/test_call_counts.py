"""The numpy calls of one bound explicit step.

On 128 radial shells a step acts on a few hundred doubles, so the fixed cost
of each numpy call, not the arithmetic, sets the cost of a step.  These tests
count the calls of one ``StepPlan.face_velocities()`` plus ``advance(dt)``,
so that a change cannot add calls to the bound step unnoticed, and the
reductions, powers and integrals of one output row of the stepping loop."""

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


def _one_bound_step(monkeypatch, mesh, k, chi=0.6):
    """The counting stand-in after one bound step of a one-point plan."""
    counting = CountingNumpy()
    monkeypatch.setattr(meshes, "np", counting)
    start = initial_state(mesh, "gaussian", 2.0, v0_base=0.5)
    plan = StepPlan(mesh, start.uv()[:, None], [chi], [k])
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


@pytest.mark.parametrize(
    "mesh, k, calls",
    [
        (RadialShellMesh(3, 1.0, 7), 1.0, 10),
        (RadialShellMesh(3, 1.0, 7), 1.3, 11),
        (CartesianMesh2D(1.0, 1.0, 5, 4), 1.0, 11),
        (CartesianMesh2D(1.0, 1.0, 5, 4), 1.3, 12),
    ],
    ids=["radial-unit_k", "radial", "cart-unit_k", "cart"],
)
def test_numpy_calls_of_a_bound_step_without_taxis(monkeypatch, mesh, k, calls):
    """At chi = 0 a step is the differences, the diffusive fluxes, the
    scatter and the update without its taxis subtract."""
    operands = _one_bound_step(monkeypatch, mesh, k, chi=0.0).operands
    assert len(operands) == calls
    for name, args in operands:
        assert all(isinstance(a, np.ndarray) for a in args), (name, [type(a).__name__ for a in args])


@pytest.mark.parametrize(
    "mesh, calls, divides",
    [
        (RadialShellMesh(3, 1.0, 7), 19, 4),
        (RadialShellMesh(3, 2.0, 128), 19, 3),
        (CartesianMesh2D(1.0, 1.0, 5, 4), 28, 4),
        (CartesianMesh2D(2.0, 2.0, 64, 64), 28, 2),
    ],
    ids=["radial_m7", "radial_m128_R2", "cart_5x4", "cart_64x64_L2"],
)
def test_divides_of_a_bound_step(monkeypatch, mesh, calls, divides):
    """A mesh constant whose reciprocal is exact scales by a multiply: what
    divides is the face velocities (one per direction), the radial scatter
    (two, by the shell volumes) and, where the spacing is 0.2 or 1/7, the
    diffusive fluxes and the Cartesian taxis fluxes of that direction.  The
    total stays the same, and every operand is 0-d or of its call's shape."""
    operands = _one_bound_step(monkeypatch, mesh, 1.0).operands
    assert len(operands) == calls
    assert [name for name, _ in operands].count("divide") == divides
    for name, args in operands:
        assert len({np.shape(a) for a in args} - {()}) <= 1, (name, [np.shape(a) for a in args])


class Field(np.ndarray):
    """A field that records the ufunc calls it takes part in, by its name."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.calls.append((ufunc.__name__, method, [getattr(x, "name", x) for x in inputs]))
        inputs = [x.view(np.ndarray) if isinstance(x, Field) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_calls_of_a_row_given_its_extremes():
    """One ``compute_row`` on the monitor_dense layout, given (min v, max u)
    as the stepping loop gives them: no min or max reduction, one power of u
    or v per distinct exponent (none for the norm of order 1, which is the
    mass), and one ``integrate`` per integral."""
    from chemolab.diagnostics import MonitorConfig, TimeSeries, compute_row
    from chemolab.meshes import State

    mesh = CartesianMesh2D(2.0, 2.0, 32, 32)
    start = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    calls, integrals = [], []
    u, v = (f.copy().view(Field) for f in (start.u, start.v))
    for f, name in ((u, "u"), (v, "v")):
        f.name, f.calls = name, calls
    integrate = mesh.integrate
    mesh.integrate = lambda f: integrals.append(f) or integrate(f)
    pairs = ((1.5, 0.25), (2.0, 0.5), (2.5, 0.75), (3.0, 1.0))
    series = TimeSeries(MonitorConfig(q_list=(1.0, 2.0, 3.0, 4.0), pr_pairs=pairs))
    compute_row(State(u, v, 0.5), mesh, series, (float(start.v.min()), float(start.u.max())))

    assert not [c for c in calls if c[0] in ("minimum", "maximum")]
    # numpy may take f**2.0, f**0.5, f**-1.0 and f**1.0 by these ufuncs
    shortcuts = {"square": 2.0, "sqrt": 0.5, "reciprocal": -1.0, "positive": 1.0}
    powers = [(c[2][0], c[2][1]) for c in calls if c[0] == "power"]
    powers += [(c[2][0], shortcuts[c[0]]) for c in calls if c[0] in shortcuts]
    u_orders = {2.0, 3.0, 4.0} | {p for p, _ in pairs} | {p + 1.0 for p, _ in pairs}
    v_orders = {-r for _, r in pairs} | {-(r + 1.0) for _, r in pairs} | {p - r for p, r in pairs}
    assert sorted(powers) == sorted([("u", e) for e in u_orders] + [("v", e) for e in v_orders])
    # the mass, three norms of order q > 1, E and D per pair, one norm of v per pair
    assert len(integrals) == 1 + 3 + 2 * len(pairs) + len(pairs)
