"""The dt rules that ``solver._dt_rule`` binds once per batch plan.

A bound rule must give the dt of the separate limits, to the bit, on every
branch: capped and uncapped ``dt_safety``, chi = 0, the advective screen
passing and failing, and k below and above 1.  The reference below is the
limit formula written out, with the screen and the cap, apart from the
solver's code.  The stepping loop must make, per batch step, one rule call
per point, one ``solver.step`` call and two reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemolab.solver as solver
from chemolab.exponents import ModelParams
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, State, StepPlan
from chemolab.solver import SchemeConfig, run_batch, stable_dt

from test_batch import MESHES, spike_state


def reference_dt(state, params, mesh, cfg):
    """The safety-scaled minimum of the diffusive, advective and reaction
    limits, the advective one skipped when the screen passes, capped above
    dt_safety 1/2."""
    k_scale, d_max, adv = max(1.0, params.k), mesh.diffusion_outflow_max(), 0.0
    capped = cfg.dt_safety > 0.5
    limit = 1.0 / (k_scale * d_max)
    if params.chi != 0.0:
        v_min, v_max = float(state.v.min()), float(state.v.max())
        if capped or not params.chi * (v_max - v_min) <= 0.5 * k_scale * v_min:
            adv = mesh.advective_outflow_max(mesh.face_velocities(state.v, params.chi))
            if adv > 0.0:
                limit = min(limit, 1.0 / adv)
    dt = cfg.dt_safety * min(limit, 0.5)
    if capped:
        dt = min(dt, (1.0 - 2.0**-32) / (d_max + adv), (1.0 - 2.0**-32) / (params.k * d_max + 1.0))
    return dt


RULE_MESHES = [(CartesianMesh2D(1.0, 0.8, 7, 5), 2), (RadialShellMesh(3, 1.0, 16), 3)]


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("k_above_one", [False, True], ids=["k_below_1", "k_above_1"])
@pytest.mark.parametrize("screen", ["chi_zero", "passes", "fails"])
@pytest.mark.parametrize("mesh,n", RULE_MESHES, ids=["cart_7x5", "radial3_m16"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_bound_rule_gives_the_reference_dt(mesh, n, capped, k_above_one, screen, data):
    cells = mesh.cell_count
    uniform = st.floats(0.0, 1.0)
    u = np.array(data.draw(st.lists(uniform, min_size=cells, max_size=cells))) * data.draw(st.floats(0.0, 50.0))
    v = 0.05 + np.array(data.draw(st.lists(uniform, min_size=cells, max_size=cells)))
    if v.max() == v.min():
        v[0] *= 2.0
    k = data.draw(st.floats(1.01, 10.0) if k_above_one else st.floats(0.05, 0.99))
    safety = data.draw(st.floats(0.51, 1.0) if capped else st.floats(0.01, 0.5))
    # the screen passes for chi below chi_screen and fails above it
    chi_screen = 0.5 * max(1.0, k) * v.min() / (v.max() - v.min())
    scale = {"chi_zero": 0.0, "passes": data.draw(st.floats(0.01, 0.99))}.get(screen)
    chi = chi_screen * (scale if scale is not None else data.draw(st.floats(1.01, 100.0)))
    params, cfg = ModelParams(chi=chi, k=k, n=n), SchemeConfig(t_end=1.0, output_interval=1.0, dt_safety=safety)
    state = State(u, v)
    expected = reference_dt(state, params, mesh, cfg)

    # the rule as the loop calls it: a plan's face velocities and the v range
    plan = StepPlan(mesh, state.uv()[:, None], [chi], [k])
    plan.face_velocities()
    calls, inner = [], mesh.advective_outflow_max
    mesh.advective_outflow_max = lambda w: calls.append(None) or inner(w)
    try:
        got = solver._dt_rule(params, mesh, cfg)(plan.point_faces[0], (float(v.min()), float(v.max())))
    finally:
        del mesh.advective_outflow_max
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    assert len(calls) == (chi != 0.0 and (capped or screen == "fails"))  # the exact path, only where taken
    assert np.float64(stable_dt(state, params, mesh, cfg)).tobytes() == np.float64(expected).tobytes()


@pytest.fixture
def events(monkeypatch):
    """What the stepping loop calls, in order: ("bind",) per rule bound,
    ("rule",) per rule call, ("step", points) per ``solver.step`` call and
    ("min",) or ("max",) per reduction."""
    record = []
    real_rule, real_step = solver._dt_rule, solver.step

    def dt_rule(*args):
        rule = real_rule(*args)
        record.append(("bind",))

        def counted(w, v_range):
            record.append(("rule",))
            return rule(w, v_range)

        return counted

    def step(state, *args):
        record.append(("step", state.u.shape[0]))
        return real_step(state, *args)

    class Reduction:
        def __init__(self, name, ufunc):
            self.name, self.ufunc = name, ufunc

        def reduceat(self, *args):
            record.append((self.name,))
            return self.ufunc.reduceat(*args)

    class Numpy:
        minimum, maximum = Reduction("min", np.minimum), Reduction("max", np.maximum)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(solver, "_dt_rule", dt_rule)
    monkeypatch.setattr(solver, "step", step)
    monkeypatch.setattr(solver, "np", Numpy())
    return record


def plans(record):
    """The record cut into one list per plan: [points, steps, split], where
    split says whether the plan's last rule calls ended in a split."""
    out = []
    i = 0
    while i < len(record):
        points = 0
        while i < len(record) and record[i] == ("bind",):
            points, i = points + 1, i + 1
        steps, split = 0, False
        while i < len(record) and record[i] != ("bind",):
            calls = record[i : i + points]
            assert calls == [("rule",)] * points  # one rule call per point
            i += points
            if i == len(record) or record[i] == ("bind",):
                split = True  # the points' dts differed: no step
                break
            assert record[i : i + 3] == [("step", points), ("min",), ("max",)]
            steps, i = steps + 1, i + 3
        out.append([points, steps, split])
    return out


def test_one_point_batch_calls_per_step(events):
    mesh = MESHES[0][1]()
    cfg = SchemeConfig(t_end=0.1, output_interval=0.02)
    report = run_batch(spike_state(mesh), [ModelParams(chi=0.3, k=1.0, n=2)], mesh, cfg)[0]
    assert report.status == "completed"
    assert plans(events) == [[1, report.steps, False]]


def test_three_point_batch_that_splits_calls_per_step(events):
    # the spike builds a steep v that only chi = 60 feels: the three points
    # share their dts for a while, then the batch splits in two
    mesh = MESHES[0][1]()
    params_seq = [ModelParams(chi=chi, k=1.0, n=2) for chi in (0.3, 0.6, 60.0)]
    cfg = SchemeConfig(t_end=0.1, output_interval=0.02)
    reports = run_batch(spike_state(mesh), params_seq, mesh, cfg)
    assert [r.status for r in reports] == ["completed"] * 3
    first, *rest = plans(events)
    assert first[0] == 3 and first[1] > 10 and first[2]
    steps = {points: taken for points, taken, split in rest if not split}
    assert len(rest) == 2 and sorted(steps) == [1, 2]
    assert [r.steps for r in reports] == [first[1] + steps[2]] * 2 + [first[1] + steps[1]]
