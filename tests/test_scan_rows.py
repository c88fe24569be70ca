"""Output rows built from the stepping loop's post-step scan.

The loop takes each point's extremes with ``np.minimum.reduceat`` and
``np.maximum.reduceat`` over the plan's flat state and hands every row its
min v and max u, so ``compute_row`` does no reduction of its own there.
These tests check that such a row has the bits of ``compute_row`` run on the
state alone, and that the scan's extremes are those of a reduction along
each row, on every kind of value a step can produce.  Floats are compared
as int64 bit patterns, so the sign of a zero and a NaN's payload count."""

import numpy as np
import pytest

import chemolab.diagnostics as diagnostics
import chemolab.solver as solver
from chemolab.diagnostics import MonitorConfig, TimeSeries
from chemolab.exponents import ModelParams
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, State
from chemolab.solver import SchemeConfig, initial_state, run, run_batch

# the monitors of perfbench's monitor_dense workload
DENSE = MonitorConfig(
    q_list=(1.0, 2.0, 3.0, 4.0), pr_pairs=((1.5, 0.25), (2.0, 0.5), (2.5, 0.75), (3.0, 1.0))
)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.fixture
def rows_twice(monkeypatch):
    """Every row the stepping loop appends, as (the row it appended, the row
    of ``compute_row`` on a copy of the state without extremes)."""
    rows = []
    real = diagnostics.compute_row

    def compute_row(state, mesh, series, extremes=None):
        assert extremes is not None  # every row of the loop gets its extremes
        alone = TimeSeries(series.monitors)
        real(State(state.u.copy(), state.v.copy(), state.t), mesh, alone)
        real(state, mesh, series, extremes)
        rows.append((series.values[-series.width :].tolist(), alone.values.tolist()))

    monkeypatch.setattr(solver, "compute_row", compute_row)
    return rows


def assert_rows_alike(rows, count):
    assert len(rows) == count
    for looped, alone in rows:
        assert (bits(looped) == bits(alone)).all()


def test_rows_of_the_monitor_dense_layout(rows_twice):
    mesh = CartesianMesh2D(2.0, 2.0, 32, 32)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    cfg = SchemeConfig(t_end=0.01, output_interval=1e-3)
    report = run(init, ModelParams(chi=0.5, k=1.0, n=2), mesh, cfg, DENSE)
    assert report.status == "completed" and len(report.series) == 11
    assert_rows_alike(rows_twice, 11)
    series = report.series
    assert (bits(series.lq_norm(1.0)) == bits(series.mass)).all()


def test_rows_of_a_zero_amplitude_run(rows_twice):
    # u = 0 exactly: max u is an exact +0.0 in every row
    mesh = RadialShellMesh(3, 1.0, 16)
    init = initial_state(mesh, "gaussian", 0.0, v0_base=1.0)
    monitors = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=((2.5, 0.75),))
    cfg = SchemeConfig(t_end=0.05, output_interval=0.01)
    report = run(init, ModelParams(chi=0.5, k=1.0, n=3), mesh, cfg, monitors)
    assert report.status == "completed"
    assert_rows_alike(rows_twice, 6)
    assert (bits(report.series.max_u) == 0).all()
    assert (bits(report.series.lq_norm(1.0)) == bits(report.series.mass)).all()


def test_rows_of_a_batch_in_which_one_point_blows_up(rows_twice):
    # the blown-up point emits the row of the state that crossed the cap
    mesh = CartesianMesh2D(1.0, 0.8, 9, 7)
    x, y = mesh.cell_centers()
    bump = np.exp(-((x - 0.5) ** 2 + (y - 0.4) ** 2) / 0.05)
    params_seq = [ModelParams(chi=chi, k=1.0, n=2) for chi in (0.0, 1.0, 4.0)]
    cfg = SchemeConfig(t_end=0.1, output_interval=0.02, blowup_factor=1.2)
    monitors_seq = [MonitorConfig(q_list=(1.0, 2.0))] * 3
    reports = run_batch(State(bump + 0.5, 1.0 + bump), params_seq, mesh, cfg, monitors_seq)
    assert [r.status for r in reports] == ["completed", "completed", "suspected_blowup"]
    blown = reports[2]
    assert blown.series.t[-1] == blown.t_final and blown.t_final not in (0.02, 0.04, 0.06, 0.08)
    assert_rows_alike(rows_twice, sum(len(r.series) for r in reports))


def collapsing(real, steps):
    """``real`` (a ``solver._dt_rule``) whose rules give their dt for the
    first ``steps`` rule calls, counted over all of them, then a collapsed dt."""
    calls = []

    def dt_rule(*args):
        rule = real(*args)

        def collapsed(w, v_range):
            calls.append(None)
            return rule(w, v_range) if len(calls) <= steps else 1e-12

        return collapsed

    return dt_rule


def test_row_of_a_dt_collapse(rows_twice, monkeypatch):
    # dt collapses after seven steps, between two output times: the last row
    # is the state after the seventh step, with the extremes of its scan
    monkeypatch.setattr(solver, "_dt_rule", collapsing(solver._dt_rule, 7))
    mesh = CartesianMesh2D(2.0, 2.0, 16, 16)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    cfg = SchemeConfig(t_end=0.5, output_interval=0.1)
    report = run(init, ModelParams(chi=0.5, k=1.0, n=2), mesh, cfg, DENSE)
    assert report.status == "dt_collapse" and report.steps == 7
    assert len(report.series) == 2 and report.series.t[-1] == report.t_final > 0.0
    assert_rows_alike(rows_twice, 2)


def reduceat_extremes(rows):
    """The scan of ``solver._advance``: the extremes of each row of a (2P, N)
    stack, from its flat array and the row starts."""
    flat, starts = rows.reshape(-1), np.arange(0, rows.size, rows.shape[1])
    return np.minimum.reduceat(flat, starts), np.maximum.reduceat(flat, starts)


def special_rows(rng, n=37):
    """Six rows of positive values, but for a NaN in the first, +inf in the
    second, -inf in the third, a negative entry in the fourth, and a fifth
    row of zeros."""
    rows = rng.uniform(0.1, 3.0, (6, n))
    rows[0, 5], rows[1, 0], rows[2, 30], rows[3, 11] = np.nan, np.inf, -np.inf, -0.25
    rows[4] = 0.0
    return rows


@pytest.mark.parametrize("stack", [(0, 4), (1, 3), (2, 5), (0, 1, 2, 3, 4, 5), (5, 4, 3, 0, 2, 1)])
def test_scan_extremes_are_those_of_each_row(stack, rng):
    # (2P, N) stacks for P = 1 and P = 3
    rows = special_rows(rng)[list(stack)]
    mins, maxs = reduceat_extremes(rows)
    assert (bits(mins) == bits(np.minimum.reduce(rows, 1))).all()
    assert (bits(maxs) == bits(np.maximum.reduce(rows, 1))).all()


@pytest.mark.parametrize(
    "mesh",
    [CartesianMesh2D(2.0, 2.0, 32, 32), RadialShellMesh(3, 2.0, 128)],
    ids=["cart_32x32", "radial3_m128"],
)
def test_integrate_is_the_ddot_of_the_volumes(mesh, rng):
    for _ in range(200):
        f = rng.standard_normal(mesh.cell_count) * 10.0 ** rng.integers(-8, 8)
        assert bits(mesh.integrate(f)) == bits(float(mesh.volumes @ f))
