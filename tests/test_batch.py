"""Batched stepping against single runs, the padded one-scatter kernels
against the separate-accumulation kernels they replace, and the sweep's
partition of grid points into batch tasks.

Everything is compared by bytes (``tobytes`` or packed floats), so a
different NaN payload or, where the claim is bit-identity, a different sign
of zero counts as a difference."""

import dataclasses
import math
import os
import struct

import numpy as np
import pytest

import chemolab.cli as cli
import chemolab.solver as solver
from chemolab.cli import main
from chemolab.diagnostics import MonitorConfig
from chemolab.errors import DomainError
from chemolab.exponents import ModelParams
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, State, StepPlan
from chemolab.runconfig import parse_sweep_spec
from chemolab.solver import BATCH_CELLS, SchemeConfig, initial_state, run, run_batch

from test_config_cli import CART_CONFIG, SWEEP_SMALL, write_config
from test_fused_step import double_stable_dt, fake_report, record_parallel_sweeps

# ---------------------------------------------------------------------------
# oracle: the kernels that accumulate each operator separately into zeros
# ---------------------------------------------------------------------------


def sep_cart_laplacian(mesh, f):
    nx = mesh.nx
    out = np.zeros(f.shape)
    tx = (f[..., 1:] - f[..., :-1]) / (mesh.hx * mesh.hx)
    tx[..., mesh.nx - 1 :: mesh.nx] = 0.0
    out[..., :-1] += tx
    out[..., 1:] -= tx
    ty = (f[..., nx:] - f[..., :-nx]) / (mesh.hy * mesh.hy)
    out[..., :-nx] += ty
    out[..., nx:] -= ty
    return out


def sep_cart_chemotactic_divergence(mesh, u, w):
    nx = mesh.nx
    wx, wy = w
    out = np.zeros(mesh.cell_count)
    fx = wx * np.where(wx > 0.0, u[:-1], u[1:]) / mesh.hx
    fx[mesh.nx - 1 :: mesh.nx] = 0.0
    out[:-1] += fx
    out[1:] -= fx
    fy = wy * np.where(wy > 0.0, u[:-nx], u[nx:]) / mesh.hy
    out[:-nx] += fy
    out[nx:] -= fy
    return out


def sep_radial_laplacian(mesh, f):
    t = mesh.face_area[1:-1] * (f[..., 1:] - f[..., :-1]) / mesh.h
    out = np.zeros(f.shape)
    out[..., :-1] += t / mesh.volumes[:-1]
    out[..., 1:] -= t / mesh.volumes[1:]
    return out


def sep_radial_chemotactic_divergence(mesh, u, w):
    (w,) = w
    flux = mesh.face_area[1:-1] * w * np.where(w > 0.0, u[:-1], u[1:])
    out = np.zeros(mesh.m)
    out[:-1] += flux / mesh.volumes[:-1]
    out[1:] -= flux / mesh.volumes[1:]
    return out


def sep_kernels(mesh):
    if mesh.geometry == "radial":
        return sep_radial_laplacian, sep_radial_chemotactic_divergence
    return sep_cart_laplacian, sep_cart_chemotactic_divergence


MESHES = [
    ("cart_9x7", lambda: CartesianMesh2D(1.0, 0.8, 9, 7)),
    ("cart_5x4", lambda: CartesianMesh2D(0.7, 1.3, 5, 4)),
    ("cart_4x11", lambda: CartesianMesh2D(1.1, 0.9, 4, 11)),
    ("radial3_m37", lambda: RadialShellMesh(3, 1.0, 37)),
]
mesh_params = pytest.mark.parametrize(
    "make_mesh", [m for _, m in MESHES], ids=[n for n, _ in MESHES]
)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def fields(mesh, rng, rows=None):
    shape = (mesh.cell_count,) if rows is None else rows + (mesh.cell_count,)
    return rng.uniform(0.1, 3.0, shape)


@mesh_params
def test_laplacian_of_one_field(make_mesh, rng):
    mesh = make_mesh()
    lap, _ = sep_kernels(mesh)
    f = fields(mesh, rng)
    assert same_bytes(mesh.laplacian(f), lap(mesh, f))


@mesh_params
def test_laplacian_of_a_stacked_pair_and_a_batch(make_mesh, rng):
    mesh = make_mesh()
    lap, _ = sep_kernels(mesh)
    for rows in ((2,), (2, 3)):
        f = fields(mesh, rng, rows)
        assert same_bytes(mesh.laplacian(f), lap(mesh, f))


@mesh_params
def test_chemotactic_divergence(make_mesh, rng):
    mesh = make_mesh()
    _, div = sep_kernels(mesh)
    u, v = fields(mesh, rng), fields(mesh, rng)
    w = mesh.face_velocities(v, 0.7)
    assert same_bytes(mesh.chemotactic_divergence(u, w), div(mesh, u, w))


def sep_step(mesh, uv, w, k, dt):
    """One forward-Euler step of one point from the separate kernels."""
    lap, div = sep_kernels(mesh)
    u, v = uv
    du = lap(mesh, u) - div(mesh, u, w)
    dv = k * lap(mesh, v) - v + u
    return np.stack((u + dt * du, v + dt * dv))


def plan_step(plan, dt):
    plan.face_velocities()
    plan.advance(dt)


def same_faces(a, b):
    """Face velocities, one array per direction, compared by bytes."""
    return all(same_bytes(x, y) for x, y in zip(a, b, strict=True))


@mesh_params
def test_plan_rows_and_reused_faces(make_mesh, rng):
    mesh = make_mesh()
    chis, ks, dt = (0.7, 0.2, 2.5), (1.0, 1.3, 0.7), 1e-4
    plan = StepPlan(mesh, fields(mesh, rng, (2, 3)), chis, ks)
    for _ in range(2):  # the second step scales the new state's fluxes, not stale ones
        uv = plan.uv.copy()
        plan_step(plan, dt)
        for j, (chi, k) in enumerate(zip(chis, ks)):
            w = mesh.face_velocities(uv[1, j], chi)
            assert same_faces(plan.point_faces[j], w)
            assert same_bytes(plan.uv[:, j], sep_step(mesh, uv[:, j], w, k, dt))


@mesh_params
def test_batched_face_velocities_match_rows(make_mesh, rng):
    mesh = make_mesh()
    v = fields(mesh, rng, (3,))
    chi = np.repeat([[0.4], [0.0], [3.0]], mesh.cell_count, axis=1)  # per cell
    w = mesh.face_velocities(v, chi)
    for j, c in enumerate((0.4, 0.0, 3.0)):
        one = mesh.face_velocities(v[j].copy(), c)
        assert same_faces(mesh.point_faces(w, j), one)


ISOLATION_MESHES = [
    ("radial3_m4", lambda: RadialShellMesh(3, 1.0, 4)),
    ("radial3_m37", lambda: RadialShellMesh(3, 1.0, 37)),
    ("cart_4x4", lambda: CartesianMesh2D(1.0, 1.0, 4, 4)),
    ("cart_9x7", lambda: CartesianMesh2D(1.0, 0.8, 9, 7)),
    ("cart_4x11", lambda: CartesianMesh2D(1.1, 0.9, 4, 11)),
]


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "make_mesh", [m for _, m in ISOLATION_MESHES], ids=[n for n, _ in ISOLATION_MESHES]
)
def test_rows_of_the_flat_stack_are_isolated(make_mesh, bad, rng):
    # the flat pairs that join two rows of the stack must carry no flux: a
    # non-finite value where points 0 and 1 meet reaches no other row, and
    # every point's stepped state and faces, those of points 0 and 1
    # included, are the ones it gets in a plan of its own
    mesh = make_mesh()
    chis = (0.7, 0.2, 2.5, 1.1)
    uv = fields(mesh, rng, (2, 4))
    uv[:, 0, -1] = bad
    uv[:, 1, 0] = bad
    with np.errstate(invalid="ignore"):
        plan = StepPlan(mesh, uv, chis, [1.0] * 4)
        plan_step(plan, 1e-4)
        for j in range(4):
            alone = StepPlan(mesh, uv[:, j : j + 1], [chis[j]], [1.0])
            plan_step(alone, 1e-4)
            assert same_bytes(plan.uv[:, j], alone.uv[:, 0])
            assert same_faces(plan.point_faces[j], alone.point_faces[0])


@mesh_params
def test_kernels_on_exact_zeros_differ_at_most_in_zero_signs(make_mesh, rng):
    # a density with exact zeros and a chemical falling in +x gives -0 fluxes
    mesh = make_mesh()
    lap, div = sep_kernels(mesh)
    u = np.where(rng.uniform(size=mesh.cell_count) < 0.5, 0.0, 1.0)
    v = np.linspace(3.0, 1.0, mesh.cell_count)
    w = mesh.face_velocities(v, 1.0)
    for got, want in ((mesh.chemotactic_divergence(u, w), div(mesh, u, w)), (mesh.laplacian(u), lap(mesh, u))):
        assert np.array_equal(got, want)
        differ = np.frombuffer(got.tobytes(), np.uint64) != np.frombuffer(want.tobytes(), np.uint64)
        assert (got[differ] == 0.0).all()


# ---------------------------------------------------------------------------
# run_batch against run, by bytes
# ---------------------------------------------------------------------------


def report_bytes(report):
    """status, column names and step count, then every float of the report
    in a fixed order, the series' table last, packed."""
    head = f"{report.status}\n{','.join(report.series.names)}\n".encode()
    floats = [report.t_final, report.max_u_over_run, report.min_v_over_run, *report.floor_factors]
    floats += report.series.values
    return head + struct.pack(f"<q{len(floats)}d", report.steps, *floats)


def assert_batch_matches_runs(init, params_seq, mesh, cfg, monitors_seq, batch_sizes=()):
    """The batch's reports, after checking each against its own run, and the
    batch sizes of the batch's steps alone."""
    reports = run_batch(init, params_seq, mesh, cfg, monitors_seq)
    sizes = list(batch_sizes)
    assert len(reports) == len(params_seq)
    for report, params, monitors in zip(reports, params_seq, monitors_seq):
        assert report_bytes(report) == report_bytes(run(init, params, mesh, cfg, monitors))
    return reports, sizes


def dim(mesh):
    return mesh.n_dim if mesh.geometry == "radial" else 2


def monitors_for(params):
    pairs = ((2.5, 0.75),) if 0.0 < params.chi < 0.6 and params.k == 1.0 else ()
    return MonitorConfig(q_list=(1.0, 2.0), pr_pairs=pairs)


@pytest.fixture
def batch_sizes(monkeypatch):
    """The number of points in every ``solver.step`` call."""
    sizes = []
    real_step = solver.step

    def step(state, *args, **kwargs):
        sizes.append(state.u.shape[0])
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(solver, "step", step)
    return sizes


@mesh_params
def test_batch_of_mixed_chi_and_k_matches_runs(make_mesh, batch_sizes):
    # chi = 0 next to chi > 0, and k = 0.5, 1 (one dt) next to k = 2.5 (another):
    # the batch splits at the first step
    mesh = make_mesh()
    params_seq = [
        ModelParams(chi=chi, k=k, n=dim(mesh)) for chi in (0.0, 0.5, 0.9) for k in (0.5, 1.0, 2.5)
    ]
    monitors_seq = [monitors_for(p) for p in params_seq]
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    cfg = SchemeConfig(t_end=0.02, output_interval=0.007)
    reports, sizes = assert_batch_matches_runs(init, params_seq, mesh, cfg, monitors_seq, batch_sizes)
    assert all(r.status == "completed" and len(r.series) == 4 for r in reports)
    assert set(sizes) == {3, 6}


@pytest.mark.parametrize("monitors_seq", [[None], [None] * 3], ids=["fewer", "more"])
def test_monitor_sets_must_match_the_parameter_sets(monitors_seq):
    mesh = CartesianMesh2D(1.0, 1.0, 4, 4)
    params = ModelParams(chi=0.5, k=1.0, n=2)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    with pytest.raises(DomainError, match=f"^2 parameter sets but {len(monitors_seq)} monitor sets$"):
        run_batch(init, [params, params], mesh, SchemeConfig(t_end=0.01, output_interval=0.01), monitors_seq)


def spike_state(mesh):
    u = np.full(mesh.cell_count, 0.5)
    u[mesh.cell_count // 2] = 50.0
    return State(u, np.ones(mesh.cell_count))


@pytest.mark.parametrize(
    "make_mesh,big_chi,t_end",
    [(MESHES[0][1], 60.0, 0.1), (MESHES[3][1], 100.0, 0.08)],
    ids=["cart_9x7", "radial3_m37"],
)
def test_mid_run_split_when_the_advective_limit_binds_for_one_chi(make_mesh, big_chi, t_end, batch_sizes):
    # the spike builds a steep v that only the large chi's advective limit feels
    mesh = make_mesh()
    params_seq = [ModelParams(chi=chi, k=1.0, n=dim(mesh)) for chi in (0.3, big_chi)]
    cfg = SchemeConfig(t_end=t_end, output_interval=0.02)
    monitors_seq = [MonitorConfig(q_list=(1.0,))] * 2
    reports, sizes = assert_batch_matches_runs(spike_state(mesh), params_seq, mesh, cfg, monitors_seq, batch_sizes)
    assert [r.status for r in reports] == ["completed", "completed"]
    joint = sizes.index(1)
    assert joint > 10 and set(sizes[:joint]) == {2} and set(sizes[joint:]) == {1}


@pytest.mark.parametrize("make_mesh", [MESHES[0][1], MESHES[3][1]], ids=["cart_9x7", "radial3_m37"])
def test_point_that_stops_early_leaves_the_batch(make_mesh, batch_sizes):
    mesh = make_mesh()
    if mesh.geometry == "radial":
        d2 = mesh.cell_centers()[0] ** 2
    else:
        x, y = mesh.cell_centers()
        d2 = (x - 0.5) ** 2 + (y - 0.4) ** 2
    bump = np.exp(-d2 / 0.05)
    init = State(bump + 0.5, 1.0 + bump)
    params_seq = [ModelParams(chi=chi, k=1.0, n=dim(mesh)) for chi in (0.0, 1.0, 2.0, 4.0)]
    monitors_seq = [MonitorConfig(q_list=(1.0, 2.0))] * 4
    # the second scheme ends every step on an output time, so the blown-up
    # point leaves on a step that emits the others' rows
    for cfg in (
        SchemeConfig(t_end=0.1, output_interval=0.02, blowup_factor=1.2),
        SchemeConfig(t_end=0.01, output_interval=1e-5, blowup_factor=1.2),
    ):
        batch_sizes.clear()
        reports, sizes = assert_batch_matches_runs(init, params_seq, mesh, cfg, monitors_seq, batch_sizes)
        assert [r.status for r in reports] == ["completed"] * 3 + ["suspected_blowup"]
        assert reports[3].t_final < 0.01
        assert sizes[0] == 4 and set(sizes) == {3, 4} and sizes[-1] == 3
        assert len(sizes) == max(r.steps for r in reports)
    assert [r.steps for r in reports[:3]] == [1000] * 3 and len(reports[0].series) == 1001


def test_positivity_loss_inside_a_batch_matches_run(monkeypatch):
    # the one-cell spike of test_fused_step loses positivity with the
    # uncapped steps of dt_safety 0.6, injected at 0.3
    double_stable_dt(monkeypatch)
    mesh = CartesianMesh2D(1.0, 1.0, 8, 8)
    u = np.zeros(64)
    u[27] = 1.0
    v = np.full(64, 3.0)
    v[27] = 1.0
    params_seq = [ModelParams(chi=chi, k=1.0, n=2) for chi in (1.0, 0.0)]
    cfg = SchemeConfig(t_end=0.05, output_interval=0.01, dt_safety=0.3)
    reports, _ = assert_batch_matches_runs(State(u, v), params_seq, mesh, cfg, [None, None])
    assert [r.status for r in reports] == ["positivity_lost", "completed"]


def test_point_that_loses_positivity_leaves_a_batch_that_carries_on(monkeypatch, batch_sizes):
    # the spike with the uncapped steps of dt_safety 0.55, injected at 0.275:
    # chi = 1 and chi = 0.5 share the first dt, so they take the first step
    # as one batch; after it only the chi = 1 point has lost positivity, and
    # only it stops
    double_stable_dt(monkeypatch)
    mesh = CartesianMesh2D(1.0, 1.0, 8, 8)
    u = np.zeros(64)
    u[27] = 1.0
    v = np.full(64, 3.0)
    v[27] = 1.0
    params_seq = [ModelParams(chi=chi, k=1.0, n=2) for chi in (1.0, 0.5)]
    cfg = SchemeConfig(t_end=0.05, output_interval=0.01, dt_safety=0.275)
    reports, sizes = assert_batch_matches_runs(State(u, v), params_seq, mesh, cfg, [None, None], batch_sizes)
    assert [r.status for r in reports] == ["positivity_lost", "completed"]
    assert [r.steps for r in reports] == [0, len(sizes)]
    assert sizes[0] == 2 and set(sizes[1:]) == {1}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_value_in_a_later_row_stops_only_its_point(monkeypatch, bad):
    # after step 5, one cell of the second point's u is made non-finite: the
    # extremes of the batch's first row look fine, so the reductions must
    # see it in the second's; the first point carries on as if alone
    mesh = RadialShellMesh(3, 1.0, 37)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    params_seq = [ModelParams(chi=chi, k=1.0, n=3) for chi in (0.3, 0.5)]
    cfg = SchemeConfig(t_end=0.01, output_interval=0.005, blowup_factor=math.inf)
    alone = run(init, params_seq[0], mesh, cfg)
    real_step, taken = solver.step, []

    def step(state, *args, **kwargs):
        state = real_step(state, *args, **kwargs)
        taken.append(state.t)
        if len(taken) == 5:
            state.u[1, 17] = bad
        return state

    monkeypatch.setattr(solver, "step", step)
    reports = run_batch(init, params_seq, mesh, cfg, [None, None])
    assert (reports[1].status, reports[1].t_final, reports[1].steps) == ("suspected_blowup", taken[4], 5)
    assert report_bytes(reports[0]) == report_bytes(alone)
    assert alone.status == "completed"


@pytest.mark.parametrize(
    "field, value, factor, status",
    [
        (0, -0.0, 1e6, "completed"),
        (0, "cap", 2.0, "completed"),
        (0, "above_cap", 2.0, "suspected_blowup"),
        (1, math.nan, 1e6, "suspected_blowup"),
        (0, math.inf, math.inf, "suspected_blowup"),
    ],
    ids=["minus_zero_u", "max_u_at_cap", "max_u_above_cap", "nan_in_v_only", "inf_u_infinite_factor"],
)
def test_post_step_test_edge_values_match_the_solo_run(monkeypatch, field, value, factor, status):
    # after step 5, one cell of the second point's u or v (field 0 or 1) gets
    # a value on the edge of the post-step test: -0.0 is not below 0, u equal
    # to blowup_factor * max u0 is not past the cap, NaN in v alone is caught,
    # and +inf in u is caught even when the cap is +inf too
    mesh = RadialShellMesh(3, 1.0, 37)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    params_seq = [ModelParams(chi=chi, k=1.0, n=3) for chi in (0.3, 0.5)]
    cfg = SchemeConfig(t_end=0.01, output_interval=0.005, blowup_factor=factor)
    cap = factor * float(init.u.max())
    value = {"cap": cap, "above_cap": math.nextafter(cap, math.inf)}.get(value, value)
    real_step = solver.step

    def stepping_with_edge_value(row):
        taken = []

        def step(state, plan, *args, **kwargs):
            state = real_step(state, plan, *args, **kwargs)
            taken.append(state.t)
            if len(taken) == 5:
                state.uv()[field, row, 17] = value
            return state

        monkeypatch.setattr(solver, "step", step)
        return taken

    taken = stepping_with_edge_value(1)
    reports = run_batch(init, params_seq, mesh, cfg, [None, None])
    stepping_with_edge_value(0)
    alone = run(init, params_seq[1], mesh, cfg)
    monkeypatch.setattr(solver, "step", real_step)
    assert report_bytes(reports[1]) == report_bytes(alone)
    assert report_bytes(reports[0]) == report_bytes(run(init, params_seq[0], mesh, cfg))
    assert alone.status == status
    if status == "suspected_blowup":
        assert (alone.t_final, alone.steps) == (taken[4], 5)
    elif value == cap:
        assert alone.max_u_over_run == cap


# ---------------------------------------------------------------------------
# the sweep's batch tasks
# ---------------------------------------------------------------------------

SWEEP_MIXED = CART_CONFIG.replace("t_end = 0.5", "t_end = 0.05") + """\

[sweep]
chi_values = 0.3, 0.6, 1.2
k_values = 0.5, 1, 2, 3
parallelism = 2
"""


def planned(text, workers):
    spec = parse_sweep_spec(text)
    rows, tasks = cli._plan_sweep(spec, workers)
    return spec, rows, tasks


def test_points_are_grouped_by_first_time_step():
    spec, rows, tasks = planned(SWEEP_MIXED, workers=1)
    assert rows == {}
    batches = [[(p.params.chi, p.params.k) for p in task[3]] for task in tasks]
    # k <= 1 share the diffusive limit; each k > 1 has its own; k = 3 is
    # the most work (smallest dt), then k = 2 and k <= 1 (equal work) in grid order
    assert batches == [
        [(0.3, 3.0), (0.6, 3.0), (1.2, 3.0)],
        [(0.3, 0.5), (0.3, 1.0), (0.6, 0.5), (0.6, 1.0), (1.2, 0.5), (1.2, 1.0)],
        [(0.3, 2.0), (0.6, 2.0), (1.2, 2.0)],
    ]
    for task in tasks:
        mesh, scheme, init, points = task
        dts = {solver.stable_dt(init, p.params, mesh, scheme) for p in points}
        assert len(dts) == 1


@pytest.mark.parametrize("workers", [2, 4, 7, 12, 16])
def test_largest_batches_are_halved_until_every_worker_has_a_task(workers):
    spec, _, tasks = planned(SWEEP_MIXED, workers)
    assert len(tasks) >= min(len(spec.points), workers)
    indices = sorted(p.index for task in tasks for p in task[3])
    assert indices == list(range(len(spec.points)))


def test_batches_stay_within_the_cell_budget():
    text = CART_CONFIG.replace("nx = 16", "nx = 64").replace("ny = 16", "ny = 64")
    spec, _, tasks = planned(text + "\n[sweep]\nchi_range = 0:0.99:0.01\nk_values = 0.5, 1\n", workers=2)
    cells = 64 * 64
    assert len(spec.points) == 200
    assert all(len(task[3]) * cells <= BATCH_CELLS for task in tasks)
    assert sum(len(task[3]) for task in tasks) == 200


def test_ten_thousand_point_sweep_is_partitioned_within_the_budget():
    text = CART_CONFIG + "\n[sweep]\nchi_range = 0:0.99:0.01\nk_range = 0.01:1.0:0.01\n"
    spec, rows, tasks = planned(text, workers=2)
    assert len(spec.points) == 10_000
    assert max(len(task[3]) for task in tasks) * 256 <= BATCH_CELLS
    assert len(rows) + sum(len(task[3]) for task in tasks) == 10_000


@pytest.mark.parametrize("nx, ny", [(256, 130), (16, 16)])
def test_a_batch_holds_the_budget_or_one_point(nx, ny):
    """A mesh of more than BATCH_CELLS cells gets one point per batch, which
    is then larger than the budget; a smaller mesh never exceeds it."""
    text = CART_CONFIG.replace("nx = 16", f"nx = {nx}").replace("ny = 16", f"ny = {ny}")
    spec, rows, tasks = planned(text + "\n[sweep]\nchi_range = 0:0.99:0.01\nk_values = 0.5, 1\n", workers=1)
    cells = nx * ny
    assert rows == {} and sum(len(task[3]) for task in tasks) == len(spec.points) == 200
    if cells > BATCH_CELLS:
        assert all(len(task[3]) == 1 for task in tasks)
    else:  # 200 points of 256 cells share one time step, cut into two batches
        assert len(tasks) == 2 and all(len(task[3]) * cells <= BATCH_CELLS for task in tasks)


def sweep_lines(tmp_path, name, text):
    spec = write_config(tmp_path, text, f"{name}.cfg")
    assert main(["sweep", str(spec), "--outdir", str(tmp_path / name)]) == 0
    return (tmp_path / name / "sweep_summary.csv").read_bytes().splitlines()


def test_rows_are_chi_major_whatever_the_task_order(tmp_path, monkeypatch):
    monkeypatch.delenv("CHEMOLAB_THREADS", raising=False)
    sizes = record_parallel_sweeps(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    lines = sweep_lines(tmp_path, "out", SWEEP_MIXED)
    assert sizes == [2]
    spec = parse_sweep_spec(SWEEP_MIXED)
    got = [(float(line.split(b",")[0]), float(line.split(b",")[1])) for line in lines[1:]]
    assert got == spec.points


# SWEEP_MIXED plans three tasks, [3, 7, 11], [0, 1, 4, 5, 8, 9] and [2, 6, 10]
# (grid indices), largest first: at three processes each is a share of its
# own, at two the second and third are one child's share.
@pytest.mark.parametrize(
    "processes, share", [(2, {0, 1, 2, 4, 5, 6, 8, 9, 10}), (3, {2, 6, 10})], ids=["two", "three"]
)
@pytest.mark.parametrize("fault", ["exit code 3", "a row short"])
def test_a_child_that_fails_gives_its_share_error_rows(tmp_path, monkeypatch, processes, share, fault):
    monkeypatch.setenv("CHEMOLAB_THREADS", "1")
    clean = sweep_lines(tmp_path, "clean", SWEEP_MIXED)
    assert [[p.index for p in task[3]] for task in planned(SWEEP_MIXED, processes)[2]] == [
        [3, 7, 11], [0, 1, 4, 5, 8, 9], [2, 6, 10]
    ]
    parent, real_point = os.getpid(), cli._sweep_point

    def sweep_point(task):
        rows = real_point(task)
        if os.getpid() != parent and task[3][0].index == 2:
            if fault == "exit code 3":
                os._exit(3)
            return rows[:-1]
        return rows

    monkeypatch.setattr(cli, "_sweep_point", sweep_point)
    monkeypatch.setenv("CHEMOLAB_THREADS", str(processes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: processes)
    broken = sweep_lines(tmp_path, "broken", SWEEP_MIXED)
    assert len(broken) == len(clean) == 13
    for index, (a, b) in enumerate(zip(clean[1:], broken[1:])):
        if index in share:
            assert a.split(b",")[:4] == b.split(b",")[:4]
            assert b.split(b",")[4:] == [b"error:ChildProcessError", b"nan", b"nan"]
        else:
            assert a == b
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_without_fork_this_process_steps_every_share(tmp_path, monkeypatch):
    monkeypatch.setenv("CHEMOLAB_THREADS", "1")
    clean = sweep_lines(tmp_path, "clean", SWEEP_MIXED)
    monkeypatch.setattr(cli.sys, "platform", "darwin")
    monkeypatch.setattr(cli.os, "fork", lambda: pytest.fail("forked off Linux"))
    monkeypatch.setenv("CHEMOLAB_THREADS", "3")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert sweep_lines(tmp_path, "darwin", SWEEP_MIXED) == clean


@pytest.mark.parametrize(
    "value, message",
    [("0", "CHEMOLAB_THREADS must be >= 1, got 0"), ("two", "CHEMOLAB_THREADS must be an integer, got 'two'")],
)
def test_a_bad_thread_count_is_a_config_error(monkeypatch, value, message):
    # the count is tested by SweepSpec.RULES["parallelism"]; the texts name the variable
    monkeypatch.setenv("CHEMOLAB_THREADS", value)
    with pytest.raises(cli.ConfigError) as refused:
        cli._resolve_parallelism(None)
    assert str(refused.value) == message


def test_failing_gronwall_check_stays_in_its_row(tmp_path, monkeypatch):
    monkeypatch.setenv("CHEMOLAB_THREADS", "1")
    clean = sweep_lines(tmp_path, "clean", SWEEP_MIXED)
    real_check = cli.gronwall_check
    calls = []

    def check(series, pair, tol):
        calls.append(pair)
        if len(calls) == 1:
            raise ZeroDivisionError("injected")
        return real_check(series, pair, tol)

    monkeypatch.setattr(cli, "gronwall_check", check)
    broken = sweep_lines(tmp_path, "broken", SWEEP_MIXED)
    differ = [i for i, (a, b) in enumerate(zip(clean, broken)) if a != b]
    assert len(differ) == 1 and len(broken) == len(clean)
    fields_ = broken[differ[0]].split(b",")
    assert fields_[4] == b"error:ZeroDivisionError" and fields_[5:] == [b"nan", b"nan"]


def test_batch_that_raises_is_rerun_point_by_point(tmp_path, monkeypatch):
    monkeypatch.setenv("CHEMOLAB_THREADS", "1")
    clean = sweep_lines(tmp_path, "clean", SWEEP_MIXED)
    real_run = cli.run_solver

    def run_solver(init, params_seq, mesh, cfg, monitors_seq):
        if any(p.chi == 0.6 and p.k == 2.0 for p in params_seq):
            raise FloatingPointError("injected")
        return real_run(init, params_seq, mesh, cfg, monitors_seq)

    monkeypatch.setattr(cli, "run_solver", run_solver)
    broken = sweep_lines(tmp_path, "broken", SWEEP_MIXED)
    for a, b in zip(clean, broken):
        if b.startswith(b"0.59999999999999998,2,"):
            assert b.split(b",")[4:] == [b"error:FloatingPointError", b"nan", b"nan"]
        else:
            assert a == b


def test_points_that_fail_to_build_keep_their_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_solver", fake_report("completed"))
    text = CART_CONFIG.replace("pr_source = bootstrap", "pr_source = explicit\npr_pairs = 2.5:0.75")
    spec = parse_sweep_spec(text + "\n[sweep]\nchi_values = 0.5, 0.9, 0.4\n")
    rows, tasks = cli._plan_sweep(spec, workers=1)
    assert list(rows) == [1] and "error:ConfigError" in rows[1]
    assert [p.index for task in tasks for p in task[3]] == [0, 2]
    assert all(math.isfinite(p.params.chi) for task in tasks for p in task[3])


def test_shared_inputs_that_fail_to_build_fail_every_row(tmp_path, monkeypatch, capsys):
    # constant_cosine needs amplitude <= 1: a document is refused where it is
    # read, so the spec that fails to build is one built in code
    text = SWEEP_SMALL.replace("kind = gaussian", "kind = constant_cosine")
    line = text.splitlines().index("amplitude = 1.5") + 1
    doc = write_config(tmp_path, text, "doc.cfg")
    assert main(["sweep", str(doc), "--outdir", str(tmp_path / "doc")]) == 1
    assert f"line {line}: constant_cosine amplitude must be <= 1" in capsys.readouterr().err
    spec = parse_sweep_spec(SWEEP_SMALL)
    spec = dataclasses.replace(spec, base=dataclasses.replace(spec.base, kind="constant_cosine"))
    monkeypatch.setattr(cli, "load_sweep_spec", lambda path: spec)
    lines = sweep_lines(tmp_path, "out", SWEEP_SMALL)
    assert len(lines) == 5
    assert all(line.split(b",")[4:] == [b"error:DomainError", b"nan", b"nan"] for line in lines[1:])
