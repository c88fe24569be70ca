"""The fused explicit step against a replay of the plain one, and the run's
classification of positivity loss, sweep worker clamping included."""

from array import array

import numpy as np
import pytest

import chemolab.cli as cli
import chemolab.solver as solver
from chemolab.cli import main
from chemolab.diagnostics import MonitorConfig, TimeSeries, compute_row
from chemolab.exponents import ModelParams
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, State
from chemolab.solver import RunReport, SchemeConfig, initial_state, run, stable_dt, step

from test_config_cli import CART_CONFIG, SWEEP_SMALL, write_config


def plain_dt(state, params, mesh, cfg):
    """The separate diffusive, advective and reaction limits."""
    limit = 1.0 / (max(1.0, params.k) * mesh.diffusion_outflow_max())
    if params.chi != 0.0:
        adv = mesh.advective_outflow_max(mesh.face_velocities(state.v, params.chi))
        if adv > 0.0:
            limit = min(limit, 1.0 / adv)
    return cfg.dt_safety * min(limit, 0.5)


def plain_step(state, params, mesh, dt):
    """One operator call per field and term, then ``u + dt*du``."""
    u, v = state.u, state.v
    du = mesh.laplacian(u)
    if params.chi != 0.0:
        du = du - mesh.chemotactic_divergence(u, mesh.face_velocities(v, params.chi))
    dv = params.k * mesh.laplacian(v) - v + u
    return State(u + dt * du, v + dt * dv, state.t + dt)


def plain_run(initial, params, mesh, cfg, monitors):
    """The unfused explicit loop with output-time snapping.

    Returns (series, t_final, max_u_over_run, min_v_over_run) for a run that
    completes.
    """
    series = TimeSeries(monitors)
    compute_row(initial, mesh, series)
    max_u, min_v = float(initial.u.max()), float(initial.v.min())
    state, next_j = initial, 1
    while state.t < cfg.t_end * (1.0 - 1e-12):
        t_target = min(next_j * cfg.output_interval, cfg.t_end)
        dt = min(plain_dt(state, params, mesh, cfg), t_target - state.t)
        state = plain_step(state, params, mesh, dt)
        assert (state.u >= 0.0).all() and (state.v > 0.0).all()
        max_u = max(max_u, float(state.u.max()))
        min_v = min(min_v, float(state.v.min()))
        if abs(state.t - t_target) <= 1e-12 * max(1.0, t_target):
            state = State(state.u, state.v, t_target)
            if state.t > series.t[-1]:
                compute_row(state, mesh, series)
            if t_target == next_j * cfg.output_interval:
                next_j += 1
    return series, state.t, max_u, min_v


def steep_state(mesh):
    """Narrow bumps over many decades, so last-bit differences in the
    increments reach the rounding of the update somewhere; the chemical jumps
    by large factors between neighbouring cells."""
    if mesh.geometry == "radial":
        d2 = mesh.cell_centers()[0] ** 2
    else:
        x, y = mesh.cell_centers()
        d2 = (x - 0.3) ** 2 + (y - 0.5) ** 2
    return State(2.0 * np.exp(-d2 / 0.02), 0.01 + 5.0 * np.exp(-d2 / 0.002))


# odd cell counts put the second row of a stacked (2, N) state off the
# alignment of a fresh array, which would expose alignment-dependent sums
ODD_MESHES = [
    ("radial3_m37", lambda: RadialShellMesh(3, 1.0, 37)),
    ("cart_9x7", lambda: CartesianMesh2D(1.0, 0.8, 9, 7)),
]


@pytest.mark.parametrize("chi", [0.5, 0.0])
@pytest.mark.parametrize("make_mesh", [m for _, m in ODD_MESHES], ids=[n for n, _ in ODD_MESHES])
def test_fused_run_is_bit_identical_to_plain_loop(make_mesh, chi):
    mesh = make_mesh()
    n = mesh.n_dim if mesh.geometry == "radial" else 2
    params = ModelParams(chi=chi, k=1.3, n=n)
    pairs = ((2.5, 0.75),) if chi != 0.0 else ()
    monitors = MonitorConfig(q_list=(1.0, 2.0, 3.0), pr_pairs=pairs)
    cfg = SchemeConfig(t_end=0.03, output_interval=0.007)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    report = run(init, params, mesh, cfg, monitors)
    series, t_final, max_u, min_v = plain_run(init, params, mesh, cfg, monitors)
    assert report.status == "completed"
    assert len(report.series) == 6
    assert report.series.names == series.names
    assert report.series.values == series.values
    assert report.t_final == t_final
    assert report.max_u_over_run == max_u
    assert report.min_v_over_run == min_v


@pytest.mark.parametrize("chi", [4.0, 0.0])
@pytest.mark.parametrize("make_mesh", [m for _, m in ODD_MESHES], ids=[n for n, _ in ODD_MESHES])
def test_fused_step_is_bit_identical_to_plain_step(make_mesh, chi):
    # chi = 4 > k lets the advective limit set dt on the steep chemical
    mesh = make_mesh()
    params = ModelParams(chi=chi, k=1.3, n=mesh.n_dim if mesh.geometry == "radial" else 2)
    cfg = SchemeConfig(t_end=1.0, output_interval=1.0)
    dt_diffusive = cfg.dt_safety / (1.3 * mesh.diffusion_outflow_max())
    fused = plain = steep_state(mesh)
    advective_steps = 0
    for _ in range(300):
        w = mesh.face_velocities(fused.v, chi) if chi != 0.0 else None
        dt = stable_dt(fused, params, mesh, cfg, w)
        assert dt == plain_dt(plain, params, mesh, cfg)
        advective_steps += dt < dt_diffusive
        fused = step(fused, params, mesh, cfg, dt)
        plain = plain_step(plain, params, mesh, dt)
        assert np.array_equal(fused.u, plain.u) and np.array_equal(fused.v, plain.v)
        assert fused.t == plain.t
    assert (advective_steps > 0) == (chi != 0.0)


@pytest.mark.parametrize("make_mesh", [m for _, m in ODD_MESHES], ids=[n for n, _ in ODD_MESHES])
def test_stacked_laplacian_matches_rows(make_mesh, rng):
    mesh = make_mesh()
    uv = rng.uniform(0.1, 3.0, (2, mesh.cell_count))
    stacked = mesh.laplacian(uv)
    assert stacked.shape == uv.shape
    for row in range(2):
        assert np.array_equal(stacked[row], mesh.laplacian(uv[row].copy()))


def spike_case():
    """u and v concentrated in one cell of an 8x8 mesh: where diffusion and
    taxis both drain that cell, the separate dt limits allow an outflow of
    dt*(D_i + A_i) = 2*dt_safety of its u, which the positivity cap above
    dt_safety 1/2 keeps below all of it."""
    mesh = CartesianMesh2D(1.0, 1.0, 8, 8)
    u = np.zeros(64)
    u[27] = 1.0
    v = np.full(64, 3.0)
    v[27] = 1.0
    return mesh, State(u, v), ModelParams(chi=1.0, k=1.0, n=2)


def double_stable_dt(monkeypatch):
    """Inject the separate limits' positivity fault: every ``stable_dt``
    returns twice its value.  At dt_safety s <= 1/2 the cap is not
    evaluated and 2s is exact, so the steps are, to the bit, those of
    dt_safety 2s without the cap."""
    real = solver.stable_dt
    monkeypatch.setattr(solver, "stable_dt", lambda *args, **kwargs: 2.0 * real(*args, **kwargs))


def test_positivity_envelope_holds_at_one_half():
    mesh, init, params = spike_case()
    cfg = SchemeConfig(t_end=0.05, output_interval=0.01, dt_safety=0.5)
    report = run(init, params, mesh, cfg)
    assert report.status == "completed"
    assert report.min_v_over_run > 0.0


@pytest.mark.parametrize("dt_safety", [0.55, 0.6])
def test_positivity_loss_has_its_own_status(monkeypatch, dt_safety):
    # the uncapped steps of dt_safety 0.55 and 0.6, injected at half of it
    mesh, init, params = spike_case()
    double_stable_dt(monkeypatch)
    cfg = SchemeConfig(t_end=0.05, output_interval=0.01, dt_safety=dt_safety / 2)
    report = run(init, params, mesh, cfg)
    assert report.status == "positivity_lost"
    assert report.t_final == 0.0  # the last accepted step
    assert report.steps == 0
    assert len(report.series) == 1


@pytest.mark.parametrize("dt_safety", [0.51, 0.55, 0.6, 0.8, 1.0])
def test_spike_keeps_positivity_above_one_half(dt_safety):
    mesh, init, params = spike_case()
    cfg = SchemeConfig(t_end=0.05, output_interval=0.01, dt_safety=dt_safety)
    report = run(init, params, mesh, cfg)
    assert report.status == "completed"
    assert report.min_v_over_run > 0.0


def random_steep_state(mesh, rng, spike):
    """A one-cell spike of u on a v with a dip there, or u and v spread over
    many decades, with u = 0 in about 30 % of the cells."""
    n = mesh.cell_count
    if spike:
        j = rng.integers(n)
        u = np.zeros(n)
        u[j] = rng.uniform(0.5, 5.0)
        v = np.full(n, rng.uniform(1.0, 5.0))
        v[j] = rng.uniform(0.05, 1.0)
        return State(u, v)
    u = np.exp(rng.normal(0.0, 3.0, n)) * (rng.uniform(size=n) < 0.7)
    return State(u, np.exp(rng.normal(0.0, 2.0, n)))


STEEP_MESHES = [
    ("cart_8x8", lambda: CartesianMesh2D(1.0, 1.0, 8, 8)),
    ("cart_9x7", lambda: CartesianMesh2D(1.0, 0.8, 9, 7)),
    ("radial3_m16", lambda: RadialShellMesh(3, 1.0, 16)),
]


@pytest.mark.parametrize("dt_safety", [0.51, 0.6, 0.8, 1.0])
@pytest.mark.parametrize("make_mesh", [m for _, m in STEEP_MESHES], ids=[n for n, _ in STEEP_MESHES])
def test_no_accepted_dt_safety_loses_positivity(make_mesh, dt_safety):
    # without the cap, 22 of these 96 runs lost positivity in their first two steps
    mesh = make_mesh()
    rng = np.random.default_rng(7)
    n = mesh.n_dim if mesh.geometry == "radial" else 2
    cfg = SchemeConfig(t_end=0.01, output_interval=0.01, dt_safety=dt_safety)
    for i in range(8):
        init = random_steep_state(mesh, rng, spike=i % 2 == 0)
        params = ModelParams(chi=float(rng.uniform(0.2, 5.0)), k=float(rng.uniform(0.2, 3.0)), n=n)
        report = run(init, params, mesh, cfg)
        assert report.status == "completed", (i, params)


def fake_report(status):
    def fake_run(init, params_seq, mesh, cfg, monitors_seq, append_row=None):
        reports = []
        for monitors in monitors_seq:
            series = TimeSeries(monitors)
            compute_row(init, mesh, series)
            report = RunReport(status, 0.0, series.max_u[0], series.min_v[0], series, 0, array("d", [1.0]))
            reports.append(report)
        return reports

    return fake_run


def test_positivity_lost_exit_code_and_sweep_row(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_solver", fake_report("positivity_lost"))
    cfg = write_config(tmp_path, CART_CONFIG)
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 6
    assert "status: positivity_lost" in (tmp_path / "out" / "report.txt").read_text()
    spec = write_config(tmp_path, SWEEP_SMALL, "sweep.cfg")
    assert main(["sweep", str(spec), "--outdir", str(tmp_path / "sw")]) == 0
    lines = (tmp_path / "sw" / "sweep_summary.csv").read_text().strip().splitlines()
    assert all(line.split(",")[4] == "positivity_lost" for line in lines[1:])


def record_parallel_sweeps(monkeypatch) -> list[int]:
    """Replace ``cli._run_shares`` by a stand-in that records the process
    count of every parallel sweep (more than one process) and steps all of
    its tasks in this process; returns the record."""
    sizes = []
    run_shares = cli._run_shares

    def in_process(tasks, processes):
        if processes > 1:
            sizes.append(processes)
        return run_shares(tasks, 1)

    monkeypatch.setattr(cli, "_run_shares", in_process)
    return sizes


@pytest.mark.parametrize(
    "threads,cpus,expected",
    [("10000", 2, [2]), ("10000", 64, [4]), ("3", 64, [3]), ("10000", None, [])],
)
def test_sweep_workers_are_clamped(tmp_path, monkeypatch, threads, cpus, expected):
    monkeypatch.setattr(cli, "run_solver", fake_report("completed"))
    sizes = record_parallel_sweeps(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("CHEMOLAB_THREADS", threads)
    spec = write_config(tmp_path, SWEEP_SMALL, "sweep.cfg")  # 4 points
    assert main(["sweep", str(spec), "--outdir", str(tmp_path / "out")]) == 0
    assert sizes == expected
    assert len((tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()) == 5
