"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
[PASS]/[FAIL] lines as they complete.
"""

import functools
import math

import numpy as np
import pytest

import chemolab.cli as cli
from chemolab.cli import main
from chemolab.diagnostics import (
    MonitorConfig,
    dissipation,
    dissipation_check,
    energy,
    gronwall_check,
    lq_norm,
    min_v_floor_check,
)
from chemolab.exponents import (
    ModelParams,
    admissibility_coeffs,
    admissibility_quadratic,
    admissibility_discriminant,
    admissible_window,
    bootstrap,
    bootstrap_gain_quadratic,
    center_ratio,
    center_ratio_bounds,
    chi_star,
    p_max,
)
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, State
from chemolab.runconfig import bootstrap_pairs
from chemolab.solver import SchemeConfig, initial_state, run, run_batch, step

from conftest import sample_admissible_chik, sample_window_triple


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {text}")
                raise
            print(f"[PASS] criterion {num}: {text}")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# shared desk-scale runs (criteria 5 and 6)
# ---------------------------------------------------------------------------


REFERENCE_CFG = """\
[model]
chi = 0.5
k = 1
n = 2
geometry = cartesian2d
Lx = 2
Ly = 2
nx = 64
ny = 64

[initial]
kind = gaussian
amplitude = 1.5
v0_base = 1
v0_min = 0.1

[scheme]
t_end = 10
output_interval = 0.1

[monitors]
q_list = 1, 2
pr_source = bootstrap
theta = 0.5
"""


@pytest.fixture(scope="module")
def reference_cli(tmp_path_factory):
    """``chemolab run`` on REFERENCE_CFG, once: its exit code, its output
    directory, and the arguments (all but the row seam) and reports of its
    ``run_solver`` call."""
    outdir = tmp_path_factory.mktemp("reference")
    cfg = outdir / "reference.cfg"
    cfg.write_text(REFERENCE_CFG, encoding="utf-8")
    calls = []

    def recording(init, params_seq, mesh, scheme, monitors_seq, append_row=None):
        args = (init, params_seq, mesh, scheme, monitors_seq)
        reports = run_batch(*args, append_row)
        calls.append((args, reports))
        return reports

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_solver", recording)
        code = main(["run", str(cfg), "--outdir", str(outdir)])
    [(args, reports)] = calls
    return code, outdir, args, reports


@pytest.fixture(scope="module")
def run_2d(reference_cli):
    """The 64x64 reference run, computed once through the CLI: its report,
    after checking that the CLI built the inputs that the library calls
    below build, the initial u and v to the bit."""
    mesh = CartesianMesh2D(2.0, 2.0, 64, 64)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0, v0_min=0.1)
    params = ModelParams(chi=0.5, k=1.0, n=2)
    monitors = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=bootstrap_pairs(params, 0.5))
    scheme = SchemeConfig(t_end=10.0, output_interval=0.1)
    _, _, (cli_init, params_seq, cli_mesh, cli_scheme, monitors_seq), (report,) = reference_cli
    assert type(cli_mesh) is CartesianMesh2D
    assert (cli_mesh.lx, cli_mesh.ly, cli_mesh.nx, cli_mesh.ny) == (mesh.lx, mesh.ly, mesh.nx, mesh.ny)
    assert params_seq == [params] and monitors_seq == [monitors] and cli_scheme == scheme
    assert cli_init.u.tobytes() == init.u.tobytes() and cli_init.v.tobytes() == init.v.tobytes()
    assert cli_init.t == init.t
    return report, monitors, mesh, params, init


@pytest.fixture(scope="module")
def run_radial():
    mesh = RadialShellMesh(3, 2.0, 128)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0, v0_min=0.1)
    params = ModelParams(chi=0.5, k=1.0, n=3)
    assert params.chi < math.sqrt(2.0 / 3.0)
    monitors = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=bootstrap_pairs(params, 0.5))
    report = run(init, params, mesh, SchemeConfig(t_end=10.0, output_interval=0.1), monitors)
    return report, monitors


# ---------------------------------------------------------------------------
# 1. threshold identities
# ---------------------------------------------------------------------------


@criterion(1, "threshold identities across k, n, and both k-limits")
def test_criterion_1_threshold_identities():
    for k in (0.01, 0.1, 1.0, 10.0, 100.0):
        assert abs(chi_star(k, 2) - 1.0) <= 1e-12
    for n in range(2, 13):
        assert abs(chi_star(1.0, n) - math.sqrt(2.0 / n)) <= 1e-12
    for n in range(3, 9):
        assert abs(chi_star(1e6, n) - 2.0 / n) < 1e-3
        assert abs(chi_star(1e-6, n) - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# 2. window / quadratic suite
# ---------------------------------------------------------------------------


@criterion(2, "roots, negativity, midpoint, and discriminant identities on 10^4 samples")
def test_criterion_2_window_quadratic_suite(rng):
    count = 0
    while count < 10_000:
        p, chi, k = sample_window_triple(rng)
        disc = admissibility_discriminant(p, chi, k)
        if disc <= 1e-12 * k * k:
            continue
        count += 1
        w = admissible_window(p, chi, k)
        a, b, c = admissibility_coeffs(p, chi, k)

        def term_scale(r):
            return max((abs(a) * r * r + abs(b) * abs(r) + abs(c)) / (4.0 * (p - 1.0)), 1e-300)

        for root in (w.r_minus, w.r_plus):
            assert abs(admissibility_quadratic(root, p, chi, k)) <= 1e-10 * term_scale(root)
        assert admissibility_quadratic(w.midpoint, p, chi, k) < 0.0
        assert abs(w.midpoint - (p - 1.0) * center_ratio(p, chi, k)) <= 1e-12 * w.midpoint
        lhs1 = 4.0 * (p - 1.0) ** 2 * (p * chi * (k - 1.0) - 2.0 * k) ** 2
        lhs2 = 4.0 * (p - 1.0) ** 2 * p * chi * chi * (p * (k - 1.0) ** 2 + 4.0 * k)
        rhs = 16.0 * (p - 1.0) ** 2 * disc
        assert abs((lhs1 - lhs2) - rhs) <= 1e-10 * max(lhs1, lhs2, abs(rhs))


# ---------------------------------------------------------------------------
# 3. ratio-bound and gain-positivity suite
# ---------------------------------------------------------------------------


@criterion(3, "center ratio in (0,1), k=1 bounds exactly 1/2, gain quadratic positive")
def test_criterion_3_ratio_and_gain_suite(rng):
    for n in range(3, 9):
        bounds = center_ratio_bounds(0.4 * chi_star(1.0, n), 1.0, n)
        assert bounds.c0 == 0.5 and bounds.c_sup == 0.5  # exact at k = 1
    for n in range(3, 9):
        for _ in range(200):
            chi, k = sample_admissible_chik(rng, n)
            hi = min(p_max(chi, k), n / 2.0)
            for frac in np.linspace(1e-6, 1.0, 16):
                assert 0.0 < center_ratio(1.0 + frac * (hi - 1.0), chi, k) < 1.0
            b = center_ratio_bounds(chi, k, n)
            xs = np.linspace(1.0, n / 2.0, 257)
            assert all(bootstrap_gain_quadratic(float(x), b.c0, b.c_sup, n) > 0.0 for x in xs)


# ---------------------------------------------------------------------------
# 4. bootstrap termination
# ---------------------------------------------------------------------------


@criterion(4, "bootstrap terminates within 50 steps; worked chain (1.5, 2.75, 4.5)")
def test_criterion_4_bootstrap_termination(rng):
    for n in range(3, 9):
        for theta in (0.3, 0.5, 0.7):
            for _ in range(100):
                chi, k = sample_admissible_chik(rng, n)
                chain = bootstrap(ModelParams(chi=chi, k=k, n=n), theta=theta, max_steps=50)
                assert chain.terminated
                ps = [s.p for s in chain.steps]
                assert all(x < y for x, y in zip(ps, ps[1:]))
                assert ps[-1] > n / 2.0
                if n in (3, 4):
                    assert chain.steps[0].upper_used > n / 2.0
    # worked chain, checked against an independent scripted iteration
    pm = 1.0 / (0.4 * 0.4)
    expected, upper, p = [], min(pm, 2.0), None
    p = 1.0 + 0.5 * (upper - 1.0)
    while True:
        expected.append(p)
        if p > 3.0:
            break
        upper = min(pm, 4.0 * p / (3.0 - p))
        p = p + 0.5 * (upper - p)
    chain = bootstrap(ModelParams(chi=0.4, k=1.0, n=6), theta=0.5)
    ps = [s.p for s in chain.steps]
    assert ps == expected
    assert ps == pytest.approx([1.5, 2.75, 4.5], abs=1e-12)


# ---------------------------------------------------------------------------
# 5. simulator conservation / positivity on the 2D reference run
# ---------------------------------------------------------------------------


@criterion(5, "64x64 gaussian run: completed, mass drift <= 1e-10, u >= 0, v floor")
def test_criterion_5_conservation_positivity(run_2d):
    report, monitors, mesh, params, init = run_2d
    assert report.status == "completed"
    masses = report.series.mass
    assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * masses[0]
    floor = min_v_floor_check(report.series, tol_rel=1e-8)
    assert floor.passed
    # absolute form of the same bound
    min_v = report.series.min_v
    for t, v in zip(report.series.t, min_v):
        assert v >= math.exp(-t) * min_v[0] - 1e-8
    assert report.min_v_over_run > 0.0
    # direct short re-integration confirming per-step positivity of u
    state = init
    cfg = SchemeConfig(t_end=10.0, output_interval=0.1)
    for _ in range(300):
        state = step(state, params, mesh, cfg)
        assert float(state.u.min()) >= 0.0
        assert float(state.v.min()) > 0.0


# ---------------------------------------------------------------------------
# 6. functional inequality checks along trajectories
# ---------------------------------------------------------------------------


@criterion(6, "Gronwall envelope and dissipation inequality pass at tol 0.05 (2D + radial)")
def test_criterion_6_functional_inequalities(run_2d, run_radial):
    for report, monitors in (run_2d[:2], run_radial):
        assert report.status == "completed"
        assert monitors.pr_pairs  # pairs came from the bootstrap chain
        for pair in monitors.pr_pairs:
            assert gronwall_check(report.series, pair, tol=0.05).passed
            assert dissipation_check(report.series, pair, tol=0.05).passed


def test_both_reference_runs_keep_the_scheme_floor(run_2d, run_radial):
    # min v(t) >= prod(1 - dt_j) min v(0), with the check's rounding slack
    for report, _ in (run_2d[:2], run_radial):
        assert len(report.floor_factors) == len(report.series)
        assert min_v_floor_check(report.series, floor_factors=report.floor_factors, steps=report.steps).passed


# ---------------------------------------------------------------------------
# 7. exact constant steady state
# ---------------------------------------------------------------------------


@criterion(7, "u = v = 1 reproduced to machine precision over 10^3 steps, all geometries")
def test_criterion_7_exact_steady_state():
    meshes = (
        CartesianMesh2D(1.0, 1.0, 8, 8),
        RadialShellMesh(3, 1.0, 12),
        RadialShellMesh(7, 1.5, 12),
    )
    for mesh in meshes:
        n = 2 if mesh.geometry == "cartesian2d" else mesh.n_dim
        for chi in (0.3, 0.6, 0.9):
            for k in (0.5, 1.0, 2.0):
                params = ModelParams(chi=chi, k=k, n=n)
                cfg = SchemeConfig(t_end=1e9, output_interval=1e9)
                state = State(np.ones(mesh.cell_count), np.ones(mesh.cell_count))
                for _ in range(1000):
                    state = step(state, params, mesh, cfg)
                assert (state.u == 1.0).all()
                assert (state.v == 1.0).all()


# ---------------------------------------------------------------------------
# 8. small-state oracles
# ---------------------------------------------------------------------------


@criterion(8, "norms/functionals vs brute force; Holder + interpolation on 10^3 states")
def test_criterion_8_small_state_oracles(rng):
    mesh = RadialShellMesh(3, 1.1, 16)

    def brute(values):
        total = 0.0
        for w, x in zip(mesh.volumes, values):
            total += w * x
        return total

    for _ in range(1000):
        u = rng.uniform(0.0, 3.0, 16)
        v = rng.uniform(0.2, 2.5, 16)
        state = State(u, v)
        p = float(rng.uniform(1.5, 4.0))
        q = float(rng.uniform(1.0, p - 0.2))
        r = float(rng.uniform(0.05, p - 1.0))
        assert lq_norm(u, q, mesh) == pytest.approx(brute(u**q) ** (1 / q), rel=1e-12)
        assert energy(state, p, r, mesh) == pytest.approx(brute(u**p * v**-r), rel=1e-12)
        assert dissipation(state, p, r, mesh) == pytest.approx(
            brute(u ** (p + 1) * v ** (-r - 1)), rel=1e-12
        )
        # norm-splitting inequality
        lhs = mesh.integrate(u**q)
        rhs = energy(state, p, r, mesh) ** (q / p) * mesh.integrate(v ** (r * q / (p - q))) ** (
            (p - q) / p
        )
        assert lhs <= rhs * (1.0 + 1e-10)
        # energy interpolation inequality
        lhs2 = energy(state, p, r, mesh)
        rhs2 = dissipation(state, p, r, mesh) ** (p / (p + 1)) * mesh.integrate(
            v ** (p - r)
        ) ** (1.0 / (p + 1))
        assert lhs2 <= rhs2 * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# 9. determinism of outputs
# ---------------------------------------------------------------------------


@criterion("5/6 via CLI", "the reference 64x64 scenario exits 0 and matches the library run")
def test_reference_scenario_through_the_cli(run_2d, reference_cli):
    report = run_2d[0]
    code, outdir, _, _ = reference_cli
    assert code == 0
    text = (outdir / "report.txt").read_text()
    assert "status: completed" in text
    assert "gronwall: pass" in text
    assert "dissipation: pass" in text
    assert "min_v_floor: pass" in text
    # run_2d checked that the CLI run is the library's computation: its mass
    # column must equal the run's masses digit for digit
    lines = (outdir / "timeseries.csv").read_text().strip().splitlines()
    csv_masses = [line.split(",")[1] for line in lines[1:]]
    lib_masses = [f"{m:.17g}" for m in report.series.mass]
    assert csv_masses == lib_masses


RUN_CFG = """\
[model]
chi = 0.5
k = 1
n = 2
geometry = cartesian2d
Lx = 2
Ly = 2
nx = 16
ny = 16

[initial]
kind = gaussian
amplitude = 1.5
v0_base = 1

[scheme]
t_end = 0.5
output_interval = 0.1

[monitors]
q_list = 1, 2
pr_source = bootstrap
"""

SWEEP_CFG = RUN_CFG.replace("t_end = 0.5", "t_end = 0.2") + """\

[sweep]
chi_values = 0.6, 0.9, 1.2
k_values = 0.5, 1, 2
"""


@criterion(9, "byte-identical CSVs across repeated runs and parallelism 1 vs 4")
def test_criterion_9_determinism(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG, encoding="utf-8")
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "timeseries.csv").read_bytes()
    csv_b = (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert csv_a == csv_b

    spec = tmp_path / "sweep.cfg"
    spec.write_text(SWEEP_CFG, encoding="utf-8")
    monkeypatch.setenv("CHEMOLAB_THREADS", "1")
    assert main(["sweep", str(spec), "--outdir", str(tmp_path / "p1")]) == 0
    monkeypatch.setenv("CHEMOLAB_THREADS", "4")
    assert main(["sweep", str(spec), "--outdir", str(tmp_path / "p4")]) == 0
    s1 = (tmp_path / "p1" / "sweep_summary.csv").read_bytes()
    s4 = (tmp_path / "p4" / "sweep_summary.csv").read_bytes()
    assert s1 == s4
    # every below-threshold point of the grid around chi_star(k, 2) = 1 completed
    rows = [line.split(",") for line in s1.decode().strip().splitlines()[1:]]
    assert all(row[4] == "completed" for row in rows if row[3] == "true")
    assert sum(row[3] == "true" for row in rows) == 6
