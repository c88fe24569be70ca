"""Division by a mesh constant as a multiply by its exact reciprocal.

The kernel binders scale by h, h^2 and their like through ``meshes._scale``,
which binds ``np.multiply`` with 1/h when h is a power of two whose
reciprocal is finite and ``np.divide`` with h otherwise.  IEEE 754 rounds
both operations correctly, and x / h and x * (1/h) are then the same real
number, so they give the same double.  These tests check that claim over
every such power of two, check which path each spacing takes, and compare
the steps, operators and a whole run against binders that always divide,
bit for bit."""

import math

import numpy as np
import pytest

import chemolab.meshes as meshes
from chemolab.diagnostics import MonitorConfig
from chemolab.exponents import ModelParams
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, StepPlan
from chemolab.solver import SchemeConfig, initial_state, run

from test_batch import report_bytes
from test_fused_step import steep_state

TINY = 5e-324
SMALLEST_NORMAL = np.finfo(float).tiny
DBL_MAX = np.finfo(float).max


def operands():
    """Signed zeros, subnormals, normals and non-finite values, then random
    bit patterns, which cover every exponent, subnormals and NaN payloads."""
    edges = [0.0, TINY, 2 * TINY, SMALLEST_NORMAL, SMALLEST_NORMAL - TINY, 1.0, DBL_MAX, math.inf]
    edges = np.array(edges + [-x for x in edges] + [math.nan])
    rng = np.random.default_rng(12)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 20_000, dtype=np.int64, endpoint=True)
    return np.concatenate((edges, bits.view(float)))


def test_bound_multiply_has_the_bits_of_the_divide():
    x = operands()
    multiplied = 0
    with np.errstate(all="ignore"):
        for e in range(-1074, 1024):
            h = math.ldexp(1.0, e)
            scale, operand = meshes._scale(h)
            if math.isfinite(1.0 / h):
                assert scale is np.multiply, e
                multiplied += 1
            else:
                assert scale is np.divide, e
            expected = np.divide(x, np.array(h))
            got = scale(x, operand)
            mismatches = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
            assert mismatches.size == 0, (e, x[mismatches[:5]])
    assert multiplied == 1023 + 1024  # 2^-1023 .. 2^1023


@pytest.mark.parametrize("h", [0.1, 2 / 60, 1 / 7, 3.0, TINY], ids=["0.1", "2/60", "1/7", "3", "2^-1074"])
def test_spacings_whose_reciprocal_is_not_exact_divide(h):
    scale, operand = meshes._scale(h)
    assert scale is np.divide
    assert isinstance(operand, np.ndarray) and operand.shape == () and operand == h


PROJECT_MESHES = [
    CartesianMesh2D(2.0, 2.0, 64, 64),
    CartesianMesh2D(2.0, 2.0, 32, 32),
    CartesianMesh2D(2.0, 2.0, 16, 16),
    RadialShellMesh(3, 2.0, 64),
    RadialShellMesh(3, 2.0, 128),
]


@pytest.mark.parametrize("mesh", PROJECT_MESHES, ids=["64x64", "32x32", "16x16", "radial_m64", "radial_m128"])
def test_the_meshes_the_project_runs_multiply(mesh):
    spacings = [mesh.h] if mesh.geometry == "radial" else [mesh.hx, mesh.hy, mesh.hx * mesh.hx, mesh.hy * mesh.hy]
    for h in spacings:
        scale, operand = meshes._scale(h)
        assert scale is np.multiply
        assert isinstance(operand, np.ndarray) and operand.shape == () and operand * h == 1.0


def always_divide(h):
    return np.divide, meshes._operand(h)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stepped(mesh, chis, ks, steps, dt):
    """The state and face velocities of a plan after ``steps`` steps from
    steep bumps, whose rates are large enough that a last-bit difference in
    a flux reaches the rounding of the update."""
    start = steep_state(mesh)
    uv = np.stack([start.uv() * (1.0 + 0.1 * j) for j in range(len(chis))], axis=1)
    plan = StepPlan(mesh, uv, chis, ks)
    for _ in range(steps):
        plan.face_velocities()
        plan.advance(dt)
    plan.face_velocities()
    return plan.uv.copy(), [np.concatenate(f) for f in plan.point_faces]


STEP_CASES = [
    ("64x64_L2", lambda: CartesianMesh2D(2.0, 2.0, 64, 64), [0.5], [1.0], 200, 1e-4),
    ("8x16_on_2x1", lambda: CartesianMesh2D(2.0, 1.0, 8, 16), [0.5], [1.0], 200, 5e-4),
    ("16x8_batch_chi_k_columns", lambda: CartesianMesh2D(2.0, 2.0, 16, 8), [0.5, 0.8], [1.0, 1.3], 200, 5e-4),
    ("5x4_on_1x1", lambda: CartesianMesh2D(1.0, 1.0, 5, 4), [0.6], [1.3], 300, 1e-3),
    ("radial_m128_R2", lambda: RadialShellMesh(3, 2.0, 128), [0.5], [1.0], 300, 5e-5),
    ("radial_m7", lambda: RadialShellMesh(3, 1.0, 7), [0.6], [1.3], 300, 1e-3),
]


@pytest.mark.parametrize("make_mesh, chis, ks, steps, dt", [c[1:] for c in STEP_CASES], ids=[c[0] for c in STEP_CASES])
def test_steps_keep_their_bits(monkeypatch, make_mesh, chis, ks, steps, dt):
    mesh = make_mesh()
    uv, faces = stepped(mesh, chis, ks, steps, dt)
    assert np.isfinite(uv).all()
    monkeypatch.setattr(meshes, "_scale", always_divide)
    divided_uv, divided_faces = stepped(mesh, chis, ks, steps, dt)
    assert same_bits(uv, divided_uv)
    assert all(same_bits(a, b) for a, b in zip(faces, divided_faces, strict=True))


@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: CartesianMesh2D(2.0, 2.0, 16, 8),
        lambda: CartesianMesh2D(1.0, 1.0, 5, 4),
        lambda: RadialShellMesh(3, 2.0, 64),
        lambda: RadialShellMesh(3, 1.0, 7),
    ],
    ids=["16x8", "5x4", "radial_m64", "radial_m7"],
)
def test_operators_on_a_stack_keep_their_bits(monkeypatch, make_mesh, rng):
    mesh = make_mesh()
    u = rng.uniform(0.0, 3.0, (3, mesh.cell_count))
    v = rng.uniform(0.1, 2.0, (3, mesh.cell_count))
    uv = np.stack((u, v))

    def operators():
        w = mesh.face_velocities(v, 0.7)
        results = [mesh.laplacian(u), mesh.chemotactic_divergence(u, w), mesh.laplacian(uv)]
        for chi in (0.7, 0.0):  # a plan's step with a taxis row and without
            plan = StepPlan(mesh, uv, [chi] * 3, [1.0] * 3)
            plan.face_velocities()
            results.append(plan.advance(1e-3))
        return results

    results = operators()
    monkeypatch.setattr(meshes, "_scale", always_divide)
    assert all(same_bits(a, b) for a, b in zip(results, operators(), strict=True))


def test_a_whole_run_keeps_its_report(monkeypatch):
    mesh = CartesianMesh2D(2.0, 2.0, 32, 32)
    params = ModelParams(chi=0.5, k=1.0, n=2)
    cfg = SchemeConfig(t_end=0.05, output_interval=0.01)
    monitors = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=((1.5, 0.25),))
    initial = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    report = run(initial, params, mesh, cfg, monitors)
    assert report.status == "completed" and report.steps > 100
    monkeypatch.setattr(meshes, "_scale", always_divide)
    assert report_bytes(report) == report_bytes(run(initial, params, mesh, cfg, monitors))
