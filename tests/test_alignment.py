"""The 64-byte alignment of the arrays a ``StepPlan`` writes.

``meshes._aligned`` places the first written element of every step buffer
at the start of a 64-byte cache line.  These tests check that every region
a plan writes starts on the line (read through ``__array_interface__``),
and that the bits of a run do not depend on where the buffers sit: the
helper is forced to each of the eight 8-byte offsets of the line and every
report must keep its bytes."""

import numpy as np
import pytest

import chemolab.meshes as meshes
import chemolab.solver as solver
from chemolab.diagnostics import MonitorConfig
from chemolab.exponents import ModelParams
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, StepPlan
from chemolab.solver import SchemeConfig, initial_state, run_batch

from test_batch import report_bytes, spike_state


def address(a, index=0):
    """The byte address of ``a``'s flat element ``index``."""
    return a.__array_interface__["data"][0] + index * a.itemsize


@pytest.fixture
def allocations(monkeypatch):
    """(array, start) of every ``meshes._aligned`` call during the test."""
    made, real = [], meshes._aligned

    def aligned(size, dtype=float, start=0, zeros=False):
        a = real(size, dtype, start, zeros)
        made.append((a, start))
        return a

    monkeypatch.setattr(meshes, "_aligned", aligned)
    return made


@pytest.mark.parametrize("dtype", [float, bool])
@pytest.mark.parametrize("start", [0, 1, 7, 64])
def test_the_helper_aligns_its_start_element_within_64_bytes(dtype, start):
    for size in (65, 1000, 12289):
        a = meshes._aligned(size, dtype, start, zeros=True)
        assert a.shape == (size,) and a.dtype == dtype and not a.any()
        assert address(a, start) % 64 == 0
        assert a.base.nbytes - a.nbytes < 64


PLANS = [
    ("64x64", lambda: CartesianMesh2D(2.0, 2.0, 64, 64), 1),
    ("32x32", lambda: CartesianMesh2D(2.0, 2.0, 32, 32), 1),
    ("16x16_batch_of_3", lambda: CartesianMesh2D(2.0, 2.0, 16, 16), 3),
    ("radial_m128", lambda: RadialShellMesh(3, 2.0, 128), 1),
]


@pytest.mark.parametrize("make_mesh,points", [p[1:] for p in PLANS], ids=[p[0] for p in PLANS])
def test_every_region_a_plan_writes_starts_a_cache_line(allocations, make_mesh, points):
    mesh = make_mesh()
    cells = points * mesh.cell_count
    uv = np.stack([initial_state(mesh, "gaussian", 1.5, v0_base=1.0).uv()] * points, axis=1)
    plan = StepPlan(mesh, uv, [0.5] * points, [1.0] * points)
    # in the order StepPlan allocates: uv, rates, the face scratch, then the
    # face velocities, their sum scratch and the upwind masks, one per direction
    directions = len(mesh._strides)
    (state, _), (rates, _), *faces = allocations
    faces, velocities = faces[: -3 * directions], faces[-3 * directions :]
    assert address(state) == address(plan.uv) and len(faces) == 2  # x and y faces; radial faces and scratch
    assert [a.dtype for a, _ in velocities] == [float] * (2 * directions) + [bool] * directions
    regions = [address(plan.uv[i]) for i in range(2)]  # the u rows, then the v rows
    regions += [address(rates, r * cells) for r in range(3)]  # lap u, lap v, taxis
    for scratch, start in faces:  # the u, v and taxis rows of each direction
        rows = range(3) if start else range(1)  # the radial scatter scratch: one (L,) row
        regions += [address(scratch, start + r * cells) for r in rows]
    regions += [address(a) for a, _ in velocities]
    assert [a % 64 for a in regions] == [0] * len(regions)
    for j in range(points):  # each point's rows too, N being a multiple of 8 cells
        assert address(plan.uv[0, j]) % 64 == address(plan.uv[1, j]) % 64 == 0
    assert [address(w) % 64 for w in plan.point_faces[0]] == [0] * directions


def misaligned(offset):
    """A stand-in for ``meshes._aligned`` that puts element ``start`` at
    ``offset`` bytes past a 64-byte line instead."""

    def allocate(size, dtype=float, start=0, zeros=False):
        itemsize = np.dtype(dtype).itemsize
        buffer = (np.zeros if zeros else np.empty)(size + 128 // itemsize, dtype)
        skip = (offset - address(buffer, start)) % 64 // itemsize
        return buffer[skip : skip + size]

    return allocate


def one_point_64x64():
    mesh = CartesianMesh2D(2.0, 2.0, 64, 64)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    monitors = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=((2.5, 0.75),))
    cfg = SchemeConfig(t_end=0.01, output_interval=0.004)
    return init, [ModelParams(chi=0.5, k=1.0, n=2)], mesh, cfg, [monitors]


def batch_of_three_16x16():
    # k = 0.5 and 1 share a dt (k a column); chi = 60 takes a smaller one
    # once the spike's steep v makes its advective limit bind
    mesh = CartesianMesh2D(2.0, 2.0, 16, 16)
    params = [ModelParams(chi=chi, k=k, n=2) for chi, k in ((0.3, 1.0), (0.5, 0.5), (60.0, 1.0))]
    cfg = SchemeConfig(t_end=0.1, output_interval=0.02)
    return spike_state(mesh), params, mesh, cfg, [MonitorConfig(q_list=(1.0, 2.0))] * 3


def radial_m37():
    mesh = RadialShellMesh(3, 1.0, 37)
    init = initial_state(mesh, "gaussian", 1.5, v0_base=1.0)
    monitors = MonitorConfig(q_list=(1.0, 3.0), pr_pairs=((2.0, 0.5),))
    cfg = SchemeConfig(t_end=0.05, output_interval=0.01)
    return init, [ModelParams(chi=0.5, k=1.3, n=3)], mesh, cfg, [monitors]


@pytest.mark.parametrize("case", [one_point_64x64, batch_of_three_16x16, radial_m37])
def test_reports_keep_their_bits_at_every_8_byte_offset(monkeypatch, case):
    sizes, real_step = [], solver.step

    def step(state, *args, **kwargs):
        sizes.append(state.u.shape[0])
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(solver, "step", step)
    reference = [report_bytes(r) for r in run_batch(*case())]
    if case is batch_of_three_16x16:  # three points a step until the batch splits on dt
        assert sizes[0] == 3 and sizes[-1] < 3
    for offset in range(0, 64, 8):
        monkeypatch.setattr(meshes, "_aligned", misaligned(offset))
        assert [report_bytes(r) for r in run_batch(*case())] == reference, offset
