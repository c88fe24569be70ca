"""Mesh geometry and operator tests, checked against loop-based oracles."""

import math

import numpy as np
import pytest

from chemolab.errors import DomainError, PositivityViolation
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, State


# ---------------------------------------------------------------------------
# independent scalar-loop implementations used as oracles
# ---------------------------------------------------------------------------


def cart_laplacian_oracle(f, mesh):
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    vol = hx * hy
    out = np.zeros_like(f)
    for iy in range(ny):
        for ix in range(nx):
            i = iy * nx + ix
            acc = 0.0
            for jx, jy, area, h in (
                (ix - 1, iy, hy, hx),
                (ix + 1, iy, hy, hx),
                (ix, iy - 1, hx, hy),
                (ix, iy + 1, hx, hy),
            ):
                if 0 <= jx < nx and 0 <= jy < ny:
                    acc += area * (f[jy * nx + jx] - f[i]) / h
            out[i] = acc / vol
    return out


def cart_chemdiv_oracle(u, v, chi, mesh):
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    vol = hx * hy
    out = np.zeros_like(u)
    for iy in range(ny):
        for ix in range(nx - 1):
            left, right = iy * nx + ix, iy * nx + ix + 1
            w = chi * (v[right] - v[left]) / (hx * 0.5 * (v[left] + v[right]))
            flux = hy * w * (u[left] if w > 0 else u[right])
            out[left] += flux / vol
            out[right] -= flux / vol
    for iy in range(ny - 1):
        for ix in range(nx):
            low, high = iy * nx + ix, (iy + 1) * nx + ix
            w = chi * (v[high] - v[low]) / (hy * 0.5 * (v[low] + v[high]))
            flux = hx * w * (u[low] if w > 0 else u[high])
            out[low] += flux / vol
            out[high] -= flux / vol
    return out


def radial_laplacian_oracle(f, mesh):
    out = np.zeros_like(f)
    for j in range(1, mesh.m):  # interior faces
        area = mesh.face_r[j] ** (mesh.n_dim - 1)
        t = area * (f[j] - f[j - 1]) / mesh.h
        out[j - 1] += t / mesh.volumes[j - 1]
        out[j] -= t / mesh.volumes[j]
    return out


def radial_chemdiv_oracle(u, v, chi, mesh):
    out = np.zeros_like(u)
    for j in range(1, mesh.m):
        area = mesh.face_r[j] ** (mesh.n_dim - 1)
        w = chi * (v[j] - v[j - 1]) / (mesh.h * 0.5 * (v[j] + v[j - 1]))
        flux = area * w * (u[j - 1] if w > 0 else u[j])
        out[j - 1] += flux / mesh.volumes[j - 1]
        out[j] -= flux / mesh.volumes[j]
    return out


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


class TestGeometry:
    def test_cartesian_volume_sum(self):
        mesh = CartesianMesh2D(1.7, 0.9, 12, 7)
        assert mesh.domain_volume == pytest.approx(1.7 * 0.9, rel=1e-12)
        assert (mesh.volumes > 0).all()

    def test_radial_volume_sum(self):
        for n_dim in (2, 3, 5, 8):
            mesh = RadialShellMesh(n_dim, 1.4, 16)
            assert mesh.domain_volume == pytest.approx(1.4**n_dim / n_dim, rel=1e-12)
            assert (mesh.volumes > 0).all()

    def test_radial_faces(self):
        mesh = RadialShellMesh(3, 1.0, 4)
        assert mesh.face_r == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.face_area[0] == 0.0  # symmetry at the center, no ghost needed

    def test_cartesian_ordering_x_fastest(self):
        mesh = CartesianMesh2D(2.0, 1.0, 4, 5)
        x, y = mesh.cell_centers()
        assert x[:4] == pytest.approx([0.25, 0.75, 1.25, 1.75])
        assert y[:4] == pytest.approx([0.1, 0.1, 0.1, 0.1])
        assert y[4] == pytest.approx(0.3)

    def test_construction_validation(self):
        with pytest.raises(DomainError):
            CartesianMesh2D(-1.0, 1.0, 8, 8)
        with pytest.raises(DomainError):
            CartesianMesh2D(1.0, 1.0, 3, 8)
        with pytest.raises(DomainError):
            RadialShellMesh(1, 1.0, 8)
        with pytest.raises(DomainError):
            RadialShellMesh(3, 0.0, 8)
        with pytest.raises(DomainError):
            RadialShellMesh(3, 1.0, 3)
        # an infinite side or radius gave infinite cells or NaN volumes
        with pytest.raises(DomainError):
            CartesianMesh2D(1.0, float("inf"), 8, 8)
        with pytest.raises(DomainError):
            RadialShellMesh(3, float("inf"), 8)


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------


class TestLaplacian:
    def test_constant_maps_to_exact_zero(self):
        for mesh in (CartesianMesh2D(1.0, 2.0, 8, 6), RadialShellMesh(4, 1.0, 12)):
            f = np.full(mesh.cell_count, 3.7)
            assert (mesh.laplacian(f) == 0.0).all()

    def test_conservation(self, rng):
        for mesh in (CartesianMesh2D(1.3, 0.7, 16, 12), RadialShellMesh(3, 2.0, 32)):
            f = rng.uniform(0.1, 5.0, mesh.cell_count)
            total = mesh.integrate(mesh.laplacian(f))
            assert abs(total) <= 1e-12 * mesh.integrate(np.abs(f))

    def test_matches_loop_oracle_cartesian(self, rng):
        mesh = CartesianMesh2D(1.1, 0.8, 6, 5)
        f = rng.uniform(-1.0, 4.0, mesh.cell_count)
        assert mesh.laplacian(f) == pytest.approx(cart_laplacian_oracle(f, mesh), rel=1e-12, abs=1e-12)

    def test_matches_loop_oracle_radial(self, rng):
        mesh = RadialShellMesh(5, 1.6, 9)
        f = rng.uniform(-1.0, 4.0, mesh.cell_count)
        assert mesh.laplacian(f) == pytest.approx(radial_laplacian_oracle(f, mesh), rel=1e-12, abs=1e-12)

    def test_cartesian_eigenfunction_second_order(self):
        # cos(pi x / Lx) is a Neumann eigenfunction with eigenvalue -(pi/Lx)^2
        lx, ly = 1.3, 0.5
        errors = {}
        for nx in (32, 64):
            mesh = CartesianMesh2D(lx, ly, nx, 4)
            x, _ = mesh.cell_centers()
            f = np.cos(math.pi * x / lx)
            exact = -((math.pi / lx) ** 2) * f
            errors[nx] = np.max(np.abs(mesh.laplacian(f) - exact))
        order = math.log2(errors[32] / errors[64])
        assert order >= 1.9

    def test_radial_smooth_profile_order(self):
        # cos(pi r / R) has laplacian f'' + (n-1) f'/r, smooth at the center
        n_dim, radius = 3, 1.0
        errors = {}
        for m in (64, 128):
            mesh = RadialShellMesh(n_dim, radius, m)
            (r,) = mesh.cell_centers()
            a = math.pi / radius
            exact = -(a**2) * np.cos(a * r) - (n_dim - 1) * a * np.sin(a * r) / r
            f = np.cos(a * r)
            errors[m] = np.max(np.abs(mesh.laplacian(f) - exact))
        order = math.log2(errors[64] / errors[128])
        assert order >= 0.9


# ---------------------------------------------------------------------------
# chemotactic divergence
# ---------------------------------------------------------------------------


class TestChemotacticDivergence:
    def test_constant_chemical_gives_exact_zero(self, rng):
        for mesh in (CartesianMesh2D(1.0, 1.0, 8, 8), RadialShellMesh(3, 1.0, 16)):
            u = rng.uniform(0.0, 3.0, mesh.cell_count)
            v = np.full(mesh.cell_count, 0.8)
            assert (mesh.chemotactic_divergence(u, mesh.face_velocities(v, 0.7)) == 0.0).all()

    def test_conservation(self, rng):
        for mesh in (CartesianMesh2D(1.0, 0.6, 12, 10), RadialShellMesh(4, 1.5, 24)):
            u = rng.uniform(0.0, 3.0, mesh.cell_count)
            v = rng.uniform(0.2, 2.0, mesh.cell_count)
            total = mesh.integrate(mesh.chemotactic_divergence(u, mesh.face_velocities(v, 0.9)))
            assert abs(total) <= 1e-12 * mesh.integrate(u + 1.0)

    def test_hand_computed_four_shell_case(self):
        # u constant, v one linear ring step per shell; all face velocities
        # point outward so the donor value is the inner cell everywhere.
        mesh = RadialShellMesh(2, 1.0, 4)
        chi = 0.6
        u = np.full(4, 2.0)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        h = 0.25
        areas = [0.25, 0.5, 0.75]  # interior faces r = 0.25, 0.5, 0.75 (n_dim = 2)
        vols = [0.25**2 / 2, (0.5**2 - 0.25**2) / 2, (0.75**2 - 0.5**2) / 2, (1.0 - 0.75**2) / 2]
        w = [chi * 1.0 / (h * 1.5), chi * 1.0 / (h * 2.5), chi * 1.0 / (h * 3.5)]
        flux = [areas[j] * w[j] * 2.0 for j in range(3)]
        expected = np.array(
            [
                flux[0] / vols[0],
                (flux[1] - flux[0]) / vols[1],
                (flux[2] - flux[1]) / vols[2],
                -flux[2] / vols[3],
            ]
        )
        got = mesh.chemotactic_divergence(u, mesh.face_velocities(v, chi))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_upwind_picks_donor_cell(self):
        # decreasing v drives flux inward, so the donor is the outer cell
        mesh = RadialShellMesh(2, 1.0, 4)
        u = np.array([1.0, 5.0, 1.0, 1.0])
        v = np.array([4.0, 3.0, 2.0, 1.0])
        out = mesh.chemotactic_divergence(u, mesh.face_velocities(v, 1.0))
        # face between cells 0 and 1 carries u[1] = 5 inward: cell 0 gains mass
        assert out[0] < 0.0  # divergence negative = net inflow
        assert out[1] > 0.0

    def test_matches_loop_oracle(self, rng):
        cart = CartesianMesh2D(0.9, 1.2, 5, 6)
        u = rng.uniform(0.0, 2.0, cart.cell_count)
        v = rng.uniform(0.3, 3.0, cart.cell_count)
        assert cart.chemotactic_divergence(u, cart.face_velocities(v, 0.8)) == pytest.approx(
            cart_chemdiv_oracle(u, v, 0.8, cart), rel=1e-12, abs=1e-12
        )
        rad = RadialShellMesh(6, 1.1, 9)
        u = rng.uniform(0.0, 2.0, rad.cell_count)
        v = rng.uniform(0.3, 3.0, rad.cell_count)
        assert rad.chemotactic_divergence(u, rad.face_velocities(v, 0.8)) == pytest.approx(
            radial_chemdiv_oracle(u, v, 0.8, rad), rel=1e-12, abs=1e-12
        )


class TestState:
    def test_validate_accepts_good_state(self):
        mesh = RadialShellMesh(3, 1.0, 8)
        State(np.zeros(8), np.full(8, 0.1), 0.0).validate(mesh)

    def test_validate_rejects_bad_states(self):
        with pytest.raises(PositivityViolation):
            State(np.array([-0.1, 1.0]), np.ones(2)).validate()
        with pytest.raises(PositivityViolation):
            State(np.ones(2), np.array([1.0, 0.0])).validate()
        with pytest.raises(DomainError):
            State(np.array([np.nan, 1.0]), np.ones(2)).validate()
        mesh = RadialShellMesh(3, 1.0, 8)
        with pytest.raises(DomainError):
            State(np.ones(4), np.ones(4)).validate(mesh)
