"""The flat Cartesian kernels against the 2-D-view kernels they replace, the
radial outflow maximum against its own formula, the one face layout of both
meshes, and the advective screen in ``stable_dt`` against the plain dt
formula."""

import numpy as np
import pytest

from chemolab.exponents import ModelParams
from chemolab.meshes import CartesianMesh2D, RadialShellMesh, State
from chemolab.solver import SchemeConfig, stable_dt

from test_fused_step import plain_dt, steep_state

# ---------------------------------------------------------------------------
# oracle: the Cartesian kernels on 2-D (ny, nx) views
# ---------------------------------------------------------------------------


def view_laplacian(mesh, f):
    g = f.reshape(f.shape[:-1] + (mesh.ny, mesh.nx))
    out = np.zeros(g.shape)
    tx = (g[..., 1:] - g[..., :-1]) / (mesh.hx * mesh.hx)
    out[..., :-1] += tx
    out[..., 1:] -= tx
    ty = (g[..., 1:, :] - g[..., :-1, :]) / (mesh.hy * mesh.hy)
    out[..., :-1, :] += ty
    out[..., 1:, :] -= ty
    return out.reshape(f.shape)


def view_face_velocities(mesh, v, chi):
    g = v.reshape(mesh.ny, mesh.nx)
    wx = chi * (g[:, 1:] - g[:, :-1]) / (mesh.hx * 0.5 * (g[:, 1:] + g[:, :-1]))
    wy = chi * (g[1:, :] - g[:-1, :]) / (mesh.hy * 0.5 * (g[1:, :] + g[:-1, :]))
    return wx, wy


def view_chemotactic_divergence(mesh, u, w):
    gu = u.reshape(mesh.ny, mesh.nx)
    wx, wy = w
    out = np.zeros(gu.shape)
    fx = wx * np.where(wx > 0.0, gu[:, :-1], gu[:, 1:]) / mesh.hx
    out[:, :-1] += fx
    out[:, 1:] -= fx
    fy = wy * np.where(wy > 0.0, gu[:-1, :], gu[1:, :]) / mesh.hy
    out[:-1, :] += fy
    out[1:, :] -= fy
    return out.ravel()


def view_advective_outflow_max(mesh, w):
    wx, wy = w
    acc = np.zeros((mesh.ny, mesh.nx))
    acc[:, :-1] += np.maximum(wx, 0.0) / mesh.hx
    acc[:, 1:] += np.maximum(-wx, 0.0) / mesh.hx
    acc[:-1, :] += np.maximum(wy, 0.0) / mesh.hy
    acc[1:, :] += np.maximum(-wy, 0.0) / mesh.hy
    return float(acc.max())


CART_SHAPES = [(9, 7), (5, 4), (4, 11)]


@pytest.fixture(params=CART_SHAPES, ids=[f"{nx}x{ny}" for nx, ny in CART_SHAPES])
def cart(request):
    nx, ny = request.param
    return CartesianMesh2D(1.3, 0.9, nx, ny)


def wrap_index(mesh):
    """Flat x-pair entries (i, i+1) that join the end of a row to the next row."""
    return np.arange(mesh.nx - 1, mesh.cell_count - 1, mesh.nx)


class TestFlatCartesianKernels:
    def test_laplacian_one_field(self, cart, rng):
        f = rng.uniform(0.1, 5.0, cart.cell_count)
        assert np.array_equal(cart.laplacian(f), view_laplacian(cart, f))

    def test_laplacian_stacked_pair(self, cart, rng):
        uv = rng.uniform(0.1, 5.0, (2, cart.cell_count))
        assert np.array_equal(cart.laplacian(uv), view_laplacian(cart, uv))

    def test_face_velocities_on_real_faces(self, cart, rng):
        v = rng.uniform(0.1, 5.0, cart.cell_count)
        wx, wy = cart.face_velocities(v, 0.7)
        ox, oy = view_face_velocities(cart, v, 0.7)
        assert wx.shape == (cart.cell_count - 1,) and wy.shape == (cart.cell_count - cart.nx,)
        assert np.array_equal(np.delete(wx, wrap_index(cart)), ox.ravel())
        assert np.array_equal(wy, oy.ravel())

    def test_wrap_entries_are_exactly_zero(self, cart, rng):
        v = rng.uniform(0.1, 5.0, cart.cell_count)
        wx, _ = cart.face_velocities(v, 0.7)
        wrap = wrap_index(cart)
        assert len(wrap) == cart.ny - 1
        assert all(x == 0.0 and not np.signbit(x) for x in wx[wrap])

    def test_chemotactic_divergence(self, cart, rng):
        u = rng.uniform(0.1, 5.0, cart.cell_count)
        v = rng.uniform(0.1, 5.0, cart.cell_count)
        flat = cart.chemotactic_divergence(u, cart.face_velocities(v, 0.7))
        view = view_chemotactic_divergence(cart, u, view_face_velocities(cart, v, 0.7))
        assert np.array_equal(flat, view)

    def test_chemotactic_divergence_of_nonfinite_density(self, cart, rng):
        # a zero wrap velocity picks the second row's first u, here infinite;
        # it must not leak back across the wrap pair into the first row's end
        u = rng.uniform(0.1, 5.0, cart.cell_count)
        u[cart.nx] = np.inf
        v = rng.uniform(0.1, 5.0, cart.cell_count)
        with np.errstate(invalid="ignore"):  # inf - inf on the real faces beside u[nx]
            flat = cart.chemotactic_divergence(u, cart.face_velocities(v, 0.7))
            view = view_chemotactic_divergence(cart, u, view_face_velocities(cart, v, 0.7))
        assert np.isfinite(flat[cart.nx - 1])
        assert np.array_equal(flat, view, equal_nan=True)

    def test_advective_outflow_max(self, cart, rng):
        v = rng.uniform(0.1, 5.0, cart.cell_count)
        flat = cart.advective_outflow_max(cart.face_velocities(v, 0.7))
        assert flat == view_advective_outflow_max(cart, view_face_velocities(cart, v, 0.7))


# ---------------------------------------------------------------------------
# the radial outflow maximum and the face layout of both meshes
# ---------------------------------------------------------------------------


def radial_advective_outflow_max(mesh, w):
    """The donor-cell outflow maximum on shells, each interior face weighted
    by its area over the volume of the shell it leaves."""
    (w,) = w
    area, vol_in, vol_out = mesh.face_area[1:-1], mesh.volumes[:-1], mesh.volumes[1:]
    acc = np.zeros(mesh.m)
    acc[:-1] += area * np.maximum(w, 0.0) / vol_in
    acc[1:] += area * np.maximum(-w, 0.0) / vol_out
    return float(acc.max())


@pytest.mark.parametrize("n_dim, radius, m", [(3, 1.0, 7), (3, 1.0, 37), (3, 2.0, 128), (2, 1.7, 37)])
def test_radial_advective_outflow_max(n_dim, radius, m, rng):
    mesh = RadialShellMesh(n_dim, radius, m)
    for chi in (0.6, 3.0):
        v = rng.uniform(0.1, 5.0, m)
        w = mesh.face_velocities(v, chi)
        assert mesh.advective_outflow_max(w) == radial_advective_outflow_max(mesh, w)
    w = mesh.face_velocities(steep_state(mesh).v, 5.0)
    assert mesh.advective_outflow_max(w) == radial_advective_outflow_max(mesh, w)


LAYOUTS = [
    ("cart_9x7", lambda: CartesianMesh2D(1.0, 0.8, 9, 7), (1, 9)),
    ("cart_4x11", lambda: CartesianMesh2D(1.1, 0.9, 4, 11), (1, 4)),
    ("radial3_m37", lambda: RadialShellMesh(3, 1.0, 37), (1,)),
]


@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("make_mesh, strides", [c[1:] for c in LAYOUTS], ids=[c[0] for c in LAYOUTS])
def test_one_flat_face_array_per_direction(make_mesh, strides, points, rng):
    # direction d of stride s joins the flat pairs (j, j + s): P*N - s faces
    # of a stack, N - s of each point
    mesh = make_mesh()
    n = mesh.cell_count
    w = mesh.face_velocities(rng.uniform(0.1, 5.0, (points, n)), 0.7)
    assert type(w) is tuple
    assert [wd.shape for wd in w] == [(points * n - s,) for s in strides]
    for j in range(points):
        faces = mesh.point_faces(w, j)
        assert type(faces) is tuple
        assert [wd.shape for wd in faces] == [(n - s,) for s in strides]


# ---------------------------------------------------------------------------
# the advective screen
# ---------------------------------------------------------------------------

MESHES = [
    ("cart_9x7", lambda: CartesianMesh2D(1.0, 0.8, 9, 7)),
    ("radial3_m37", lambda: RadialShellMesh(3, 1.0, 37)),
]
mesh_params = pytest.mark.parametrize(
    "make_mesh", [m for _, m in MESHES], ids=[n for n, _ in MESHES]
)


def count_advective_calls(mesh):
    """Wrap ``mesh.advective_outflow_max`` and return the list it appends to."""
    calls = []
    inner = mesh.advective_outflow_max

    def counted(w):
        calls.append(1)
        return inner(w)

    mesh.advective_outflow_max = counted
    return calls


def n_dim(mesh):
    return mesh.n_dim if mesh.geometry == "radial" else 2


def coordinate(mesh):
    return mesh.cell_centers()[0]


def smooth_state(mesh):
    """A gaussian density and a gently varying chemical, like the workloads'."""
    s = coordinate(mesh)
    return State(1.5 * np.exp(-((s - 0.5) ** 2) / 0.1), 1.0 + 0.2 * np.cos(np.pi * s))


def ramp_state(mesh):
    """v rises linearly from exactly 1 to exactly 2 across the mesh."""
    s = coordinate(mesh)
    ramp = (s - s.min()) / (s.max() - s.min())
    return State(np.ones(mesh.cell_count), 1.0 + ramp)


def assert_dt_is_plain(state, params, mesh, cfg):
    """stable_dt equals plain_dt."""
    expected = plain_dt(state, params, mesh, cfg)
    assert stable_dt(state, params, mesh, cfg) == expected
    return expected


CFG = SchemeConfig(t_end=1.0, output_interval=1.0)


@mesh_params
def test_screen_skips_advection_on_smooth_state(make_mesh):
    mesh = make_mesh()
    params = ModelParams(chi=0.5, k=1.0, n=n_dim(mesh))
    calls = count_advective_calls(mesh)
    dt = assert_dt_is_plain(smooth_state(mesh), params, mesh, CFG)
    assert dt == CFG.dt_safety * (1.0 / mesh.diffusion_outflow_max())  # the diffusive limit
    assert len(calls) == 1  # plain_dt's own call; stable_dt skips it


@mesh_params
def test_screen_fails_where_advection_binds(make_mesh):
    mesh = make_mesh()
    params = ModelParams(chi=4.0, k=1.3, n=n_dim(mesh))
    calls = count_advective_calls(mesh)
    dt = assert_dt_is_plain(steep_state(mesh), params, mesh, CFG)
    assert dt < CFG.dt_safety / (1.3 * mesh.diffusion_outflow_max())
    assert len(calls) == 2  # plain_dt and stable_dt


@pytest.mark.parametrize("k", [0.4, 2.5])
@pytest.mark.parametrize("side", [-1, 1])
@mesh_params
def test_screen_margin_either_side(make_mesh, k, side):
    # the ramp has vmin = 1 and vmax - vmin = 1, so chi * 1 against the
    # margin max(1, k) / 2 decides the screen
    mesh = make_mesh()
    margin = 0.5 * max(1.0, k)
    chi = margin * (1.0 + side * 1e-9)
    params = ModelParams(chi=chi, k=k, n=n_dim(mesh))
    calls = count_advective_calls(mesh)
    assert_dt_is_plain(ramp_state(mesh), params, mesh, CFG)
    assert len(calls) == (1 if side < 0 else 2)
