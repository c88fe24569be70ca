"""Discrete geometry and conservative flux-form operators.

Two mesh flavors cover the supported domains:

* ``CartesianMesh2D`` -- an Lx x Ly rectangle split into nx x ny uniform
  cells.  Cells are ordered row-major with x fastest: cell (ix, iy) lives at
  flat index iy*nx + ix.  Its operators work on the flat, contiguous cell
  array: y face i joins cells (i, i+nx), and x face i joins cells (i, i+1)
  for i < N - 1.  Among those x pairs, the ny - 1 at i = iy*nx + nx - 1 join
  the end of one row to the start of the next and are not faces; their
  entries are set to exactly 0, so they add or subtract exactly 0 and every
  cell gets the same bits, in the same order, as on a 2-D view.
* ``RadialShellMesh`` -- a ball of radius R in n_dim dimensions under radial
  symmetry, split into m uniform shells indexed from the center outward.
  Face "areas" are r^(n-1) and shell volumes (r_out^n - r_in^n)/n; the
  constant surface measure of the unit sphere is omitted consistently, so
  the total volume is R^n / n.

Fields are plain 1-D ``numpy`` arrays with one entry per cell in the mesh's
ordering; every operator also takes fields with leading dimensions and works
row by row, so u and v of one run, or of a batch of runs, share a call.  Both
operators below are two-point flux schemes with zero flux through boundary
faces, so volume-weighted sums of their output vanish to rounding:
``laplacian`` uses centered face gradients, the chemotactic divergence uses
donor-cell upwinding with the face chemical value taken as the arithmetic
mean of the two neighbors (v is bounded away from zero, so the mean keeps the
stencil linear without positivity risk).  The mesh methods take the
chemotactic face velocities from ``face_velocities``, so a time step computes
them once for both the divergence and the advective outflow rate; they do not
re-check v > 0, which the solver's post-step scan guarantees.

Padded faces, one scatter.  Every operator writes its face fluxes into face
arrays padded with zero entries beyond both ends of the cell range and turns
them into cell rates with one scatter: cell i gets ``T[i+1] - T[i]`` (x
faces, and radial faces divided by the shell volume), plus ``Ty[i+nx] -
Ty[i]`` on a rectangle.  The pads, zeroed when the face arrays are allocated
and never written, stand for the zero boundary fluxes; on a rectangle the
row-wrap entries ``T[j*nx]``, 0 < j < ny, are set to 0 after every row is
written.  ``transport_rates`` fills one padded array with the rows (lap u,
lap v, taxis divergence of u), so one explicit step does one scatter.  Each
cell keeps its terms and their order, so the rates have the bits of separate
per-operator accumulation except, at most, the sign of an exact zero.

The innermost radial face has zero area, which enforces the symmetry
condition at r = 0 without ghost values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PositivityViolation


class _PaddedFluxMesh:
    """The operators shared by both meshes, on the subclass's padded face arrays.

    A subclass supplies ``face_arrays(shape)`` (a tuple of zeroed padded face
    arrays with leading shape ``shape``), ``_diffusive_faces(f, faces)`` and
    ``_taxis_faces(u, w, faces)`` (write a field's interior face fluxes into
    them) and ``_scatter(faces)`` (return the cell rates).  The writes never
    touch the pads, so face arrays reused across calls keep their zero pads.
    """

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Laplacian of a field, or row by row of a stack of fields."""
        faces = self.face_arrays(f.shape[:-1])
        self._diffusive_faces(f, faces)
        return self._scatter(faces)

    def chemotactic_divergence(self, u: np.ndarray, w) -> np.ndarray:
        """Donor-cell divergence of the taxis flux for face velocities ``w``."""
        faces = self.face_arrays(u.shape[:-1])
        self._taxis_faces(u, w, faces)
        return self._scatter(faces)

    def transport_rates(self, uv: np.ndarray, w=None, faces=None) -> np.ndarray:
        """Rates of the state ``uv = (u, v)``, u and v of shape (..., N):
        (lap u, lap v), then, when the face velocities ``w`` of v are given,
        the taxis divergence of u, stacked along the first axis.

        ``faces`` is scratch space, ``face_arrays((3 or 2,) + uv.shape[1:-1])``,
        that a stepping loop allocates once and passes to every call.  Fresh
        face arrays per call made a 64x64 step loop about 15 % slower (2-core
        x86_64, glibc): the allocator returned their pages on every free and
        faulted them in again on the next call.
        """
        if faces is None:
            faces = self.face_arrays((2 if w is None else 3,) + uv.shape[1:-1])
        self._diffusive_faces(uv, [a[:2] for a in faces])
        if w is not None:
            self._taxis_faces(uv[0], w, [a[2] for a in faces])
        return self._scatter(faces)


class CartesianMesh2D(_PaddedFluxMesh):
    """Uniform rectangle mesh; cell (ix, iy) -> flat index iy*nx + ix."""

    geometry = "cartesian2d"

    def __init__(self, lx: float, ly: float, nx: int, ny: int):
        if not (lx > 0.0 and ly > 0.0):
            raise DomainError(f"side lengths must be positive, got ({lx}, {ly})")
        if nx < 4 or ny < 4 or int(nx) != nx or int(ny) != ny:
            raise DomainError(f"need at least 4x4 integer cells, got ({nx}, {ny})")
        self.lx = float(lx)
        self.ly = float(ly)
        self.nx = int(nx)
        self.ny = int(ny)
        self.hx = self.lx / self.nx
        self.hy = self.ly / self.ny
        self.cell_count = self.nx * self.ny
        self.volumes = np.full(self.cell_count, self.hx * self.hy)
        self.domain_volume = float(self.volumes.sum())
        # the ny - 1 flat x-face entries (i, i+1) that join a row's last cell
        # to the next row's first; face_velocities zeroes them
        self._wrap = slice(self.nx - 1, None, self.nx)

    def cell_centers(self):
        """(x, y) coordinates per cell, each a flat array in cell order."""
        xs = (np.arange(self.nx) + 0.5) * self.hx
        ys = (np.arange(self.ny) + 0.5) * self.hy
        x, y = np.meshgrid(xs, ys)
        return x.ravel(), y.ravel()

    def integrate(self, f: np.ndarray) -> float:
        return float(self.volumes @ f)

    def face_arrays(self, shape):
        """Zeroed x faces (..., N+1), x face i at i+1, and y faces (..., N+nx), y face i at i+nx."""
        n = self.cell_count
        return np.zeros(shape + (n + 1,)), np.zeros(shape + (n + self.nx,))

    def _diffusive_faces(self, f, faces):
        nx, n = self.nx, self.cell_count
        fx, fy = faces[0][..., 1:n], faces[1][..., nx:n]
        np.subtract(f[..., 1:], f[..., :-1], out=fx)
        fx /= self.hx * self.hx
        np.subtract(f[..., nx:], f[..., :-nx], out=fy)
        fy /= self.hy * self.hy

    def _taxis_faces(self, u, w, faces):
        nx, n = self.nx, self.cell_count
        wx, wy = w
        fx, fy = faces[0][..., 1:n], faces[1][..., nx:n]
        np.multiply(wx, np.where(wx > 0.0, u[..., :-1], u[..., 1:]), out=fx)
        fx /= self.hx
        np.multiply(wy, np.where(wy > 0.0, u[..., :-nx], u[..., nx:]), out=fy)
        fy /= self.hy

    def _scatter(self, faces):
        nx, n = self.nx, self.cell_count
        tx, ty = faces
        tx[..., nx:n:nx] = 0.0  # the row-wrap pairs
        out = tx[..., 1:] - tx[..., :-1]
        out += ty[..., nx:]
        out -= ty[..., :-nx]
        return out

    def face_velocities(self, v: np.ndarray, chi):
        """Chemotactic face velocity chi * dv / (h * v_face), as (x faces, y faces).

        Both are flat: x face i joins cells (i, i+1), y face i joins (i, i+nx);
        the x entries that join the end of a row to the start of the next are 0.
        ``v`` may have leading dimensions, with ``chi`` broadcast against them
        (a float, or a (P, 1) column for a (P, N) stack).
        """
        nx = self.nx
        wx = chi * (v[..., 1:] - v[..., :-1]) / (self.hx * 0.5 * (v[..., 1:] + v[..., :-1]))
        wx[..., self._wrap] = 0.0
        wy = chi * (v[..., nx:] - v[..., :-nx]) / (self.hy * 0.5 * (v[..., nx:] + v[..., :-nx]))
        return wx, wy

    def diffusion_outflow_max(self) -> float:
        """max over cells of sum_faces area / (h * volume), unit diffusivity."""
        return 2.0 / (self.hx * self.hx) + 2.0 / (self.hy * self.hy)

    def advective_outflow_max(self, w) -> float:
        """max over cells of the donor-cell outflow rate sum_f A_f w_out,f / vol."""
        nx = self.nx
        wx, wy = w
        acc = np.zeros(self.cell_count)
        acc[:-1] += np.maximum(wx, 0.0) / self.hx
        acc[1:] += np.maximum(-wx, 0.0) / self.hx
        acc[:-nx] += np.maximum(wy, 0.0) / self.hy
        acc[nx:] += np.maximum(-wy, 0.0) / self.hy
        return float(acc.max())


class RadialShellMesh(_PaddedFluxMesh):
    """Uniform shells of a radially symmetric n_dim-ball, indexed center-out."""

    geometry = "radial"

    def __init__(self, n_dim: int, radius: float, m: int):
        if int(n_dim) != n_dim or n_dim < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {n_dim}")
        if not radius > 0.0:
            raise DomainError(f"radius must be positive, got {radius}")
        if int(m) != m or m < 4:
            raise DomainError(f"need at least 4 integer shells, got {m}")
        self.n_dim = int(n_dim)
        self.radius = float(radius)
        self.m = int(m)
        self.h = self.radius / self.m
        self.cell_count = self.m
        self.face_r = np.linspace(0.0, self.radius, self.m + 1)
        self.face_area = self.face_r ** (self.n_dim - 1)
        self.volumes = (self.face_r[1:] ** self.n_dim - self.face_r[:-1] ** self.n_dim) / self.n_dim
        self.domain_volume = float(self.volumes.sum())
        self._inner_area = self.face_area[1:-1]  # interior faces 1..m-1
        self._vol_in, self._vol_out = self.volumes[:-1], self.volumes[1:]  # cells beside them
        per_cell = (self.face_area[:-1] + self.face_area[1:]) / (self.h * self.volumes)
        self._diffusion_outflow_max = float(per_cell.max())

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.m) + 0.5) * self.h

    def integrate(self, f: np.ndarray) -> float:
        return float(self.volumes @ f)

    def face_arrays(self, shape):
        """Zeroed faces (..., m+1): face j at radius j*h, the interior ones at 1..m-1."""
        return (np.zeros(shape + (self.m + 1,)),)

    def _diffusive_faces(self, f, faces):
        t = faces[0][..., 1:self.m]
        np.subtract(f[..., 1:], f[..., :-1], out=t)
        t *= self._inner_area
        t /= self.h

    def _taxis_faces(self, u, w, faces):
        t = faces[0][..., 1:self.m]
        np.multiply(self._inner_area, w, out=t)
        t *= np.where(w > 0.0, u[..., :-1], u[..., 1:])

    def _scatter(self, faces):
        t = faces[0]
        out = t[..., 1:] / self.volumes
        out -= t[..., :-1] / self.volumes
        return out

    def face_velocities(self, v: np.ndarray, chi):
        """Chemotactic velocity chi * dv / (h * v_face) on the interior faces.

        ``v`` may have leading dimensions, with ``chi`` broadcast against them.
        """
        return chi * (v[..., 1:] - v[..., :-1]) / (self.h * 0.5 * (v[..., 1:] + v[..., :-1]))

    def diffusion_outflow_max(self) -> float:
        """max over shells of sum_faces area / (h * volume), unit diffusivity."""
        return self._diffusion_outflow_max

    def advective_outflow_max(self, w: np.ndarray) -> float:
        """max over shells of the donor-cell outflow rate sum_f A_f w_out,f / vol."""
        acc = np.zeros(self.m)
        acc[:-1] += self._inner_area * np.maximum(w, 0.0) / self._vol_in
        acc[1:] += self._inner_area * np.maximum(-w, 0.0) / self._vol_out
        return float(acc.max())


Mesh = CartesianMesh2D | RadialShellMesh


@dataclass
class State:
    """Cell-averaged densities u >= 0, chemical v > 0, and the clock t.

    Construction does not validate (the solver hands back possibly diverged
    states for the caller to classify); call ``validate`` on data that must
    satisfy the invariants, e.g. initial conditions.
    """

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0
    _uv: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def validate(self, mesh: Mesh | None = None) -> "State":
        if mesh is not None and (self.u.shape != (mesh.cell_count,) or self.v.shape != (mesh.cell_count,)):
            raise DomainError(
                f"fields must have one entry per cell ({mesh.cell_count}), "
                f"got {self.u.shape} and {self.v.shape}"
            )
        if not np.isfinite(self.u).all() or not np.isfinite(self.v).all():
            raise DomainError("fields must be finite")
        if (self.u < 0.0).any():
            raise PositivityViolation("cell density must be nonnegative")
        if (self.v <= 0.0).any():
            raise PositivityViolation("chemical field must be strictly positive")
        if not self.t >= 0.0:
            raise DomainError(f"time must be nonnegative, got {self.t}")
        return self

    @classmethod
    def stacked(cls, uv: np.ndarray, t: float) -> "State":
        """State whose u and v are the rows of the (2, N) array ``uv``.

        A (2, P, N) stack gives the batch state of P runs at one time t, with
        u and v of shape (P, N).
        """
        state = cls(uv[0], uv[1], t)
        state._uv = uv
        return state

    def uv(self) -> np.ndarray:
        """u and v as the rows of one (2, N) array (a batch's (2, P, N) stack);
        a copy unless built by ``stacked``."""
        return self._uv if self._uv is not None else np.stack((self.u, self.v))
