"""Discrete geometry and conservative flux-form operators.

Two mesh flavors cover the supported domains:

* ``CartesianMesh2D`` -- an Lx x Ly rectangle split into nx x ny uniform
  cells.  Cells are ordered row-major with x fastest: cell (ix, iy) lives at
  flat index iy*nx + ix.  Its operators work on the flat, contiguous cell
  array (the flat stack below): y face i joins cells (i, i+nx), and x face i
  joins cells (i, i+1) for i < N - 1, except the ny - 1 pairs at
  i = iy*nx + nx - 1, which join the end of one row to the start of the next
  and carry exactly 0, so every cell gets the same bits, in the same order,
  as on a 2-D view.
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

The flat stack.  Every operator lays its R rows of N cells (one field, u and
v of a run, or the u, v and taxis rows of a batch) end to end as one
contiguous array of R*N cells, a view of a contiguous input, and works on it
with 1-D slices only.  The faces are pairs of flat cells: radial faces and
Cartesian x faces are the pairs (j, j+1), Cartesian y faces the pairs
(j, j+nx).  The pairs that are not faces get an entry of exactly 0 after
every write:

* radial: the pair joining the last shell of one row to the first of the
  next, ``T[m::m]`` in the padded faces below;
* Cartesian x: the pair joining the end of a mesh row to the start of the
  next, ``Tx[nx::nx]``; N is a multiple of nx, so these include every pair
  joining two rows of the stack;
* Cartesian y: the nx pairs joining the last mesh row of one stack row to the
  first mesh row of the next, one strided assignment.

A zeroed pair adds or subtracts exactly 0, as the zero-flux boundary face of
a row on its own does, so every cell gets the same terms in the same order as
on its own row and the rates keep its bits; a non-finite value in one row
cannot reach another.

One face layout.  Faces come in directions of stride s, the pairs (j, j+s):
x and y (strides 1 and nx) on a rectangle, one radial direction (stride 1)
on shells.  ``face_velocities`` of a (P, N) stack is a tuple of one flat
array per direction, P*N - s entries each, on both meshes, and
``point_faces(w, j)`` gives point j's as contiguous slices, the arrays it
gets alone.  The kernels that read only the strides and spacings are
written once, the face velocities among them.

Padded faces, one scatter.  Face fluxes go into face arrays padded with zero
entries beyond both ends of the flat stack, and one scatter turns them into
cell rates: cell i gets ``T[i+1] - T[i]`` (x faces, and radial faces divided
by the shell volume), plus ``Ty[i+nx] - Ty[i]`` on a rectangle.  The pads,
zeroed when the face arrays are allocated and never written, stand for the
zero boundary fluxes of the first and last rows.  ``StepPlan`` fills one
padded array with the rows (lap u, lap v, taxis divergence of u), so the
rates of a step take one scatter.  Each cell keeps its terms and their
order, so the rates have the bits of separate per-operator accumulation
except, at most, the sign of an exact zero.

The step plan.  Each kernel (pair differences, diffusive scaling, face
velocities, taxis fluxes, scatter) is written once, as a mesh method
``_<kernel>`` that cuts its views out of the flat arrays and returns its
calls: a list of ``(function, operands)`` pairs, one numpy call each, the
loop over face directions run once, when the kernel is bound.  The
face-velocity kernel starts with the calls of the difference kernel and
reads the differences of v that they write, and the diffusive kernel
scales the differences into fluxes in place, so v is differenced once per
step for both.  The operators above bind per call and make the calls once
(``_run``).  The one function among the calls is each taxis kernel's
donor-cell product ``multiply(w, where(mask, u0, u1), t)``: ``np.where``
allocates its result, so that call cannot be bound beforehand.
``StepPlan`` is the one explicit step: the stepping loop builds one per
batch, and the public ``solver.step`` and ``solver.stable_dt`` one per
call, on a single point.  It owns the batch state, the rates and all
scratch, binds every kernel to them when it is built, and then steps by
making the bound calls, on the same flat layout, so its states have the
operators' bits.  The plan keeps nothing between steps but its state: a
step is ``face_velocities()``, which differences the state as it is now
(and, with a taxis term, writes the face velocities), then
``advance(dt)``, which makes one tuple of flux calls, scaling those
differences into fluxes, and then updates the state, so a write to the
state between steps is stepped from.  With a taxis term and k = 1, a step
is 19 numpy calls on radial shells and 28 on a rectangle, one more each
for k != 1; without one, 10 and 11 (``tests/test_call_counts.py`` counts
them).  On 128 radial shells these act on a few hundred doubles, so the
fixed cost of a call, not the arithmetic, sets the cost of a step.  So
every operand that a binder hands to a ufunc is an array: a shared chi,
h/2, 1/h or h, 1/h^2 or h^2, k and the upwind test's 0 are bound as 0-d
float64 arrays, and ``euler_update`` writes each dt into a 0-d array it
holds.  numpy 2 converts a Python number operand on every call (NEP 50
weak scalars), and a 0-d float64 array gives the same bits without that.
Each call holds its ufunc itself, looked up once when the kernel is bound,
so no step looks up a module attribute.  On 384 doubles (2-core x86_64,
Python 3.11, numpy 2.4) one multiply took about 950 ns with a Python-float
dt and 730 ns with the dt written into a 0-d array; by a constant, 1,060 ns
as a float and 715 ns as a 0-d array; and ``np.multiply`` looked up at the
call added about 80 ns.  A bound step made of call lists took 9.9-11.1
us on 128 shells and 61.1-62.3 us on 64x64 cells, against 10.3-10.5 and
61.8-64.6 us with a function per kernel looping over its directions (best
of 15 rounds of 3,000 and 1,000 steps, CPU time, 4 alternating processes,
2-core x86_64, Python 3.11, numpy 2.4): no slower, for less code.

Aligned step buffers.  Every array that a plan writes comes from
``_aligned``, which puts its first written element at the start of a
64-byte cache line: ``uv``, the rates, the radial scatter scratch, the face
velocities, their sum scratch and the upwind masks at element 0, the
Cartesian x faces and the radial faces at element 1, the Cartesian y faces
at element nx.  numpy's AVX-512 loops store 64 bytes at a time, and a
store that does not start a line is split across two, so the passes over
4,096-12,288 doubles of a 64x64 step, which are limited by their stores,
cost more wherever malloc happened to put their outputs.  Each buffer
costs under 64 bytes more.  The u, v and taxis rows of a batch's flat
stack start on the 64-byte grid only when P*N is a multiple of 8 cells,
and each point's rows only when N is, as on every mesh of the benchmark;
rows are not padded onto the grid, since that would change the flat-pair
layout.  No operand, ufunc, order or call count changed, so every result
keeps its bits at any alignment (``tests/test_alignment.py`` forces each
8-byte offset).  On 64x64 cells the differences took 4.8 us
against 9.5 us at malloc's placement, the taxis fluxes 16.0 against
19.0 us, the face velocities 14.3 against 15.5 us, the diffusive fluxes
3.9 against 4.4 us, the scatter 10.3 against 10.5 us and the update 8.3
against 8.2 us, and the bound step 55.8 against 67.5 us (0.83x); on 32x32
cells the step took 26.9 against 30.5 us, and on 128 shells, whose arrays
of a few hundred doubles barely feel split stores, 10.3 against 10.2 us
(medians of 8 alternating processes, each the median of 15 rounds of 300
steps, 2-core x86_64 with AVX-512, Python 3.11, numpy 2.4).

Exact reciprocals.  The kernels that divide by a mesh constant (the
Cartesian diffusive fluxes by hx^2 and hy^2, the Cartesian taxis fluxes by
hx and hy, the radial diffusive fluxes by h) bind, through ``_scale``, a
multiply by 1/h when h is a power of two whose reciprocal is finite, and
the divide otherwise.  IEEE 754 rounds both operations correctly, and x / h
and x * (1/h) are then the same real number, so the product has the
quotient's bits for every double, signed zeros, subnormals, infinities and
NaN included (``tests/test_exact_reciprocals.py`` checks every such power
of two).  Every mesh the project runs has such spacings: L = 2 with 16, 32
or 64 cells a side, R = 2 with 64 or 128 shells.  A multiply of 8,192
doubles by a 0-d array took 2.6-4.1 us against 6.0-6.8 us for the divide
(on 2,048 doubles the two cost about the same), and at 64x64 cells the
diffusive kernel fell from about 15 us to 4-6 us, the taxis kernel from
32-39 us to 24-30 us and the bound step from about 105 to 90 us (medians of
interleaved rounds, 2-core x86_64, Python 3.11, numpy 2.4).

The innermost radial face has zero area, which enforces the symmetry
condition at r = 0 without ghost values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PositivityViolation, Rule, check_rules
from .exponents import ModelParams


def _operand(x):
    """``x`` as a ufunc operand: an array as it is, a number as a 0-d
    float64 array, which a ufunc takes without converting it on every call."""
    return x if isinstance(x, np.ndarray) else np.array(x, float)


def _aligned(size, dtype=float, start=0, zeros=False):
    """A (size,) array of ``dtype`` (zeroed if ``zeros``) whose element
    ``start`` begins a 64-byte cache line: a view into a buffer less than
    64 bytes longer, cut where the address that ``__array_interface__``
    reports puts that element on the line."""
    itemsize = np.dtype(dtype).itemsize
    buffer = (np.zeros if zeros else np.empty)(size + 64 // itemsize - 1, dtype)
    skip = -(buffer.__array_interface__["data"][0] + start * itemsize) % 64 // itemsize
    return buffer[skip : skip + size]


def _scale(h):
    """The ufunc and 0-d operand that take x to x / h: ``np.multiply`` with
    1/h when h is a power of two whose reciprocal is finite, else
    ``np.divide`` with h.  Both round the same real number then, so the
    product has the quotient's bits for every double x."""
    inverse = 1.0 / h
    if math.frexp(h)[0] == 0.5 and math.isfinite(inverse):
        return np.multiply, _operand(inverse)
    return np.divide, _operand(h)


def _run(calls):
    """Make the bound calls ``calls``, (function, operands) pairs, in order."""
    for function, operands in calls:
        function(*operands)


def euler_update(rates, uv, k):
    """Bind the forward-Euler update of the state ``uv = (u, v)`` from its
    rates ``rates`` (rows lap u, lap v and, if there is a third, the taxis
    divergence of u): the returned function of dt overwrites ``uv`` in place
    with ``uv + dt * (lap u - taxis, k lap v - v + u)``, using ``rates[:2]``
    as scratch.  A k of exactly 1 skips the product, since x * 1.0 == x for
    every double.  Each dt is written into a 0-d array that the product
    reads."""
    subtract, multiply, add = np.subtract, np.multiply, np.add
    du, dv, inc = rates[0], rates[1], rates[:2]
    taxis = rates[2] if len(rates) == 3 else None
    u, v = uv[0], uv[1]
    scale_k = isinstance(k, np.ndarray) or k != 1.0
    k, step = _operand(k), np.empty(())

    def update(dt):
        step[()] = dt
        if taxis is not None:
            subtract(du, taxis, du)
        if scale_k:
            multiply(dv, k, dv)
        subtract(dv, v, dv)
        add(dv, u, dv)
        multiply(inc, step, inc)
        add(inc, uv, uv)

    return update


class _PaddedFluxMesh:
    """The operators shared by both meshes, on the flat stack.

    Each kernel is written once, as a method that binds it: ``_<kernel>`` cuts
    the views that its arithmetic reads and writes out of flat arrays and
    returns the ``out=`` calls on them, a list of ``(function, operands)``
    pairs.  The operators below bind per call and make the calls once
    (``_run``); a ``StepPlan`` binds once and makes them every step.  A
    subclass supplies one coordinate layout: ``cell_centers()`` (one flat
    array per axis), ``extents`` and ``center`` (per axis); its face layout
    (module docstring): ``_strides`` and ``_spacings``, one stride s and
    cell spacing per face direction, and ``_outflow``, per direction the
    (area, vol_in, vol_out) by which a face's outflow leaves cell j and cell
    j + s (numbers on a rectangle, the area None for 1; per-face arrays on
    shells); ``face_arrays(shape)`` (the zeroed padded face scratch of a
    stack of ``shape`` rows, one array per direction first, then whatever
    else its scatter needs); and the kernels whose expressions run in a
    different order: ``_diffusive`` (scale the differences f[j+s] - f[j]
    that the calls of ``_differences`` write into diffusive fluxes, in
    place), ``_taxis`` (the donor-cell fluxes of u, from flat cell ``start``
    of the face scratch on) and ``_scatter`` (zero the pairs that are not
    faces, write the flat cell rates).  No write touches the pads, so face
    scratch reused across calls keeps its zero pads.
    """

    def integrate(self, f: np.ndarray) -> float:
        """The volume-weighted sum of the field ``f``: the same ddot as
        ``volumes @ f``, without the operator's dispatch (about 1.0 against
        1.8 us at 1,024 cells, 2-core x86_64, numpy 2.4)."""
        return float(self.volumes.dot(f))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Laplacian of a field, or row by row of a stack of fields."""
        faces = self.face_arrays(f.shape[:-1])
        flat = f.reshape(-1)
        _run(self._differences(flat, faces) + self._diffusive(flat, faces))
        return self._scatter_faces(faces).reshape(f.shape)

    def chemotactic_divergence(self, u: np.ndarray, w) -> np.ndarray:
        """Donor-cell divergence of the taxis flux for face velocities ``w``."""
        faces = self.face_arrays(u.shape[:-1])
        _run(self._taxis(u.reshape(-1), w, faces, 0, self._velocity_arrays(u.size, bool)))
        return self._scatter_faces(faces).reshape(u.shape)

    def face_velocities(self, v: np.ndarray, chi):
        """Chemotactic face velocities chi * dv / (h * v_face) on the flat pairs,
        one flat array per direction.

        Radial: the interior faces, ``(w,)``, face i joining shells (i, i+1).
        Cartesian: (x faces, y faces): x face i joins cells (i, i+1), y face
        i joins (i, i+nx); the x entries that join the end of a row to the
        start of the next are 0.  ``v`` may have leading dimensions (the
        faces are then those of the flat stack, ``point_faces`` slices out
        one row's), with ``chi`` a number or an array of v's shape.
        """
        v = v.reshape(-1)
        differences, w = np.empty((len(self._strides), v.size)), self._velocity_arrays(v.size)
        _run(self._velocities(v, differences, 0, chi, w, self._velocity_arrays(v.size)))
        return w

    def point_faces(self, w, j):
        """Row j's face velocities out of ``face_velocities`` of a stack."""
        n = self.cell_count
        return tuple(wd[j * n : (j + 1) * n - s] for wd, s in zip(w, self._strides))

    def diffusion_outflow_max(self) -> float:
        """max over cells of sum_faces area / (h * volume), unit diffusivity."""
        return self._diffusion_outflow_max

    def advective_outflow_max(self, w) -> float:
        """max over cells of the donor-cell outflow rate sum_f A_f w_out,f / vol."""
        acc = np.zeros(self.cell_count)
        for s, wd, (area, vol_in, vol_out) in zip(self._strides, w, self._outflow):
            forward, backward = np.maximum(wd, 0.0), np.maximum(-wd, 0.0)
            if area is not None:  # None on a rectangle, whose faces have area 1
                forward, backward = area * forward, area * backward
            acc[:-s] += forward / vol_in
            acc[s:] += backward / vol_out
        return float(acc.max())

    def _velocities(self, f, faces, start, chi, w, scratch):
        """Bind the differences of the flat array ``f`` into ``faces`` and
        then the face velocities chi * dv / (h/2 * (v1 + v0)) of its cells
        from ``start`` on (v, with dv = v1 - v0) into ``w``."""
        multiply, add, divide = np.multiply, np.add, np.divide
        calls, v, end = self._differences(f, faces), f[start:], f.size
        chi = chi.reshape(-1) if isinstance(chi, np.ndarray) else _operand(chi)
        for s, t, wd, sd, h in zip(self._strides, faces, w, scratch, self._spacings):
            calls += [
                (multiply, (chi[:-s] if chi.ndim else chi, t[start + s : end], wd)),
                (add, (v[s:], v[:-s], sd)),
                (multiply, (_operand(h * 0.5), sd, sd)),
                (divide, (wd, sd, wd)),
            ]
        # the x pairs that join the end of a mesh row to the start of the next: none on shells
        return calls + [(w[0][nx - 1 :: nx].fill, (0.0,)) for nx in self._strides[1:]]

    def _velocity_arrays(self, size, dtype=float):
        """Uninitialized arrays shaped like the face velocities of ``size``
        flat cells, each starting a 64-byte line."""
        return tuple(_aligned(size - s, dtype) for s in self._strides)

    def _differences(self, f, faces):
        subtract, size = np.subtract, f.size
        return [(subtract, (f[s:], f[:-s], t[s:size])) for s, t in zip(self._strides, faces)]

    def _scatter_faces(self, faces):
        out = np.empty(faces[0].size - 1)
        _run(self._scatter(faces, out))
        return out


class CartesianMesh2D(_PaddedFluxMesh):
    """Uniform rectangle mesh; cell (ix, iy) -> flat index iy*nx + ix."""

    geometry = "cartesian2d"

    RULES = {
        "lx": Rule(lambda v: v > 0.0, "Lx > 0", float),
        "ly": Rule(lambda v: v > 0.0, "Ly > 0", float),
        "nx": Rule(lambda v: v >= 4, "nx >= 4", int),
        "ny": Rule(lambda v: v >= 4, "ny >= 4", int),
    }

    def __init__(self, lx: float, ly: float, nx: int, ny: int):
        check_rules(self.RULES, {"lx": lx, "ly": ly, "nx": nx, "ny": ny})
        self.lx = float(lx)
        self.ly = float(ly)
        self.nx = int(nx)
        self.ny = int(ny)
        self.hx = self.lx / self.nx
        self.hy = self.ly / self.ny
        self.cell_count = self.nx * self.ny
        self.volumes = np.full(self.cell_count, self.hx * self.hy)
        self.domain_volume = float(self.volumes.sum())
        self._diffusion_outflow_max = 2.0 / (self.hx * self.hx) + 2.0 / (self.hy * self.hy)
        self.extents, self.center = (self.lx, self.ly), (self.lx / 2.0, self.ly / 2.0)
        self._strides, self._spacings = (1, self.nx), (self.hx, self.hy)
        self._outflow = ((None, self.hx, self.hx), (None, self.hy, self.hy))

    def cell_centers(self):
        """(x, y) coordinates per cell, each a flat array in cell order."""
        xs = (np.arange(self.nx) + 0.5) * self.hx
        ys = (np.arange(self.ny) + 0.5) * self.hy
        x, y = np.meshgrid(xs, ys)
        return x.ravel(), y.ravel()

    def face_arrays(self, shape):
        """Zeroed faces of a stack of L = prod(shape) * N cells: x faces (L+1,),
        pair (i, i+1) at i+1; y faces (L+nx,), pair (i, i+nx) at i+nx; and the
        view of the y entries of the pairs that join two stack rows.  Entry 1
        of the x faces and entry nx of the y faces start 64-byte lines."""
        n, nx = self.cell_count, self.nx
        rows = math.prod(shape)
        tx, ty = _aligned(rows * n + 1, start=1, zeros=True), _aligned(rows * n + nx, start=nx, zeros=True)
        return tx, ty, ty[: rows * n].reshape(rows, n)[1:, :nx]

    def _diffusive(self, f, faces):
        nx, size = self.nx, f.size
        (sx, hx2), (sy, hy2) = _scale(self.hx * self.hx), _scale(self.hy * self.hy)
        tx, ty = faces[0][1:size], faces[1][nx:size]
        return [(sx, (tx, hx2, tx)), (sy, (ty, hy2, ty))]

    def _taxis(self, u, w, faces, start, masks):
        multiply, where, greater = np.multiply, np.where, np.greater
        end, zero, calls = start + u.size, _operand(0.0), []

        def donor_cell(w, mask, u0, u1, t):  # np.where allocates its result
            multiply(w, where(mask, u0, u1), t)

        for s, wd, mask, t, h in zip(self._strides, w, masks, faces, self._spacings):
            t, (scale, h) = t[start + s : end], _scale(h)
            calls += [(greater, (wd, zero, mask)), (donor_cell, (wd, mask, u[:-s], u[s:], t))]
            calls.append((scale, (t, h, t)))
        return calls

    def _scatter(self, faces, out):
        nx, (tx, ty, ty_cross) = self.nx, faces
        return [
            (tx[nx::nx].fill, (0.0,)),  # the row-wrap pairs, joins of two stack rows included
            (ty_cross.fill, (0.0,)),
            (np.subtract, (tx[1:], tx[:-1], out)),
            (np.add, (out, ty[nx:], out)),
            (np.subtract, (out, ty[:-nx], out)),
        ]


class RadialShellMesh(_PaddedFluxMesh):
    """Uniform shells of a radially symmetric n_dim-ball, indexed center-out."""

    geometry = "radial"

    RULES = {
        "n_dim": ModelParams.RULES["n"],
        "radius": Rule(lambda v: v > 0.0, "R > 0", float),
        "m": Rule(lambda v: v >= 4, "m >= 4", int),
    }

    def __init__(self, n_dim: int, radius: float, m: int):
        check_rules(self.RULES, {"n_dim": n_dim, "radius": radius, "m": m})
        self.n_dim = int(n_dim)
        self.radius = float(radius)
        self.m = int(m)
        self.h = self.radius / self.m
        self.cell_count = self.m
        self.face_r = np.linspace(0.0, self.radius, self.m + 1)
        self.face_area = self.face_r ** (self.n_dim - 1)
        self.volumes = (self.face_r[1:] ** self.n_dim - self.face_r[:-1] ** self.n_dim) / self.n_dim
        self.domain_volume = float(self.volumes.sum())
        self.extents, self.center = (self.radius,), (0.0,)
        self._strides, self._spacings = (1,), (self.h,)
        self._outflow = ((self.face_area[1:-1], self.volumes[:-1], self.volumes[1:]),)  # interior faces
        per_cell = (self.face_area[:-1] + self.face_area[1:]) / (self.h * self.volumes)
        self._diffusion_outflow_max = float(per_cell.max())

    def cell_centers(self):
        """(r,): the radius of each shell's center, a flat array in shell order."""
        return ((np.arange(self.m) + 0.5) * self.h,)

    def face_arrays(self, shape):
        """Zeroed faces of a stack of L = prod(shape) * m shells, (L+1,) with
        pair (i, i+1) at i+1; the area of each pair's face (L-1,) and the
        volume of each shell (L,), tiled over the rows; and (L,) scratch for
        the scatter.  Entry 1 of the faces and the scratch start 64-byte
        lines."""
        rows = math.prod(shape)
        area = np.tile(self.face_area[1:], rows)[:-1]
        size = rows * self.m
        return _aligned(size + 1, start=1, zeros=True), area, np.tile(self.volumes, rows), _aligned(size)

    def _diffusive(self, f, faces):
        size, (scale, h) = f.size, _scale(self.h)
        t = faces[0][1:size]
        return [(np.multiply, (t, faces[1][: size - 1], t)), (scale, (t, h, t))]

    def _taxis(self, u, w, faces, start, masks):
        multiply, where = np.multiply, np.where
        size, (w,), (mask,) = u.size, w, masks
        t = faces[0][start + 1 : start + size]

        def donor_cell(mask, u0, u1, t):  # np.where allocates its result
            multiply(t, where(mask, u0, u1), t)

        return [
            (multiply, (faces[1][: size - 1], w, t)),
            (np.greater, (w, _operand(0.0), mask)),
            (donor_cell, (mask, u[:-1], u[1:], t)),
        ]

    def _scatter(self, faces, out):
        m, (t, _, vol, scratch) = self.m, faces
        return [
            (t[m::m].fill, (0.0,)),  # the pairs that join two rows
            (np.divide, (t[1:], vol, out)),
            (np.divide, (t[:-1], vol, scratch)),
            (np.subtract, (out, scratch, out)),
        ]


class StepPlan:
    """The explicit step of one batch, every operand bound once.

    The plan holds the batch state ``uv``, a (2, P, N) array that every step
    overwrites in place (copy rows that must outlive the next step), and the
    (R, P, N) rates of a step (R = 3 rows with a taxis term, else 2: lap u,
    lap v, taxis divergence of u), with the padded face scratch
    (``face_arrays((R, P))``), the face-velocity, sum and upwind-mask
    scratch, chi per cell of the flat stack (a 0-d array when every point
    shares it) and k (a 0-d array, or a (P, 1) column).  It binds each of the
    mesh's kernels to these arrays when it is built and keeps their calls in
    two tuples, the difference and face-velocity calls and the flux calls,
    so a step is a fixed sequence of ``out=`` ufunc calls whose operands are
    all arrays (see the module docstring): no reshape, no slicing, no scalar
    conversion, no allocation but ``np.where``'s.  Array operands and ufuncs
    looked up once made a step (``face_velocities()`` plus ``advance``) on
    128 radial shells 16.7 us against 19.3 us with Python-float operands and
    ``np.<ufunc>`` calls, and on 32x32 cells 48.6 us against 54.3 us
    (medians of 20 interleaved rounds, 2-core x86_64, Python 3.11, numpy
    2.4).  A step is ``face_velocities()``, which writes the differences of u
    and v over the flat pairs of the current state and, when some chi is not
    0, the face velocities from those of v, and then ``advance(dt)``.  The
    plan keeps no value derived from ``uv`` from one step to the next, so
    ``uv`` may be written between steps.

    Reusing the arrays matters beyond the saved slicing: fresh face arrays
    per call made a 64x64 step loop about 15 % slower (2-core x86_64,
    glibc), because the allocator returned their pages on every free and
    faulted them in again on the next call.

    Every array the plan writes starts its first written element on a
    64-byte cache line (``_aligned``, under 64 bytes more per buffer), so
    no vector store of a step is split across two lines; the u, v and taxis
    rows stay on the grid when P*N is a multiple of 8 cells.  This took a
    bound 64x64 step from 67.5 to 55.8 us and a 32x32 one from 30.5 to
    26.9 us, and left 128 shells at 10.2-10.3 us (module docstring,
    "Aligned step buffers").
    """

    __slots__ = ("uv", "point_faces", "_velocities", "_fluxes", "_update")

    def __init__(self, mesh: "Mesh", uv: np.ndarray, chis, ks):
        """Plan the steps of the (2, P, N) batch state ``uv`` (copied in)
        whose points have the chi values ``chis`` and the k values ``ks``."""
        points, n = uv.shape[1:]
        cells = points * n
        chi, k = _shared_or_column(chis), _shared_or_column(ks)
        if isinstance(chi, np.ndarray):
            chi = np.repeat(chi, n)
        taxis = any(c != 0.0 for c in chis)
        self.uv = _aligned(uv.size).reshape(uv.shape)
        self.uv[...] = uv
        rates = _aligned((3 if taxis else 2) * cells).reshape(-1, points, n)
        faces = mesh.face_arrays(rates.shape[:2])
        flat = self.uv.reshape(-1)
        fluxes = mesh._diffusive(flat, faces)
        if taxis:  # the face velocities, the scratch of their sums, the upwind masks
            w, scratch, masks = (mesh._velocity_arrays(cells, dtype) for dtype in (float, float, bool))
            self._velocities = tuple(mesh._velocities(flat, faces, cells, chi, w, scratch))
            self.point_faces = [mesh.point_faces(w, j) for j in range(points)]
            fluxes += mesh._taxis(flat[:cells], w, faces, 2 * cells, masks)
        else:
            self._velocities = tuple(mesh._differences(flat, faces))
            self.point_faces = [None] * points
        self._fluxes = tuple(fluxes + mesh._scatter(faces, rates.reshape(-1)))
        self._update = euler_update(rates, self.uv, k)

    def face_velocities(self):
        """Write the differences of u and v over the flat pairs of the
        current state and, when some chi is not 0, the face velocities from
        those of v, into the arrays that ``point_faces`` views."""
        for function, operands in self._velocities:
            function(*operands)

    def advance(self, dt: float) -> np.ndarray:
        """One forward-Euler step of size ``dt`` from the current state, with
        the differences and face velocities that the last
        ``face_velocities()`` call wrote from it (the face velocities into
        the arrays that ``point_faces`` views); returns ``uv``, now the new
        state.  It scales the differences into the diffusive fluxes in
        place, so every step calls ``face_velocities()`` first."""
        for function, operands in self._fluxes:
            function(*operands)
        self._update(dt)
        return self.uv


def _shared_or_column(values):
    """The value that every point shares, or the values as a (P, 1) column."""
    first = values[0]
    if all(x == first for x in values):
        return first
    return np.array(values)[:, None]


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
