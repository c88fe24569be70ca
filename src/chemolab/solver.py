"""Positivity-preserving explicit time integration of the coupled system

    u_t = lap(u) - chi * div(u/v * grad v)
    v_t = k * lap(v) - v + u

with zero-flux boundaries.  The stepping is plain forward Euler on the
conservative flux-form operators: auditable positivity and exact-to-rounding
mass conservation are preferred over speed, and desk-scale grids keep the
cost acceptable.

Stability bookkeeping (``stable_dt``) takes the safety-scaled minimum of

* the diffusive limit 1 / (max(1, k) * max_i sum_f A_f / (h vol_i)), which is
  h^2 / (2 d max(1, k)) on a uniform d-direction Cartesian grid,
* the donor-cell advective limit 1 / max_i sum_f A_f [w_f]_out / vol_i
  (skipped while all face velocities vanish, or when the screen below
  shows that it cannot bind), and
* the reaction cap 1/2, which keeps the (1 - dt) factor of the v-update
  away from zero.

The advective screen needs only the range of v.  Every face velocity obeys
|w_f| <= chi (vmax - vmin) / (h_f vmin), so each cell's advective outflow
rate is at most rho = chi (vmax - vmin) / vmin times its unit-diffusivity
outflow rate, and the advective limit is at least 1 / (rho D_max).  When
rho <= max(1, k) / 2 it is therefore at least twice the diffusive limit.
Rounding moves either limit by a few ulps, far less than that factor 2, so
the minimum of the two is the diffusive limit to the bit, and skipping the
advective computation leaves dt unchanged to the bit.  The stepping loop
passes min v and max v from its post-step scan, so the screen costs no array
pass; when it fails, the exact advective limit is computed as before.

Each limit is taken separately, so in one step a cell can lose the share
dt * (D_i + A_i) <= 2 * dt_safety of its u (D_i, A_i its diffusive and
advective outflow rates) and dt * (k D_i + 1) <= 1.5 * dt_safety of its v.
For dt_safety <= 1/2 both shares are at most 1, which guarantees u >= 0 and
v > 0 at every accepted step.  Above 1/2, ``stable_dt`` skips the screen,
takes the exact advective limit and caps dt at c / (D_max + A_max) and
c / (k D_max + 1), c = 1 - 2^-32.  Since D_i <= D_max and A_i <= A_max, both
shares are then below 1 in every cell, so the guarantee holds on the whole
accepted range (0, 1]; c < 1 keeps a cell that a step would empty exactly
from rounding to a negative value.  At dt_safety <= 1/2 the cap is never
evaluated, so dt keeps its bits there.  A loss of positivity is still
classified, as status "positivity_lost" (a scheme fault, not physics).

Batches.  ``run_batch`` advances P runs that share a mesh, a scheme and an
initial state, as one contiguous (2, P, N) stack (u rows, then v rows);
``run`` is a batch of one, so there is one stepping loop, and ``step``
given ``ModelParams`` steps a one-point plan, so there is one step path.
Each batch gets a ``meshes.StepPlan``, which holds the stack, updated in
place, with the rates and all scratch of a step, chi per cell of the flat
stack (a 0-d array when all points share it) and k as a 0-d array or a
(P, 1) column, and binds every operand of a step once.  One step does each piece of work once for
the whole batch: the plan computes the chemotactic face velocities from the
differences of v that it holds (see ``meshes``), and each point's
contiguous slice of them is handed to its own ``stable_dt``; ``step``,
given the plan, scales those differences into the fluxes of lap u and lap
v, writes the taxis fluxes, scatters them into the rates, adds dt times
those to the state and writes the differences of the new state, all on one
flat array; and one ``np.minimum.reduceat`` and one ``np.maximum.reduceat``
over the plan's flat state, at the starts of its 2P rows (u rows, then v
rows; bound once per plan), decide, point by point, finiteness, u >= 0,
v > 0, the running extremes and the blow-up proxy.  Min and max are exact,
so these are the values of a reduction along each row, NaN included; on
2 x 1024 cells one reduction cost about 1.4 us against 2.5 us along the
rows of a (2P, N) view.  The scan also gives every output row its min v
and max u, so ``compute_row`` does no reduction of its own in the loop.
Each point's extremes first meet one chained test, 0 <= min u, 0 < min v,
max u < inf, max v < inf and max u <= blowup_factor * max u0, which every
NaN fails; a point that passes it is accepted as it stands, and only a point that fails it
goes through the ordered classification (non-finite, then positivity, then
the blow-up proxy); every point that passes the test is one that the
classification accepts, so both give the same status.  The loop does only
per-step work: the t_end threshold, the next output time and the reductions
are bound once, the output time again only when it is reached.  On
``radial3`` (128 shells, 18,432 steps) these, with the array operands of
``meshes``, made a whole run about 0.84x as long (2-core x86_64, Python
3.11, numpy 2.4).  No point needs the state before a step once it is taken
(a point that loses positivity reports only the time before it), so the
plan keeps one.  Rows are copied out of the stack only when the batch
splits or a point stops and leaves it; the others carry on in a new plan.
A step builds no ``State`` but the one-point states that rows are computed
from: ``step`` advances the state it is given.  A point's accepted steps
(``RunReport.steps``) come from the batch's step counter, credited when the
point leaves the batch.  The product of (1 - dt) over the steps taken, the
factor of the v floor that the scheme keeps (``min_v_floor_check``), is one
float multiply per batch step; every point of a batch has taken the same
steps since t = 0, so a batch holds one product and a sub-batch carries it
on, and each row records it (``RunReport.floor_factors``).

Split rule.  A batch steps with one dt, so every point's ``stable_dt`` is
taken before each step, and when they differ (points with different k, or
an advective limit that binds for one chi only) the batch is split into
sub-batches of equal dt, each continuing from the current state, time and
output index.  Each point therefore takes exactly the dt sequence of its
own run.  All arithmetic is elementwise or along a point's own row (the
flat pairs joining two rows carry exactly zero flux): a cell gets the same
terms in the same order whatever the batch, and a float repeated per cell
or broadcast as a column gives the bits of a scalar product, so every
state, row and status of a batched point is bit-identical to its run alone
(only the sign of an exact-zero rate can differ, and adding it to u >= 0 or
v > 0 gives the same value).

Finite-time blow-up of the continuous system is unobservable discretely;
``run`` reports a blow-up *proxy* instead (density growth past a factor, a
collapsing time step, or non-finite values) and labels it ``suspected``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .diagnostics import MonitorConfig, TimeSeries, compute_row
from .errors import DomainError
from .exponents import ModelParams
from .meshes import Mesh, State, StepPlan

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "suspected_blowup"
STATUS_DT_COLLAPSE = "dt_collapse"
STATUS_POSITIVITY_LOST = "positivity_lost"

_TREL = 1e-12  # relative band for time-target snapping

# Above dt_safety 1/2, the largest share of a cell's u or v that one step may
# drain: just under all of it, since a cell emptied exactly (a one-cell spike
# with the cap binding) rounded to -4.4e-16 on 8x8 cells.
_DRAIN_CAP = 1.0 - 2.0**-32

# Cap on P * N, the cells of one run_batch stack, for callers that batch
# runs.  Per cell, a batch step on the flat stack cost (2-core x86_64,
# Python 3.11, numpy 2.4, best of 3 runs, three sessions) 63-67 ns at 2^12
# cells of 16x16 points, 56-60 at 2^14, 46-56 at 2^15, 49-58 at 2^16 and
# 64-70 at 2^18; with 64x64 points, 37-44 ns for one point (2^12), 28-33 at
# 2^13, 34-37 at 2^15 and 45-51 at 2^18.  2^15 is near the minimum of both
# and keeps a batch's arrays to a few MB.
BATCH_CELLS = 1 << 15


@dataclass(frozen=True)
class SchemeConfig:
    t_end: float
    output_interval: float
    dt_safety: float = 0.4
    dt_min: float = 1e-10
    blowup_factor: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.dt_safety <= 1.0:
            raise DomainError(f"dt_safety must be in (0, 1], got {self.dt_safety}")
        if not self.dt_min > 0.0:
            raise DomainError(f"dt_min must be positive, got {self.dt_min}")
        if not self.t_end > 0.0:
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        if not self.blowup_factor > 1.0:
            raise DomainError(f"blowup_factor must exceed 1, got {self.blowup_factor}")
        if not self.output_interval > 0.0:
            raise DomainError(f"output_interval must be positive, got {self.output_interval}")


@dataclass
class RunReport:
    """How one run ended, and its rows; the stepping loop fills it as the run goes."""

    status: str
    t_final: float
    max_u_over_run: float  # over every accepted state, as is min_v_over_run
    min_v_over_run: float
    series: TimeSeries
    steps: int  # the accepted steps, the last of which reached t_final
    floor_factors: array  # per row of ``series``, the product of (1 - dt) over the steps before it


def initial_state(
    mesh: Mesh, kind: str, amplitude: float, v0_base: float, v0_min: float = 0.1
) -> State:
    """Build the configured initial data.

    kind = "constant_cosine" (amplitude in [0, 1], the perturbation size):
        u0 = 1 + amplitude * cos(pi x / Lx) cos(pi y / Ly)   (Cartesian)
        u0 = 1 + amplitude * cos(pi r / R)                   (radial)
        amplitude = 0 with v0 = 1 is the exact constant steady state.
    kind = "gaussian" (amplitude >= 0, the peak height):
        u0 = amplitude * exp(-|x - center|^2 / (2 sigma^2)) with the bump at
        the domain center and sigma = min(Lx, Ly)/4, resp. R/4 centered at
        the origin.  The quarter-domain width keeps the tails fat enough
        that the chemical's production term dominates the O(dt) decay
        deficit of explicit stepping everywhere.

    Each is one formula over the mesh's axes (``cell_centers``, ``extents``
    and ``center``).  In both cases v0 = max(v0_base, v0_min), constant;
    v0_min > 0 enforces strict positivity.  Both profiles have zero normal
    derivative at the boundary.
    """
    if not amplitude >= 0.0:
        raise DomainError(f"amplitude must be nonnegative, got {amplitude}")
    if kind == "constant_cosine" and amplitude > 1.0:
        raise DomainError(
            f"constant_cosine amplitude must be <= 1 to keep u nonnegative, got {amplitude}"
        )
    if not v0_min > 0.0:
        raise DomainError(f"v0_min must be positive, got {v0_min}")
    if not isinstance(mesh, Mesh):
        raise DomainError(f"unsupported mesh type {type(mesh).__name__}")
    coordinates = mesh.cell_centers()
    if kind == "constant_cosine":
        cosines = (np.cos(math.pi * x / length) for x, length in zip(coordinates, mesh.extents))
        u = 1.0 + math.prod(cosines, start=amplitude)
    elif kind == "gaussian":
        squares = [(x - c) ** 2 for x, c in zip(coordinates, mesh.center)]
        sigma = min(mesh.extents) / 4.0
        u = amplitude * np.exp(-sum(squares[1:], squares[0]) / (2.0 * sigma * sigma))
    else:
        raise DomainError(f"unknown initial kind {kind!r}")
    v = np.full(mesh.cell_count, max(v0_base, v0_min))
    return State(u, v, 0.0).validate(mesh)


def stable_dt(
    state: State | None, params: ModelParams, mesh: Mesh, cfg: SchemeConfig, w=None, v_range=None
) -> float:
    """Safety-scaled minimum of the diffusive, advective, and reaction limits,
    capped for positivity when ``cfg.dt_safety`` exceeds 1/2.

    ``w`` are the face velocities of ``state.v`` (computed when needed and
    omitted); ``v_range`` is ``(min v, max v)`` (computed when omitted).
    ``state`` is read only to compute those two, so a caller that passes
    ``v_range``, and ``w`` when chi != 0, may pass None.  The advective limit
    is skipped when the screen in the module docstring shows that it cannot
    bind.  Above dt_safety 1/2 the screen is skipped, the exact advective
    outflow maximum A_max is always taken, and dt is capped at
    c / (D_max + A_max) and c / (k D_max + 1), c = ``_DRAIN_CAP``, which
    keeps u >= 0 and v > 0 (module docstring).  The caller additionally
    caps the result so output times are hit exactly.
    """
    k_scale, d_max, adv = max(1.0, params.k), mesh.diffusion_outflow_max(), 0.0
    capped = cfg.dt_safety > 0.5
    limit = 1.0 / (k_scale * d_max)
    if params.chi != 0.0:
        if v_range is None:
            v_range = float(state.v.min()), float(state.v.max())
        v_min, v_max = v_range
        # written as `not <=` so that a NaN range takes the exact path
        if capped or not params.chi * (v_max - v_min) <= 0.5 * k_scale * v_min:
            if w is None:
                w = mesh.face_velocities(state.v, params.chi)
            adv = mesh.advective_outflow_max(w)
            if adv > 0.0:
                limit = min(limit, 1.0 / adv)
    dt = cfg.dt_safety * min(limit, 0.5)
    if capped:
        dt = min(dt, _DRAIN_CAP / (d_max + adv), _DRAIN_CAP / (params.k * d_max + 1.0))
    return dt


def step(
    state: State,
    params: ModelParams | StepPlan,
    mesh: Mesh,
    cfg: SchemeConfig,
    dt: float | None = None,
) -> State:
    """One forward-Euler step; dt defaults to ``stable_dt``.

    The taxis term is taken, with the face velocities of ``state.v``, when
    chi != 0.  Both u-terms are conservative with zero boundary flux, so the
    volume-weighted sum of u is preserved to rounding.  Flux differences
    vanish identically on constant fields, so the constant steady state
    u = v = c is reproduced bit-exactly.  The new state is not checked:
    ``run_batch`` classifies non-finite values and positivity loss (see
    module docstring).  Given ``ModelParams``, the step is that of a
    one-point ``StepPlan`` built on a copy of ``state``, whose face
    velocities also give ``stable_dt``; the new u and v are the rows of the
    plan's own array (``State.stacked``), which no other state shares.

    ``run_batch`` passes its batch's ``StepPlan`` as ``params``, the state
    whose ``uv`` is the plan's (``State.stacked(plan.uv, t)``), and the
    shared ``dt``; the step then overwrites the plan's state in place, with
    the face velocities of the plan's last ``face_velocities()`` call, and
    returns the state it was given, its t advanced by dt.
    """
    if isinstance(params, StepPlan):
        if state.uv() is not params.uv:
            raise ValueError("a StepPlan steps only the state that it holds")
        params.advance(dt)
        state.t += dt
        return state
    plan = StepPlan(mesh, state.uv()[:, None], [params.chi], [params.k])
    plan.face_velocities()
    if dt is None:
        dt = stable_dt(state, params, mesh, cfg, plan.point_faces[0])
    plan.advance(dt)
    return State.stacked(plan.uv[:, 0], state.t + dt)


def run(
    initial: State,
    params: ModelParams,
    mesh: Mesh,
    cfg: SchemeConfig,
    monitors: MonitorConfig | None = None,
) -> RunReport:
    """Advance from ``initial`` until t_end, a dt collapse, or a blow-up proxy.

    Emits one diagnostics row at t = 0, one per output interval, and one at
    the final time.  Never raises on dynamical failures: non-finite values
    and density growth past ``blowup_factor`` surface as status
    "suspected_blowup", a finite new state with u < 0 or v <= 0 as
    "positivity_lost" (the state before that step is the final one), and a
    time step below dt_min as "dt_collapse".  Identical inputs produce
    bit-identical reports.  This is ``run_batch`` with a batch of one.
    """
    return run_batch(initial, [params], mesh, cfg, [monitors])[0]


class _Point:
    """One run of a batch: its ``params``, the ``report`` that the stepping
    loop fills (a ``RunReport``; its last row is at time ``t_row``), and
    ``v_range`` (min v, max v) and ``max_u``, the extremes of its current
    state from the post-step scan (at t = 0, the initial state's), which each
    row is computed with.

    A plain class: creating a dataclass at import cost about 0.7 ms (2-core
    x86_64, Python 3.11), which every CLI invocation pays before its first
    step.
    """

    __slots__ = ("params", "report", "t_row", "v_range", "max_u", "append_row")

    def __init__(self, params, monitors, initial, mesh, max_u0, v_range, append_row):
        series = TimeSeries(monitors)
        compute_row(initial, mesh, series, (v_range[0], max_u0))
        self.report = RunReport(None, 0.0, max_u0, v_range[0], series, 0, array("d", (1.0,)))
        self.params, self.t_row, self.v_range, self.max_u = params, initial.t, v_range, max_u0
        self.append_row = append_row

    def emit(self, state: State, mesh: Mesh, floor: float) -> None:
        """Append the row of ``state``, the point's current state, whose
        floor factor is ``floor``, by ``append_row``."""
        if state.t > self.t_row:
            self.append_row(state, mesh, self.report.series, (self.v_range[0], self.max_u))
            self.report.floor_factors.append(floor)
            self.t_row = state.t

    def stop(self, status: str, t: float, steps: int) -> None:
        """End the run at time t, ``steps`` accepted steps after it joined
        its last batch."""
        report = self.report
        report.status, report.t_final = status, t
        report.steps += steps


def run_batch(
    initial: State,
    params_seq,
    mesh: Mesh,
    cfg: SchemeConfig,
    monitors_seq=None,
    append_row=None,
) -> list[RunReport]:
    """``run`` for each of ``params_seq`` (with ``monitors_seq``, None for
    default monitors; one entry per parameter set, or a ``DomainError``)
    from one initial state, mesh and scheme.

    The runs advance together as one (2, P, N) stack, and each point's loop
    fills its own ``RunReport``, which is returned as it stands; report i is
    bit-identical to ``run(initial, params_seq[i], mesh, cfg,
    monitors_seq[i])`` (see the module docstring).  The caller bounds P * N,
    e.g. by ``BATCH_CELLS``.  ``append_row``, called like ``compute_row`` on
    views that the next step overwrites, appends each row after t = 0; the
    default, ``compute_row`` at call time, returns the reports complete.
    """
    if monitors_seq is None:
        monitors_seq = [None] * len(params_seq)
    if len(monitors_seq) != len(params_seq):
        raise DomainError(f"{len(params_seq)} parameter sets but {len(monitors_seq)} monitor sets")
    monitors_seq = [m if m is not None else MonitorConfig() for m in monitors_seq]
    initial.validate(mesh)
    for params, monitors in zip(params_seq, monitors_seq):
        monitors.validate(params.chi, params.k)

    max_u0 = float(initial.u.max())
    v_range = float(initial.v.min()), float(initial.v.max())
    points = [
        _Point(params, monitors, initial, mesh, max_u0, v_range, append_row or compute_row)
        for params, monitors in zip(params_seq, monitors_seq)
    ]
    stack = State.stacked(np.stack([initial.uv()] * len(points), axis=1), initial.t)
    pending = [(points, stack, 1, 1.0)]
    while pending:
        _advance(*pending.pop(), mesh, cfg, max_u0, pending)
    return [point.report for point in points]


def _advance(batch, state, next_j, floor, mesh, cfg, max_u0, pending) -> None:
    """Step the points ``batch``, held in the batch state ``state`` (a
    (2, P, N) stack), until each has stopped or their time steps differ;
    then push one sub-batch per distinct dt onto ``pending``.

    ``taken`` counts the steps of this call, once per step for all points; a
    point adds it to ``report.steps`` when it stops or goes on in a sub-batch.
    ``floor`` is the product of (1 - dt) over every step since t = 0, which
    all points of a batch share (they have taken the same steps); a
    sub-batch carries it on."""
    plan, taken = None, 0
    minimum, maximum, inf = np.minimum.reduceat, np.maximum.reduceat, math.inf
    t_end, interval, dt_min = cfg.t_end, cfg.output_interval, cfg.dt_min
    t_stop, max_u_cap = t_end * (1.0 - _TREL), cfg.blowup_factor * max_u0
    t_target = min(next_j * interval, t_end)
    t_snap = _TREL * max(1.0, t_target)
    while True:
        if plan is None:  # a new batch, or points left it
            size = len(batch)
            plan = StepPlan(mesh, state.uv(), [p.params.chi for p in batch], [p.params.k for p in batch])
            state = State.stacked(plan.uv, state.t)
            uv, faces = plan.uv, plan.point_faces
            flat, starts = uv.reshape(-1), np.arange(0, uv.size, uv.shape[-1])
        t = state.t
        if t >= t_stop:
            for point in batch:
                point.stop(STATUS_COMPLETED, t, taken)
            return
        plan.face_velocities()
        dts = [stable_dt(None, point.params, mesh, cfg, w, point.v_range) for point, w in zip(batch, faces)]
        dt0 = dts[0]
        if dts.count(dt0) != size:
            groups: dict[float, list[int]] = {}
            for j, dt in enumerate(dts):
                groups.setdefault(dt, []).append(j)
            for group in groups.values():
                pending.append(([batch[j] for j in group], State.stacked(uv[:, group], t), next_j, floor))
            for point in batch:
                point.report.steps += taken
            return
        if dt0 < dt_min:
            u, v = state.u, state.v
            for j, point in enumerate(batch):
                point.emit(State(u[j], v[j], t), mesh, floor)
                point.stop(STATUS_DT_COLLAPSE, t, taken)
            return
        dt = min(dt0, t_target - t)
        state = step(state, plan, mesh, cfg, dt)
        floor *= 1.0 - dt
        taken += 1
        mins, maxs, keep = minimum(flat, starts).tolist(), maximum(flat, starts).tolist(), []
        scan = zip(batch, mins[:size], mins[size:], maxs[:size], maxs[size:])
        for j, (point, min_u, min_v, max_u, max_v) in enumerate(scan):
            # every NaN fails this test; only the points that fail it are classified
            if 0.0 <= min_u and 0.0 < min_v and max_u < inf and max_v < inf and max_u <= max_u_cap:
                keep.append(j)
            elif not all(map(math.isfinite, (min_u, min_v, max_u, max_v))):
                point.stop(STATUS_BLOWUP, state.t, taken)
                continue
            elif min_u < 0.0 or min_v <= 0.0:
                point.stop(STATUS_POSITIVITY_LOST, t, taken - 1)
                continue
            elif max_u > max_u_cap:
                point.v_range, point.max_u = (min_v, max_v), max_u
                point.emit(State(uv[0, j], uv[1, j], state.t), mesh, floor)
                point.stop(STATUS_BLOWUP, state.t, taken)
            else:  # a NaN cap: max u0 = 0 with an infinite blowup_factor
                keep.append(j)
            point.v_range, point.max_u, report = (min_v, max_v), max_u, point.report
            if max_u > report.max_u_over_run:
                report.max_u_over_run = max_u
            if min_v < report.min_v_over_run:
                report.min_v_over_run = min_v
        if len(keep) < size:
            if not keep:
                return
            batch, plan = [batch[j] for j in keep], None
            state = State.stacked(uv[:, keep], state.t)
        if abs(state.t - t_target) <= t_snap:
            state.t = t_target
            u, v = state.u, state.v
            for j, point in enumerate(batch):
                point.emit(State(u[j], v[j], t_target), mesh, floor)
            if t_target == next_j * interval:
                next_j += 1
            t_target = min(next_j * interval, t_end)
            t_snap = _TREL * max(1.0, t_target)
