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
advective computation leaves dt unchanged to the bit.  ``run`` passes
min v and max v from its post-step scan, so the screen costs no array pass;
when it fails, the exact advective limit is computed as before.

Each limit is taken separately, so in one step a cell can lose the share
dt * (D_i + A_i) <= 2 * dt_safety of its u (D_i, A_i its diffusive and
advective outflow rates) and dt * (k D_i + 1) <= 1.5 * dt_safety of its v.
For dt_safety <= 1/2 these jointly guarantee u >= 0 and v > 0 at every
accepted step.  Beyond that, a cell where both limits bind can go negative;
``run`` reports this as status "positivity_lost", a scheme fault, not physics.

One step of ``run`` does each piece of work once: the chemotactic face
velocities are computed once from v and shared by ``stable_dt`` and
``step``; u and v go through one stacked ``laplacian`` call; and one min and
one max per row of the new state decide finiteness, u >= 0, v > 0, the
running extremes and the blow-up proxy.

Finite-time blow-up of the continuous system is unobservable discretely;
``run`` reports a blow-up *proxy* instead (density growth past a factor, a
collapsing time step, or non-finite values) and labels it ``suspected``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import MonitorConfig, TimeSeriesRow, compute_row
from .errors import DomainError
from .exponents import ModelParams
from .meshes import CartesianMesh2D, Mesh, RadialShellMesh, State

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "suspected_blowup"
STATUS_DT_COLLAPSE = "dt_collapse"
STATUS_POSITIVITY_LOST = "positivity_lost"

_TREL = 1e-12  # relative band for time-target snapping


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
    status: str
    t_final: float
    max_u_over_run: float
    min_v_over_run: float
    series: list[TimeSeriesRow]


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

    In both cases v0 = max(v0_base, v0_min), constant; v0_min > 0 enforces
    strict positivity.  Both profiles have zero normal derivative at the
    boundary.
    """
    if not amplitude >= 0.0:
        raise DomainError(f"amplitude must be nonnegative, got {amplitude}")
    if kind == "constant_cosine" and amplitude > 1.0:
        raise DomainError(
            f"constant_cosine amplitude must be <= 1 to keep u nonnegative, got {amplitude}"
        )
    if not v0_min > 0.0:
        raise DomainError(f"v0_min must be positive, got {v0_min}")
    if isinstance(mesh, CartesianMesh2D):
        x, y = mesh.cell_centers()
        if kind == "constant_cosine":
            u = 1.0 + amplitude * np.cos(math.pi * x / mesh.lx) * np.cos(math.pi * y / mesh.ly)
        elif kind == "gaussian":
            sigma = min(mesh.lx, mesh.ly) / 4.0
            d2 = (x - mesh.lx / 2.0) ** 2 + (y - mesh.ly / 2.0) ** 2
            u = amplitude * np.exp(-d2 / (2.0 * sigma * sigma))
        else:
            raise DomainError(f"unknown initial kind {kind!r}")
    elif isinstance(mesh, RadialShellMesh):
        r = mesh.cell_centers()
        if kind == "constant_cosine":
            u = 1.0 + amplitude * np.cos(math.pi * r / mesh.radius)
        elif kind == "gaussian":
            sigma = mesh.radius / 4.0
            u = amplitude * np.exp(-(r * r) / (2.0 * sigma * sigma))
        else:
            raise DomainError(f"unknown initial kind {kind!r}")
    else:
        raise DomainError(f"unsupported mesh type {type(mesh).__name__}")
    v = np.full(mesh.cell_count, max(v0_base, v0_min))
    return State(u, v, 0.0).validate(mesh)


def stable_dt(
    state: State, params: ModelParams, mesh: Mesh, cfg: SchemeConfig, w=None, v_range=None
) -> float:
    """Safety-scaled minimum of the diffusive, advective, and reaction limits.

    ``w`` are the face velocities of ``state.v`` (computed when needed and
    omitted); ``v_range`` is ``(min v, max v)`` (computed when omitted).
    The advective limit is skipped when the screen in the module docstring
    shows that it cannot bind.  The caller additionally caps the result so
    output times are hit exactly.
    """
    k_scale = max(1.0, params.k)
    limit = 1.0 / (k_scale * mesh.diffusion_outflow_max())
    if params.chi != 0.0:
        if v_range is None:
            v_range = float(state.v.min()), float(state.v.max())
        v_min, v_max = v_range
        # written as `not <=` so that a NaN range takes the exact path
        if not params.chi * (v_max - v_min) <= 0.5 * k_scale * v_min:
            if w is None:
                w = mesh.face_velocities(state.v, params.chi)
            adv = mesh.advective_outflow_max(w)
            if adv > 0.0:
                limit = min(limit, 1.0 / adv)
    return cfg.dt_safety * min(limit, 0.5)


def step(
    state: State,
    params: ModelParams,
    mesh: Mesh,
    cfg: SchemeConfig,
    dt: float | None = None,
    w=None,
) -> State:
    """One forward-Euler step; dt defaults to ``stable_dt``.

    ``w`` are the face velocities of ``state.v`` (computed when omitted).
    Both u-terms are conservative with zero boundary flux, so the volume-
    weighted sum of u is preserved to rounding.  Flux differences vanish
    identically on constant fields, so the constant steady state u = v = c
    is reproduced bit-exactly.  The new state is not checked: ``run``
    classifies non-finite values and positivity loss (see module docstring).
    The new u and v are the rows of one array (``State.stacked``).
    """
    if params.chi != 0.0 and w is None:
        w = mesh.face_velocities(state.v, params.chi)
    if dt is None:
        dt = stable_dt(state, params, mesh, cfg, w)
    uv = state.uv()
    u, v = uv
    d = mesh.laplacian(uv)
    du, dv = d
    if params.chi != 0.0:
        du -= mesh.chemotactic_divergence(u, w)
    dv *= params.k
    dv -= v
    dv += u
    d *= dt
    d += uv
    return State.stacked(d, state.t + dt)


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
    bit-identical reports.
    """
    monitors = monitors if monitors is not None else MonitorConfig()
    initial.validate(mesh)
    monitors.validate(params.chi, params.k)

    rows = [compute_row(initial, mesh, monitors)]

    def emit(state: State) -> None:
        if state.t > rows[-1].t:
            rows.append(compute_row(state, mesh, monitors))

    max_u0 = float(initial.u.max())
    max_u_over_run = max_u0
    min_v_over_run = float(initial.v.min())
    v_range = min_v_over_run, float(initial.v.max())
    state = initial
    next_j = 1
    while True:
        if state.t >= cfg.t_end * (1.0 - _TREL):
            status = STATUS_COMPLETED
            break
        w = mesh.face_velocities(state.v, params.chi) if params.chi != 0.0 else None
        dt0 = stable_dt(state, params, mesh, cfg, w, v_range)
        if dt0 < cfg.dt_min:
            emit(state)
            status = STATUS_DT_COLLAPSE
            break
        t_target = min(next_j * cfg.output_interval, cfg.t_end)
        dt = min(dt0, t_target - state.t)
        new = step(state, params, mesh, cfg, dt, w)
        uv = new.uv()
        (min_u, min_v), (max_u, max_v) = uv.min(axis=1).tolist(), uv.max(axis=1).tolist()
        if not all(map(math.isfinite, (min_u, min_v, max_u, max_v))):
            state = new
            status = STATUS_BLOWUP
            break
        if min_u < 0.0 or min_v <= 0.0:
            status = STATUS_POSITIVITY_LOST
            break
        state = new
        v_range = min_v, max_v
        max_u_over_run = max(max_u_over_run, max_u)
        min_v_over_run = min(min_v_over_run, min_v)
        if max_u > cfg.blowup_factor * max_u0:
            emit(state)
            status = STATUS_BLOWUP
            break
        if abs(state.t - t_target) <= _TREL * max(1.0, t_target):
            state = State.stacked(uv, t_target)
            emit(state)
            if t_target == next_j * cfg.output_interval:
                next_j += 1
    return RunReport(
        status=status,
        t_final=state.t,
        max_u_over_run=max_u_over_run,
        min_v_over_run=min_v_over_run,
        series=rows,
    )
