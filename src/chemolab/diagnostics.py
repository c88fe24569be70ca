"""Norms, moment functionals, and trajectory inequality checks.

A run is summarized by one ``TimeSeriesRow`` per output time holding the
mass, extremes, the tracked L^q norms of u, the moment functionals

    E_{p,r} = integral( u^p v^-r ),      D_{p,r} = integral( u^(p+1) v^-(r+1) ),

and the tracked L^s norms of v.  For (p, r) with r inside the admissible
window, the continuous system satisfies

    dE/dt <= r E - r D        (and hence E(t) <= E(0) exp(r t)),

which this module tests along computed trajectories with explicit,
tolerance-carrying discrete analogues.  The unknown constants of the
underlying estimates are never estimated; every check is either an envelope
(Gronwall) or a ratio monitor (heat smoothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    ExponentConditionError,
    InsufficientRows,
    PositivityViolation,
)
from .exponents import admissible_window
from .meshes import Mesh, State


@dataclass(frozen=True)
class MonitorConfig:
    """What to record per output row.

    ``pr_pairs`` must be admissible for the model's (chi, k): p > 1 and r
    strictly inside the window of p (checked by ``validate``).  For every
    pair the v-norm of order p - r is tracked as well, since it is the
    quantity the moment bound for (p, r) leans on.
    """

    q_list: tuple[float, ...] = ()
    pr_pairs: tuple[tuple[float, float], ...] = ()
    tolerance_rel: float = 0.05

    def __post_init__(self):
        if not self.tolerance_rel > 0.0:
            raise DomainError(f"tolerance_rel must be positive, got {self.tolerance_rel}")
        for q in self.q_list:
            if not 1.0 <= q < math.inf:
                raise DomainError(f"norm orders must be finite and >= 1, got {q}")

    @property
    def v_orders(self) -> tuple[float, ...]:
        return tuple(sorted({p - r for p, r in self.pr_pairs}))

    def validate(self, chi: float, k: float) -> "MonitorConfig":
        for p, r in self.pr_pairs:
            w = admissible_window(p, chi, k)
            if not w.contains(r):
                raise DomainError(
                    f"(p, r) = ({p}, {r}) is outside the admissible window "
                    f"({w.r_minus:.12g}, {w.r_plus:.12g}) for chi={chi}, k={k}"
                )
        return self


@dataclass
class TimeSeriesRow:
    t: float
    mass: float
    min_v: float
    max_u: float
    lq_norms: dict[float, float] = field(default_factory=dict)
    energies: dict[tuple[float, float], float] = field(default_factory=dict)
    dissipations: dict[tuple[float, float], float] = field(default_factory=dict)
    v_norms: dict[float, float] = field(default_factory=dict)


def lq_norm(f: np.ndarray, q: float, mesh: Mesh) -> float:
    """(integral |f|^q)^(1/q) with cell volumes as weights; q = 1 is the mass."""
    if not q >= 1.0:
        raise DomainError(f"norm order must be >= 1, got {q}")
    return float(mesh.integrate(f**q) ** (1.0 / q))


def energy(state: State, p: float, r: float, mesh: Mesh) -> float:
    """Moment functional E_{p,r} = integral( u^p v^-r )."""
    if (state.v <= 0.0).any():
        raise PositivityViolation("chemical field must be strictly positive")
    return float(mesh.integrate(state.u**p * state.v ** (-r)))


def dissipation(state: State, p: float, r: float, mesh: Mesh) -> float:
    """Dissipation partner D_{p,r} = integral( u^(p+1) v^-(r+1) )."""
    if (state.v <= 0.0).any():
        raise PositivityViolation("chemical field must be strictly positive")
    return float(mesh.integrate(state.u ** (p + 1.0) * state.v ** (-(r + 1.0))))


def compute_row(state: State, mesh: Mesh, monitors: MonitorConfig) -> TimeSeriesRow:
    """One row of the monitored quantities; the values of ``lq_norm``,
    ``energy`` and ``dissipation``, to the bit.

    Each distinct power of u is taken once per row (the orders q, p and
    p + 1 overlap), and v > 0 is checked once when there are (p, r) pairs.
    """
    u, v = state.u, state.v
    u_pow = _Powers(u)
    row = TimeSeriesRow(
        t=state.t,
        mass=mesh.integrate(u),
        min_v=float(v.min()),
        max_u=float(u.max()),
    )
    for q in monitors.q_list:
        row.lq_norms[q] = float(mesh.integrate(u_pow[q]) ** (1.0 / q))
    if monitors.pr_pairs and (v <= 0.0).any():
        raise PositivityViolation("chemical field must be strictly positive")
    for p, r in monitors.pr_pairs:
        row.energies[(p, r)] = float(mesh.integrate(u_pow[p] * v ** (-r)))
        row.dissipations[(p, r)] = float(mesh.integrate(u_pow[p + 1.0] * v ** (-(r + 1.0))))
    for s in monitors.v_orders:
        row.v_norms[s] = lq_norm(v, s, mesh)
    return row


class _Powers(dict):
    """``f ** e`` for each exponent e asked for, computed on first use."""

    def __init__(self, f: np.ndarray):
        super().__init__()
        self.f = f

    def __missing__(self, e):
        power = self[e] = self.f**e
        return power


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of a trajectory check; ``worst`` is the extreme statistic seen."""

    passed: bool
    worst: float


def gronwall_check(
    series: list[TimeSeriesRow], pair: tuple[float, float], tol: float = 0.05
) -> CheckVerdict:
    """Envelope check E(t_j) <= E(t_0) exp(r (t_j - t_0)) (1 + tol).

    ``worst`` is the largest ratio E(t_j) / (E(t_0) exp(r (t_j - t_0))).
    """
    if len(series) < 1:
        raise InsufficientRows("need at least one row")
    _, r = pair
    e0, t0 = series[0].energies[pair], series[0].t
    worst = 0.0
    for row in series:
        bound = e0 * math.exp(r * (row.t - t0))
        if bound == 0.0:
            if row.energies[pair] != 0.0:
                return CheckVerdict(False, math.inf)
            continue
        worst = max(worst, row.energies[pair] / bound)
    return CheckVerdict(worst <= 1.0 + tol, worst)


def dissipation_check(
    series: list[TimeSeriesRow], pair: tuple[float, float], tol: float = 0.05
) -> CheckVerdict:
    """Discrete form of  dE/dt <= r E - r D  on interior output rows.

    The time derivative is the centered difference across neighboring rows;
    the comparison carries a relative-plus-absolute slack,

        (E_{j+1} - E_{j-1}) / (t_{j+1} - t_{j-1})
            <= r E_j - r D_j + tol (|r E_j| + |r D_j| + E_0),

    since the continuous inequality cannot hold exactly for a discretized
    trajectory.  ``worst`` is the largest excess normalized by the slack
    scale, so the verdict passes iff worst <= tol.
    """
    if len(series) < 3:
        raise InsufficientRows(f"need at least 3 rows, got {len(series)}")
    _, r = pair
    scale = abs(series[0].energies[pair])
    worst = -math.inf
    for j in range(1, len(series) - 1):
        prev_row, row, next_row = series[j - 1], series[j], series[j + 1]
        lhs = (next_row.energies[pair] - prev_row.energies[pair]) / (next_row.t - prev_row.t)
        re = r * row.energies[pair]
        rd = r * row.dissipations[pair]
        denom = abs(re) + abs(rd) + scale
        excess = lhs - (re - rd)
        if denom == 0.0:  # identically-zero functionals: only growth can fail
            worst = max(worst, math.inf if excess > 0.0 else 0.0)
        else:
            worst = max(worst, excess / denom)
    return CheckVerdict(worst <= tol, worst)


def min_v_floor_check(series: list[TimeSeriesRow], tol_rel: float = 1e-8) -> CheckVerdict:
    """Pointwise-in-time comparison min v(t) >= exp(-t) min v(0) - tol.

    ``worst`` is the most negative margin min_v(t_j) - exp(-(t_j - t_0)) min_v(t_0),
    and the slack is tol_rel * min_v(t_0).
    """
    if len(series) < 1:
        raise InsufficientRows("need at least one row")
    v0, t0 = series[0].min_v, series[0].t
    worst = math.inf
    for row in series:
        worst = min(worst, row.min_v - math.exp(-(row.t - t0)) * v0)
    return CheckVerdict(worst >= -tol_rel * v0, worst)


def smoothing_ratio(
    series: list[TimeSeriesRow], p_v: float, q_u: float, n: int
) -> list[float]:
    """Per row: ||v||_{p_v} / (1 + running sup of ||u||_{q_u}).

    The heat-smoothing estimate bounds this ratio by an unknowable constant,
    so the contract is monitoring only.  Requires 1 <= q_u <= p_v and the
    exponent condition (1/q_u - 1/p_v) * n/2 < 1.
    """
    if not 1.0 <= q_u <= p_v:
        raise ExponentConditionError(f"need 1 <= q_u <= p_v, got q_u={q_u}, p_v={p_v}")
    if (1.0 / q_u - 1.0 / p_v) * n / 2.0 >= 1.0:
        raise ExponentConditionError(
            f"(1/{q_u} - 1/{p_v}) * {n}/2 >= 1 violates the smoothing-exponent condition"
        )
    ratios = []
    running_sup = -math.inf
    for row in series:
        if q_u not in row.lq_norms or p_v not in row.v_norms:
            raise DomainError(
                f"series rows do not monitor ||u||_{q_u} and ||v||_{p_v}"
            )
        running_sup = max(running_sup, row.lq_norms[q_u])
        ratios.append(row.v_norms[p_v] / (1.0 + running_sup))
    return ratios
