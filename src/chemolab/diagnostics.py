"""Norms, moment functionals, and trajectory inequality checks.

A run is summarized by a ``TimeSeries``: one row per output time holding the
mass, extremes, the tracked L^q norms of u, the moment functionals

    E_{p,r} = integral( u^p v^-r ),      D_{p,r} = integral( u^(p+1) v^-(r+1) ),

and the tracked L^s norms of v, stored as one flat float64 table.  For (p, r)
with r inside the admissible window, the continuous system satisfies

    dE/dt <= r E - r D        (and hence E(t) <= E(0) exp(r t)),

which this module tests along computed trajectories with explicit,
tolerance-carrying discrete analogues, reading whole columns of the table.
The unknown constants of the underlying estimates are never estimated; every
check is either an envelope (Gronwall) or a ratio monitor (heat smoothing).
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ExponentConditionError,
    InsufficientRows,
    PositivityViolation,
    Rule,
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

    RULES = {
        "q": Rule(lambda v: v >= 1.0, "q >= 1", float),  # each entry of q_list
        "tolerance_rel": Rule(lambda v: v > 0.0, "tolerance_rel > 0"),
    }

    def __post_init__(self):
        self.RULES["tolerance_rel"].check(self.tolerance_rel)
        self.RULES["q"].check(*self.q_list)

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


class TimeSeries:
    """The rows of one run as one flat float64 table, 8 bytes per value, in
    the column layout of ``monitors`` (a ``MonitorConfig``).

    ``names`` are the CSV names of the ``width`` columns: ``t, mass, min_v,
    max_u``, then ``||u||_q`` per q of ``q_list``, ``E`` and ``D`` per pair
    of ``pr_pairs`` and ``||v||_s`` per s of ``v_orders``.  ``index`` maps
    ``("u", q)``, ``("E", pair)``, ``("D", pair)`` and ``("v", s)`` to a
    column (the last, where a value repeats).  ``compute_row`` raises u and v
    to ``u_orders``, ``(q, 1/q)`` per norm, and ``pr_orders``, ``(p, -r,
    p + 1, -(r + 1))`` per pair, and appends the row to ``values``.  The
    checks read whole columns, each a new list of floats: ``t``, ``mass``,
    ``min_v``, ``max_u``, and ``lq_norm(q)``, ``energy(pair)``,
    ``dissipation(pair)`` and ``v_norm(s)``, which raise ``DomainError`` for
    what the series does not monitor.  ``len`` is the row count.
    """

    __slots__ = ("monitors", "names", "width", "index", "u_orders", "pr_orders", "v_orders", "values")

    def __init__(self, monitors: MonitorConfig):
        q_list, pr_pairs = monitors.q_list, monitors.pr_pairs
        self.monitors, self.v_orders = monitors, monitors.v_orders
        for s in self.v_orders:
            if not MonitorConfig.RULES["q"].test(s):
                raise DomainError(f"norm order must be >= 1, got {s}")
        names = ["t", "mass", "min_v", "max_u"] + [f"u_Lq_{q:.12g}" for q in q_list]
        for p, r in pr_pairs:
            names += [f"E_{p:.12g}_{r:.12g}", f"D_{p:.12g}_{r:.12g}"]
        names += [f"v_L{s:.12g}" for s in self.v_orders]
        self.names, self.width = names, len(names)
        keys = [("u", q) for q in q_list] + [(kind, pair) for pair in pr_pairs for kind in "ED"]
        keys += [("v", s) for s in self.v_orders]
        self.index = {key: i for i, key in enumerate(keys, 4)}
        self.u_orders = tuple((q, 1.0 / q) for q in q_list)
        self.pr_orders = tuple((p, -r, p + 1.0, -(r + 1.0)) for p, r in pr_pairs)
        self.values = array("d")

    def __len__(self) -> int:
        return len(self.values) // self.width

    def column(self, index: int) -> list[float]:
        return self.values[index :: self.width].tolist()

    def _monitored(self, key) -> list[float]:
        index = self.index.get(key)
        if index is None:
            raise DomainError(f"the series does not monitor {key}")
        return self.column(index)

    @property
    def t(self) -> list[float]:
        return self.column(0)

    @property
    def mass(self) -> list[float]:
        return self.column(1)

    @property
    def min_v(self) -> list[float]:
        return self.column(2)

    @property
    def max_u(self) -> list[float]:
        return self.column(3)

    def lq_norm(self, q: float) -> list[float]:
        return self._monitored(("u", q))

    def energy(self, pair: tuple[float, float]) -> list[float]:
        return self._monitored(("E", pair))

    def dissipation(self, pair: tuple[float, float]) -> list[float]:
        return self._monitored(("D", pair))

    def v_norm(self, s: float) -> list[float]:
        return self._monitored(("v", s))


def lq_norm(f: np.ndarray, q: float, mesh: Mesh) -> float:
    """(integral |f|^q)^(1/q) with cell volumes as weights; q = 1 is the mass."""
    if not MonitorConfig.RULES["q"].test(q):
        raise DomainError(f"norm order must be >= 1, got {q}")
    return float(mesh.integrate(f**q) ** (1.0 / q))


def energy(state: State, p: float, r: float, mesh: Mesh) -> float:
    """Moment functional E_{p,r} = integral( u^p v^-r )."""
    if (state.v <= 0.0).any():
        raise PositivityViolation("chemical field must be strictly positive")
    return float(mesh.integrate(state.u**p * state.v ** (-r)))


def dissipation(state: State, p: float, r: float, mesh: Mesh) -> float:
    """Dissipation partner D_{p,r} = integral( u^(p+1) v^-(r+1) ) = E_{p+1,r+1}."""
    return energy(state, p + 1.0, r + 1.0, mesh)


def compute_row(state: State, mesh: Mesh, series, extremes=None):
    """Append the row of ``state`` to ``series`` (a ``TimeSeries``), in the
    series' own layout (its ``u_orders``, ``pr_orders`` and ``v_orders``):
    the values of ``lq_norm``, ``energy`` and ``dissipation``, to the bit.

    ``extremes`` is ``(min v, max u)`` of the state when the caller has them
    already (the stepping loop takes them from its post-step scan); without
    it the row reduces v and u itself.  Min and max are exact, so both give
    the same bits.

    Each distinct power of u is taken once per row (the orders q, p and
    p + 1 overlap), and the norm of order 1 is the mass: u**1.0 is u and
    x**1.0 == x.  When there are (p, r) pairs, v > 0 is read off the row's
    min v, which a NaN in v fails too; a row that raises is not appended.
    """
    integrate, u, v = mesh.integrate, state.u, state.v
    u_pow = _Powers(u)
    min_v, max_u = extremes if extremes is not None else (float(v.min()), float(u.max()))
    mass = integrate(u)
    row = [state.t, mass, min_v, max_u]
    for q, inverse in series.u_orders:
        row.append(mass if q == 1.0 else integrate(u_pow[q]) ** inverse)
    if series.pr_orders and not min_v > 0.0:
        raise PositivityViolation("chemical field must be strictly positive")
    for p, minus_r, p_next, minus_r_next in series.pr_orders:
        row.append(integrate(u_pow[p] * v**minus_r))
        row.append(integrate(u_pow[p_next] * v**minus_r_next))
    for s in series.v_orders:  # lq_norm(v, s, mesh), inlined; TimeSeries checked s >= 1
        row.append(integrate(v**s) ** (1.0 / s))
    series.values.extend(row)


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


def gronwall_check(series: TimeSeries, pair: tuple[float, float], tol: float = 0.05) -> CheckVerdict:
    """Envelope check E(t_j) <= E(t_0) exp(r (t_j - t_0)) (1 + tol).

    ``worst`` is the largest ratio E(t_j) / (E(t_0) exp(r (t_j - t_0))).
    """
    if len(series) < 1:
        raise InsufficientRows("need at least one row")
    _, r = pair
    times, energies = series.t, series.energy(pair)
    e0, t0 = energies[0], times[0]
    worst = 0.0
    for t, e in zip(times, energies):
        bound = e0 * math.exp(r * (t - t0))
        if bound == 0.0:
            if e != 0.0:
                return CheckVerdict(False, math.inf)
            continue
        worst = max(worst, e / bound)
    return CheckVerdict(worst <= 1.0 + tol, worst)


def dissipation_check(series: TimeSeries, pair: tuple[float, float], tol: float = 0.05) -> CheckVerdict:
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
    times, energies, dissipations = series.t, series.energy(pair), series.dissipation(pair)
    scale = abs(energies[0])
    worst = -math.inf
    for j in range(1, len(times) - 1):
        lhs = (energies[j + 1] - energies[j - 1]) / (times[j + 1] - times[j - 1])
        re = r * energies[j]
        rd = r * dissipations[j]
        denom = abs(re) + abs(rd) + scale
        excess = lhs - (re - rd)
        if denom == 0.0:  # identically-zero functionals: only growth can fail
            worst = max(worst, math.inf if excess > 0.0 else 0.0)
        else:
            worst = max(worst, excess / denom)
    return CheckVerdict(worst <= tol, worst)


# The slack of the discrete floor, in ulps of min v(0) per accepted step: a
# step rounds v + dt (k lap v - v + u) a few times, and the product of
# (1 - dt) twice.
FLOOR_ULPS_PER_STEP = 4.0


def min_v_floor_check(
    series: TimeSeries, tol_rel: float = 1e-8, floor_factors=None, steps: int = 0
) -> CheckVerdict:
    """Pointwise-in-time comparison of min v with a floor.

    Without ``floor_factors``, the continuum floor of the PDE:
    min v(t) >= exp(-t) min v(0) - tol_rel * min v(0).

    With ``floor_factors`` (``RunReport.floor_factors``: per row, the product
    F_j of (1 - dt) over the accepted steps before it), the floor that the
    explicit scheme keeps: each step gives v_i' = (1 - dt - dt k D_i) v_i +
    dt k sum_f T_f v_nbr(f) + dt u_i with T_f >= 0 summing to D_i, so
    min v' >= (1 - dt) min v under the positivity condition, and
    min v(t_j) >= F_j min v(0).  F_j lies below exp(-t_j), by about
    t_j dt / 2.  The slack is rounding: ``FLOOR_ULPS_PER_STEP`` ulps of
    min v(0) per accepted step, ``steps`` being the run's count (at least
    any row's).

    ``worst`` is the most negative margin min_v(t_j) - floor_j.
    """
    if len(series) < 1:
        raise InsufficientRows("need at least one row")
    times, min_v = series.t, series.min_v
    v0, t0 = min_v[0], times[0]
    if floor_factors is None:
        floors = [math.exp(-(t - t0)) * v0 for t in times]
        slack = tol_rel * v0
    else:
        if len(floor_factors) != len(min_v):
            raise DomainError(f"need one floor factor per row, got {len(floor_factors)} for {len(min_v)}")
        floors = [f * v0 for f in floor_factors]
        slack = FLOOR_ULPS_PER_STEP * steps * sys.float_info.epsilon * v0
    worst = min(v - floor for v, floor in zip(min_v, floors))
    return CheckVerdict(worst >= -slack, worst)


def floor_gap(series: TimeSeries, floor_factors) -> float:
    """exp(-(t - t_0)) - F at the last row: how far the scheme's v floor
    factor F (see ``min_v_floor_check``) lies below the continuum one, the
    O(t dt) time error of explicit stepping."""
    return math.exp(-(series.t[-1] - series.t[0])) - floor_factors[-1]


def mass_drift(series: TimeSeries) -> float:
    """max_j |mass_j - mass_0| / mass_0 over the rows; 0 when every mass
    equals the first, a zero one included."""
    mass = series.mass
    mass0 = mass[0]
    drift = max(abs(m - mass0) for m in mass)
    if drift == 0.0:
        return 0.0
    return drift / mass0 if mass0 else math.inf


def smoothing_ratio(series: TimeSeries, p_v: float, q_u: float, n: int) -> list[float]:
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
    for u_norm, v_norm in zip(series.lq_norm(q_u), series.v_norm(p_v)):
        running_sup = max(running_sup, u_norm)
        ratios.append(v_norm / (1.0 + running_sup))
    return ratios
