"""Closed-form exponent calculus for the singular-sensitivity chemotaxis system

    u_t = lap(u) - chi * div(u/v * grad v),   v_t = k * lap(v) - v + u

on a bounded domain in R^n with Neumann boundary data.  Everything here is a
pure function of (chi, k, n) and of the Lebesgue exponents p, r, q that drive
the boundedness machinery:

* ``chi_star(k, n)``     -- the sensitivity threshold
                            -(k-1)/2 + sqrt((k-1)^2 + 8k/n)/2,
* ``p_max(chi, k)``      -- the largest usable moment exponent
                            k / [chi^2 + chi(k-1)]_+  (+inf when the positive
                            part vanishes),
* ``admissible_window``  -- the open r-interval on which the quadratic
                            controlling d/dt of  integral(u^p v^-r)  is
                            negative,
* ``bootstrap``          -- the iteration that lifts integrability of u from
                            a small starting exponent past n/2.

All functions are deterministic and side-effect-free; values are plain floats
(with ``math.inf`` as the explicit infinity marker) and small frozen
dataclasses.  Strict inequalities at admissibility boundaries are enforced
with a relative tolerance of ``BOUNDARY_RTOL``: anything within rounding
distance of a boundary counts as the boundary and is rejected.  This module
alone reads ``BOUNDARY_RTOL``; callers outside it ask for a verdict
(``is_below_threshold``) rather than apply the band themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NotApplicable, Rule, WindowUndefined, check_rules

# Relative width of the "this is the boundary" band around strict-inequality
# thresholds (p = p_max, x = n/2, chi = chi_star).
BOUNDARY_RTOL = 1e-12


# The domains of the formulas below, and of ModelParams (k and n)
_K = Rule(lambda v: v > 0.0, "k > 0", float)
_N = Rule(lambda v: v >= 2, "n >= 2", int)
_N3 = Rule(lambda v: v >= 3, "n >= 3", int)
_P = Rule(lambda v: v > 1.0, "p > 1")
_X = Rule(lambda v: v >= 1.0, "x >= 1")
_RATIO_PAIR = Rule(lambda pair: 0.0 < pair[0] <= pair[1] < 1.0, "0 < c0 <= c_sup < 1")
THETA = Rule(lambda v: 0.0 < v < 1.0, "0 < theta < 1")  # bootstrap's selection fraction


def _check_chi_k(chi: float, k: float) -> None:
    if not (chi > 0.0 and math.isfinite(chi)):
        raise DomainError(f"chi must be positive and finite, got {chi}")
    _K.check(k)


@dataclass(frozen=True)
class ModelParams:
    """The model knobs: sensitivity chi, chemical diffusivity k, dimension n.

    chi = 0 is admitted (the chemotaxis term switches off and u obeys the
    heat equation); the threshold/window functions themselves require
    chi > 0.
    """

    chi: float
    k: float
    n: int

    RULES = {"chi": Rule(lambda v: v >= 0.0, "chi >= 0", float), "k": _K, "n": _N}

    def __post_init__(self):
        check_rules(self.RULES, vars(self))


def chi_star(k: float, n: int) -> float:
    """Sensitivity threshold -(k-1)/2 + sqrt((k-1)^2 + 8k/n) / 2.

    Below this value the moment machinery applies for every k > 0.  Exact
    identities: chi_star(k, 2) == 1 for all k, chi_star(1, n) == sqrt(2/n);
    limits k -> 0 and k -> inf give 1 and 2/n.

    For k > 1 the textbook form subtracts two nearly equal numbers, so the
    algebraically identical quotient b / (2(a + sqrt(a^2 + b))) is used there
    (a = k - 1, b = 8k/n).
    """
    _K.check(k)
    _N.check(n)
    a = k - 1.0
    b = 8.0 * k / n
    if a > 0.0:
        return b / (2.0 * (a + math.sqrt(a * a + b)))
    return 0.5 * (-a + math.sqrt(a * a + b))


def is_below_threshold(chi: float, k: float, n: int) -> bool:
    """True iff chi < chi_star(k, n) strictly, boundary band excluded.

    chi has the domain of ``ModelParams`` (finite, chi >= 0): chi = 0 is
    below every threshold.  ``chi_star`` checks k and n.
    """
    ModelParams.RULES["chi"].check(chi)
    return chi < chi_star(k, n) * (1.0 - BOUNDARY_RTOL)


def _require_below_threshold(chi: float, k: float, n: int) -> None:
    """Raise NotApplicable unless ``is_below_threshold(chi, k, n)``."""
    if not is_below_threshold(chi, k, n):
        raise NotApplicable(f"chi={chi} is not below chi_star(k={k}, n={n})={chi_star(k, n):.12g}")


def p_max(chi: float, k: float) -> float:
    """Largest admissible moment exponent k / [chi^2 + chi(k-1)]_+.

    When chi^2 + chi(k-1) <= 0 (possible only for k < 1 with chi <= 1 - k)
    there is no upper restriction and ``math.inf`` is returned.
    """
    _check_chi_k(chi, k)
    denom = chi * chi + chi * (k - 1.0)
    if denom <= 0.0:
        return math.inf
    return k / denom


def center_ratio(p: float, chi: float, k: float) -> float:
    """The window-center ratio (p*chi*(1-k) + 2k) / (p*(1-k)^2 + 4k).

    The admissible r-window for exponent p is centered at
    (p - 1) * center_ratio(p).  For admissible p the value lies in (0, 1);
    it is identically 1/2 when k = 1 or when 2*chi = 1 - k.  p = 1 is
    accepted as the continuous extension of the open interval endpoint.
    """
    _check_chi_k(chi, k)
    if not p >= 1.0:
        raise DomainError(f"exponent p must be >= 1, got {p}")
    return (p * chi * (1.0 - k) + 2.0 * k) / (p * (1.0 - k) ** 2 + 4.0 * k)


def center_ratio_trend(chi: float, k: float) -> str:
    """Monotonicity of p -> center_ratio(p): 'constant' | 'increasing' | 'decreasing'.

    The derivative has the sign of 2k(1-k)(2chi - (1-k)); it vanishes exactly
    when k = 1 or 2chi = 1 - k.
    """
    _check_chi_k(chi, k)
    sign = 2.0 * k * (1.0 - k) * (2.0 * chi - (1.0 - k))
    if sign == 0.0:
        return "constant"
    return "increasing" if sign > 0.0 else "decreasing"


@dataclass(frozen=True)
class RatioBounds:
    """Infimum c0 and supremum c_sup of the center ratio over p in (1, n/2]."""

    c0: float
    c_sup: float

    def __post_init__(self):
        _RATIO_PAIR.check((self.c0, self.c_sup))


def center_ratio_bounds(chi: float, k: float, n: int) -> RatioBounds:
    """Extremes of the center ratio over the exponent range (1, n/2], n >= 3.

    Because the ratio is monotone (or constant) in p, the infimum and
    supremum sit at the endpoints p = 1 (continuous extension) and p = n/2.
    Requires chi below chi_star(k, n); then both bounds lie in (0, 1), and
    they coincide at 1/2 whenever k = 1.
    """
    _N3.check(n)
    _require_below_threshold(chi, k, n)
    at_one = center_ratio(1.0, chi, k)
    at_half_n = center_ratio(n / 2.0, chi, k)
    return RatioBounds(min(at_one, at_half_n), max(at_one, at_half_n))


def admissibility_quadratic(r: float, p: float, chi: float, k: float) -> float:
    """Value of  p*((p-1)*chi + r + r*k)^2 / (4(p-1)) - p*r*chi - r*(r+1)*k.

    Negativity of this expression in r is what makes integral(u^p v^-r)
    controllable; ``admissible_window`` returns exactly its negativity
    interval.
    """
    _check_chi_k(chi, k)
    _P.check(p)
    s = (p - 1.0) * chi + r * (1.0 + k)
    return p * s * s / (4.0 * (p - 1.0)) - p * r * chi - r * (r + 1.0) * k


def admissibility_coeffs(p: float, chi: float, k: float) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the expanded quadratic 4(p-1)*f(r) = a r^2 + b r + c.

    a = p(k-1)^2 + 4k,  b = 2p(p-1)chi(k-1) - 4(p-1)k,  c = p(p-1)^2 chi^2.
    """
    _check_chi_k(chi, k)
    _P.check(p)
    a = p * (k - 1.0) ** 2 + 4.0 * k
    b = 2.0 * p * (p - 1.0) * chi * (k - 1.0) - 4.0 * (p - 1.0) * k
    c = p * (p - 1.0) ** 2 * chi * chi
    return a, b, c


def admissibility_discriminant(p: float, chi: float, k: float) -> float:
    """The bracket  k^2 - p*chi*k*(k-1) - p*chi^2*k.

    The full discriminant of the expanded quadratic equals
    16 (p-1)^2 * (this value); it is positive exactly when p < p_max(chi, k).
    """
    _check_chi_k(chi, k)
    _P.check(p)
    return k * k - p * chi * k * (k - 1.0) - p * chi * chi * k


@dataclass(frozen=True)
class AdmissibleWindow:
    """Open interval (r_minus, r_plus) where the admissibility quadratic is negative."""

    p: float
    r_minus: float
    r_plus: float

    def __post_init__(self):
        if not self.r_minus < self.r_plus:
            raise DomainError(f"degenerate window ({self.r_minus}, {self.r_plus})")
        if not self.r_minus > 0.0:
            raise DomainError(f"window lower edge must be positive, got {self.r_minus}")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.r_minus + self.r_plus)

    def contains(self, r: float) -> bool:
        return self.r_minus < r < self.r_plus


def admissible_window(p: float, chi: float, k: float) -> AdmissibleWindow:
    """Roots r_-(p) < r_+(p) of the admissibility quadratic.

    r_{+/-}(p) = (p-1) * [ (p chi (1-k) + 2k)  +/-  2 sqrt(D) ] / (p(k-1)^2 + 4k)
    with D = admissibility_discriminant(p, chi, k).  The midpoint equals
    (p-1) * center_ratio(p).

    Raises WindowUndefined when D <= 0 up to rounding, i.e. when p is not
    strictly below p_max(chi, k) (boundary band included).
    """
    disc = admissibility_discriminant(p, chi, k)
    # disc = k * (chi^2 + chi(k-1)) * (p_max - p), so disc <= tol * k^2 is the
    # same as p within the relative boundary band of p_max.
    if disc <= BOUNDARY_RTOL * k * k:
        raise WindowUndefined(
            f"no admissible window: p={p} is not strictly below p_max(chi={chi}, k={k})"
        )
    denom = p * (k - 1.0) ** 2 + 4.0 * k
    center = (p - 1.0) * (p * chi * (1.0 - k) + 2.0 * k) / denom
    half = (p - 1.0) * 2.0 * math.sqrt(disc) / denom
    return AdmissibleWindow(p, center - half, center + half)


def bootstrap_gain_quadratic(x: float, c0: float, c_sup: float, n: int) -> float:
    """The quadratic  2(1-c0)x^2 + (2c0 - n(c_sup - c0))x + n(c_sup - c0).

    It is the numerator of ``bootstrap_gain`` over the positive denominator
    (n - 2x)(1 - c0), so its positivity on (1, n/2] is what guarantees the
    bootstrap's upper bound exceeds the current exponent.  Value 2 at x = 1;
    value  n^2 (1 - c_sup)/2 + n c_sup  at x = n/2.  Positivity on (1, n/2]
    holds for every ratio pair arising from admissible (chi, k) with n <= 8;
    for n > 8 the sign is reported but nothing is asserted.
    """
    _RATIO_PAIR.check((c0, c_sup))
    _N3.check(n)
    _X.check(x)
    gap = c_sup - c0
    return 2.0 * (1.0 - c0) * x * x + (2.0 * c0 - n * gap) * x + n * gap


def bootstrap_gain(x: float, c0: float, c_sup: float, n: int) -> float:
    """Gain  next_p_upper(x) - x  of one bootstrap round, for x in (1, n/2].

    Returns ``math.inf`` at x = n/2 (within the boundary band), where the
    upper bound diverges.
    """
    _check_upper_args("x", x, _X, c0, c_sup, n)
    return _upper(x, c0, c_sup, n) - x


def next_p_upper(p_prev: float, c0: float, c_sup: float, n: int) -> float:
    """Upper bound for the next bootstrap exponent given the current one.

    F(p) = [ n((1-c_sup) p + c_sup - c0) + 2 c0 p ] / [ (n - 2p)(1 - c0) ],
    defined for 1 < p < n/2 and guaranteed > p there (for n <= 8).  Returns
    ``math.inf`` at p = n/2 (boundary band); rejects p <= 1 and p > n/2.
    """
    _check_upper_args("p_prev", p_prev, _P, c0, c_sup, n)
    return _upper(p_prev, c0, c_sup, n)


def _check_upper_args(name: str, x: float, rule: Rule, c0: float, c_sup: float, n: int) -> None:
    """The checks of ``bootstrap_gain`` and ``next_p_upper``: the ratio pair,
    n >= 3, ``rule`` on the exponent ``x`` (called ``name``), and x <= n/2
    up to the boundary band."""
    _RATIO_PAIR.check((c0, c_sup))
    _N3.check(n)
    rule.check(x)
    half_n = n / 2.0
    if x > half_n * (1.0 + BOUNDARY_RTOL):
        raise DomainError(f"{name} must be <= n/2 = {half_n}, got {x}")


def _upper(x: float, c0: float, c_sup: float, n: int) -> float:
    """F(x) of ``next_p_upper`` for checked arguments; ``math.inf`` within
    the boundary band below n/2."""
    if x >= n / 2.0 * (1.0 - BOUNDARY_RTOL):
        return math.inf
    num = n * ((1.0 - c_sup) * x + (c_sup - c0)) + 2.0 * c0 * x
    return num / ((n - 2.0 * x) * (1.0 - c0))


@dataclass(frozen=True)
class BootstrapStep:
    """One bootstrap round: exponent p, window midpoint r, norm exponent q, and
    the finite upper bound that p was selected under."""

    p: float
    r: float
    q: float
    upper_used: float


@dataclass(frozen=True)
class BootstrapChain:
    steps: tuple[BootstrapStep, ...]
    terminated: bool
    final_q: float | None


def _q_midpoint(p: float, r: float, n: int) -> float:
    """Midpoint of (1, min(p, n(p-r)/[n-2r]_+)), the usable norm exponent."""
    if n - 2.0 * r > 0.0:
        bound = n * (p - r) / (n - 2.0 * r)
    else:
        bound = math.inf
    return 0.5 * (1.0 + min(p, bound))


def bootstrap(params: ModelParams, theta: float = 0.5, max_steps: int = 50) -> BootstrapChain:
    """Run the exponent-lifting iteration until some p_l exceeds n/2.

    Selection rule: within each admissible open interval the new exponent is
    placed at the fraction ``theta`` of the way from the current value to the
    (finite) upper bound; r_l is pinned to the window midpoint
    (p_l - 1) * center_ratio(p_l) and q_l to the midpoint of its interval.
    Infinite upper bounds are capped at max(2n, 2 p + 2), which cannot affect
    termination (any finite value above n/2 ends the chain).

    Starting bound: min(p_max, (n(1-c0) + 2 c0) / ((n-2)(1-c0))) for n >= 3;
    for n = 2 the auxiliary bound is vacuous and p_max alone is used, so the
    chain terminates in a single step (p_0 > 1 = n/2).

    Raises NotApplicable when chi is not strictly below chi_star(k, n).
    Returns ``terminated=False`` (no exception) when max_steps is exhausted,
    which is never expected for n <= 8 and theta >= 1/2.
    """
    chi, k, n = params.chi, params.k, params.n
    THETA.check(theta)
    if max_steps < 1:
        raise DomainError(f"max_steps must be >= 1, got {max_steps}")
    _require_below_threshold(chi, k, n)

    pm = p_max(chi, k)
    half_n = n / 2.0
    if n >= 3:
        bounds = center_ratio_bounds(chi, k, n)
        start_bound = (n * (1.0 - bounds.c0) + 2.0 * bounds.c0) / (
            (n - 2.0) * (1.0 - bounds.c0)
        )
        upper = min(pm, start_bound)
    else:
        bounds = None
        upper = pm
    if math.isinf(upper):
        upper = max(2.0 * n, 4.0)

    steps: list[BootstrapStep] = []
    p = 1.0 + theta * (upper - 1.0)
    for _ in range(max_steps):
        r = (p - 1.0) * center_ratio(p, chi, k)
        steps.append(BootstrapStep(p=p, r=r, q=_q_midpoint(p, r, n), upper_used=upper))
        if p > half_n:
            return BootstrapChain(tuple(steps), True, 0.5 * (half_n + p))
        upper = min(pm, next_p_upper(p, bounds.c0, bounds.c_sup, n))
        if math.isinf(upper):
            upper = max(2.0 * n, 2.0 * p + 2.0)
        p = p + theta * (upper - p)
    return BootstrapChain(tuple(steps), False, None)
