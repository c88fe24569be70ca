"""A fixed reference computation, timed next to every chemolab invocation.

    python3 perfbench/calibrate.py <nx> <ny> <steps>

Runs ``steps`` forward-Euler steps of a donor-cell Keller-Segel scheme on an
nx-by-ny grid (ny = 1 gives a 1D grid) and prints the final u and v sums on
one line, then on a second line the ``time.monotonic()`` at which its imports
were done.  That ends its own set-up (interpreter start and numpy import),
which is most of chemolab's.

The scheme resembles chemolab's: two-point-flux Laplacians, an upwinded
taxis flux chi * u * grad(v) / v, a stability bound and a positivity check
in every step, all on small numpy arrays.  So it spends its time the way a
chemolab run does -- interpreter start, numpy import, per-call overhead and
array passes -- but its work never changes: it belongs to the benchmark,
not to the program under test.

run.py times it before and after each invocation, in a fresh process on the
same number of cores.  It divides the invocation's wall time by how much
slower than ``reference_s`` (workloads.py) this computation ran around it,
and its set-up time by how much slower than ``SETUP_REFERENCE_S`` this
computation's set-up ran.  See README.md, "Steadiness".
"""

import sys
import time

import numpy as np

READY = time.monotonic()

CHI = 0.5
K = 1.0


def _diff_flux(g: np.ndarray, axis: int, h: float) -> tuple[np.ndarray, tuple, tuple]:
    lo = [slice(None)] * g.ndim
    hi = [slice(None)] * g.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    lo, hi = tuple(lo), tuple(hi)
    return (g[hi] - g[lo]) / h, lo, hi


def laplacian(g: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(g)
    for axis in range(g.ndim):
        t, lo, hi = _diff_flux(g, axis, h * h)
        out[lo] += t
        out[hi] -= t
    return out


def taxis(u: np.ndarray, v: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """Divergence of the upwinded taxis flux, and the largest outflow rate."""
    out = np.zeros_like(u)
    rate = np.zeros_like(u)
    for axis in range(u.ndim):
        dv, lo, hi = _diff_flux(v, axis, h)
        w = CHI * dv / (0.5 * (v[hi] + v[lo]))
        flux = w * np.where(w > 0.0, u[lo], u[hi]) / h
        out[lo] += flux
        out[hi] -= flux
        rate[lo] += np.maximum(w, 0.0) / h
        rate[hi] += np.maximum(-w, 0.0) / h
    return out, float(rate.max())


def kernel(nx: int, ny: int, steps: int) -> tuple[float, float]:
    h = 2.0 / nx
    x = (np.arange(nx) + 0.5) * h - 1.0
    if ny == 1:
        r2 = x * x
    else:
        y = (np.arange(ny) + 0.5) * h - 1.0
        r2 = x[None, :] ** 2 + y[:, None] ** 2
    u = 1.0 + 1.5 * np.exp(-8.0 * r2)
    v = np.ones_like(u)
    diffusive = 1.0 / (max(1.0, K) * 2.0 * u.ndim / (h * h))
    for _ in range(steps):
        div, rate = taxis(u, v, h)
        dt = 0.4 * min(diffusive, 1.0 / rate if rate > 0.0 else diffusive, 0.5)
        u, v = u + dt * (laplacian(u, h) - div), v + dt * (K * laplacian(v, h) - v + u)
        if (u < 0.0).any() or (v <= 0.0).any():
            raise ArithmeticError("positivity lost")
    return float(u.sum()), float(v.sum())


if __name__ == "__main__":
    nx, ny, steps = (int(a) for a in sys.argv[1:4])
    print(*(repr(s) for s in kernel(nx, ny, steps)))
    print(repr(READY))
