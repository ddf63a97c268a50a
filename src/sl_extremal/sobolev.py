"""Sobolev-space metrics: the exact negative-order norm and distance.

The measures here are signed step functions plus finitely many signed point
masses (``StepPotential`` with either sign) -- exactly the differences that
arise between two admissible potentials or between a potential and its
singular limit.  The W^-1_2 norm is exact: the energy of the Riesz
representer, a closed-form sum over the cells with no grid and no quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from .potentials import StepPotential, _cells

__all__ = ["wminus1_norm", "wminus1_dist"]

# Taylor coefficients (4^k - 2)/(2k + 1)!, k = 12 down to 1, of
# g(L) = sinh(2L)/2 - 2 sinh L + L = L^3/3 + 7 L^5/60 + ...: the closed form
# cancels at small L, and these twelve terms are exact to rounding for L <= 1
_G_SERIES = [(4.0**k - 2.0) / math.factorial(2 * k + 1) for k in range(12, 0, -1)]


def wminus1_norm(f: StepPotential, grid_n: int | None = None) -> float:
    """Exact W^-1_2 norm ||f|| = ||u||_{W^1_2} of a signed step + delta measure.

    The Riesz representer u solves -u'' + u = f with u'(0) = u'(1) = 0: on a
    cell of height s, u - s is a combination of cosh and sinh, and u' jumps by
    -w at a mass of weight w.  u = u(0) cosh x + u_p, where u_p starts from
    u_p(0) = 0 and is carried across the cells as the prefix sums of the
    boosted states e^-x (u + u') and e^x (u - u'), on which a cell of height
    s acts by adding a forcing term alone; u(0) follows from u'(1) = 0.  The
    energy of a cell of width L, S = sinh L, C = cosh L, E = C - 1, is
    SC (u0^2 + u0'^2) + 2 S^2 u0 u0' - 2 s E (S u0 + C u0') + s^2 g(L) in the
    state (u0, u0') at its left end, with g by its Taylor series.  Heights and
    weights are scaled by a power of two 2^k >= their largest magnitude, so
    the energy neither overflows nor underflows at extreme scales of f; a norm
    beyond the float range raises ValueError.  ``grid_n`` is ignored; it is
    kept for callers that still pass one.
    """
    x, s, w = _cells(f)
    top = max(float(np.abs(s).max()), float(np.abs(w).max()))
    k = math.frexp(top)[1]
    s = np.ldexp(s, -k)
    w = np.ldexp(w, -k)

    length = np.diff(x)
    ex, emx = np.exp(x), np.exp(-x)
    # states right of each node, less the u(0) cosh x part:
    # P = e^-x (u + u'), Q = e^x (u - u'); a mass moves them by -w e^-x, w e^x
    dp, dq = -w * emx, w * ex
    dp[1:] += s * emx[:-1] * np.expm1(-length)
    dq[1:] += s * ex[:-1] * np.expm1(length)
    p, q = np.cumsum(dp), np.cumsum(dq)
    u0 = (q[-1] / math.e - p[-1] * math.e) / (2.0 * math.sinh(1.0))  # u'(1) = 0
    p = ex[:-1] * (u0 + p[:-1])
    q = emx[:-1] * (u0 + q[:-1])
    u, du = 0.5 * (p + q), 0.5 * (p - q)

    sh = np.sinh(length)
    e = 2.0 * np.sinh(0.5 * length) ** 2
    ch = 1.0 + e
    g = np.polyval(_G_SERIES, length * length) * length**3
    energy = (sh * ch * (u * u + du * du) + 2.0 * sh * sh * u * du
              - 2.0 * s * e * (sh * u + ch * du) + s * s * g)
    val = float(energy.sum())
    try:
        return math.ldexp(math.sqrt(max(val, 0.0)), k)
    except OverflowError:
        raise ValueError("W^-1 norm exceeds the float range") from None


def wminus1_dist(f: StepPotential, g: StepPotential, grid_n: int | None = None) -> float:
    """Exact W^-1_2 distance ||f - g||, with exact measure subtraction;
    ``grid_n`` is ignored, as in ``wminus1_norm``."""
    return wminus1_norm(f - g)
