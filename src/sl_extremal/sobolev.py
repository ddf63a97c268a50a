"""Sobolev-space metrics: a discrete negative-order norm and distance.

The measures here are signed step functions plus finitely many signed point
masses (``StepPotential`` with either sign) -- exactly the differences that
arise between two admissible potentials or between a potential and its
singular limit.  The negative norm is computed by Riesz representation inside
the space of continuous piecewise linear functions on a uniform grid: one
symmetric tridiagonal solve replaces the supremum over the unit ball, and the
value increases toward the true norm as the grid is refined.
"""

from __future__ import annotations

import math

import numpy as np

from .potentials import StepPotential, _cut_elements

__all__ = ["wminus1_norm", "wminus1_dist"]


def _hat_loads(f: StepPotential, grid: np.ndarray) -> np.ndarray:
    """<f, phi_i> for every hat function phi_i on the uniform grid, in O(N + K).

    An uncut element of height s gets s*h/2 at each node; only the pieces
    of the cut elements (``_cut_elements``) are integrated one by one.
    """
    n = grid.size
    h = grid[1] - grid[0]
    inner, elem, _, ta, tb, s = _cut_elements(f.breakpoints, f.heights, grid, h)
    inner *= 0.5 * h
    b = np.zeros(n)
    b[:-1] += inner
    b[1:] += inner

    load_right = s * h * 0.5 * (tb**2 - ta**2)
    np.add.at(b, elem, s * h * (tb - ta) - load_right)
    np.add.at(b, elem + 1, load_right)
    with np.errstate(over="ignore"):  # an overflowing load is the caller's to reject
        for site, w in f.deltas:
            j = min(int(np.searchsorted(grid, site, side="right")) - 1, n - 2)
            j = max(j, 0)
            t = (site - grid[j]) / h
            b[j] += w * (1.0 - t)
            b[j + 1] += w * t
    return b


def wminus1_norm(f: StepPotential, grid_n: int) -> float:
    """Discrete negative-order Sobolev norm by Riesz representation.

    Solves (u, v)_{W^1_2} = <f, v> for all piecewise-linear v on a uniform
    grid with grid_n intervals (natural boundary conditions, one tridiagonal
    LDL^T solve, LAPACK dptsv) and returns sqrt(<f, u>).  This equals the
    supremum of <f, z> over the unit ball of the discrete space, hence
    approximates the true norm from below as grid_n grows.  The loads are
    scaled by a power of two 2^k >= max|b| for the solve, so the energy
    neither under- nor overflows; a norm beyond the float range raises
    ValueError.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64")
    n = int(grid_n) + 1
    grid = np.linspace(0.0, 1.0, n)
    h = 1.0 / grid_n

    diag = np.full(n, 2.0 / h + 2.0 * h / 3.0)
    diag[0] = diag[-1] = 1.0 / h + h / 3.0
    off = np.full(n - 1, -1.0 / h + h / 6.0)

    b = _hat_loads(f, grid)
    top = float(max(b.max(), -b.min()))  # a NaN load makes b.max() NaN
    if not math.isfinite(top):
        raise ValueError("W^-1 norm: the load vector overflows")
    k = math.frexp(top)[1]
    np.ldexp(b, -k, out=b)
    from scipy.linalg.lapack import dptsv  # imported late, as in lambda1_fd

    u = dptsv(diag, off, b, overwrite_d=1, overwrite_e=1)[2]
    val = float(np.dot(b, u))
    try:
        return math.ldexp(math.sqrt(max(val, 0.0)), k)
    except OverflowError:
        raise ValueError("W^-1 norm exceeds the float range") from None


def wminus1_dist(f: StepPotential, g: StepPotential, grid_n: int) -> float:
    """Negative-norm distance ||f - g|| with exact measure subtraction."""
    return wminus1_norm(f - g, grid_n)
