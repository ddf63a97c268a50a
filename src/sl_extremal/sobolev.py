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

from .potentials import StepPotential

__all__ = ["wminus1_norm", "wminus1_dist"]


def _hat_loads(f: StepPotential, grid: np.ndarray) -> np.ndarray:
    """<f, phi_i> for every hat function phi_i on the uniform grid, in O(N + K).

    An element inside one cell of height s gets s*h/2 at each node.  Only the
    elements a breakpoint cuts are integrated piecewise: the piece of each
    cell in its first element and, if the cell reaches further, in its last.
    """
    n = grid.size
    h = grid[1] - grid[0]
    bp = f.breakpoints
    s = f.heights
    # first and last element of each cell
    es = np.clip(np.searchsorted(grid, bp[:-1], side="right") - 1, 0, n - 2)
    ee = np.clip(np.searchsorted(grid, bp[1:], side="left") - 1, 0, n - 2)
    uncut = np.ones(n - 1, dtype=bool)
    uncut[es] = uncut[ee] = False
    inner = np.zeros(n - 1)
    inner[uncut] = np.repeat(s * (0.5 * h), np.maximum(ee - es - 1, 0))
    b = np.append(inner, 0.0)
    b[1:] += inner

    far = ee > es
    cell = np.concatenate((np.arange(s.size), np.flatnonzero(far)))
    elem = np.concatenate((es, ee[far]))
    x0 = grid[elem]
    ta = (np.maximum(bp[cell], x0) - x0) / h
    tb = (np.minimum(bp[cell + 1], grid[elem + 1]) - x0) / h
    load_right = s[cell] * h * 0.5 * (tb**2 - ta**2)
    np.add.at(b, elem, s[cell] * h * (tb - ta) - load_right)
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
    top = float(np.max(np.abs(b)))
    if not math.isfinite(top):
        raise ValueError("W^-1 norm: the load vector overflows")
    k = math.frexp(top)[1]
    b = np.ldexp(b, -k)
    from scipy.linalg.lapack import dptsv  # imported late, as in lambda1_fd

    u = dptsv(diag, off, b)[2]
    val = float(np.dot(b, u))
    try:
        return math.ldexp(math.sqrt(max(val, 0.0)), k)
    except OverflowError:
        raise ValueError("W^-1 norm exceeds the float range") from None


def wminus1_dist(f: StepPotential, g: StepPotential, grid_n: int) -> float:
    """Negative-norm distance ||f - g|| with exact measure subtraction."""
    return wminus1_norm(f - g, grid_n)
