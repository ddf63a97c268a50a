"""Exact references that the benchmark's check phase compares against.

For a piecewise-constant potential the Prufer angle theta (y = r sin theta,
y' = r cos theta) has a closed-form update on every cell of constant
c = lam + q (Pruess, SIAM J. Numer. Anal. 10, 1973; Pryce, "Numerical
Solution of Sturm-Liouville Problems", 1993):

* c > 0: the scaled angle phi with tan phi = sqrt(c) tan theta advances by
  exactly sqrt(c) * L;
* c <= 0: (y, y') maps linearly through cosh/sinh (or the straight line at
  c = 0); the solution vanishes at most once on the cell, which fixes the
  branch of the new angle.

A point mass w at x applies cot theta+ = cot theta- - w within the same
pi-period.  theta(1; lam) is strictly increasing in lam, so bracket doubling
plus Brent's method gives lambda_1 to rounding.  Nothing here imports the
package under test: potentials are passed as plain sequences.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

__all__ = ["lambda1", "pnorm_fsum"]


def _cells_of(breakpoints, heights, deltas=()):
    """Split [0, 1] at breakpoints and delta sites.

    Returns (cells, w0): ``cells`` is a list of (length, height, w_right)
    where w_right is the point mass at the cell's right end (0 if none), and
    ``w0`` is the point mass sitting at x = 0.
    """
    bps = [float(x) for x in breakpoints]
    hs = [float(h) for h in heights]
    masses: dict[float, float] = {}
    for site, weight in deltas:
        masses[float(site)] = masses.get(float(site), 0.0) + float(weight)
    grid = sorted(set(bps) | set(masses))
    cells = []
    i = 0
    for a, b in zip(grid[:-1], grid[1:]):
        while bps[i + 1] <= a:
            i += 1
        cells.append((b - a, hs[i], masses.get(b, 0.0)))
    return cells, masses.get(0.0, 0.0)


def _jump(theta: float, w: float) -> float:
    j = math.floor(theta / math.pi)
    t = theta - j * math.pi
    s = math.sin(t)
    if s == 0.0:
        return theta
    t = math.atan2(s, math.cos(t) - w * s)
    if t < 0.0:
        t += math.pi
    return j * math.pi + t


def _cell(theta: float, c: float, length: float) -> float:
    j = math.floor(theta / math.pi)
    t = theta - j * math.pi
    y, dy = math.sin(t), math.cos(t)
    if c > 0.0:
        k = math.sqrt(c)
        phi = j * math.pi + math.atan2(k * y, dy) + k * length
        jn = math.floor(phi / math.pi)
        p = phi - jn * math.pi
        return jn * math.pi + math.atan2(math.sin(p), k * math.cos(p))
    kappa = math.sqrt(-c)
    s = length if kappa == 0.0 else math.tanh(kappa * length) / kappa
    y_new = y + dy * s
    dy_new = dy - c * s * y
    if y_new < 0.0:  # the solution crossed zero inside the cell
        return (j + 1) * math.pi + math.atan2(-y_new, -dy_new)
    return j * math.pi + math.atan2(abs(y_new), dy_new)


def _theta_end(cells, w0: float, k0sq: float, lam: float) -> float:
    """Prufer angle at x = 1 from theta(0) = arccot(k0^2)."""
    theta = math.atan2(1.0, k0sq)
    if w0:
        theta = _jump(theta, w0)
    for length, height, w in cells:
        theta = _cell(theta, lam + height, length)
        if w:
            theta = _jump(theta, w)
    return theta


def lambda1(breakpoints, heights, deltas, k0sq: float, k1sq: float) -> float:
    """First eigenvalue of y'' + q y + lam y = 0, y'(0) = k0^2 y(0),
    y'(1) = -k1^2 y(1), exact up to rounding."""
    cells, w0 = _cells_of(breakpoints, heights, deltas)
    target = math.pi - math.atan2(1.0, k1sq)

    def f(lam: float) -> float:
        return _theta_end(cells, w0, k0sq, lam) - target

    lo, hi = -1.0, 1.0
    while f(lo) >= 0.0:
        lo, hi = lo - 2.0 * (hi - lo), lo
    while f(hi) <= 0.0:
        lo, hi = hi, hi + 2.0 * (hi - lo)
    return brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * 2.0**-52, maxiter=500)


def pnorm_fsum(breakpoints, heights, p: float) -> float:
    """(sum h^p dx)^(1/p), or exp(sum ln(h) dx) at p = 0, summed with fsum
    over the actual cells."""
    bps = [float(x) for x in breakpoints]
    widths = [b - a for a, b in zip(bps[:-1], bps[1:])]
    hs = [float(h) for h in heights]
    if p == 0.0:
        return math.exp(math.fsum(w * math.log(h) for w, h in zip(widths, hs)))
    total = math.fsum(w * h**p for w, h in zip(widths, hs) if h > 0.0)
    return total ** (1.0 / p)
