"""Sobolev-space metrics: the W^1_2 norm, the duality pairing, and a discrete
negative-order norm.

A signed measure here is a signed step function plus finitely many signed
point masses -- exactly the differences that arise between two admissible
potentials or between a potential and its singular limit.  The negative norm
is computed by Riesz representation inside the space of continuous piecewise
linear functions on a uniform grid: one symmetric tridiagonal solve replaces
the supremum over the unit ball, and the value increases toward the true norm
as the grid is refined.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .potentials import Potential, StepPotential, _as_float_array, _cell_values

__all__ = [
    "SignedMeasure",
    "SampledFunction",
    "w1_norm",
    "pairing",
    "wminus1_norm",
    "wminus1_dist",
    "as_signed_measure",
]


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """Signed step function on [0,1] plus signed point masses."""

    breakpoints: np.ndarray
    heights: np.ndarray
    deltas: tuple[tuple[float, float], ...] = ()

    def __init__(self, breakpoints, heights, deltas=()):
        bp = _as_float_array(breakpoints, "breakpoints")
        h = np.asarray(heights, dtype=float).copy()
        if bp.size < 2 or bp[0] != 0.0 or bp[-1] != 1.0 or not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must increase strictly from 0 to 1")
        if h.size != bp.size - 1 or not np.all(np.isfinite(h)):
            raise ValueError("need one finite height per cell")
        h.flags.writeable = False
        merged: dict[float, float] = {}
        for site, w in deltas:
            site = float(site)
            w = float(w)
            if not (0.0 <= site <= 1.0) or not math.isfinite(w):
                raise ValueError("delta sites must lie in [0,1] with finite weight")
            merged[site] = merged.get(site, 0.0) + w
        if not all(map(math.isfinite, merged.values())):
            raise ValueError("merged delta weight overflows at one site")
        out = tuple((s, w) for s, w in sorted(merged.items()) if w != 0.0)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "heights", h)
        object.__setattr__(self, "deltas", out)

    @classmethod
    def zero(cls) -> "SignedMeasure":
        return cls([0.0, 1.0], [0.0])

    @classmethod
    def from_step(cls, step: StepPotential) -> "SignedMeasure":
        return cls(step.breakpoints, step.heights)

    @classmethod
    def from_potential(cls, pot: Potential) -> "SignedMeasure":
        return cls(
            pot.step.breakpoints,
            pot.step.heights,
            tuple((d.site, d.weight) for d in pot.deltas),
        )

    def scaled(self, factor: float) -> "SignedMeasure":
        return SignedMeasure(
            self.breakpoints,
            self.heights * factor,
            tuple((s, w * factor) for s, w in self.deltas),
        )

    def __sub__(self, other: "SignedMeasure") -> "SignedMeasure":
        other = as_signed_measure(other)
        grid = np.union1d(self.breakpoints, other.breakpoints)
        mids = 0.5 * (grid[:-1] + grid[1:])
        mine = _cell_values(self.breakpoints, self.heights, mids)
        theirs = _cell_values(other.breakpoints, other.heights, mids)
        with np.errstate(over="ignore"):  # an infinite height is rejected below
            heights = mine - theirs
        deltas = list(self.deltas) + [(s, -w) for s, w in other.deltas]
        return SignedMeasure(grid, heights, tuple(deltas))

    def to_dict(self) -> dict:
        return {
            "breakpoints": [float(x) for x in self.breakpoints],
            "heights": [float(h) for h in self.heights],
            "deltas": [{"site": s, "weight": w} for s, w in self.deltas],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SignedMeasure":
        return cls(
            data["breakpoints"],
            data["heights"],
            tuple((d["site"], d["weight"]) for d in data.get("deltas", [])),
        )


def as_signed_measure(f) -> SignedMeasure:
    if isinstance(f, SignedMeasure):
        return f
    if isinstance(f, Potential):
        return SignedMeasure.from_potential(f)
    if isinstance(f, StepPotential):
        return SignedMeasure.from_step(f)
    raise TypeError(f"cannot interpret {type(f).__name__} as a signed measure")


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Values of a test function on the uniform grid i/N, i = 0..N (N >= 2).

    All norm and pairing computations treat the function as its continuous
    piecewise-linear interpolant, for which the integrals are exact.
    """

    values: np.ndarray

    def __init__(self, values):
        v = _as_float_array(values, "values")
        if v.size < 3:
            raise ValueError("need at least 3 grid values (N >= 2 intervals)")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, c: float, n: int = 2) -> "SampledFunction":
        return cls(np.full(n + 1, float(c)))

    @classmethod
    def from_callable(cls, fn, n: int) -> "SampledFunction":
        x = np.linspace(0.0, 1.0, n + 1)
        return cls(np.array([fn(t) for t in x], dtype=float))

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)


def w1_norm(z: SampledFunction) -> float:
    """sqrt(int z'^2 + int z^2) of the piecewise-linear interpolant (exact)."""
    v = z.values
    h = 1.0 / (v.size - 1)
    dv = np.diff(v)
    grad2 = float(np.sum(dv * dv)) / h
    mass = float(np.sum(v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2)) * h / 3.0
    return math.sqrt(grad2 + mass)


def pairing(f, z: SampledFunction) -> float:
    """Duality pairing <f, z> = sum_i z_i <f, phi_i>, z being a sum of hats."""
    return float(np.dot(z.values, _hat_loads(as_signed_measure(f), z.grid)))


def _hat_loads(f: SignedMeasure, grid: np.ndarray) -> np.ndarray:
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


def wminus1_norm(f, grid_n: int) -> float:
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
    f = as_signed_measure(f)
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


def wminus1_dist(f, g, grid_n: int) -> float:
    """Negative-norm distance ||f - g|| with exact measure subtraction."""
    return wminus1_norm(as_signed_measure(f) - as_signed_measure(g), grid_n)
