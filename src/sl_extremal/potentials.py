"""Step + delta potentials on [0,1] and the extended L^p norm family.

A potential is a step function plus finitely many Dirac masses.  Heights and
weights may have either sign, so the same type also holds differences of
potentials; the norm routines accept only members of the admissible class,
q >= 0 without masses.  Every integral used by the norm and normalization
routines is a closed-form sum over cells -- there is no quadrature error
anywhere in this module.  Every solver works on one decomposition of a
potential, ``_cells``: cells of one height, with each mass on a node.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "StepPotential",
    "DeltaComponent",
    "Potential",
    "NonPositiveExponentOnVanishingFunction",
    "ZeroPotential",
    "NegativeResult",
    "pnorm",
    "normalize_gamma",
    "shift",
    "refine_common",
]


class NonPositiveExponentOnVanishingFunction(ValueError):
    """p <= 0 requires a strictly positive function (1/y must stay bounded)."""


class ZeroPotential(ValueError):
    """Normalization is undefined when the gamma-norm vanishes or diverges."""


class NegativeResult(ValueError):
    """A shift drove some height below zero, leaving the admissible class."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _cell_values(breakpoints: np.ndarray, heights: np.ndarray, x):
    """Values at x of the step function with these breakpoints and heights.

    Cells are taken half-open to the right; x outside [0, 1) falls into the
    first or last cell.
    """
    return heights[np.searchsorted(breakpoints[1:-1], x, side="right")]


def _cells(q: StepPotential, nodes=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell decomposition of q: (x, s, w) with nodes x = breakpoints,
    mass sites and ``nodes`` in increasing order, s[i] the height on
    [x_i, x_{i+1}) read at its left end (the midpoint of a one-ulp cell rounds
    to its right end) and w[i] the point mass at x_i.  Without masses or
    extra nodes it returns q's own arrays, with no sort or search."""
    bp = q.breakpoints
    if not q.deltas and not len(nodes):
        return bp, q.heights, np.zeros(bp.size)
    sites, weights = np.array(q.deltas).reshape(-1, 2).T
    x = np.union1d(bp, np.concatenate((sites, nodes)))
    w = np.zeros(x.size)
    w[np.searchsorted(x, sites)] = weights
    return x, _cell_values(bp, q.heights, x[:-1]), w


class DeltaComponent(NamedTuple):
    """Dirac mass weight * delta(x - site); StepPotential keeps site in [0,1]."""

    site: float
    weight: float


@dataclass(frozen=True, eq=False)
class StepPotential:
    """Step function on [0,1] plus finitely many point masses.

    ``breakpoints`` is the strictly increasing grid 0 = x0 < ... < xK = 1 and
    ``heights[i]`` is the value on the open cell (x_i, x_{i+1}).  ``deltas``
    holds the masses sorted by site: masses at one site are merged by adding
    their weights, and a zero weight is dropped.  Heights and weights may
    have either sign.
    """

    breakpoints: np.ndarray
    heights: np.ndarray
    deltas: tuple[DeltaComponent, ...] = ()

    def __init__(self, breakpoints, heights, deltas=()):
        bp = _as_float_array(breakpoints, "breakpoints")
        h = _as_float_array(heights, "heights")
        if bp.size < 2:
            raise ValueError("need at least one cell")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if h.size != bp.size - 1:
            raise ValueError("need exactly one height per cell")
        merged: dict[float, float] = {}
        for site, w in deltas:
            site, w = float(site), float(w)
            if not (0.0 <= site <= 1.0 and math.isfinite(w)):
                raise ValueError("delta sites must lie in [0,1] with finite weight")
            merged[site] = merged.get(site, 0.0) + w
        if not all(map(math.isfinite, merged.values())):
            raise ValueError("merged delta weight overflows at one site")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "heights", h)
        object.__setattr__(self, "deltas", tuple(
            DeltaComponent(s, w) for s, w in sorted(merged.items()) if w != 0.0))

    # the constructors name StepPotential, not cls, so that Potential, whose
    # __init__ takes (step, deltas), inherits them unchanged
    @classmethod
    def constant(cls, height: float) -> "StepPotential":
        return StepPotential([0.0, 1.0], [height])

    @classmethod
    def from_uniform_cells(cls, heights) -> "StepPotential":
        h = np.asarray(heights, dtype=float)
        return StepPotential(np.linspace(0.0, 1.0, h.size + 1), h)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def value_at(self, x: float) -> float:
        """Cell value at x (cells are taken half-open to the right)."""
        return float(_cell_values(self.breakpoints, self.heights, x))

    def scaled(self, factor: float) -> "StepPotential":
        return StepPotential(self.breakpoints, self.heights * factor,
                             [(s, w * factor) for s, w in self.deltas])

    def max_height(self) -> float:
        return float(self.heights.max())

    def __sub__(self, other: "StepPotential") -> "StepPotential":
        """Exact difference on the union of both grids."""
        a, b = refine_common(self, other)
        with np.errstate(over="ignore"):  # an infinite height is rejected below
            heights = a.heights - b.heights
        return StepPotential(a.breakpoints, heights,
                             [*a.deltas, *((s, -w) for s, w in b.deltas)])

    def to_dict(self) -> dict:
        out = {
            "breakpoints": [float(x) for x in self.breakpoints],
            "heights": [float(h) for h in self.heights],
        }
        if self.deltas:
            out["deltas"] = [{"site": s, "weight": w} for s, w in self.deltas]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "StepPotential":
        return StepPotential(data["breakpoints"], data["heights"],
                             [(d["site"], d["weight"]) for d in data.get("deltas", [])])

    def equals(self, other: "StepPotential") -> bool:
        return (np.array_equal(self.breakpoints, other.breakpoints)
                and np.array_equal(self.heights, other.heights)
                and self.deltas == other.deltas)


class Potential(StepPotential):
    """``Potential(step, deltas)`` is the StepPotential ``step`` with the point
    masses ``deltas`` added; it has no fields of its own.
    ``Potential.pure_delta(site, weight)`` is a lone mass over q = 0.
    """

    def __init__(self, step: StepPotential, deltas=()):
        super().__init__(step.breakpoints, step.heights, [*step.deltas, *deltas])

    @classmethod
    def pure_delta(cls, site: float, weight: float) -> StepPotential:
        return StepPotential([0.0, 1.0], [0.0], [(site, weight)])


def _require_admissible(q: StepPotential) -> None:
    """Reject q unless it is an L^p function >= 0: no deltas, no negative
    height."""
    if q.deltas:
        raise ValueError("operation is defined for L^p functions only; "
                         "this potential carries delta components")
    if np.any(q.heights < 0):
        raise ValueError("heights must be nonnegative")


def pnorm(y, p: float) -> float:
    """Extended L^p norm of a nonnegative step function (no point masses)
    for any real exponent.

    For p != 0 returns (sum_i h_i^p dx_i)^(1/p); at p = 0 returns the
    geometric mean exp(sum_i ln(h_i) dx_i), which is the limit of the p != 0
    formula.  Zero heights are allowed for p > 0 (0^p = 0) and rejected for
    p <= 0.  The sum is evaluated through expm1/log1p so the result stays
    accurate uniformly in p, including p within rounding distance of 0.
    """
    _require_admissible(y)
    if not math.isfinite(p):
        raise ValueError("exponent must be finite")
    return _pnorm(y.heights, y.widths, p)


def _pnorm(h: np.ndarray, w: np.ndarray, p: float) -> float:
    """``pnorm``'s array core: heights h >= 0 on cells of widths w, p finite."""
    positive = h > 0
    if p <= 0 and not positive.all():
        raise NonPositiveExponentOnVanishingFunction(
            "p <= 0 requires strictly positive heights"
        )
    if p == 0.0:
        return float(math.exp(np.dot(w, np.log(h))))
    wp = w[positive]
    x = p * np.log(h[positive])
    with np.errstate(over="ignore", under="ignore"):  # both are handled below
        # S - 1 with S = integral of h^p; exact -sum(w) contribution from zero cells.
        s_minus_1 = float(np.dot(wp, np.expm1(x)) - w[~positive].sum())
        if abs(s_minus_1) <= 0.5:
            return _kappa(s_minus_1, p)
        if not wp.size:
            return 0.0  # every cell vanishes, which only p > 0 allows
        # S - 1 is -1 to rounding once S < 2^-53, so S itself is summed here
        s = float(np.dot(wp, np.exp(x)))
        if 0.0 < s < math.inf:
            log_s = float(np.log(s))
        else:  # S under- or overflows: log-sum-exp
            top = float(x.max())
            log_s = top + float(np.log(np.dot(wp, np.exp(x - top))))
    return float(math.exp(log_s / p))


def _kappa(s_minus_1: float, p: float) -> float:
    """The norm S^(1/p) from S - 1 = s_minus_1, for |S - 1| <= 1/2."""
    return math.exp(math.log1p(s_minus_1) / p)


def normalize_gamma(f, gamma: float) -> tuple[StepPotential, float]:
    """Scale f onto the constraint manifold ||q||_gamma = 1.

    Returns (f / kappa, kappa) with kappa = pnorm(f, gamma).  Raises
    ZeroPotential when the gamma-norm vanishes, diverges, or is undefined
    because f vanishes somewhere while gamma < 0.  Like ``pnorm``, it
    accepts only q >= 0 without point masses.
    """
    if gamma == 0.0 or not math.isfinite(gamma):
        raise ValueError("gamma must be finite and nonzero")
    _require_admissible(f)
    heights, kappa = _normalized(f.heights, f.widths, gamma)
    return StepPotential(f.breakpoints, heights), kappa


def _normalized(h: np.ndarray, w: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """``normalize_gamma``'s array core for heights h >= 0 on cells of widths
    w and a finite gamma != 0; h / kappa can overflow where kappa < 1."""
    try:
        kappa = _pnorm(h, w, gamma)
    except NonPositiveExponentOnVanishingFunction as exc:
        raise ZeroPotential("gamma-norm undefined for this potential") from exc
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise ZeroPotential(f"gamma-norm is {kappa}; cannot normalize")
    return h / kappa, kappa


def shift(q, c: float) -> StepPotential:
    """Add the constant c to every height of an admissible q (q >= 0, no
    point masses), keeping the result admissible."""
    _require_admissible(q)
    new_heights = q.heights + c
    if np.any(new_heights < 0):
        raise NegativeResult(
            f"shift by {c} makes some height negative (min would be "
            f"{float(new_heights.min())})"
        )
    return StepPotential(q.breakpoints, new_heights)


def refine_common(a, b) -> tuple[StepPotential, StepPotential]:
    """Re-express both potentials on the union of their breakpoints, read at
    each union cell's left end (cells are half-open to the right, and the
    midpoint of a one-ulp cell rounds to its right end); their point masses
    are carried along unchanged."""
    grid = np.union1d(a.breakpoints, b.breakpoints)
    return tuple(
        StepPotential(grid, _cell_values(q.breakpoints, q.heights, grid[:-1]), q.deltas)
        for q in (a, b)
    )
