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
from functools import cached_property
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "StepPotential",
    "DeltaComponent",
    "Potential",
    "NonPositiveExponentOnVanishingFunction",
    "ZeroPotential",
    "pnorm",
    "normalize_gamma",
]


class NonPositiveExponentOnVanishingFunction(ValueError):
    """p <= 0 requires a strictly positive function (1/y must stay bounded)."""


class ZeroPotential(ValueError):
    """Normalization is undefined when the gamma-norm vanishes or diverges."""


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
    """Values at x of the step function (breakpoints, heights), its cells
    half-open to the right; x outside [0, 1) takes the first or last cell."""
    return heights[np.searchsorted(breakpoints[1:-1], x, side="right")]


def _refine(bp: np.ndarray, h: np.ndarray, extra) -> tuple[np.ndarray, np.ndarray]:
    """(x, s): the nodes bp and ``extra`` in increasing order without repeats,
    and s[i] the height of (bp, h) on [x_i, x_{i+1}).  A timsort merge: O(n + m)
    for sorted nodes, plus O(n log(n + m)) to place bp if some node is new."""
    x = np.sort(np.concatenate((bp, np.sort(extra, kind="stable"))), kind="stable")
    x = x[np.concatenate(([True], x[1:] != x[:-1]))]
    if x.size == bp.size:  # no new node
        return bp, h
    at = np.searchsorted(x, bp)  # bp[i] is node at[i]
    at[[0, -1]] = 0, x.size - 1  # nodes beyond [0, 1] fall into the end cells
    return x, np.repeat(h, np.diff(at))


def _cells(q: StepPotential, nodes=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell decomposition of q: (x, s, w) with nodes x = breakpoints,
    mass sites and ``nodes`` in increasing order, s[i] the height on
    [x_i, x_{i+1}) read at its left end (the midpoint of a one-ulp cell rounds
    to its right end) and w[i] the point mass at x_i, merged by ``_refine``.
    Without masses or extra nodes it returns q's own arrays, with no sort."""
    if not q.deltas and not len(nodes):
        return q.breakpoints, q.heights, np.zeros(q.breakpoints.size)
    sites, weights = np.array(q.deltas).reshape(-1, 2).T
    x, s = _refine(q.breakpoints, q.heights, np.concatenate((sites, nodes)))
    w = np.zeros(x.size)
    w[np.searchsorted(x, sites)] = weights
    return x, s, w


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
    have either sign.  ln h, which ``pnorm`` reads, is cached read-only.
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

    @cached_property
    def _log_heights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):  # ln 0 = -inf; pnorm reads h >= 0 only
            log_h = np.log(self.heights)
        log_h.flags.writeable = False
        return log_h

    def scaled(self, factor: float) -> "StepPotential":
        return StepPotential(self.breakpoints, self.heights * factor,
                             [(s, w * factor) for s, w in self.deltas])


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
    ln h is cached on y, so a ladder of exponents takes the logarithms once.
    """
    _require_admissible(y)
    if not math.isfinite(p):
        raise ValueError("exponent must be finite")
    return _pnorm(y.heights, y.widths, p, y._log_heights)


def _pnorm(h: np.ndarray, w: np.ndarray, p: float, log_h=None) -> float:
    """``pnorm``'s array core: heights h >= 0 on cells of widths w, p finite,
    and log_h = ln h where it is at hand."""
    if log_h is None:
        with np.errstate(divide="ignore"):  # ln 0 = -inf marks a vanishing cell
            log_h = np.log(h)
    wp, x, zero_w = w, log_h, 0.0
    if log_h.min() == -math.inf:  # masks only where a height is 0
        if p <= 0:
            raise NonPositiveExponentOnVanishingFunction(
                "p <= 0 requires strictly positive heights"
            )
        positive = h > 0
        wp, x, zero_w = w[positive], log_h[positive], w[~positive].sum()
    if p == 0.0:
        return float(math.exp(np.dot(w, log_h)))
    x = p * x
    with np.errstate(over="ignore", under="ignore"):  # both are handled below
        # S - 1 with S = integral of h^p; exact -sum(w) contribution from zero cells.
        s_minus_1 = float(np.dot(wp, np.expm1(x)) - zero_w)
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
    heights, kappa = _normalized(f.heights, f.widths, gamma, f._log_heights)
    return StepPotential(f.breakpoints, heights), kappa


def _normalized(h: np.ndarray, w: np.ndarray, gamma: float,
                log_h=None) -> tuple[np.ndarray, float]:
    """``normalize_gamma``'s array core, with h, w and log_h as in ``_pnorm``
    and a finite gamma != 0; h / kappa can overflow where kappa < 1."""
    try:
        kappa = _pnorm(h, w, gamma, log_h)
    except NonPositiveExponentOnVanishingFunction as exc:
        raise ZeroPotential("gamma-norm undefined for this potential") from exc
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise ZeroPotential(f"gamma-norm is {kappa}; cannot normalize")
    return h / kappa, kappa
