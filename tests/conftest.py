"""Shared generators for randomized property checks (always seeded), and the
union-grid reading that tests use to add or subtract two step functions."""

from __future__ import annotations

import numpy as np

from sl_extremal import StepPotential
from sl_extremal.potentials import _cell_values


def random_step(
    rng: np.random.Generator,
    max_height: float = 50.0,
    max_cells: int = 10,
    min_height: float = 0.0,
) -> StepPotential:
    k = int(rng.integers(2, max_cells + 1))
    inner = np.sort(rng.uniform(0.02, 0.98, size=k - 1))
    breakpoints = np.concatenate(([0.0], inner, [1.0]))
    heights = rng.uniform(min_height, max_height, size=k)
    return StepPotential(breakpoints, heights)


def random_positive_step(rng: np.random.Generator, max_cells: int = 8) -> StepPotential:
    return random_step(rng, max_height=5.0, max_cells=max_cells, min_height=0.2)


def common_cells(a: StepPotential, b: StepPotential):
    """(grid, ha, hb): the union of the breakpoints of a and b, and the heights
    of each on its cells, read at their left ends."""
    grid = np.union1d(a.breakpoints, b.breakpoints)
    return (grid, _cell_values(a.breakpoints, a.heights, grid[:-1]),
            _cell_values(b.breakpoints, b.heights, grid[:-1]))
