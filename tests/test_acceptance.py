"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion together with the measured margin and wall time.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from sl_extremal import (
    ExtremumSearchSpec,
    Potential,
    RobinBC,
    StepPotential,
    lambda1,
    lambda1_fd,
    lambda1_zero,
    pnorm,
    search_extremum,
    statement1_family,
    verify_thm1,
    verify_thm2,
    wminus1_dist,
)

from conftest import common_cells, random_positive_step, random_step

BC00 = RobinBC(0.0, 0.0)
BC11 = RobinBC(1.0, 1.0)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.time()
    info = {}
    try:
        yield info
    except Exception:
        print(f"ACCEPTANCE {number:02d} [{name}]: FAIL")
        raise
    elapsed = time.time() - start
    detail = info.get("detail", "")
    print(f"ACCEPTANCE {number:02d} [{name}]: PASS ({elapsed:.1f}s) {detail}")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


def test_criterion_01_exact_norm_formula():
    with criterion(1, "exact norm formula", 1.0) as info:
        worst = 0.0
        for zeta in (0.0, 0.5, 1.0):
            for gamma in (0.25, 0.5, 0.75):
                for n in (2, 10, 100, 10**4):
                    q, _ = statement1_family(zeta, n, gamma)
                    reference = float(n) ** ((gamma - 1.0) / gamma)
                    rel = abs(pnorm(q, gamma) - reference) / reference
                    worst = max(worst, rel)
                    assert rel <= 1e-12, (zeta, gamma, n, rel)
        info["detail"] = f"worst rel err {worst:.2e}"


def test_criterion_02_spectral_shift_identity():
    with criterion(2, "spectral shift identity", 30.0) as info:
        rng = np.random.default_rng(2024)
        bc = RobinBC(1.0, 4.0)
        worst = 0.0
        for _ in range(100):
            q = random_step(rng, max_height=50.0)
            base = lambda1(q, bc).lambda1
            for c in (1.0, 10.0):
                shifted = StepPotential(q.breakpoints, q.heights + c)
                err = abs(lambda1(shifted, bc).lambda1 - (base - c))
                worst = max(worst, err)
                assert err <= 1e-8
        info["detail"] = f"worst |shift defect| {worst:.2e}"


def test_criterion_03_oracle_equivalence():
    with criterion(3, "oracle equivalence", 120.0) as info:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            q = random_step(rng, max_height=50.0)
            bc = RobinBC(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            shoot = lambda1(q, bc).lambda1
            fem = lambda1_fd(q, bc, 4096)
            err = abs(shoot - fem)
            worst = max(worst, err)
            assert err <= 1e-4
        info["detail"] = f"worst disagreement {worst:.2e}"


def test_criterion_04_zero_potential_baseline():
    with criterion(4, "zero-potential baseline", 5.0) as info:
        zero = StepPotential.constant(0.0)
        worst = 0.0
        for bc in (BC00, RobinBC(1, 0), BC11, RobinBC(4, 9)):
            err = abs(lambda1(zero, bc).lambda1 - lambda1_zero(bc))
            worst = max(worst, err)
            assert err <= 1e-12
        assert lambda1_zero(BC00) == 0.0
        assert abs(lambda1(zero, BC00).lambda1) <= 1e-10
        info["detail"] = f"worst baseline gap {worst:.2e}"


def test_criterion_05_supremum_trend():
    with criterion(5, "supremum trend (gamma > 1)", 60.0) as info:
        table = verify_thm2(2.0, BC11, [10, 100, 1000, 10**4])
        lam0 = lambda1_zero(BC11)
        gaps = [row.gap for row in table.rows]
        for row in table.rows:
            assert row.lambda1 <= lam0
            assert row.gap <= 3.0 * row.n_or_rho ** -0.5
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05
        info["detail"] = f"final gap {gaps[-1]:.4f}"


def test_criterion_06_unbounded_infimum():
    with criterion(6, "unbounded infimum (gamma < 1)", 300.0) as info:
        table = verify_thm1(0.5, BC00, [10.0, 100.0, 1000.0])
        thresholds = (-5.0, -50.0, -500.0)
        for row, detail, bound in zip(table.rows, table.details, thresholds):
            assert detail["gamma_norm_error"] <= 1e-10  # certified member of A_gamma
            assert row.lambda1 < bound
        values = [row.lambda1 for row in table.rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        info["detail"] = "lambda1 = " + ", ".join(f"{v:.1f}" for v in values)


def test_criterion_07_negative_norm_envelope():
    with criterion(7, "negative-norm Cauchy envelope", 30.0) as info:
        margin = math.inf
        for n, m in ((10**2, 10**3), (10**3, 10**4)):
            qn, _ = statement1_family(0.5, n, 0.5)
            qm, _ = statement1_family(0.5, m, 0.5)
            dist = wminus1_dist(qn, qm)
            bound = math.sqrt(max(1.0 / n, 1.0 / m))
            margin = min(margin, bound - dist)
            assert dist <= bound
        info["detail"] = f"smallest slack {margin:.4f}"


def test_criterion_08_eigenvalue_monotonicity():
    with criterion(8, "eigenvalue monotonicity in q", 60.0) as info:
        rng = np.random.default_rng(88)
        bc = RobinBC(2.0, 1.0)
        worst = -math.inf
        for _ in range(100):
            q1 = random_step(rng, max_height=25.0)
            bump = random_step(rng, max_height=3.0, min_height=0.3)
            grid, h1, hb = common_cells(q1, bump)
            q2 = StepPotential(grid, h1 + hb)
            defect = lambda1(q2, bc).lambda1 - lambda1(q1, bc).lambda1
            worst = max(worst, defect)
            assert defect <= 1e-8
        info["detail"] = f"largest defect {worst:.2e}"


def test_criterion_09_norm_family_monotonicity():
    with criterion(9, "norm-family monotonicity", 5.0) as info:
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 200:
            y = random_positive_step(rng)
            p, r = sorted(rng.uniform(-3.0, 3.0, size=2))
            if p == r:
                continue
            assert pnorm(y, p) <= pnorm(y, r) * (1.0 + 1e-12)
            checked += 1
        info["detail"] = f"{checked} ordered exponent pairs"


def test_criterion_10_delta_consistency():
    with criterion(10, "delta consistency", 10.0) as info:
        spike, _ = statement1_family(0.5, 10**4, 0.5)
        lam_spike = lambda1(spike, BC11).lambda1
        lam_delta = lambda1(Potential.pure_delta(0.5, 1.0), BC11).lambda1
        gap = abs(lam_spike - lam_delta)
        assert gap <= 1e-3
        info["detail"] = f"spike-vs-delta gap {gap:.2e}"


def test_criterion_11_search_extremum():
    with criterion(11, "search ceiling and descent", 300.0) as info:
        ceiling = lambda1_zero(BC11)
        spec = ExtremumSearchSpec(gamma=2.0, mode="max", cells=8, max_iters=500)
        result = search_extremum(spec, BC11)
        assert all(v <= ceiling + 1e-6 for _, v in result.trace)

        best_values = []
        start = None
        for round_index in range(5):
            cap = 8.0 * 2.0**round_index
            min_spec = ExtremumSearchSpec(
                gamma=0.5, mode="min", cells=16, max_iters=150,
                step_init=2.0, height_cap=cap, start=start,
            )
            res = search_extremum(min_spec, BC00)
            best_values.append(res.best_lambda)
            start = res.best_q
        assert all(a > b for a, b in zip(best_values, best_values[1:]))
        info["detail"] = (
            f"max reached {result.best_lambda:.4f} <= {ceiling:.4f}; "
            f"min rounds {', '.join(f'{v:.1f}' for v in best_values)}"
        )
