"""Constructive potential families on the constraint set and the two
headline verification protocols.

The constraint set A_gamma collects nonnegative potentials with
int_0^1 q^gamma dx = 1.  Three explicit families drive everything:

* a unit-mass spike of height n and width 1/n near a chosen site, whose
  gamma-norm is exactly n^((gamma-1)/gamma) -- vanishing for gamma in (0,1)
  while the spike converges to a point mass;
* a train of m narrow spikes over a small constant floor, normalized into
  A_gamma, realizing potentials close (in the negative Sobolev norm) to an
  arbitrarily large constant level while staying admissible for gamma < 1;
* a shrinking block of height n^(1/gamma), a member of A_gamma for gamma > 1
  whose mass n^(1/gamma - 1) vanishes, so the family drifts toward the zero
  potential.

``verify_thm1`` certifies that the first eigenvalue is unbounded below over
A_gamma when gamma < 1 (it drops below any requested level), and
``verify_thm2`` tracks the approach of the supremum to the zero-potential
eigenvalue when gamma > 1.  ``search_extremum`` probes the same extrema by
direct coordinate search on the constraint manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import operator

import numpy as np

from .eigensolver import RobinBC, _solve, _theta_end_prepared, lambda1, lambda1_zero
from .potentials import StepPotential, _kappa, _normalized, normalize_gamma, pnorm

__all__ = [
    "SpikeTrainSpec",
    "ExtremumSearchSpec",
    "TableRow",
    "ConvergenceTable",
    "SearchResult",
    "NormBudgetExceeded",
    "VerificationError",
    "statement1_family",
    "statement2_family",
    "statement3_family",
    "verify_thm1",
    "verify_thm2",
    "search_extremum",
]


class NormBudgetExceeded(ValueError):
    """The nu-norm of the spike train reached 1; raise the spike height."""


class VerificationError(RuntimeError):
    """A verification protocol's built-in assertion failed."""


_CEILING_TOL = 1e-8  # verify_thm2: slack on the ceiling and on the gap's decrease
_MEMBERSHIP_TOL = 1e-10  # verify_thm1: largest | ||q||_gamma - 1 | of a train
_FLOOR = 0.1  # verify_thm1: constant floor under every spike train
_SLACK = 0.5  # verify_thm1: certifies lambda_1 <= lambda_1(0) - (1 - _SLACK) rho*
_STEP_MIN = 1e-3  # search_extremum: stops once its step falls below this


@dataclass(frozen=True)
class TableRow:
    n_or_rho: float
    lambda1: float
    reference: float
    gap: float


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of a verification protocol; ``details`` holds verify_thm1's
    per-level construction record and is empty for verify_thm2."""

    rows: tuple[TableRow, ...]
    details: tuple[dict, ...] = ()


# --- the explicit families ---------------------------------------------------

def _spike_step(x1: float, x2: float, height: float) -> StepPotential:
    pts = [0.0]
    heights = []
    if x1 > 0.0:
        pts.append(x1)
        heights.append(0.0)
    pts.append(x2)
    heights.append(height)
    if x2 < 1.0:
        pts.append(1.0)
        heights.append(0.0)
    return StepPotential(pts, heights)


def statement1_family(zeta: float, n: int, gamma: float) -> tuple[StepPotential, float]:
    """Unit-mass spike of height n and width 1/n just left of zeta.

    The support is ((zeta - 1/n)^+, (zeta - 1/n)^+ + 1/n), clipped into [0,1]
    by the positive part.  Returns the potential together with its gamma-norm
    n^((gamma-1)/gamma), which is < 1 for gamma in (0, 1) and shrinks to 0 as
    n grows even though the spike converges to a unit point mass.  That value
    is the norm of a spike exactly 1/n wide; the built spike's float
    endpoints make its width off by up to half an ulp of x2, at most 2^-54,
    so ``pnorm`` of it can differ from the returned value by up to about
    n * 2^-54 / gamma relative (1.07e-10 at n = 1e6, zeta = 1/2, gamma = 1/4).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    width = 1.0 / n
    # x2 - width rounds back to x1, so the endpoints need no settling.  For
    # zeta <= 2 width, x1 is 0 or zeta - width exactly (Sterbenz).  Otherwise
    # x1 + width lies within half an ulp of zeta; it ties only where zeta -
    # width tied too, which left x1 even, so x2 - width rounds to x1 again.
    # x1 + width <= (1 - width + 2^-54) + width rounds to at most 1, so the
    # support needs no clip into [0, 1].
    x1 = max(zeta - width, 0.0)
    x2 = x1 + width
    gamma_norm = float(n) ** ((gamma - 1.0) / gamma)
    return _spike_step(x1, x2, float(n)), gamma_norm


def statement3_family(gamma: float, n: int) -> StepPotential:
    """Block of height n^(1/gamma) on (0, 1/n): a member of A_gamma for
    gamma > 1 whose mass n^(1/gamma - 1) vanishes as n grows."""
    if not gamma > 1.0:
        raise ValueError("gamma must be > 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    height = float(n) ** (1.0 / gamma)
    return StepPotential([0.0, 1.0 / n, 1.0], [height, 0.0])


@dataclass(frozen=True)
class SpikeTrainSpec:
    """Train of m equal spikes over a constant floor.

    The train carries total weight rho_star - floor split evenly over spikes
    of height ``height`` centered at (j - 1/2)/m, so each spike has width
    ((rho_star - floor)/m)/height, which must stay below the spacing 1/m.
    """

    rho_star: float
    floor: float
    spikes: int
    height: float
    nu: float

    def __post_init__(self):
        if not self.rho_star > 0:
            raise ValueError("rho_star must be positive")
        if not 0.0 < self.floor < 1.0:
            raise ValueError("floor must lie in (0, 1)")
        if self.floor >= self.rho_star:
            raise ValueError("floor must be below rho_star")
        if self.spikes < 1:
            raise ValueError("need at least one spike")
        if not self.height > 0:
            raise ValueError("height must be positive")
        if not 0.0 < self.nu < 1.0:
            raise ValueError("nu must lie in (0, 1)")
        if self.spike_width >= 1.0 / self.spikes:
            raise ValueError(
                "spike width reaches the spacing 1/m; increase height"
            )

    @property
    def spike_width(self) -> float:
        return (self.rho_star - self.floor) / self.spikes / self.height


def statement2_family(spec: SpikeTrainSpec, gamma: float) -> tuple[StepPotential, float]:
    """Normalized spike train q = f / ||f||_gamma with f = train + floor.

    Requires gamma < 1 and nu in (gamma^+, 1).  The construction is accepted
    only when ||f||_nu < 1; monotonicity of the norm family in the exponent
    then guarantees kappa = ||f||_gamma in (0, 1), so q = f/kappa >= f and
    the eigenvalue of q sits below the eigenvalue of f.  A spike narrower
    than the float spacing at its site, where a + width rounds to a, raises
    NormBudgetExceeded too.
    """
    if gamma == 0.0 or gamma >= 1.0:
        raise ValueError("gamma must be nonzero and < 1")
    if not max(gamma, 0.0) < spec.nu < 1.0:
        raise ValueError("nu must lie strictly between gamma^+ and 1")

    m = spec.spikes
    delta = spec.spike_width
    a = (np.arange(1, m + 1) - 0.5) / m - 0.5 * delta  # spike j spans [a, b]
    b = a + delta
    if not np.all(b > a):
        raise NormBudgetExceeded(
            f"spike width {delta:.6g} at rho* = {spec.rho_star:g} is below the float "
            "spacing at a spike site; lower the height or rho*"
        )
    pts = np.empty(2 * m + 2)
    pts[0], pts[-1] = 0.0, 1.0
    pts[1:-1:2] = a
    pts[2:-1:2] = b
    heights = np.full(2 * m + 1, spec.floor)
    heights[1::2] = spec.height + spec.floor
    f = StepPotential(pts, heights)

    nu_norm = pnorm(f, spec.nu)
    if nu_norm >= 1.0:
        raise NormBudgetExceeded(
            f"||f||_nu = {nu_norm:.6g} >= 1; raise height above {spec.height:g} "
            "or lower the floor"
        )
    q, kappa = normalize_gamma(f, gamma)
    if not 0.0 < kappa < 1.0:
        raise NormBudgetExceeded(f"normalization factor {kappa:.6g} not in (0, 1)")
    return q, kappa


# --- verification protocols --------------------------------------------------

def verify_thm2(gamma: float, bc: RobinBC, n_list) -> ConvergenceTable:
    """Track lambda_1 along the shrinking-block family for gamma > 1.

    Rows are (n, lambda_1(q_n), lambda_1(0), gap).  Every eigenvalue must stay
    below the zero-potential value (the supremum over A_gamma) and the gap
    must not increase along n, each up to 1e-8; violations raise
    VerificationError.
    """
    if not gamma > 1.0:
        raise ValueError("gamma must be > 1")
    ns = sorted(int(n) for n in n_list)
    if not ns or ns[0] < 2:
        raise ValueError("need n >= 2")
    lam0 = lambda1_zero(bc)

    def row(n: int) -> TableRow:
        q = statement3_family(gamma, n)
        lam = lambda1(q, bc).lambda1
        return TableRow(float(n), lam, lam0, lam0 - lam)

    rows = [row(n) for n in ns]
    for r in rows:
        if r.lambda1 > lam0 + _CEILING_TOL:
            raise VerificationError(
                f"lambda1 = {r.lambda1!r} exceeds the ceiling {lam0!r} at n = {r.n_or_rho:g}"
            )
    for prev, nxt in zip(rows, rows[1:]):
        if nxt.gap > prev.gap + _CEILING_TOL:
            raise VerificationError(
                f"gap grew from {prev.gap!r} (n={prev.n_or_rho:g}) "
                f"to {nxt.gap!r} (n={nxt.n_or_rho:g})"
            )
    return ConvergenceTable(tuple(rows))


def _tune_spike_train(rho_star: float, floor: float, spikes: int, nu: float) -> SpikeTrainSpec:
    """Smallest power-of-ten height whose nu-norm budget clears 0.98."""
    for k in range(3, 60):
        height = 10.0**k
        width = (rho_star - floor) / spikes / height
        if width >= 1.0 / spikes:
            continue
        spec = SpikeTrainSpec(rho_star, floor, spikes, height, nu)
        # budget check against the exact closed-form norm of the train + floor
        trial = statement2_budget(spec)
        if trial < 0.98:
            return spec
    raise NormBudgetExceeded(f"no feasible height found for rho_star = {rho_star:g}")


def statement2_budget(spec: SpikeTrainSpec) -> float:
    """Exact ||f||_nu of the train + floor, the quantity that must stay < 1."""
    covered = spec.spikes * spec.spike_width
    integral = covered * (spec.height + spec.floor) ** spec.nu
    integral += (1.0 - covered) * spec.floor**spec.nu
    return integral ** (1.0 / spec.nu)


def verify_thm1(gamma: float, bc: RobinBC, rho_list, *, spikes: int = 100) -> ConvergenceTable:
    """Certify that lambda_1 is unbounded below over A_gamma for gamma < 1.

    For each requested level rho* the protocol builds a normalized train of
    ``spikes`` spikes over the floor 0.1, tuned with nu = (gamma^+ + 1)/2,
    certifies it in A_gamma by its gamma-norm (within 1e-10 of 1), and
    demands lambda_1(q) <= lambda_1(0) - rho* + rho*/2; the slack rho*/2
    absorbs the finite-train approximation of the constant level.  Rows are
    (rho*, lambda_1(q), lambda_1(0) - rho*, reference - lambda_1).
    """
    if gamma == 0.0 or gamma >= 1.0:
        raise ValueError("gamma must be nonzero and < 1")
    levels = [float(r) for r in rho_list]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("rho_list must be strictly increasing")
    if levels[0] <= 1.0:
        raise ValueError("levels must exceed 1")
    if spikes < 1:
        raise ValueError("need at least one spike")
    nu = 0.5 * (max(gamma, 0.0) + 1.0)
    lam0 = lambda1_zero(bc)

    def row(level: float) -> tuple[TableRow, dict]:
        spec = _tune_spike_train(level, _FLOOR, spikes, nu)
        q, kappa = statement2_family(spec, gamma)
        membership = abs(pnorm(q, gamma) - 1.0)
        if membership > _MEMBERSHIP_TOL:
            raise VerificationError(
                f"constructed potential misses A_gamma by {membership:.3e}"
            )
        lam = lambda1(q, bc).lambda1
        reference = lam0 - level
        bound = reference + _SLACK * level
        if lam > bound:
            raise VerificationError(
                f"lambda1 = {lam!r} above the certified bound {bound!r} "
                f"at rho* = {level:g} (try more spikes)"
            )
        detail = {
            "rho_star": level,
            "kappa": kappa,
            "height": spec.height,
            "spikes": spec.spikes,
            "nu": nu,
            "gamma_norm_error": membership,
            "bound": bound,
        }
        return TableRow(level, lam, reference, reference - lam), detail

    results = [row(level) for level in levels]
    rows = tuple(r for r, _ in results)
    details = tuple(d for _, d in results)
    return ConvergenceTable(rows, details)


# --- coordinate search on the constraint manifold ----------------------------

@dataclass(frozen=True)
class ExtremumSearchSpec:
    """Accept-only-improving coordinate search over K uniform cell heights.

    Proposals multiply one cell height by (1 + step) or its reciprocal and
    renormalize back onto A_gamma, so every iterate satisfies the constraint
    exactly.  A proposal is accepted only when its lambda_1 lies strictly
    beyond the incumbent's in the search direction (see ``search_extremum``).
    The step halves after 2 * cells rejections in a row, a full sweep
    without improvement, and the search stops at max_iters or once the step
    falls below 1e-3.
    """

    gamma: float
    mode: str
    cells: int
    max_iters: int = 200
    step_init: float = 1.0
    height_cap: float = math.inf
    start: StepPotential | None = None

    def __post_init__(self):
        if self.gamma == 0.0 or not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite and nonzero")
        if self.mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        if self.cells < 2:
            raise ValueError("need at least 2 cells")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.step_init < math.inf:
            raise ValueError("invalid step schedule")
        if not self.height_cap > 0:
            raise ValueError("height_cap must be positive")


@dataclass(frozen=True)
class SearchResult:
    best_q: StepPotential
    best_lambda: float
    trace: tuple[tuple[int, float], ...]
    evaluations: int


def _terms(h: list, w: list, gamma: float) -> tuple[list, float] | None:
    """(u, s) with u_i = h_i^gamma - 1 and s = sum_i w_i u_i, which is the
    integral of h^gamma less 1 (u_i = -1 at h_i = 0 for gamma > 0); None if
    h_i^gamma overflows or is undefined."""
    try:
        u = [_term(x, gamma) for x in h]
    except (ValueError, OverflowError):
        return None
    return u, math.fsum(map(operator.mul, w, u))


def _term(x: float, gamma: float) -> float:
    """x^gamma - 1, which is -1 at x = 0 for gamma > 0; ValueError at x = 0
    for gamma < 0, and OverflowError where x^gamma overflows."""
    return -1.0 if x == 0.0 < gamma else math.expm1(gamma * math.log(x))


def _rescaled(h: list, w: list, terms, cell: int, hc: float, gamma: float) -> list | None:
    """h with h[cell] = hc renormalised from ``terms = _terms(h, w, gamma)``,
    or None where ``_normalized`` must decide (see ``search_extremum``)."""
    if terms is None or hc == math.inf:
        return None
    u, s = terms
    try:
        s += w[cell] * (_term(hc, gamma) - u[cell])
    except (ValueError, OverflowError):
        return None
    if abs(s) > 0.5:
        return None
    # the norm is monotone and 1-homogeneous, so kappa of a proposal from A_gamma
    # lies between 1 and hc / h_c, a finite and positive float
    kappa = _kappa(s, gamma)
    cand = [x / kappa for x in h]
    cand[cell] = hc / kappa
    return cand


@np.errstate(over="ignore")  # an overflowing proposal is rejected, not warned about
def search_extremum(spec: ExtremumSearchSpec, bc: RobinBC) -> SearchResult:
    """Empirical probe of the extremal eigenvalue over A_gamma.

    Each proposal is decided by one shooting evaluation: theta(1; lambda) is
    strictly increasing in lambda and meets pi - arccot(k1^2) at lambda_1, so
    theta(1; best) below the target means lambda_1(candidate) > best, and
    above it means lambda_1(candidate) < best.  Only a proposal on the
    improving side is solved, from a bracket with ``best`` at one end (whose
    theta is the one just computed), and it is accepted only if the solved
    eigenvalue is strictly better than ``best``, which rounding of a root
    within 1e-13 of ``best`` can undo.  A proposal scales one height of the
    incumbent, kept as floats with its terms h_i^gamma - 1, updates S - 1 =
    int h^gamma - 1 by one term and divides by kappa = exp(log1p(S - 1)/gamma),
    the first branch of ``_pnorm``: about 1.2 us on 8 cells, against 11 us
    through ``_normalized``, which takes a scaled height that is infinite, or
    0 at gamma < 0, an overflowing math call, or |S - 1| > 1/2 (a zero
    height has the term -1 at gamma > 0).  A proposal is rejected if the
    normalization fails or a height overflows, and otherwise costs one walk.
    The trace therefore holds only theta-confirmed improvements and is
    strictly monotone; ``evaluations`` counts the proposals evaluated.  After
    2 * cells rejections in a row the step halves, and the search ends once
    it falls below 1e-3 or after ``max_iters`` proposals.
    """
    if spec.start is not None:
        if spec.start.heights.size != spec.cells:
            raise ValueError("start potential must have spec.cells cells")
        q, _ = normalize_gamma(spec.start, spec.gamma)
    else:
        q = StepPotential.from_uniform_cells(np.ones(spec.cells))

    sign = -1.0 if spec.mode == "min" else 1.0
    target = bc.theta_target
    best_lam = lambda1(q, bc).lambda1
    evaluations = 1
    trace = [(0, best_lam)]
    step = spec.step_init
    rejects = 0
    k = spec.cells
    gamma, widths = spec.gamma, q.widths
    h, w = q.heights.tolist(), widths.tolist()
    terms = _terms(h, w, gamma)

    for it in range(1, spec.max_iters + 1):
        cell = (it - 1) // 2 % k
        up = (it - 1) % 2 == 0
        factor = 1.0 + step if up else 1.0 / (1.0 + step)
        hc = h[cell] * factor
        cand = _rescaled(h, w, terms, cell, hc, gamma)
        if cand is None and hc < math.inf:  # the array path decides the rest
            heights = np.array(h)
            heights[cell] = hc
            try:
                cand = _normalized(heights, widths, gamma)[0].tolist()
            except ValueError:
                pass
        top = math.inf if cand is None else max(cand)
        # top is inf where hc or h / kappa overflows, or the normalisation failed
        if top == math.inf or top > spec.height_cap:
            rejects += 1
        else:
            evaluations += 1
            cells = [(length, c, 0.0) for length, c in zip(w, cand)]
            # the side of the target theta(1; best_lam) falls on decides the move
            lam = best_lam
            f_best = _theta_end_prepared(cells, bc.k0sq, best_lam) - target
            if sign * f_best < 0.0:
                span = max(1.0, 0.1 * abs(best_lam))
                lo, hi = (best_lam, best_lam + span) if sign > 0 else (best_lam - span, best_lam)
                f_lo, f_hi = (f_best, None) if sign > 0 else (None, f_best)
                lam = _solve(cells, bc.k0sq, target, lo, hi, f_lo, f_hi).lambda1
            if sign * (lam - best_lam) > 0.0:
                h, terms = cand, _terms(cand, w, gamma)
                best_lam = lam
                trace.append((it, best_lam))
                rejects = 0
            else:
                rejects += 1
        if rejects >= 2 * k:
            step *= 0.5
            rejects = 0
            if step < _STEP_MIN:
                break

    return SearchResult(StepPotential(q.breakpoints, h), best_lam, tuple(trace), evaluations)
