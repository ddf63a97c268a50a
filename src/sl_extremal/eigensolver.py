"""First eigenvalue of y'' + q y + lambda y = 0 with third-type boundary conditions.

The boundary conditions are y'(0) = k0^2 y(0) and y'(1) = -k1^2 y(1).  The
primary solver is phase-angle (Prufer) shooting: with y = rho sin(theta),
y' = rho cos(theta), the angle obeys

    theta' = cos(theta)^2 + (lambda + q(x)) sin(theta)^2,

theta(0) = arccot(k0^2), and lambda_1 is the unique lambda at which theta(1)
first reaches pi - arccot(k1^2); theta(1; lambda) is strictly increasing in
lambda.  The angle is never carried from cell to cell: one walk carries the
state (j, y, y') with y >= 0 and leaves theta = j*pi + atan2(y, y') implicit.
On a cell where c = lambda + q is constant, y'' + c y = 0 has a closed-form
solution, so the state is advanced exactly (Pruess, SIAM J. Numer. Anal. 10,
1973; Pryce, "Numerical Solution of Sturm-Liouville Problems", 1993): where
sqrt(c) * length > 1 the scaled angle atan2(sqrt(c) y, y') grows by
sqrt(c) * length, and elsewhere (y, y') maps linearly through cos/sin or
cosh/sinh, with a negative new y adding one to j.  A point mass
w * delta(x - site) subtracts w y from y'.  A power-of-two rescale keeps
|y| + |y'| inside [2^-500, 2^500], so nothing under- or overflows.
theta(1; lambda) is thus exact up to rounding for every step + delta
potential, and lambda_1 is found by bracket doubling plus Illinois regula
falsi, which keeps a sign-change bracket.  The eigenfunction sampler runs the
same walk from sample to sample.

An independent P1 finite-element discretization of the associated quadratic
form (``lambda1_fd``) serves as a cross-check, and ``lambda1_zero`` evaluates
the zero-potential eigenvalue from its characteristic equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .potentials import StepPotential, _cell_values, _cut_elements

__all__ = [
    "RobinBC",
    "EigenResult",
    "BracketNotFound",
    "ZeroFunction",
    "theta_end",
    "lambda1",
    "lambda1_fd",
    "lambda1_zero",
    "rayleigh",
]


class BracketNotFound(RuntimeError):
    """Bracket expansion exhausted without enclosing the eigenvalue."""


class ZeroFunction(ValueError):
    """Rayleigh quotient of the zero function is undefined."""


def _arccot(x: float) -> float:
    """arccot on [0, inf) with values in (0, pi/2]."""
    return math.atan2(1.0, x)


@dataclass(frozen=True)
class RobinBC:
    """Boundary coefficients (k0^2, k1^2); both are squares, hence >= 0."""

    k0sq: float
    k1sq: float

    def __post_init__(self):
        if not (self.k0sq >= 0.0 and math.isfinite(self.k0sq)):
            raise ValueError("k0sq must be finite and >= 0")
        if not (self.k1sq >= 0.0 and math.isfinite(self.k1sq)):
            raise ValueError("k1sq must be finite and >= 0")

    @property
    def theta_start(self) -> float:
        return _arccot(self.k0sq)

    @property
    def theta_target(self) -> float:
        return math.pi - _arccot(self.k1sq)


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    eigenfunction_samples: tuple[tuple[float, float], ...] | None = field(default=None)

    def to_dict(self, include_samples: bool = True) -> dict:
        out = {
            "lambda1": float(self.lambda1),
            "residual": float(self.residual),
            "bracket": [float(self.bracket[0]), float(self.bracket[1])],
            "iterations": int(self.iterations),
        }
        if include_samples and self.eigenfunction_samples is not None:
            out["eigenfunction_samples"] = [
                [float(x), float(y)] for x, y in self.eigenfunction_samples
            ]
        return out


# --- exact propagation of (y, y') -----------------------------------------

_LN2 = math.log(2.0)
_HUGE = 2.0**500
_TINY = 2.0**-500


def _segments(q: StepPotential) -> tuple[list[tuple[float, float, float, float]], float]:
    """Split [0,1] at step breakpoints and delta sites.

    Returns (cells, w0): cells lists (right, length, height, w) in order, where
    w is the point mass at the cell's right end (0.0 if none), and w0 is the
    point mass at x = 0.
    """
    bps = q.breakpoints.tolist()
    heights = q.heights.tolist()
    masses = dict(q.deltas)  # sites are distinct
    grid = sorted(set(bps) | set(masses))
    cells = []
    i = 0  # the step cell [bps[i], bps[i + 1]) that holds [a, b]
    for a, b in zip(grid[:-1], grid[1:]):
        while bps[i + 1] <= a:
            i += 1
        cells.append((b, b - a, heights[i], masses.get(b, 0.0)))
    return cells, masses.get(0.0, 0.0)


def _walk(cells, lam, j, y, dy, e):
    """Carry the shooting state (j, y, dy, e) across ``cells`` at ``lam``.

    The state stands for the solution (-1)^j 2^e (y, y') up to a positive
    factor, with y >= 0, so the Prufer angle is j*pi + atan2(y, dy).  On a
    cell of length L where c = lam + q is constant with sqrt(c) * L > 1,
    the scaled angle atan2(sqrt(c) y, y') advances by exactly sqrt(c) * L at
    a fixed amplitude.  Every other cell maps (y, y') to (y + y' s, y' - c s y)
    with s = L tan(kl) / kl, L tanh(kl) / kl or L (kl = sqrt(|c|) L): the
    closed-form map divided by cos(kl) or cosh(kl), which is all the positive
    factor holds; the scaled angle would sit at pi/2 to rounding on such a
    thin cell whatever the cell does.  The solution vanishes at most once on
    it, so a negative new y adds one to j.  A point mass w subtracts w y
    from y'.  A power-of-two rescale, which is exact, keeps y + |y'| in
    [2^-500, 2^500]; a state that rounds to (0, 0) stays there.
    """
    sqrt, tan, tanh = math.sqrt, math.tan, math.tanh
    for _, length, height, w in cells:
        c = lam + height
        kl = sqrt(abs(c)) * length
        if c > 0.0 and kl > 1.0:
            k = sqrt(c)
            r = math.hypot(k * y, dy)
            phi = math.atan2(k * y, dy) + kl
            n = math.floor(phi / math.pi)
            p = phi - n * math.pi
            j += n
            y = r * math.sin(p) / k
            dy = r * math.cos(p)
        else:
            if kl == 0.0:
                s = length
            elif c > 0.0:
                s = length * tan(kl) / kl
            else:
                s = length * tanh(kl) / kl
            y, dy = y + dy * s, dy - c * s * y
            if y < 0.0:  # the solution crossed zero inside the cell
                j += 1
                y = -y
                dy = -dy
        if w:
            dy -= w * y
        m = y + abs(dy)
        if m > _HUGE or m < _TINY:
            ex = math.frexp(m)[1]
            y = math.ldexp(y, -ex)
            dy = math.ldexp(dy, -ex)
            e += ex
    return j, y, dy, e


def _theta_end_prepared(cells, dy0, lam) -> float:
    """theta(1; lam) from the start (y, y') = (1, dy0) at x = 0."""
    j, y, dy, _ = _walk(cells, lam, 0, 1.0, dy0, 0)
    return j * math.pi + math.atan2(y, dy)


def theta_end(q, bc: RobinBC, lam: float) -> float:
    """Prufer angle theta(1; lambda) for the shooting problem.

    Carries (y, y') from (1, k0^2) at x = 0 with the closed-form solution on
    each constant cell and the jump y'(site+) = y'(site-) - w y(site) at
    point masses, so the value is exact up to rounding.
    """
    cells, w0 = _segments(q)
    return _theta_end_prepared(cells, bc.k0sq - w0, lam)


# --- eigenvalue via a bracketed Illinois iteration -------------------------

def lambda1(
    q,
    bc: RobinBC,
    *,
    eigenfunction_samples: int | None = None,
    bracket_hint: tuple[float, float] | None = None,
) -> EigenResult:
    """First eigenvalue of the problem, found by shooting.

    theta(1; lambda) is strictly increasing in lambda, so the equation
    theta(1; lambda) = pi - arccot(k1^2) has exactly one solution.  It is
    enclosed by doubling the bracket outward from [-1, 1] (or from
    ``bracket_hint``) and then located by Illinois regula falsi, which keeps
    theta(1; lo) < target <= theta(1; hi) at every step, falls back to
    bisection whenever two steps fail to halve the bracket, and stops once
    the bracket is at most 1e-13 * max(1, |lo|, |hi|) wide.  There is no
    residual condition: theta is exact, so the residual
    |theta(1; lambda) - target| is rounding noise that a stiff potential can
    keep above any fixed tolerance.  The returned eigenvalue is the bracket
    end with the smaller residual.  Raises BracketNotFound when the next
    bracket end, or theta there, is not finite.
    """
    cells, w0 = _segments(q)
    dy0 = bc.k0sq - w0
    if bracket_hint is not None:
        lo, hi = float(bracket_hint[0]), float(bracket_hint[1])
        if not lo < hi:
            raise ValueError("bracket_hint must satisfy lo < hi")
    else:
        lo, hi = -1.0, 1.0
    res = _solve(cells, dy0, bc.theta_target, lo, hi)
    if eigenfunction_samples is None:
        return res
    return replace(res, eigenfunction_samples=_eigenfunction(
        cells, dy0, res.lambda1, eigenfunction_samples))


def _solve(cells, dy0, target, lo, hi, f_lo=None, f_hi=None) -> EigenResult:
    """``lambda1``'s bracket doubling and Illinois iteration on prepared
    cells from the start bracket lo < hi; f_lo or f_hi, when given, is
    theta(1; lo) - target or theta(1; hi) - target, which is then not
    evaluated again."""

    def f(lam: float) -> float:
        return _theta_end_prepared(cells, dy0, lam) - target

    def f_end(lam: float) -> float:
        """f at a new bracket end, NaN where lam or some lam + q overflows."""
        if not math.isfinite(lam):
            return math.nan
        try:
            return f(lam)
        except (OverflowError, ValueError):  # math.floor of an inf or NaN angle
            return math.nan

    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    expansions = 0
    while f_lo >= 0.0:
        lo, hi, f_hi = lo - 2.0 * (hi - lo), lo, f_lo
        f_lo = f_end(lo)
        if not math.isfinite(f_lo):
            raise BracketNotFound(
                f"no lower bracket endpoint after {expansions} expansions"
            )
        expansions += 1
    while f_hi < 0.0:  # an end with theta exactly on target is a root: keep it
        lo, hi, f_lo = hi, hi + 2.0 * (hi - lo), f_hi
        f_hi = f_end(hi)
        if not math.isfinite(f_hi):
            raise BracketNotFound(
                f"no upper bracket endpoint after {expansions} expansions"
            )
        expansions += 1

    # g_lo, g_hi are the secant weights: the value at an end kept twice in a
    # row is halved (the Illinois rule), so both ends close in superlinearly.
    iterations = expansions
    g_lo, g_hi, side = f_lo, f_hi, 0
    width_1 = width_2 = math.inf
    for _ in range(400):
        width = hi - lo
        tol = 1e-13 * max(1.0, abs(lo), abs(hi))
        if width <= tol:
            break
        if width > 0.5 * width_2:
            x = 0.5 * lo + 0.5 * hi  # lo + hi can overflow
        else:
            x = hi - g_hi * width / (g_hi - g_lo)
            x = min(max(x, lo + 0.25 * tol), hi - 0.25 * tol)
        width_2, width_1 = width_1, width
        if not lo < x < hi:
            break
        fx = f(x)
        iterations += 1
        if fx < 0.0:
            lo, f_lo, g_lo = x, fx, fx
            if side < 0:
                g_hi *= 0.5
            side = -1
        else:
            hi, f_hi, g_hi = x, fx, fx
            if side > 0:
                g_lo *= 0.5
            side = 1

    lam, residual = (lo, abs(f_lo)) if abs(f_lo) <= f_hi else (hi, f_hi)
    return EigenResult(lambda1=lam, residual=residual, bracket=(lo, hi),
                       iterations=iterations)


def _eigenfunction(cells, dy0, lam, n_samples):
    """Sample y on the uniform grid j/n_samples at the eigenvalue ``lam``.

    ``_walk`` carries the state from sample to sample; each piece adds back
    the log of the cos(kl) or cosh(kl) that the map of a cell with
    sqrt(c) * L <= 1 divides out, so all samples share one scale.  The
    arrays are allocated first, so an n_samples beyond memory fails at once.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 sample intervals")
    n = int(n_samples)
    ys = np.empty(n + 1)
    logs = np.empty(n + 1)
    ys[0], logs[0] = 1.0, 0.0
    state = (0, 1.0, dy0, 0)
    log_scale = 0.0
    x = 0.0
    i = 1
    for right, _, height, w in cells:
        c = lam + height
        while x < right:
            xs = min(i / n, right)
            kl = math.sqrt(abs(c)) * (xs - x)
            if c < 0.0:
                log_scale += kl + math.log1p(math.exp(-2.0 * kl)) - _LN2  # log cosh
            elif kl <= 1.0:
                log_scale += math.log(math.cos(kl))
            state = _walk(((xs, xs - x, height, w if xs == right else 0.0),), lam, *state)
            x = xs
            if i <= n and xs == i / n:
                j, y, _, e = state
                ys[i] = -y if j % 2 else y
                logs[i] = log_scale + e * _LN2
                i += 1

    with np.errstate(divide="ignore"):  # a zero sample has log -inf
        log_abs = np.log(np.abs(ys)) + logs
    values = np.sign(ys) * np.exp(log_abs - log_abs.max())  # y(0) = 1 is finite
    return tuple(zip((np.arange(n + 1) / n).tolist(), values.tolist()))


# --- zero-potential eigenvalue from the characteristic equation ------------

def lambda1_zero(bc: RobinBC) -> float:
    """lambda_1 for q = 0: the smallest root of the characteristic equation.

    For omega^2 = lambda > 0 the eigencondition reads
    tan(omega) (omega^2 - k0^2 k1^2) = omega (k0^2 + k1^2); multiplying by
    cos(omega) removes the pole at omega = pi/2, and the single root in
    (0, pi) is found by bisection.  The Neumann case returns exactly 0.
    """
    a = bc.k0sq * bc.k1sq
    b = bc.k0sq + bc.k1sq
    if b == 0.0:
        return 0.0

    def chi(w: float) -> float:
        return math.sin(w) * (w * w - a) - b * w * math.cos(w)

    lo, hi = 1e-12, math.pi
    # chi < 0 near 0 (expansion -omega (a + b)), chi(pi) = pi b > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if chi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    return w * w


# --- finite-element oracle --------------------------------------------------

def lambda1_fd(q, bc: RobinBC, n_nodes: int) -> float:
    """Smallest eigenvalue of the P1 finite-element discretization.

    Assembles the quadratic form int y'^2 + k0^2 y(0)^2 + k1^2 y(1)^2
    - int q y^2 - sum w y(site)^2, integrated exactly, against the consistent
    mass matrix on the uniform grid of ``n_nodes`` nodes with every point-mass
    site added as a node, so the kink of the eigenfunction at a mass falls on
    an element boundary and the error stays O(h^2).  A site within 1e-6 h of
    a node is moved onto it instead, as a sliver element would ruin the
    conditioning.  K - sigma M is positive definite, which LAPACK dpttrf
    reports, exactly when sigma < lambda_1 (Sylvester's law of inertia).  A
    successful factorization certifies lo and a failed one hi; the midpoint
    is returned once they are 1e-12 * max(1, |lo|, |hi|) apart.  The trials
    come from a determinant search (Bathe & Wilson, 1976): left of lambda_1,
    det(K - sigma M) is positive, decreasing and convex, so the secant
    through the last two certified lo (log det is the sum of the log pivots)
    stays left of it.  A step small against the bracket is doubled, to
    certify hi close to the root, and two trials that have not halved the
    bracket are followed by a bisection.
    """
    if n_nodes < 32:
        raise ValueError("n_nodes must be >= 32")
    n = int(n_nodes)
    grid = np.linspace(0.0, 1.0, n)
    snap = 1e-6 / (n - 1)
    masses = []
    for site, w in q.deltas:
        j = int(np.searchsorted(grid, site))  # grid[j - 1] < site <= grid[j]
        if grid[j] - site <= snap:
            site = grid[j]
        elif site - grid[j - 1] <= snap:
            site = grid[j - 1]
        else:
            grid = np.insert(grid, j, site)
        masses.append((site, w))
    h = np.diff(grid)

    kd = np.zeros(grid.size)
    kd[:-1] += 1.0 / h
    kd[1:] += 1.0 / h
    kd[0] += bc.k0sq
    kd[-1] += bc.k1sq
    md = np.zeros(grid.size)
    md[:-1] += h / 3.0
    md[1:] += h / 3.0
    me = h / 6.0

    # exact -int q phi_i phi_j: on an uncut element -s times its mass matrix,
    # rounded as element by element, and the cut elements piece by piece
    uncut, elem, he, ta, tb, s = _cut_elements(q.breakpoints, q.heights, grid, h)
    kd[:-1] -= uncut * (h / 3.0)
    np.add.at(kd, elem, -s * (he * ((1.0 - ta) ** 3 - (1.0 - tb) ** 3) / 3.0))
    kd[1:] -= uncut * (h / 3.0)
    np.add.at(kd, elem + 1, -s * (he * (tb**3 - ta**3) / 3.0))
    ke = -1.0 / h - uncut * (h * (0.5 - 1.0 / 3.0))
    np.add.at(ke, elem, -s * (he * ((tb**2 - ta**2) / 2.0 - (tb**3 - ta**3) / 3.0)))

    for site, w in masses:
        kd[np.searchsorted(grid, site)] -= w

    # scipy loads on first use: only this oracle and wminus1_norm need it,
    # and importing it at the top would double the package's import time
    from scipy.linalg.lapack import dpttrf

    def logdet(sigma: float) -> float | None:  # None unless K - sigma M is positive definite
        d, _, info = dpttrf(kd - sigma * md, ke - sigma * me, overwrite_d=1, overwrite_e=1)
        return float(np.log(d).sum()) if info == 0 else None

    # double [-1, 1] up while hi is positive definite, else down until lo
    # is; pd holds (sigma, log det) at the last two certified lo
    lo, hi, pd = -1.0, 1.0, []
    for _ in range(200):
        l_hi = logdet(hi)
        if l_hi is None:
            break
        pd = pd[-1:] + [(hi, l_hi)]
        lo, hi = hi, hi + 2.0 * (hi - lo)
    else:
        raise BracketNotFound("finite-element upper bracket not found")
    if not pd:
        for _ in range(200):
            l_lo = logdet(lo)
            if l_lo is not None:
                pd = [(lo, l_lo)]
                break
            lo, hi = lo - 2.0 * (hi - lo), lo
        else:
            raise BracketNotFound("finite-element lower bracket not found")

    width_1 = width_2 = math.inf
    while hi - lo > 1e-12 * max(1.0, abs(lo), abs(hi)):
        width = hi - lo
        x = 0.5 * (lo + hi)
        if len(pd) == 2 and width <= 0.5 * width_2:
            (x0, l0), (x1, l1) = pd
            # the secant root of det, or the last advance where rounding stalls log det
            if l0 > l1:
                step = (x1 - x0) / math.expm1(min(l0 - l1, 700.0))
            else:
                step = x1 - x0
            if step < 0.25 * width:
                step *= 2.0
            if lo < lo + step < hi:
                x = lo + step
        width_2, width_1 = width_1, width
        l_x = logdet(x)
        if l_x is None:
            hi = x
        else:
            lo, pd = x, [pd[-1], (x, l_x)]
    return float(0.5 * (lo + hi))


# --- variational upper bound ------------------------------------------------

def rayleigh(q, bc: RobinBC, y_samples) -> float:
    """Rayleigh quotient of a sampled trial function.

    ``y_samples`` is a sequence of (x, y) pairs on a grid covering [0,1].
    Derivative and potential terms use the piecewise-linear interpolant
    (trapezoidal quadrature for the integrals, exact evaluation at point
    masses), so the value is an upper bound for lambda_1 up to the
    quadrature error of the sampling grid.
    """
    arr = np.asarray(y_samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("y_samples must be a sequence of (x, y) pairs")
    order = np.argsort(arr[:, 0])
    xs = arr[order, 0]
    ys = arr[order, 1]
    if abs(xs[0]) > 1e-12 or abs(xs[-1] - 1.0) > 1e-12:
        raise ValueError("samples must cover [0, 1]")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sample abscissae must be distinct")

    dx = np.diff(xs)
    dy = np.diff(ys)
    num = float(np.sum(dy * dy / dx))
    num += bc.k0sq * ys[0] ** 2 + bc.k1sq * ys[-1] ** 2

    pts = np.union1d(xs, q.breakpoints)
    yv = np.interp(pts, xs, ys)
    a = pts[:-1]
    b = pts[1:]
    mids = 0.5 * (a + b)
    sval = _cell_values(q.breakpoints, q.heights, mids)
    num -= float(np.sum(sval * 0.5 * (yv[:-1] ** 2 + yv[1:] ** 2) * (b - a)))

    for site, w in q.deltas:
        num -= w * float(np.interp(site, xs, ys)) ** 2

    den = float(np.sum(0.5 * (ys[:-1] ** 2 + ys[1:] ** 2) * dx))
    if den == 0.0:
        raise ZeroFunction("trial function is identically zero")
    return num / den
