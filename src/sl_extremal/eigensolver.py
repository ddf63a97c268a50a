"""First eigenvalue of y'' + q y + lambda y = 0 with third-type boundary conditions.

The boundary conditions are y'(0) = k0^2 y(0) and y'(1) = -k1^2 y(1).  The
primary solver is phase-angle (Prufer) shooting: with y = rho sin(theta),
y' = rho cos(theta), the angle obeys

    theta' = cos(theta)^2 + (lambda + q(x)) sin(theta)^2,

theta(0) = arccot(k0^2), and lambda_1 is the unique lambda at which theta(1)
first reaches pi - arccot(k1^2); theta(1; lambda) is strictly increasing in
lambda.  Every theta-walk -- ``theta_end``, ``lambda1``, its eigenfunction
sampler and the extremum search -- reads one shooting problem, ``_Shot``: the
cells, the start state and the target.  Its walk (``_walk``) carries the
state (j, y, y') with y >= 0, never the angle, advanced exactly on each
constant cell by the closed-form solution (Pruess, SIAM J. Numer. Anal. 10,
1973; Pryce, "Numerical Solution of Sturm-Liouville Problems", 1993) and
rescaled by powers of two, so theta(1; lambda) is exact up to rounding for
every step + delta potential.  lambda_1 is found by Brent's method on a
sign-change bracket, doubled outward from just below the Rayleigh quotient of
the constant function.

The independent cross-check ``lambda1_fd`` discretizes the quadratic form by
P1 finite elements on a mesh fitted to the breakpoints and mass sites and on
its bisection, and returns their Richardson extrapolation, O(h^4).  Both
meshes are solved alike and each holds lambda_1^h in a certified bracket
[sigma, RQ]: a passing LAPACK dpttrf of K - sigma M and the Rayleigh quotient
of an inverse-iteration vector.  On the benchmark's crosscheck inputs it
takes a median of 6 factorizations and about 0.8 ms at 4096 nodes.
``lambda1_zero`` evaluates the zero-potential eigenvalue from its
characteristic equation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math
import sys
from typing import NamedTuple

import numpy as np

from .potentials import StepPotential, _cell_values, _cells

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
    """No finite bracket encloses the eigenvalue, or it does not converge."""


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
    def theta_target(self) -> float:
        return math.pi - _arccot(self.k1sq)


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    eigenfunction_samples: tuple[tuple[float, float], ...] | None = None


# --- exact propagation of (y, y') -----------------------------------------

_LN2 = math.log(2.0)
_HUGE = 2.0**500
_TINY = 2.0**-500


def _walk(cells, lam, j, y, dy, e):
    """Carry the shooting state (j, y, dy, e) across ``cells`` at ``lam``.

    Each cell is (L, height, w), w the point mass at its right end.  The
    state stands for the solution (-1)^j 2^e (y, y') up to a positive
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
    for length, height, w in cells:
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


class _Shot(NamedTuple):
    """One shooting problem (Pryce 1993, ch. 5): ``_walk``'s cells, and their
    lengths and masses for ``with_heights``; the start (y, y') = (1, k0^2 - w0),
    w0 the mass at 0, as the state (y0, dy0, e0) rescaled into [2^-500, 2^500]
    like every later state (from y' near max float the first cell overflows);
    the target pi - arccot(k1^2); and robin = k0^2 - w0 + k1^2, the constant's
    Rayleigh quotient less the cells' part."""

    cells: list
    lengths: list
    masses: list
    y0: float
    dy0: float
    e0: int
    target: float
    robin: float

    @classmethod
    def on(cls, bc: RobinBC, x, s, w) -> "_Shot":
        """The shot on the cell decomposition (x, s, w) of ``_cells``."""
        slope = bc.k0sq - float(w[0])
        e0 = math.frexp(1.0 + abs(slope))[1] if 1.0 + abs(slope) > _HUGE else 0
        lengths, masses = np.diff(x).tolist(), w[1:].tolist()
        return cls(list(zip(lengths, s.tolist(), masses)), lengths, masses, math.ldexp(1.0, -e0),
                   math.ldexp(slope, -e0), e0, bc.theta_target, slope + bc.k1sq)

    def with_heights(self, heights) -> "_Shot":
        """The shot at cell heights ``heights``; built per search proposal, so by tuple.__new__."""
        return tuple.__new__(_Shot, (list(zip(self.lengths, heights, self.masses)), *self[1:]))

    def miss(self, lam: float) -> float:
        """theta(1; lam) - target, by one walk of the cells from the start."""
        j, y, dy, _ = _walk(self.cells, lam, 0, self.y0, self.dy0, 0)
        return j * math.pi + math.atan2(y, dy) - self.target

    def start(self):
        """(lo, hi, f_lo or None) for ``solve`` to start from.

        R = k0^2 + k1^2 - int q - sum w, the quotient of y = 1, bounds lambda_1
        from above, and (R - max(1, 1e-2 |R|), R) is the start, its lower end
        clamped to -max float.  A lower end above 1 is kept only where theta
        there is below the target: a root further down may lie at any scale
        below R, and doubling down from R would enclose it in a bracket as wide
        as R (Robin coefficients of 1e100 put R at 2e100 and lambda_1 near
        pi^2).  There, and where R is not finite or the clamp leaves no
        interval, the start is (-1, 1), doubled out to the root's scale.
        """
        r = self.robin - sum(length * height + w for length, height, w in self.cells)
        lo = max(r - max(1.0, 1e-2 * abs(r)), -sys.float_info.max)
        if not -math.inf < lo < r:  # False for NaN too
            return -1.0, 1.0, None
        if lo <= 1.0:
            return lo, r, None
        try:
            f_lo = self.miss(lo)
        except (OverflowError, ValueError):  # lo + q overflows
            return -1.0, 1.0, None
        return (lo, r, f_lo) if f_lo < 0.0 else (-1.0, 1.0, None)

    def solve(self, lo: float, hi: float, f_lo=None, f_hi=None) -> EigenResult:
        """``lambda1``'s bracket doubling and Brent iteration from the start
        bracket lo < hi; f_lo or f_hi, when given, is ``miss`` at lo or hi,
        which is then not evaluated again.

        Brent's method (Brent, "Algorithms for Minimization without
        Derivatives", 1973, ch. 4; the algorithm of scipy's brentq) keeps the
        bracket as {cur, blk}, cur the end with the smaller residual, and pre
        the previous iterate.  It steps from cur by the secant through cur and
        blk, or by inverse quadratic interpolation through pre, cur and blk
        where pre is a third point.  It bisects instead when that step would
        leave the three quarters of the bracket next to cur or fails to halve
        the step before last, and it steps at least a quarter of the stop width
        toward blk, so the last step straddles the root."""

        def f_end(lam: float, side: str) -> float:
            """miss at a new bracket end; BracketNotFound where lam, some lam + q
            or theta there is not finite."""
            try:
                value = self.miss(lam) if math.isfinite(lam) else math.nan
            except (OverflowError, ValueError):  # math.floor of an inf or NaN angle
                value = math.nan
            if not math.isfinite(value):
                raise BracketNotFound(f"no {side} bracket endpoint after {expansions} expansions")
            return value

        expansions = 0
        if f_lo is None:
            f_lo = f_end(lo, "lower")
        while f_lo >= 0.0:
            lo, hi, f_hi = lo - 2.0 * (hi - lo), lo, f_lo
            f_lo = f_end(lo, "lower")
            expansions += 1
        if f_hi is None:  # only where the start's lower end is below the root
            f_hi = f_end(hi, "upper")
        while f_hi < 0.0:  # an end with theta exactly on target is a root: keep it
            lo, hi, f_lo = hi, hi + 2.0 * (hi - lo), f_hi
            f_hi = f_end(hi, "upper")
            expansions += 1

        iterations = expansions
        pre, f_pre, cur, f_cur = lo, f_lo, hi, f_hi
        for _ in range(400):
            if (f_pre < 0.0) != (f_cur < 0.0):  # cur crossed the root: pre is the other end
                blk, f_blk = pre, f_pre
                step = last = cur - pre
            if abs(f_blk) < abs(f_cur):
                pre, f_pre, cur, f_cur, blk, f_blk = cur, f_cur, blk, f_blk, cur, f_cur
            lo, f_lo, hi, f_hi = ((cur, f_cur, blk, f_blk) if f_cur < 0.0
                                  else (blk, f_blk, cur, f_cur))
            tol = 1e-13 * max(1.0, abs(lo), abs(hi))
            if hi - lo <= tol:
                break
            delta = 0.25 * tol  # the least step
            half = 0.5 * blk - 0.5 * cur  # blk - cur can overflow
            trial = None
            if abs(last) > delta and abs(f_cur) < abs(f_pre):
                if pre == blk:  # secant
                    trial = -f_cur * (cur - pre) / (f_cur - f_pre)
                else:  # inverse quadratic interpolation
                    d_pre = (f_pre - f_cur) / (pre - cur)
                    d_blk = (f_blk - f_cur) / (blk - cur)
                    den = d_blk * d_pre * (f_blk - f_pre)
                    if den != 0.0:  # the slopes can underflow where |lambda| is huge
                        trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / den
            if trial is not None and 2.0 * abs(trial) < min(abs(last), 3.0 * abs(half) - delta):
                last, step = step, trial
            else:
                last = step = half
            pre, f_pre = cur, f_cur
            cur += step if abs(step) > delta else math.copysign(delta, half)
            f_cur = self.miss(cur)
            iterations += 1
        else:
            raise BracketNotFound(f"bracket [{lo!r}, {hi!r}] wider than {tol!r} after 400 steps")

        lam, residual = (lo, abs(f_lo)) if abs(f_lo) <= f_hi else (hi, f_hi)
        return EigenResult(lambda1=lam, residual=residual, bracket=(lo, hi),
                           iterations=iterations)


def theta_end(q, bc: RobinBC, lam: float) -> float:
    """Prufer angle theta(1; lambda) from (y, y') = (1, k0^2 - w0) at x = 0, w0 the
    mass there, exact up to rounding: the shot's miss against target 0 (x - 0 is x)."""
    return _Shot.on(bc, *_cells(q))._replace(target=0.0).miss(lam)


# --- eigenvalue via Brent's method -----------------------------------------

def lambda1(q, bc: RobinBC, *, eigenfunction_samples: int | None = None) -> EigenResult:
    """First eigenvalue of the problem, found by shooting.

    theta(1; lambda) is strictly increasing in lambda, so the equation
    theta(1; lambda) = pi - arccot(k1^2) has exactly one solution, which
    ``_Shot.start`` brackets from just below R = k0^2 + k1^2 - int q - sum w,
    the Rayleigh quotient of the constant function.  ``_Shot.solve`` runs
    Brent's method until the bracket is at most 1e-13 * max(1, |lo|, |hi|)
    wide; there is no residual condition, as theta is exact and the residual
    |theta(1; lambda) - target| is rounding noise that a stiff potential can
    keep above any fixed tolerance.  It returns the bracket end with the
    smaller residual, and raises BracketNotFound when a bracket end or theta
    there is not finite, or 400 Brent steps leave the bracket wider than the
    stop width.  A pass of the benchmark's ``certify`` inputs takes 228 walks.
    """
    shot = _Shot.on(bc, *_cells(q))
    res = shot.solve(*shot.start())
    if eigenfunction_samples is None:
        return res
    return replace(res, eigenfunction_samples=_eigenfunction(
        q, bc, res.lambda1, eigenfunction_samples))


def _eigenfunction(q, bc: RobinBC, lam, n_samples):
    """Sample y on the uniform grid j/n_samples at the eigenvalue ``lam``: the
    shot on ``_cells(q, samples)`` walked one cell at a time, each adding back
    the log of the cos(kl) or cosh(kl) that the map of a cell with
    sqrt(c) * L <= 1 divides out, so all samples share one scale.  The arrays
    are allocated first, so an n_samples beyond memory fails at once."""
    if n_samples < 2:
        raise ValueError("need at least 2 sample intervals")
    n = int(n_samples)
    ys = np.empty(n + 1)
    logs = np.empty(n + 1)
    x, s, w = _cells(q, np.arange(n + 1) / n)
    shot = _Shot.on(bc, x, s, w)
    state = (0, shot.y0, shot.dy0, shot.e0)
    ys[0], logs[0] = shot.y0, shot.e0 * _LN2
    log_scale = 0.0
    i = 1
    for b, (length, height, wb) in zip(x[1:].tolist(), shot.cells):
        c = lam + height
        kl = math.sqrt(abs(c)) * length
        if c < 0.0:
            log_scale += kl + math.log1p(math.exp(-2.0 * kl)) - _LN2  # log cosh
        elif kl <= 1.0:
            log_scale += math.log(math.cos(kl))
        state = _walk(((length, height, wb),), lam, *state)
        if b == i / n:
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
    (0, pi) is found by bisection.  Where k0^2 k1^2 or pi (k0^2 + k1^2)
    overflows, it reads chi / max(k0^2, k1^2) instead, which cannot.  The
    Neumann case returns exactly 0.
    """
    a = bc.k0sq * bc.k1sq
    b = bc.k0sq + bc.k1sq
    if b == 0.0:
        return 0.0
    # chi / s, which at s = 1 is chi to the bit
    s = 1.0 if math.isfinite(a) and math.isfinite(math.pi * b) else max(bc.k0sq, bc.k1sq)
    a, b = bc.k0sq * (bc.k1sq / s), bc.k0sq / s + bc.k1sq / s

    def chi(w: float) -> float:
        return math.sin(w) * (w * (w / s) - a) - b * w * math.cos(w)

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
    """Smallest eigenvalue of the P1 finite-element discretization,
    Richardson-extrapolated to O(h^4): b + (b - a) / 3, with a and b the
    eigenvalues on the fitted mesh of ``_fitted`` (about n_nodes / 2 nodes)
    and on its bisection, each in a certified bracket [sigma, RQ]
    (``_p1_brackets``).  Each element has one height and each mass sits on a
    node, so the P1 error expands in h^2, h^4 (Strang & Fix, "An Analysis of
    the Finite Element Method", 1973).  On the ``crosscheck`` inputs: a median
    of 6 factorizations and 5 solves, about 0.8 ms at 4096 nodes (2-core
    x86_64), within 3.2e-13 of the exact eigenvalue.  Raises BracketNotFound
    when a shift, or a matrix dpttrf passes, is not finite."""
    (_, a), (_, b) = _p1_brackets(q, bc, n_nodes)
    return b + (b - a) / 3.0  # (4b - a) / 3 overflows at +-1.7e308


def _fitted(q, bc: RobinBC, n_nodes: int) -> "_P1":
    """Coarse mesh: ceil(n_nodes / 2) uniform nodes, less those within h/4 of
    a breakpoint or mass site, plus these unless within 2^-27 h of the node
    before or of 1 (a sliver would ruin the conditioning: its height joins the
    element around it, read at the midpoint, and its mass the nearest node)."""
    uniform = np.linspace(0.0, 1.0, (int(n_nodes) + 1) // 2)
    h = uniform[1]
    fixed = _cells(q)[0]
    near = np.rint(fixed / h).astype(int)  # the only uniform node within h/2
    keep = np.ones(uniform.size, dtype=bool)
    keep[near[np.abs(fixed - uniform[near]) <= 0.25 * h]] = False
    kept = [0.0]
    for x in fixed[1:-1].tolist():
        if x - kept[-1] > 2.0**-27 * h and 1.0 - x > 2.0**-27 * h:
            kept.append(x)
    x = np.sort(np.concatenate((uniform[keep], kept, [1.0])), kind="stable")
    wn = np.zeros(x.size)
    for site, w in q.deltas:
        wn[np.argmin(np.abs(x - site))] += w
    return _P1(bc, x, _cell_values(q.breakpoints, q.heights, 0.5 * (x[:-1] + x[1:])), wn)


def _bisect(v: np.ndarray) -> np.ndarray:
    """Nodes, or nodal values of a P1 function, with every element halved."""
    out = np.empty(2 * v.size - 1)
    out[::2] = v
    out[1::2] = 0.5 * (v[:-1] + v[1:])
    return out


class _P1:
    """The P1 space on the nodes x with one height s per element and the
    point mass wn[i] on node i: K and M, tridiagonal."""

    def __init__(self, bc: RobinBC, x: np.ndarray, s: np.ndarray, wn: np.ndarray):
        self.bc, self.x, self.s, self.h, self.wn = bc, x, s, np.diff(x), wn
        with np.errstate(over="ignore"):  # a grid of ``rayleigh`` may hold subnormal widths
            g, sh, hm = 1.0 / self.h, s * self.h, self.h / 3.0
        a, self.ke, self.me = g - sh / 3.0, -g - sh / 6.0, 0.5 * hm
        self.kd = np.append(a, bc.k1sq) + np.append(bc.k0sq, a) - self.wn
        self.md = np.append(hm, 0.0) + np.append(0.0, hm)

    def factor(self, sigma: float):
        """(d, e) of K - sigma M = L diag(d) L^T, or None if not definite."""
        from scipy.linalg.lapack import dpttrf  # here: at the top it doubles import time

        with np.errstate(over="ignore"):  # an overflow is rejected below
            d, e, info = dpttrf(self.kd - sigma * self.md, self.ke - sigma * self.me,
                                overwrite_d=1, overwrite_e=1)
        if info:
            return None
        if not np.isfinite(d).all():  # dpttrf passes an overflowed +inf diagonal
            raise BracketNotFound(f"K - sigma M is not finite at sigma = {sigma!r}")
        return d, e

    def mass(self, v: np.ndarray) -> np.ndarray:
        r = self.md * v
        r[:-1] += self.me * v[1:]
        r[1:] += self.me * v[:-1]
        return r

    def rayleigh(self, v: np.ndarray) -> float:
        """Quotient of the P1 function with nodal values v, elements [a, b]:
        [sum (b - a)^2 / h + k0^2 v_0^2 + k1^2 v_N^2 - sum s h (a^2 + ab + b^2) / 3
        - sum w v^2] / sum h (a^2 + ab + b^2) / 3.  v^T K v would lose eps / h^2."""
        a, b = v[:-1], v[1:]
        m = self.h * (a * a + a * b + b * b) / 3.0
        num = (np.dot(b - a, (b - a) / self.h) + self.bc.k0sq * v[0] ** 2
               + self.bc.k1sq * v[-1] ** 2 - np.dot(self.s, m) - np.dot(self.wn, v * v))
        return float(num / m.sum())

    def inverse_iteration(self, sigma: float, factors, v: np.ndarray, tol: float = 1e-12):
        """(v, RQ) after steps w = mu (K - sigma M)^-1 M v; mu = 1e-2 max(1, |sigma|)
        keeps w in range.  sigma + mu v^T M v / w^T M v is above
        sigma + mu w^T M v / w^T M w (Cauchy-Schwarz) by about v's error
        squared; it stops once that is tol max(1, |lambda|), or at 64."""
        from scipy.linalg.lapack import dpttrs

        mu, mv = 1e-2 * max(1.0, abs(sigma)), self.mass(v)
        for _ in range(64):
            w, _ = dpttrs(*factors, mu * mv)
            mw = self.mass(w)
            wmv, wmw = float(np.dot(w, mv)), float(np.dot(w, mw))
            gap = mu * (float(np.dot(v, mv)) / wmv - wmv / wmw)
            v, mv = w / math.sqrt(wmw), mw / math.sqrt(wmw)
            if gap <= tol * max(1.0, abs(sigma + mu * wmv / wmw)):
                break
        return v, self.rayleigh(v)

    def definite_below(self, hi: float, step: float):
        """(sigma, factors): steps down from hi, doubling, to a passing dpttrf."""
        while math.isfinite(lo := hi - step):
            if (factors := self.factor(lo)) is not None:
                return lo, factors
            hi, step = lo, 2.0 * step
        raise BracketNotFound("finite-element lower bracket end is not finite")


def _p1_brackets(q, bc: RobinBC, n_nodes: int) -> list[tuple[float, float]]:
    """[(sigma, RQ)] on the fitted coarse mesh and on its bisection: dpttrf
    passing certifies sigma < lambda_1^h (Sylvester's law of inertia), and
    RQ, a P1 function's quotient, bounds lambda_1^h and lambda_1 (min-max).

    Each mesh is solved alike (Parlett, "The Symmetric Eigenvalue Problem",
    1980): a shift stepped down from an upper bound, doubling, until dpttrf
    passes, then inverse iteration from a start vector.  The coarse mesh
    does it twice: from the constant, whose quotient k0^2 + k1^2 - int q -
    sum w is a free upper bound (first step max(1, 1e-3 |quotient|)), only
    to a gap of 1e-3 max(1, |lambda|); then from that vector, 1e-4
    max(1, |RQ|) below its RQ, to the full 1e-12.  The spaces are nested,
    so the coarse RQ bounds the fine lambda_1^h: the fine mesh shifts as far
    below it and starts from the coarse vector."""
    if n_nodes < 32:
        raise ValueError("n_nodes must be >= 32")
    p1 = _fitted(q, bc, n_nodes)
    with np.errstate(over="ignore"):  # a non-finite quotient is rejected below it
        rq = bc.k0sq + bc.k1sq - float(np.dot(p1.s, p1.h)) - float(p1.wn.sum())
    lo, factors = p1.definite_below(rq, max(1.0, 1e-3 * abs(rq)))
    v, rq = p1.inverse_iteration(lo, factors, np.ones(p1.x.size), 1e-3)
    lo, factors = p1.definite_below(rq, 1e-4 * max(1.0, abs(rq)))
    v, a = p1.inverse_iteration(lo, factors, v)
    wn = np.zeros(2 * p1.x.size - 1)
    wn[::2] = p1.wn
    fine = _P1(bc, _bisect(p1.x), np.repeat(p1.s, 2), wn)  # holds the coarse space
    sigma, factors = fine.definite_below(a, 1e-4 * max(1.0, abs(a)))
    return [(lo, a), (sigma, fine.inverse_iteration(sigma, factors, _bisect(v))[1])]


# --- variational upper bound ------------------------------------------------

def rayleigh(q, bc: RobinBC, y_samples) -> float:
    """Rayleigh quotient of the piecewise-linear interpolant of ``y_samples``,
    (x, y) pairs on a grid covering [0,1]: an upper bound for lambda_1, exact
    up to rounding (``_P1.rayleigh`` on the cells of q cut at the samples)."""
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
    if not ys.any():
        raise ZeroFunction("trial function is identically zero")
    x, s, w = _cells(q, xs)
    return _P1(bc, x, s, w).rayleigh(np.interp(x, xs, ys))
