"""Rational LTI building blocks: polynomials, transfer functions, frequency
response, pole extraction, and zero-order-hold discretization.

Everything lives in the continuous (s) domain until ``zoh`` samples it, by
one matrix exponential taken with numpy alone (Pade(13) scaling and squaring,
Higham 2005), so the package needs no scipy.  Polynomial coefficients are
stored in ascending powers of s.  All types are immutable; all operations are
pure functions, so they are safe to evaluate concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class LtiError(Exception):
    """Base error for LTI algebra failures."""


class DegenerateLoopError(LtiError):
    """Raised when a feedback interconnection has an identically zero denominator."""


# Search grid for crossover hunting: brackets every time constant the bench
# produces (converter loops ~5 ms, cables ~6 ms, secondary loops ~0.1 s).
CROSSOVER_OMEGA_MIN = 1e-2
CROSSOVER_OMEGA_MAX = 1e5
_CROSSOVER_GRID = np.logspace(math.log10(CROSSOVER_OMEGA_MIN),
                              math.log10(CROSSOVER_OMEGA_MAX), 400)


class NoCrossoverError(LtiError):
    """Raised when no unity-gain crossing exists on the searched frequency range."""

    omega_min, omega_max = CROSSOVER_OMEGA_MIN, CROSSOVER_OMEGA_MAX

    def __init__(self, message: str):
        super().__init__(f"{message} on [{self.omega_min:g}, {self.omega_max:g}] rad/s")


def _trim(coeffs: Sequence[float]) -> tuple[float, ...]:
    """Drop high-order zero coefficients; keep at least one entry."""
    c = [float(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in s, coefficients in ascending powers."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        if len(coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, s: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Polynomial product; coefficients are the convolution of the inputs."""
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0.0] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def scaled(self, k: float) -> "Polynomial":
        return Polynomial([k * c for c in self.coeffs])

    def roots(self) -> np.ndarray:
        """All roots, via companion-matrix eigenvalues plus one Newton polish."""
        if self.degree == 0:
            return np.array([], dtype=complex)
        r = np.roots(self.coeffs[::-1])
        d = Polynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:] or (0.0,))
        polished = []
        for root in r:
            dv = d(root)
            if abs(dv) > 0.0:
                step = self(root) / dv
                if np.isfinite(step):
                    root = root - step
            polished.append(root)
        return np.array(polished, dtype=complex)


def _deflate(poly: Polynomial, roots: list[complex]) -> Optional[Polynomial]:
    """Divide out the factor carrying ``roots``; None when it is not real."""
    factor = np.atleast_1d(np.poly(np.array(roots)))
    if np.max(np.abs(factor.imag)) > 1e-9 * np.max(np.abs(factor.real)):
        return None  # the matched set is not conjugate-closed
    quotient, _ = np.polydiv(np.array(poly.coeffs[::-1]), factor.real)
    return Polynomial(np.atleast_1d(quotient)[::-1])


def cancel_common_factors(num: Polynomial,
                          den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Cancel numerator/denominator roots that agree within 1e-9 relative.

    Cancellation is deliberately strict: near-but-not-equal pole/zero pairs are
    kept so near-unstable hidden modes stay visible.  The surviving factors are
    obtained by deflating the original coefficients (never by rebuilding them
    from computed roots), so multiple roots in the kept part stay accurate.
    """
    if num.is_zero or num.degree == 0 or den.degree == 0:
        return num, den
    zd = list(den.roots())
    cancelled_n: list[complex] = []
    cancelled_d: list[complex] = []
    for z in num.roots():
        hit = None
        for i, p in enumerate(zd):
            if abs(z - p) <= 1e-9 * max(1.0, abs(z), abs(p)):
                hit = i
                break
        if hit is not None:
            cancelled_n.append(z)
            cancelled_d.append(zd.pop(hit))
    if not cancelled_n:
        return num, den
    new_num = _deflate(num, cancelled_n)
    new_den = _deflate(den, cancelled_d)
    if new_num is None or new_den is None:
        return num, den
    return new_num, new_den


@dataclass(frozen=True)
class TransferFunction:
    """Rational transfer function num(s)/den(s)."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise LtiError("denominator is identically zero")

    def __call__(self, s: complex) -> complex:
        return self.num(s) / self.den(s)

    def dc_gain(self) -> float:
        d = self.den(0.0)
        if d == 0:
            return math.inf if self.num(0.0) != 0 else math.nan
        return (self.num(0.0) / d).real


def tf(num: Sequence[float], den: Sequence[float]) -> TransferFunction:
    """Build a transfer function from ascending-power coefficient lists."""
    return TransferFunction(Polynomial(num), Polynomial(den))


def tf_constant(k: float) -> TransferFunction:
    return tf([k], [1.0])


def tf_series(g1: TransferFunction, g2: TransferFunction) -> TransferFunction:
    """Series (cascade) interconnection g1*g2 with exact-match factor cleanup."""
    num, den = cancel_common_factors(g1.num * g2.num, g1.den * g2.den)
    return TransferFunction(num, den)


def tf_feedback(forward: TransferFunction,
                feedback: TransferFunction) -> TransferFunction:
    """Closed loop forward/(1 + forward*feedback) as a reduced rational function."""
    num = forward.num * feedback.den
    den = forward.den * feedback.den + forward.num * feedback.num
    if den.is_zero:
        raise DegenerateLoopError("algebraic loop: closed-loop denominator is zero")
    num, den = cancel_common_factors(num, den)
    return TransferFunction(num, den)


def poles(g: TransferFunction) -> list[complex]:
    """Denominator roots.  Empty for a constant denominator."""
    return list(g.den.roots())


# ---------------------------------------------------------------------------
# frequency response


def _branch_angle(root: complex, w: float) -> float:
    # Continuous-in-w branch of angle(jw - root).  Left-half-plane and
    # imaginary-axis roots use the principal value (continuous for w > 0
    # except exactly at an imaginary-axis root); right-half-plane roots use
    # the branch that starts at pi when w -> 0.
    if root.real > 0.0:
        return math.pi + cmath.phase(root - 1j * w)
    return cmath.phase(1j * w - root)


def analytic_phase(g: TransferFunction, omega: float) -> float:
    """Continuous (unwrapped-from-DC) phase of g(jw), in radians.

    Computed as the sum of per-root branch angles, so it carries the absolute
    phase a cumulative unwrap would only reach with a sufficiently fine grid.
    """
    lead = g.num.coeffs[-1] / g.den.coeffs[-1]
    phase = 0.0 if lead > 0 else -math.pi
    for z in g.num.roots():
        phase += _branch_angle(z, omega)
    for p in g.den.roots():
        phase -= _branch_angle(p, omega)
    return phase


def freq_response(g: TransferFunction,
                  omegas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude (dB) and unwrapped phase (deg) at strictly positive frequencies.

    Phase is cumulatively unwrapped along the grid and anchored at the lowest
    frequency with the analytic phase of g there, so margins read from the
    result use absolute phase.  Evaluation on top of an imaginary-axis pole
    yields an ``inf`` magnitude (and a held phase) instead of a crash.
    """
    w = np.asarray(list(omegas), dtype=float)
    if len(w) == 0 or np.any(w <= 0) or np.any(np.diff(w) < 0):
        raise ValueError("frequencies must be nonempty, strictly positive and ascending")
    den_scale = max(abs(c) for c in g.den.coeffs)
    resp = np.empty(len(w), dtype=complex)
    flagged = np.zeros(len(w), dtype=bool)
    for i, wi in enumerate(w):
        dv = g.den(1j * wi)
        if abs(dv) < 1e-300 * max(1.0, den_scale):
            flagged[i] = True
            resp[i] = complex(math.inf, 0.0)
        else:
            resp[i] = g.num(1j * wi) / dv
    mag_db = np.where(flagged, math.inf, 20.0 * np.log10(np.maximum(np.abs(resp), 1e-300)))
    raw = np.angle(resp)
    raw[flagged] = 0.0
    unwrapped = np.unwrap(raw)
    unwrapped += analytic_phase(g, w[0]) - unwrapped[0]
    return mag_db, np.degrees(unwrapped)


def _bisect_db(g: TransferFunction, level_db: float, wa: float, wb: float) -> float:
    """Bisection on log-frequency for 20*log10|g(jw)| == level_db."""
    fa = 20.0 * math.log10(abs(g(1j * wa))) - level_db
    la, lb = math.log(wa), math.log(wb)
    for _ in range(200):
        lm = 0.5 * (la + lb)
        wm = math.exp(lm)
        fm = 20.0 * math.log10(abs(g(1j * wm))) - level_db
        if abs(fm) < 1e-9:
            return wm
        if (fa < 0) == (fm < 0):
            la, fa = lm, fm
        else:
            lb = lm
    return math.exp(0.5 * (la + lb))


def _grid_db(g: TransferFunction) -> np.ndarray:
    """20*log10|g(jw)| at each frequency of the crossover search grid."""
    return np.array([20.0 * math.log10(max(abs(g(1j * w)), 1e-300))
                     for w in _CROSSOVER_GRID])


def gain_crossover(g: TransferFunction) -> float:
    """Lowest frequency where |g(jw)| crosses unity (0 dB).

    A log grid brackets the crossing, bisection refines it to better than
    1e-6 dB.  Raises :class:`NoCrossoverError` when the magnitude never
    crosses 0 dB on the range.
    """
    grid = _CROSSOVER_GRID
    sign = np.sign(_grid_db(g))
    for i in range(len(grid) - 1):
        if sign[i] == 0:
            return float(grid[i])
        if sign[i] != sign[i + 1]:
            return float(_bisect_db(g, 0.0, grid[i], grid[i + 1]))
    raise NoCrossoverError("no 0 dB crossing of |g(jw)|")


def bandwidth_3db(g: TransferFunction) -> float:
    """Lowest frequency where the gain has fallen 3 dB below the DC gain."""
    dc = g.dc_gain()
    if not math.isfinite(dc) or dc == 0.0:
        raise LtiError("3 dB bandwidth needs a finite nonzero DC gain")
    level = 20.0 * math.log10(abs(dc)) - 3.0
    grid = _CROSSOVER_GRID
    above = _grid_db(g) - level
    for i in range(len(grid) - 1):
        if above[i] >= 0 > above[i + 1]:
            return float(_bisect_db(g, level, grid[i], grid[i + 1]))
    raise NoCrossoverError("gain never falls 3 dB below DC")


# ---------------------------------------------------------------------------
# discretization


# Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005: the [13/13] Pade
# coefficients and the largest 1-norm at which that approximant is accurate to
# double precision unscaled
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade(13) scaling and squaring (Higham 2005).

    The approximant (V - U)^-1 (V + U) is formed as I + 2 (V - U)^-1 U, the
    same rational function, so a zero matrix maps to exactly the identity.
    """
    norm = np.linalg.norm(a, 1)
    if not math.isfinite(norm):
        return np.full(a.shape, math.nan)   # for the caller's finiteness check
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    e = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        e = e @ e
    return e


def zoh(a: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization: x[k+1] = ad @ x[k] + bd @ u[k].

    Both blocks come from one matrix exponential of [[a, b], [0, 0]] * dt.
    """
    n, m = b.shape
    big = np.zeros((n + m, n + m))
    big[:n, :n] = a * dt
    big[:n, n:] = b * dt
    e = _expm(big)
    return e[:n, :n], e[:n, n:]
