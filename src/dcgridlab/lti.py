"""Rational LTI building blocks: polynomials, transfer functions, frequency
response, pole extraction, and zero-order-hold discretization.

Everything lives in the continuous (s) domain until ``zoh`` samples it, by
one matrix exponential taken with numpy alone (Pade(13) scaling and squaring,
Higham 2005), so the package needs no scipy.  Polynomial coefficients are
stored in ascending powers of s.  Products are exact-order Python
convolutions, and series and feedback products keep every factor: no roots
are matched numerically, so a product's degree, and a closed loop's pole
count, follow from its structure.  All types are immutable; all
operations are pure functions, so they are safe to evaluate concurrently.

A coefficient may also hold one value per step of a sweep (see
``Polynomial``), so one pass of the algebra builds every step's transfer
function, each step with the bits of its scalar build.  Their roots come from
one stacked eigenvalue solve per group of like rows, then one Newton step on
every root of the stack at once, by one rule: numpy's complex128 scalar
arithmetic (``_newton``).

A frequency response is evaluated for a whole grid at once, with the bits of
a loop over its frequencies in Python complex arithmetic (``_response``):
numpy's complex Horner's rule on ``s = 1j * w``, CPython's bit for bit even
where numpy fuses a product's multiply and add, as one of its two products is
an exact zero, then CPython's Smith quotient (``_smith``).  The crossover
grid takes |g| by ``np.hypot`` and the log by ``math.log10``, as ``abs()`` of
a Python complex does.  Those ulps matter: each tuned crossover sits on a
grid point, where the loop's dB value is 0 within an ulp and its sign picks
the bisection's bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

import numpy as np


class LtiError(Exception):
    """Base error for LTI algebra failures."""


# The frequencies of every Bode export and of the crossover search: brackets
# every time constant the bench produces (converter loops ~5 ms, cables ~6 ms,
# secondary loops ~0.1 s).
FREQUENCY_GRID = np.logspace(-2, 5, 400)


class NoCrossoverError(LtiError):
    """Raised when no unity-gain crossing exists on the searched frequency range."""

    def __init__(self, message: str):
        super().__init__(f"{message} on [{FREQUENCY_GRID[0]:g}, "
                         f"{FREQUENCY_GRID[-1]:g}] rad/s")


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in s, coefficients in ascending powers.

    Each coefficient is a float, or a 1-D float64 array with one entry per
    step of a sweep (floats and arrays mix; arithmetic broadcasts the floats).
    numpy's elementwise float64 ``*`` and ``+`` are Python's IEEE operations.
    A batched polynomial drops a high-order coefficient only when it is zero
    at every step; the +0.0 a step keeps there leaves its other coefficients
    with their scalar bits.
    """

    coeffs: tuple[float | np.ndarray, ...]

    def __init__(self, coeffs: Sequence[float | np.ndarray]):
        # from a list: an exact-size tuple; a 0-d coefficient keeps float arithmetic
        c = tuple([x if isinstance(x, np.ndarray) and x.ndim else float(x) for x in coeffs])
        if not c:
            raise ValueError("polynomial needs at least one coefficient")
        # drop high-order zeros: a per-step array's only when zero at every step
        while len(c) > 1 and (c[-1] == 0.0 if type(c[-1]) is float else not c[-1].any()):
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def is_zero(self) -> bool:
        """Identically zero; for a batched polynomial, at any one step."""
        zero = self.coeffs[0] == 0.0
        for c in self.coeffs[1:]:
            zero = zero & (c == 0.0)
        return bool(np.any(zero))

    def __call__(self, s: complex) -> complex:
        """The polynomial at s, by Horner's rule in the arithmetic of s's own type."""
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Polynomial product, the Python convolution of the coefficients.  When
        a factor has at most 2 of them (every product the package forms), each
        sum has at most two terms, so any order gives ``np.convolve``'s bits."""
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial([x + y for x, y in
                           zip_longest(self.coeffs, other.coeffs, fillvalue=0.0)])

    def scaled(self, k: float) -> "Polynomial":
        return Polynomial([k * c for c in self.coeffs])


def _smith(a, b):
    """Smith's quotient a/b of two complex arrays, as CPython's complex ``/``
    rounds it: divide through by b's larger part, u.  A zero or NaN b gives
    NaN parts, so call it under ``np.errstate(all="ignore")``."""
    a, b = a[..., None].view(float), b[..., None].view(float)    # (..., re/im)
    wide = np.abs(b[..., :1]) >= np.abs(b[..., 1:])
    uv = np.where(wide, b, b[..., ::-1])
    u, v = uv[..., 0], uv[..., 1]
    ratio = v / u
    scaled = a * ratio[..., None]
    top = np.where(wide, a, scaled) - np.where(wide, scaled[..., ::-1], a[..., ::-1]) * [-1.0, 1.0]
    return (top / (u + v * ratio)[..., None]).view(complex)[..., 0]


def _newton(p, roots):
    """One Newton step x - p(x)/p'(x), in place, on each root of each row of
    descending coefficients ``p``, kept where the step is finite, in the
    arithmetic of numpy's complex128 scalars: Horner's ``acc * x + c`` for the
    polynomial and its derivative at once, then numpy's complex ``/``.  Each
    product is the unfused (ar xr - ai xi, ar xi + ai xr) in float64 ufuncs,
    as numpy's complex ufunc multiply fuses it on CPUs with FMA."""
    dp = p[:, :-1] * np.arange(p.shape[1] - 1, 0, -1.0)
    xr, xi = roots.real, roots.imag
    # (p or p', row, root); at a finite root Horner's first step from 0j
    # gives (c, 0.0), so p's sum starts there and p''s at 0.0
    shape = (2, *roots.shape)
    re, im, t, u = np.zeros(shape), np.zeros(shape), np.empty(shape), np.empty(shape)
    re[0] = p[:, :1]
    # a sum that overflows, or a zero or non-finite derivative: no step
    with np.errstate(all="ignore"):
        for k in range(dp.shape[1]):
            np.multiply(im, xi, out=t)
            np.multiply(re, xi, out=u)
            im *= xr
            im += u
            im += 0.0    # complex + float adds (c, 0.0), so a zero part is +0.0
            re *= xr
            re -= t
            re[0] += p[:, k + 1, None]
            re[1] += dp[:, k, None]
        del t, u, dp    # so the peak stays 4.5x the roots array
        num, dv = np.stack((re, im), axis=-1).view(complex)[..., 0]
        num /= dv
    np.subtract(roots, num, out=roots, where=np.isfinite(num))


def _roots(rows) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row of an ascending coefficient matrix whose rows may end
    in zeros of either sign, so one matrix holds several degrees: ``(roots,
    degree)``, row i's roots being ``roots[i, :degree[i]]``, then 0j.  One
    stacked ``eigvals`` call per (stripped degree, number of zero constant
    terms): as in ``np.roots``, a row stripped of its zero high-order and
    constant terms gives its companion-matrix eigenvalues (none at degree 0),
    then one zero root per zero constant term.  Then ``_newton`` polishes
    every root of every row in one pass, each row left-padded to the largest
    degree with its own high-order zeros.  A padding zero's sign changes no
    bit: while Horner's sum at a finite root is a signed zero, each ``+ c``
    leaves its imaginary part +0.0, and adding the row's leading coefficient
    gives exactly that coefficient, as when the sum starts there.
    Raises :class:`LtiError` for a row whose companion matrix is not finite."""
    nonzero, cols = rows != 0.0, np.arange(rows.shape[1])
    # reduced down the columns: numpy reduces along a short row axis slowly
    degree = np.ascontiguousarray(nonzero.T * cols[:, None]).max(axis=0)    # 0 for the zero row
    lo = np.argmax(nonzero, axis=1)    # zero constant terms
    d = int(degree.max())
    full = rows[:, d::-1]    # descending
    roots = np.zeros((len(rows), d), complex)
    group = (degree - lo) * (d + 1) + lo    # (stripped degree, zero constant terms)
    for key in sorted(set(group.tolist())):
        (n, zeros), members = divmod(key, d + 1), np.flatnonzero(group == key)
        p = full[members, d - n - zeros:d - zeros + 1]
        with np.errstate(over="ignore", invalid="ignore"):    # checked below
            ratios = -p[:, 1:] / p[:, :1]    # the companion matrix's first row
        if not (np.isfinite(p).all() and np.isfinite(ratios).all()):
            # eigvals would reject the whole stack without naming a row
            bad = ~(np.isfinite(p).all(axis=1) & np.isfinite(ratios).all(axis=1))
            row = np.trim_zeros(rows[members[np.argmax(bad)]], "b").tolist()
            raise LtiError(f"cannot find the roots of the polynomial {row} (ascending): "
                           f"a coefficient or a ratio of two is not finite")
        if n:
            companion = np.zeros((len(members), n, n))
            companion[:, 0] = ratios
            companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            roots[members, :n] = np.linalg.eigvals(companion)
    p = ratios = companion = None    # the last group's arrays, freed for _newton's
    _newton(full, roots)
    roots[cols[:d] >= degree[:, None]] = 0.0
    return roots, degree


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


def tf_series(g1: TransferFunction, g2: TransferFunction) -> TransferFunction:
    """Series (cascade) interconnection g1*g2, every factor kept: degrees add."""
    return TransferFunction(g1.num * g2.num, g1.den * g2.den)


def tf_feedback(forward: TransferFunction,
                feedback: TransferFunction) -> TransferFunction:
    """Closed loop forward/(1 + forward*feedback), every factor kept: the
    denominator is the characteristic polynomial den_f*den_b + num_f*num_b."""
    num = forward.num * feedback.den
    den = forward.den * feedback.den + forward.num * feedback.num
    if den.is_zero:
        raise LtiError("algebraic loop: closed-loop denominator is zero")
    return TransferFunction(num, den)


def poles(g: TransferFunction | np.ndarray):
    """Denominator roots as a list; empty for a constant denominator.  A matrix
    of ascending denominator rows gives ``_roots``' arrays instead: every
    row's roots from one stacked eigenvalue solve per degree, and their
    counts."""
    if isinstance(g, TransferFunction):
        return list(_roots(np.array([g.den.coeffs]))[0][0])
    return _roots(g)


# ---------------------------------------------------------------------------
# frequency response


def _branch_angle(root: complex, w: float) -> float:
    # Continuous-in-w branch of angle(jw - root).  Left-half-plane and
    # imaginary-axis roots use the principal value (continuous for w > 0
    # except exactly at an imaginary-axis root); right-half-plane roots use
    # the branch that starts at pi when w -> 0.  Each angle is atan2 of the
    # parts of root - jw or jw - root as Python's complex arithmetic rounds
    # them (jw's real part is 0.0 * w), so it is cmath.phase's value.
    if root.real > 0.0:
        return math.pi + math.atan2(root.imag - w, root.real)
    return math.atan2(w - root.imag, 0.0 * w - root.real)


def analytic_phase(g: TransferFunction, omega: float) -> float:
    """Continuous (unwrapped-from-DC) phase of g(jw), in radians.

    Computed as the sum of per-root branch angles, so it carries the absolute
    phase a cumulative unwrap would only reach with a sufficiently fine grid.
    """
    lead = g.num.coeffs[-1] / g.den.coeffs[-1]
    phase = 0.0 if lead > 0 else -math.pi
    r, (nz, npl) = _roots(np.array(list(zip_longest(g.num.coeffs, g.den.coeffs, fillvalue=0.0))).T)
    for z in r[0, :nz]:
        phase += _branch_angle(z, omega)
    for p in r[1, :npl]:
        phase -= _branch_angle(p, omega)
    return phase


def _den_floor(g: TransferFunction) -> float:
    """The |den(jw)| below which g(jw) is taken to sit on an imaginary-axis pole."""
    return 1e-300 * max(1.0, max(abs(c) for c in g.den.coeffs))


def _response(g: TransferFunction, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(jw) at each frequency of ``w``, with the bits of one Python complex
    evaluation per frequency, and the mask of the frequencies where
    |den(jw)| is below ``_den_floor``, at which g(jw) reads ``inf``."""
    with np.errstate(all="ignore"):    # non-finite parts are the caller's to read
        s = 1j * w
        num, den = g.num(s), g.den(s)
        flagged = np.hypot(den.real, den.imag) < _den_floor(g)
        return np.where(flagged, math.inf, _smith(num, den)), flagged


def freq_response(g: TransferFunction) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude (dB) and unwrapped phase (deg) at each frequency of
    ``FREQUENCY_GRID``, the grid of every Bode export.

    Phase is cumulatively unwrapped along the grid and anchored at the lowest
    frequency with the analytic phase of g there, so margins read from the
    result use absolute phase.  Evaluation on top of an imaginary-axis pole
    yields an ``inf`` magnitude (and a held phase) instead of a crash.
    """
    resp, flagged = _response(g, FREQUENCY_GRID)
    mag_db = np.where(flagged, math.inf, 20.0 * np.log10(np.maximum(np.abs(resp), 1e-300)))
    raw = np.angle(resp)
    raw[flagged] = 0.0
    unwrapped = np.unwrap(raw)
    unwrapped += analytic_phase(g, FREQUENCY_GRID[0]) - unwrapped[0]
    return mag_db, np.degrees(unwrapped)


def _db(g: TransferFunction, w: float) -> float:
    """20*log10|g(jw)|, floored at -6000 dB so a zero gain stays finite, and
    ``inf`` where ``_response`` flags den(jw)."""
    s = 1j * w
    dv = g.den(s)
    if math.hypot(dv.real, dv.imag) < _den_floor(g):    # abs() can overflow
        return math.inf
    return 20.0 * math.log10(max(abs(g.num(s) / dv), 1e-300))


def _bisect_db(g: TransferFunction, level_db: float, wa: float, wb: float) -> float:
    """Bisection on log-frequency for 20*log10|g(jw)| == level_db."""
    fa = _db(g, wa) - level_db
    la, lb = math.log(wa), math.log(wb)
    for _ in range(200):
        lm = 0.5 * (la + lb)
        wm = math.exp(lm)
        fm = _db(g, wm) - level_db
        if abs(fm) < 1e-9:
            return wm
        if (fa < 0) == (fm < 0):
            la, fa = lm, fm
        else:
            lb = lm
    return math.exp(0.5 * (la + lb))


def _grid_db(g: TransferFunction) -> np.ndarray:
    """``_db`` at each frequency of the crossover search grid, with its bits:
    |g| is ``np.hypot``, C's ``hypot`` as in ``abs()`` of a Python complex, and
    the log is ``math.log10``, as numpy's complex ``abs`` and its ``log10``
    round differently."""
    resp, _ = _response(g, FREQUENCY_GRID)
    with np.errstate(all="ignore"):    # |g| past the float range: inf
        mag = np.maximum(np.hypot(resp.real, resp.imag), 1e-300)
    return 20.0 * np.fromiter(map(math.log10, mag.tolist()), float, len(mag))


def gain_crossover(g: TransferFunction) -> float:
    """Lowest frequency where |g(jw)| crosses unity (0 dB).

    A log grid brackets the crossing, bisection refines it to better than
    1e-6 dB.  A grid interval with a non-finite magnitude at either end
    brackets no crossing; a grid point on an imaginary-axis pole reads
    ``inf`` dB, as in :func:`freq_response`.  Raises :class:`NoCrossoverError` when the
    magnitude never crosses 0 dB on the range.
    """
    grid = FREQUENCY_GRID
    db = _grid_db(g)
    sign, finite = np.sign(db), np.isfinite(db)
    # the first grid point at 0 dB, or opening an interval with finite ends of either sign
    hit = (sign[:-1] == 0) | ((sign[:-1] != sign[1:]) & finite[:-1] & finite[1:])
    if not hit.any():
        raise NoCrossoverError("no 0 dB crossing of |g(jw)|")
    i = np.argmax(hit)
    return float(grid[i] if sign[i] == 0 else _bisect_db(g, 0.0, grid[i], grid[i + 1]))


def bandwidth_3db(g: TransferFunction) -> float:
    """Lowest frequency where the gain has fallen 3 dB below the DC gain."""
    dc = g.dc_gain()
    if not math.isfinite(dc) or dc == 0.0:
        raise LtiError("3 dB bandwidth needs a finite nonzero DC gain")
    level = 20.0 * math.log10(abs(dc)) - 3.0
    above = _grid_db(g) - level
    hit = (above[:-1] >= 0) & (above[1:] < 0)
    if not hit.any():
        raise NoCrossoverError("gain never falls 3 dB below DC")
    i = np.argmax(hit)
    return float(_bisect_db(g, level, FREQUENCY_GRID[i], FREQUENCY_GRID[i + 1]))


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
