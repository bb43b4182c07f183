"""Polynomial/transfer-function algebra, frequency response, poles, ZOH."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import signal

from dcgridlab.config import load_config
from dcgridlab.grid import default_grid, pi_tf, power_plant_tf, voltage_loop_plant_tf
from dcgridlab.lti import (FREQUENCY_GRID, LtiError, NoCrossoverError, Polynomial,
                           TransferFunction, _bisect_db, _db, _grid_db, _roots,
                           analytic_phase, bandwidth_3db, freq_response, gain_crossover,
                           poles, tf, tf_feedback, tf_series, zoh)
from dcgridlab.sim import _plant_matrices
from dcgridlab.tuning import design_pi


def mp_zoh(a, b, dt):
    """[ad, bd] from mpmath.expm of [[a, b], [0, 0]] * dt at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    n, m = b.shape
    big = np.zeros((n + m, n + m))
    big[:n, :n] = a * dt
    big[:n, n:] = b * dt
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(big.tolist())).tolist(),
                        dtype=float)[:n]


# bench power plant: 400/((1 + 0.005 s)(0.5 + 0.003 s))
PLANT = tf([400.0], np.convolve([1.0, 0.005], [0.5, 0.003])[::-1][::-1])


def _plant():
    num = Polynomial([400.0])
    den = Polynomial([1.0, 0.005]) * Polynomial([0.5, 0.003])
    return tf(num.coeffs, den.coeffs)


def assert_roots_paired(got, want, rtol=1e-6, atol=1e-6):
    got = list(got)
    assert len(got) == len(want)
    for w in want:
        idx = min(range(len(got)), key=lambda i: abs(got[i] - w))
        g = got.pop(idx)
        assert abs(g - w) <= atol + rtol * abs(w), (g, w)


class TestPolynomial:
    def test_trims_high_order_zeros(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.coeffs == (1.0, 2.0)
        assert len(p.coeffs) - 1 == 1

    def test_zero_polynomial(self):
        assert Polynomial([0.0, 0.0]).is_zero

    def test_mul_identity(self):
        cable = Polynomial([0.5, 0.003])
        assert (Polynomial([1.0]) * cable).coeffs == cable.coeffs

    def test_mul_difference_of_squares(self):
        out = Polynomial([1.0, 1.0]) * Polynomial([1.0, -1.0])
        assert out.coeffs == (1.0, 0.0, -1.0)

    def test_mul_cable_squared(self):
        # hand convolution: (0.5 + 0.003 s)^2 = 0.25 + 0.003 s + 9e-6 s^2
        out = Polynomial([0.5, 0.003]) * Polynomial([0.5, 0.003])
        assert out.coeffs == pytest.approx((0.25, 0.003, 9e-6))

    def test_degree_adds(self):
        a, b = Polynomial([1.0, 2.0, 3.0]), Polynomial([4.0, 5.0])
        assert len((a * b).coeffs) - 1 == (len(a.coeffs) - 1) + (len(b.coeffs) - 1)


def bits(coeffs):
    return np.asarray(coeffs, dtype=float).view(np.int64).tolist()


# signed zeros and subnormals included; no product overflows
COEFF = st.floats(-1e150, 1e150, allow_nan=False)
SHORT = st.lists(COEFF, min_size=1, max_size=2)
ANY = st.lists(COEFF, min_size=1, max_size=8)
# away from underflow, so the rounding error is relative
NONZERO = st.one_of(st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))
LONG = st.tuples(st.lists(st.one_of(st.just(0.0), NONZERO), min_size=2, max_size=5),
                 NONZERO).map(lambda t: t[0] + [t[1]])    # 3 to 6, the last nonzero


@settings(max_examples=300, deadline=None)
@given(SHORT, ANY, st.booleans())
@example([-1.0], [0.0], False)
@example([1e-200, -0.0], [-1e-200, 3.0, -0.0], True)
def test_property_product_with_a_short_factor_is_np_convolve(short, other, swap):
    """With a factor of at most 2 coefficients, the product's bits (signed
    zeros included) are np.convolve's, in either order."""
    a, b = Polynomial(short), Polynomial(other)
    if swap:
        a, b = b, a
    want = Polynomial(np.convolve(a.coeffs, b.coeffs)).coeffs
    assert bits((a * b).coeffs) == bits(want)


@settings(max_examples=200, deadline=None)
@given(LONG, LONG)
def test_property_long_product_matches_exact_convolution(x, y):
    """Longer factors: each coefficient within 1e-15 of the sum of its absolute
    products from the exact Fraction convolution."""
    a, b = Polynomial(x), Polynomial(y)
    exact = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    scale = [Fraction(0)] * len(exact)
    for i, p in enumerate(a.coeffs):
        for j, q in enumerate(b.coeffs):
            exact[i + j] += Fraction(p) * Fraction(q)
            scale[i + j] += abs(Fraction(p) * Fraction(q))
    got = (a * b).coeffs
    assert len(got) == len(exact)
    for g, e, sc in zip(got, exact, scale):
        assert abs(Fraction(g) - e) <= Fraction(1e-15) * sc


# a step's coefficient: signed zeros and the smallest subnormal drawn often
STEP_COEFF = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), COEFF)


@st.composite
def per_step_rows(draw):
    """1-4 steps of 1-4 ascending coefficients.  A step's high-order zeros, the
    terms its scalar build trims, are +0.0 as a batched build pads them, so a
    top coefficient may be zero at only some steps."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(STEP_COEFF, min_size=n, max_size=n),
                         min_size=1, max_size=4))
    for row in rows:
        for i in range(n - 1, 0, -1):
            if row[i] != 0.0:
                break
            row[i] = 0.0
    return rows


def batched(rows, floats):
    """One polynomial holding every row: a coefficient with the same bits at
    every step is a float where ``floats`` says so, any other a per-step array."""
    return Polynomial([col[0] if as_float and len(set(bits(col))) == 1 else np.array(col)
                       for col, as_float in zip(zip(*rows), floats)])


def column(p, step):
    return Polynomial([c[step] if isinstance(c, np.ndarray) else c for c in p.coeffs])


@settings(max_examples=300, deadline=None)
@given(per_step_rows(), per_step_rows(), st.lists(st.booleans(), min_size=8, max_size=8),
       COEFF)
@example([[1.0, -0.0, 2.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
         [[-0.0, 5e-324, 1e150], [-0.0, -5e-324, 0.0], [2.0, 0.0, 0.0]],
         [True] * 8, -1.5)
def test_property_batched_columns_are_scalar_builds(rows_a, rows_b, floats, k):
    """Each step's column of a batched product, sum and scaling has the bits of
    that step's scalar result; a batched polynomial is zero exactly when some
    step's is."""
    steps = min(len(rows_a), len(rows_b))
    rows_a, rows_b = rows_a[:steps], rows_b[:steps]
    a, b = batched(rows_a, floats[:4]), batched(rows_b, floats[4:])
    assert a.is_zero == any(Polynomial(row).is_zero for row in rows_a)
    for step, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        sa, sb = Polynomial(ra), Polynomial(rb)
        for got, want in ((a * b, sa * sb), (a + b, sa + sb), (a.scaled(k), sa.scaled(k))):
            assert bits(column(got, step).coeffs) == bits(want.coeffs)


class TestSeriesAndFeedback:
    def test_series_identity(self):
        g = _plant()
        out = tf_series(g, tf([1.0], [1.0]))
        assert out.num.coeffs == g.num.coeffs
        assert out.den.coeffs == g.den.coeffs

    def test_series_two_lags(self):
        g1 = tf([1.0], [1.0, 0.005])
        g2 = tf([400.0], [0.5, 0.003])
        out = tf_series(g1, g2)
        assert out.num.coeffs == (400.0,)
        assert out.den.coeffs == pytest.approx((0.5, 0.0055, 1.5e-5))

    def test_series_response_is_pointwise_product(self):
        g1 = tf([1.0], [1.0, 0.005])
        g2 = tf([400.0], [0.5, 0.003])
        s = 10j
        assert tf_series(g1, g2)(s) == pytest.approx(g1(s) * g2(s), rel=1e-12)

    def test_series_cancels_exact_common_factor(self):
        """An exact common factor is not cancelled: degrees add, and the
        result is the pointwise product."""
        g1 = tf([1.0, 1.0], [1.0, 2.0])   # (1+s)/(1+2s)
        g2 = tf([1.0, 2.0], [1.0, 3.0])   # (1+2s)/(1+3s)
        out = tf_series(g1, g2)
        assert len(out.num.coeffs) - 1 == (len(g1.num.coeffs) - 1) + (len(g2.num.coeffs) - 1) == 2
        assert len(out.den.coeffs) - 1 == (len(g1.den.coeffs) - 1) + (len(g2.den.coeffs) - 1) == 2
        for w in (0.1, 1.0, 7.0):
            assert out(1j * w) == pytest.approx(g1(1j * w) * g2(1j * w), rel=1e-12)

    def test_cancellation_preserves_multiple_root_accuracy(self):
        """(1+s)/((1+s)(2+s)) times 1/(2+s)^2 keeps its (1+s) factor, and the
        triple pole at -2, ill-conditioned in root form, keeps full
        coefficient accuracy."""
        g1 = tf([1.0, 1.0], [2.0, 3.0, 1.0])
        g2 = tf([1.0], [4.0, 4.0, 1.0])
        out = tf_series(g1, g2)
        assert len(out.num.coeffs) - 1 == 1
        assert len(out.den.coeffs) - 1 == 4
        for w in (0.1, 1.0, 7.0):
            want = g1(1j * w) * g2(1j * w)
            assert out(1j * w) == pytest.approx(want, rel=1e-12)

    def test_feedback_open_loop(self):
        g = _plant()
        out = tf_feedback(g, tf([0.0], [1.0]))
        assert out(1j) == pytest.approx(g(1j), rel=1e-12)

    def test_feedback_unity_constant(self):
        out = tf_feedback(tf([1.0], [1.0]), tf([1.0], [1.0]))
        assert out.dc_gain() == pytest.approx(0.5)
        assert len(out.den.coeffs) == 1

    def test_feedback_integrator(self):
        k = 7.0
        out = tf_feedback(tf([k], [0.0, 1.0]), tf([1.0], [1.0]))
        ps = poles(out)
        assert len(ps) == 1
        assert ps[0] == pytest.approx(-k)

    def test_feedback_degenerate_loop(self):
        # forward = -1/s with unity feedback of exactly +1/s cancels the loop:
        # den = s*s + (-1)*s ... construct an identically zero denominator
        fwd = tf([1.0], [1.0])
        fb = tf([-1.0], [1.0])
        with pytest.raises(LtiError, match="algebraic loop: closed-loop denominator is zero"):
            tf_feedback(fwd, fb)


class TestFrequencyResponse:
    # FREQUENCY_GRID holds w = 1.0 exactly, at index 114
    ONE = 114

    def test_unity_everywhere(self):
        mag, phase = freq_response(tf([1.0], [1.0]))
        assert len(mag) == len(phase) == len(FREQUENCY_GRID)
        assert mag == pytest.approx(np.zeros(len(FREQUENCY_GRID)), abs=1e-12)
        assert phase == pytest.approx(np.zeros(len(FREQUENCY_GRID)), abs=1e-9)

    def test_integrator_at_one(self):
        assert FREQUENCY_GRID[self.ONE] == 1.0
        mag, phase = freq_response(tf([1.0], [0.0, 1.0]))
        assert mag[self.ONE] == pytest.approx(0.0, abs=1e-9)
        assert phase[self.ONE] == pytest.approx(-90.0)

    def test_unwrap_adjacent_below_180(self):
        _, ph = freq_response(_plant())
        assert np.all(np.abs(np.diff(ph)) < 180.0)

    def test_imaginary_axis_pole_flagged(self):
        g = tf([1.0], [1.0, 0.0, 1.0])  # poles at +-1j
        mag, phase = freq_response(g)
        assert mag[self.ONE] == math.inf
        assert np.isfinite(np.delete(mag, self.ONE)).all() and np.isfinite(phase).all()

    def test_analytic_phase_double_integrator(self):
        g = tf([100.0], [0.0, 0.0, 1.0])
        assert math.degrees(analytic_phase(g, 10.0)) == pytest.approx(-180.0)


class TestCrossoverAndMargin:
    def test_integrator_crossover(self):
        assert gain_crossover(tf([10.0], [0.0, 1.0])) == pytest.approx(10.0, rel=1e-9)

    def test_bounded_gain_no_crossing(self):
        with pytest.raises(NoCrossoverError) as exc:
            gain_crossover(tf([1.0], [1.0, 1.0]))
        assert str(exc.value).endswith(" on [0.01, 100000] rad/s")

    def test_crossover_tolerance(self):
        g = _plant()
        wc = gain_crossover(g)
        assert abs(20 * math.log10(abs(g(1j * wc)))) < 1e-6

    def test_plant_crossover_and_bandwidth(self):
        # the raw two-pole plant crosses 0 dB high up; its response falls
        # 3 dB below the 800 DC gain at 116.6 rad/s
        g = _plant()
        assert gain_crossover(g) == pytest.approx(5160.7, rel=1e-3)
        assert bandwidth_3db(g) == pytest.approx(116.6, abs=0.5)

    def test_pole_on_a_grid_point_brackets_no_crossing(self):
        # the poles at +-j1 fall on the grid point w = 1.0, where den(jw) is
        # exactly 0: that point reads inf dB, as freq_response flags it, and
        # |1 / (1 - w^2)| crosses 0 dB at sqrt(2) and -3 dB at 1.5532 rad/s
        g = tf([1.0], [1.0, 0.0, 1.0])
        assert 1.0 in FREQUENCY_GRID
        assert _db(g, 1.0) == math.inf
        assert gain_crossover(g) == 1.4142135623861718
        assert bandwidth_3db(g) == 1.5532345427329188

    def test_bench_default_tuned_crossovers_pinned(self):
        # each tuned crossover is a grid point (FREQUENCY_GRID[228] = 100 and
        # [171] = 10), where the loop's dB value is 0 within an ulp: its sign
        # picks the bisection's bracket, so an ulp in the grid's dB values
        # moves these bits (numpy's complex abs gives 99.99999999247567)
        cfg = load_config(None)
        plants = [power_plant_tf(cfg.grid, 0)]
        power = design_pi(plants[0], cfg.tuning.power)
        plants.append(voltage_loop_plant_tf(cfg.grid, 0, power.gains))
        voltage = design_pi(plants[1], cfg.tuning.voltage)
        assert (FREQUENCY_GRID[228], FREQUENCY_GRID[171]) == (100.0, 10.0)
        got = [gain_crossover(tf_series(pi_tf(t.gains), p))
               for t, p in zip((power, voltage), plants)]
        assert got == [100.00000000752442, 10.00000000075244]


def oracle_freq_response(g, omegas):
    """freq_response as one loop over the frequencies in Python complex
    arithmetic, then the same post-processing."""
    w = np.asarray(list(omegas), dtype=float)
    den_scale = max(abs(c) for c in g.den.coeffs)
    resp = np.empty(len(w), dtype=complex)
    flagged = np.zeros(len(w), dtype=bool)
    for i, wi in enumerate(w):
        dv = g.den(1j * wi)
        if math.hypot(dv.real, dv.imag) < 1e-300 * max(1.0, den_scale):
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


def oracle_gain_crossover(g):
    """gain_crossover with the grid's dB values from one _db call per frequency
    and a loop over the grid's intervals."""
    grid = FREQUENCY_GRID
    db = np.array([_db(g, w) for w in grid])
    sign, finite = np.sign(db), np.isfinite(db)
    for i in range(len(grid) - 1):
        if sign[i] == 0:
            return db, float(grid[i])
        if sign[i] != sign[i + 1] and finite[i] and finite[i + 1]:
            return db, float(_bisect_db(g, 0.0, grid[i], grid[i + 1]))
    return db, None


def same_bits(a, b):
    """Equal bit patterns, or NaN at the same places (a NaN's sign and payload
    carry no value)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()
                and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all())


# zero of either sign, or a magnitude anywhere in 1e-30..1e31: no response of
# a degree-6 polynomial overflows on the grid, so abs() of a Python complex
# stays finite
GRID_COEFF = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.builds(lambda m, e: m * 10.0 ** e,
                                 st.one_of(st.floats(1.0, 10.0), st.floats(-10.0, -1.0)),
                                 st.integers(-30, 30)))


@st.composite
def grid_tfs(draw):
    """Numerator and denominator of degree 0 to 6; half of the denominators
    carry a pole pair on the imaginary axis at a grid frequency."""
    num = draw(st.lists(GRID_COEFF, min_size=1, max_size=7))
    den = Polynomial(draw(st.lists(GRID_COEFF, min_size=1, max_size=5)))
    if draw(st.booleans()):
        w0 = float(FREQUENCY_GRID[draw(st.integers(0, len(FREQUENCY_GRID) - 1))])
        den = Polynomial([w0 * w0, 0.0, 1.0]) * den
    assume(not den.is_zero)
    return TransferFunction(Polynomial(num), den)


@settings(max_examples=300, deadline=None)
@given(grid_tfs())
@example(tf([1.0], [1.0, 0.0, 1.0]))
@example(tf([-0.0, 3e-30, -0.0], [1e30, -0.0, 2.5, 0.0, 1e-30]))
def test_property_array_response_equals_per_frequency_loop(g):
    """freq_response and the crossover grid have the bits of one Python
    complex evaluation per frequency, and gain_crossover the result of a
    bracket search over those values."""
    try:
        want = oracle_freq_response(g, FREQUENCY_GRID)
    except LtiError:    # analytic_phase's roots: not finite
        with pytest.raises(LtiError):
            freq_response(g)
    else:
        got = freq_response(g)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    db, wc = oracle_gain_crossover(g)
    assert same_bits(_grid_db(g), db)
    if wc is None:
        with pytest.raises(NoCrossoverError):
            gain_crossover(g)
    else:
        assert gain_crossover(g) == wc


def _degree_six_rows():
    """Ascending coefficients of five degree-6 polynomials with two real
    roots and two conjugate pairs, all in the left half plane."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        roots = np.concatenate([-rng.uniform(0.5, 50, size=2),
                                -rng.uniform(0.5, 50, size=2)
                                + 1j * rng.uniform(0.5, 50, size=2)])
        roots = np.concatenate([roots, np.conj(roots[2:])])
        yield tuple(np.real(np.poly(roots))[::-1])


class TestPoles:
    def test_first_order(self):
        ps = poles(tf([1.0], [13.65, 1.0]))
        assert ps[0] == pytest.approx(-13.65)

    def test_quadratic(self):
        # s^2 + 2.08 s + 8.1: roots -1.04 +- j sqrt(8.1 - 1.04^2)
        ps = sorted(poles(tf([1.0], [8.1, 2.08, 1.0])), key=lambda p: p.imag)
        im = math.sqrt(8.1 - 1.04 ** 2)
        assert ps[0] == pytest.approx(complex(-1.04, -im), rel=1e-9)
        assert ps[1] == pytest.approx(complex(-1.04, im), rel=1e-9)

    def test_constant_denominator(self):
        assert poles(tf([1.0], [2.0])) == []

    def test_residual_small_after_polish(self):
        den = Polynomial([52.0, 2.4, 0.022, 6e-5])
        scale = math.sqrt(sum(c * c for c in den.coeffs))
        for r in row_roots([den.coeffs])[0]:
            assert abs(den(r)) / scale < 1e-8

    def test_degree_six_against_companion_eigenvalues(self):
        for row in _degree_six_rows():
            coeffs_desc = np.array(row[::-1])
            got = row_roots([row])[0]
            # independent oracle: eigenvalues of a hand-built companion matrix
            monic = coeffs_desc / coeffs_desc[0]
            n = len(monic) - 1
            comp = np.zeros((n, n))
            comp[1:, :-1] = np.eye(n - 1)
            comp[:, -1] = -monic[1:][::-1]
            want = np.linalg.eigvals(comp)
            assert_roots_paired(got, want)


def padded(rows, signs=(), extra=0):
    """The rows as one ascending matrix ``extra`` columns wider than the
    longest row, each padded with 0.0, or with ``signs``' zeros in turn."""
    width = max(len(row) for row in rows) + extra
    zeros = iter(signs)
    return np.array([list(row) + [next(zeros, 0.0) for _ in range(width - len(row))]
                     for row in rows])


def row_roots(rows, signs=(), extra=0):
    """Each row's roots, from one ``_roots`` call on the padded matrix."""
    roots, degree = _roots(padded(rows, signs, extra))
    assert not roots[np.arange(roots.shape[1]) >= degree[:, None]].any()
    return [r[:n] for r, n in zip(roots, degree)]


def np_roots_polished(poly):
    """The roots before the stacked solve: ``np.roots``, then one Newton step
    per root where it is finite, each root a ``np.complex128`` scalar."""
    if len(poly.coeffs) == 1:
        return np.array([], dtype=complex)
    d = Polynomial(tuple(i * c for i, c in enumerate(poly.coeffs))[1:] or (0.0,))
    polished = []
    for root in np.roots(poly.coeffs[::-1]).astype(complex):
        with np.errstate(all="ignore"):    # checked below
            step = poly(root) / d(root)
        polished.append(root - step if np.isfinite(step) else root)
    return np.array(polished, dtype=complex)


class TestStackedRoots:
    # TestPoles' polynomials, a zero polynomial, and rows with zero constant
    # terms (np.roots appends one zero root per such term)
    ROWS = [(13.65, 1.0), (8.1, 2.08, 1.0), (2.0,), (52.0, 2.4, 0.022, 6e-5),
            *_degree_six_rows(), (0.0,), (0.0, 3.0), (0.0, 0.0, 1.0, 2.0),
            (0.0, 0.0, 0.0, 5.0)]

    @pytest.mark.parametrize("row", ROWS)
    def test_roots_equal_np_roots_then_polish(self, row):
        poly = Polynomial(row)
        assert row_roots([row])[0].tobytes() == np_roots_polished(poly).tobytes()

    def test_rows_equal_transfer_functions(self):
        # rows may end in zeros of either sign, which are stripped: a row's
        # roots are those of its own transfer function, then 0j
        ragged = [(6.0, 5.0, 1.0), (0.0, 2.0, 1.0), (2.0, 1.0), (3.0,)]
        roots, counts = poles(padded(ragged, (-0.0, 0.0, -0.0)))
        assert counts.tolist() == [2, 2, 1, 0]
        assert [list(r[:n]) for r, n in zip(roots, counts)] == [
            poles(tf([1.0], row)) for row in ragged]
        assert roots[2:].tolist() == [[-2 + 0j, 0j], [0j, 0j]]

    def test_large_stack_equals_row_by_row(self):
        # 700 rows in one Newton pass: degrees 0-5, 0-2 zero constant terms,
        # real spectra and complex ones, padded with zeros of either sign
        rng = np.random.default_rng(27)
        rows = []
        for i in range(700):
            degree = i % 6
            zeros = min(i % 3, degree)
            if i % 4:
                body = rng.uniform(-100.0, 100.0, degree - zeros + 1)
                body[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 100.0)
            else:
                body = np.atleast_1d(np.poly(rng.uniform(-50.0, 50.0, degree - zeros)))[::-1]
            rows.append((0.0,) * zeros + tuple(body.tolist()))
        signs = rng.choice([0.0, -0.0], 5 * len(rows)).tolist()
        roots, degree = _roots(padded(rows, signs))
        for row, got, n in zip(rows, roots, degree.tolist()):
            one, (m,) = _roots(np.array([row]))
            assert n == m
            assert got[:n].tobytes() == one[0, :m].tobytes(), row

    def test_real_roots_keep_a_positive_zero_imaginary_part(self):
        # real spectra stacked with a complex one, so eigvals returns complex:
        # no real root's imaginary part is -0.0, which a CSV would print as -0
        rows = [(6.0, 5.0, 1.0), (-6.0, 1.0, 1.0), (8.1, 2.08, 1.0), (6.0, -5.0, 1.0),
                (0.0, 2.0, 3.0, 1.0), (0.0, -2.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)]
        roots, degree = _roots(padded(rows))
        real = roots.imag == 0.0
        assert real[[0, 1, 3, 4, 5]].all() and not real[2, :2].any()
        assert not np.signbit(roots.imag[real]).any()

    @pytest.mark.parametrize("row", [(1.0, math.inf), (math.nan, 2.0, 1.0),
                                     (1e300, 1e-300)])
    def test_non_finite_companion_named(self, row):
        # an inf or NaN coefficient, or a ratio of two that overflows (the
        # root -1e600): eigvals used to reject the stack with a LinAlgError
        with pytest.raises(LtiError, match=r"roots of the polynomial \[") as exc:
            poles(padded([(2.0, 1.0), row]))
        assert str(list(Polynomial(row).coeffs)) in str(exc.value)


class TestZoh:
    def test_first_order_lag_closed_form(self):
        # dx/dt = (u - x)/tau held over dt: ad = exp(-dt/tau), bd = 1 - ad
        tau, dt = 0.005, 1e-4
        ad, bd = zoh(np.array([[-1.0 / tau]]), np.array([[1.0 / tau]]), dt)
        assert ad.shape == bd.shape == (1, 1)
        assert ad[0, 0] == pytest.approx(math.exp(-dt / tau), rel=1e-12)
        assert bd[0, 0] == pytest.approx(-math.expm1(-dt / tau), rel=1e-12)

    def test_grid_plant_matches_scipy_cont2discrete(self):
        a, b, _ = _plant_matrices(default_grid())
        ad, bd = zoh(a, b, 1e-4)
        want_ad, want_bd, *_ = signal.cont2discrete(
            (a, b, np.eye(4), np.zeros((4, 2))), 1e-4, method="zoh")
        assert ad == pytest.approx(want_ad, rel=1e-12, abs=0.0)
        assert bd == pytest.approx(want_bd, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("j", range(1, 11))
    def test_grid_plant_matches_mpmath(self, j):
        # the pairs sim.run stacks: j plant steps of 1e-4 s; 3.0e-17 of the
        # largest entry measured, within one float64 epsilon
        a, b, _ = _plant_matrices(default_grid())
        ad, bd = zoh(a, b, j * 1e-4)
        want = mp_zoh(a, b, j * 1e-4)
        got = np.hstack([ad, bd])
        assert np.abs(got - want).max() <= np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("norm", [0.01, 0.1, 1.0, 5.0, 10.0, 50.0])
    def test_random_matrices_match_mpmath(self, norm):
        # 1-norms of the block [[a, b], [0, 0]] on both sides of theta_13 =
        # 5.37, so the larger ones take the squaring branch; worst measured
        # 2.3e-15 of the largest entry (scipy.linalg.expm: 4.4e-12)
        rng = np.random.default_rng(round(100 * norm))
        for _ in range(3):
            a, b = rng.standard_normal((5, 5)), rng.standard_normal((5, 2))
            scale = norm / np.linalg.norm(np.vstack([np.hstack([a, b]),
                                                     np.zeros((2, 7))]), 1)
            ad, bd = zoh(a, b, scale)
            want = mp_zoh(a, b, scale)
            err = np.abs(np.hstack([ad, bd]) - want).max() / np.abs(want).max()
            assert err <= 2e-14, err

    def test_zero_dynamics_give_exact_identity(self):
        _, b, _ = _plant_matrices(default_grid())
        ad, bd = zoh(np.zeros((4, 4)), b, 1e-4)
        assert (ad == np.eye(4)).all()
        assert bd == pytest.approx(b * 1e-4, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 0.5])
    def test_structural_zeros_stay_exact(self, dt):
        # V1 and V2 are first-order lags of their own references: the zeros of
        # their rows survive the solve and, at 0.5 s, the squarings
        a, b, _ = _plant_matrices(default_grid())
        ad, bd = zoh(a, b, dt)
        assert (ad[0, 1:] == 0).all() and (ad[1, [0, 2, 3]] == 0).all()
        assert bd[0, 1] == 0 and bd[1, 0] == 0
        assert np.abs(ad[2:]).min() > 0 and np.abs(bd[2:]).min() > 0

    @pytest.mark.filterwarnings("error")
    def test_non_finite_matrix_gives_nan(self):
        # a rate that overflows to inf reaches sim.run's divergence check as
        # NaN, with no exception or numpy warning on the way
        ad, bd = zoh(np.array([[-np.inf]]), np.array([[np.inf]]), 1e-4)
        assert np.isnan(ad).all() and np.isnan(bd).all()


# ---------------------------------------------------------------------------
# property suites


def _stable_tf(draw):
    from hypothesis import assume
    n_real = draw(st.integers(min_value=0, max_value=2))
    n_pair = draw(st.integers(min_value=0, max_value=2))
    if n_real + n_pair == 0:
        n_real = 1
    ps = [-draw(st.floats(0.2, 50.0)) for _ in range(n_real)]
    for _ in range(n_pair):
        re = -draw(st.floats(0.2, 50.0))
        im = draw(st.floats(0.2, 50.0))
        ps += [complex(re, im), complex(re, -im)]
    # generic polynomials only: clustered roots are ill-conditioned for any
    # root finder and are outside this property's claim
    assume(all(abs(a - b) > 0.05 * (1.0 + abs(a))
               for i, a in enumerate(ps) for b in ps[i + 1:]))
    n_zeros = draw(st.integers(min_value=0, max_value=max(0, len(ps) - 1)))
    zs = [-draw(st.floats(0.2, 50.0)) for _ in range(n_zeros)]
    k = draw(st.floats(0.1, 10.0))
    num = np.real(np.poly(zs)) * k if zs else np.array([k])
    den = np.real(np.poly(ps))
    return tf(num[::-1], den[::-1])


@st.composite
def stable_tfs(draw):
    return _stable_tf(draw)


@settings(max_examples=40, deadline=None)
@given(stable_tfs(), stable_tfs())
def test_property_series_response_product(g1, g2):
    out = tf_series(g1, g2)
    for w in (0.05, 0.7, 3.0, 40.0):
        want = g1(1j * w) * g2(1j * w)
        assert out(1j * w) == pytest.approx(want, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(stable_tfs())
def test_property_poles_match_companion_oracle(g):
    got = poles(g)
    coeffs_desc = np.array(g.den.coeffs[::-1])
    monic = coeffs_desc / coeffs_desc[0]
    n = len(monic) - 1
    if n == 0:
        assert len(got) == 0
        return
    comp = np.zeros((n, n))
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[1:][::-1]
    want = np.linalg.eigvals(comp)
    assert_roots_paired(got, want)


_COEFF = st.floats(-100.0, 100.0)


@st.composite
def denominators(draw):
    """Degree 1-5 with a nonzero leading coefficient and 0 to degree zero
    constant terms; the other coefficients may be anything in [-100, 100]."""
    degree = draw(st.integers(min_value=1, max_value=5))
    zeros = draw(st.integers(min_value=0, max_value=degree))
    body = [draw(_COEFF) for _ in range(degree - zeros)]
    lead = draw(_COEFF.filter(lambda c: abs(c) >= 0.01))
    return tf([1.0], [0.0] * zeros + body + [lead])


@settings(max_examples=80, deadline=None)
@given(st.lists(denominators(), min_size=1, max_size=6))
@example([tf([1.0], [0.0, 0.0, 2.0, 1.0]), tf([1.0], [6.0, 5.0, 1.0]),
          tf([1.0], [1.0, 1.0]), tf([1.0], [0.0, 3.0, 0.0, 0.0, 1.0])])
# a row with real roots stacked with one with complex roots: the stack's
# eigenvalues come back complex, and a complex root polishes to other bits
@example([tf([1.0], [1.0, 0.0, 0.0, 0.0, 1.0]),
          tf([1.0], [2.6360205985498584e-206, 9.327496024468239e-153, 0.0, 1.0, 1.0])])
def test_property_batched_poles_equal_one_by_one(gs):
    # one stacked eigvals call per degree gives each row its own call's bits
    def bits(ps):
        return np.array(ps, dtype=complex).tobytes()
    roots, counts = poles(padded([g.den.coeffs for g in gs]))
    assert [bits(r[:n]) for r, n in zip(roots, counts)] == [bits(poles(g)) for g in gs]


_ROOT = st.one_of(st.floats(-50.0, 50.0), st.floats(-5.0, 5.0).map(lambda x: round(x, 1)))


@st.composite
def stack_rows(draw):
    """Ascending rows of degree 0-6 with 0-2 zero constant terms of either sign: drawn
    coefficients, or a drawn spectrum whose roots are all real, or come in
    conjugate pairs, and may repeat."""
    degree = draw(st.integers(0, 6))
    zeros = draw(st.integers(0, min(2, degree)))
    n = degree - zeros
    kind = draw(st.sampled_from(["coefficients", "real", "pairs"]))
    if kind == "coefficients":
        body = [draw(_COEFF) for _ in range(n)] + [draw(_COEFF.filter(lambda c: abs(c) >= 0.01))]
    elif kind == "real":
        roots = [draw(_ROOT) for _ in range(n)]
        if n >= 2 and draw(st.booleans()):
            roots[-1] = roots[0]
    else:
        roots = [draw(_ROOT) for _ in range(n % 2)]
        for _ in range(n // 2):
            pair = complex(draw(_ROOT), draw(_ROOT.filter(lambda x: x != 0.0)))
            roots += [pair, pair.conjugate()]
        if n >= 4 and draw(st.booleans()):
            roots[-2:] = roots[-4:-2]
    if kind != "coefficients":
        lead = draw(st.sampled_from([1.0, -0.5, 3.0]))
        body = (np.atleast_1d(np.real(np.poly(roots))) * lead)[::-1].tolist()
    return tuple(draw(st.sampled_from([0.0, -0.0])) for _ in range(zeros)) + tuple(body)


@settings(max_examples=150, deadline=None)
@given(st.lists(stack_rows(), min_size=1, max_size=8),
       st.lists(st.sampled_from([0.0, -0.0]), max_size=60), st.integers(0, 2))
# real and complex spectra sharing a stripped degree, with and without zero
# constant terms, next to other degrees
@example([(8.1, 2.08, 1.0), (6.0, 5.0, 1.0), (0.0, 8.1, 2.08, 1.0),
          (0.0, 6.0, 5.0, 1.0), (0.0, 3.0), (0.0, 0.0, 1.0, 2.0),
          (52.0, 2.4, 0.022, 6e-5), *_degree_six_rows(), (2.0,), (0.0,)], [], 0)
# s^4 + s^2 with a -0.0 linear term: the 0.0 that Horner's "+ c" adds to the
# imaginary part decides a zero's sign
@example([(0.0, -0.0, 1.0, 0.0, 1.0)], [], 0)
# a real spectrum and a complex one whose Newton steps round otherwise under
# CPython's complex quotient than under numpy's
@example([(2.6360205985498584e-206, 9.327496024468239e-153, 0.0, 1.0, 1.0),
          (1.2, 1.0, 1.2, 1.0)], [], 0)
# the first 3-pole and 4-pole rows of the as-written voltage locus of
# tests/test_rootlocus.py's MIXED_SWEEP, as its one matrix holds them
@example([(61.07833333333333, 15.950666666666669, 1.1190833333333334, 0.005, 0.0),
          (36.647, 9.790282000000001, 0.7341024191847846, 0.00708623021040125,
           1.815690057238664e-05)], [], 0)
def test_property_stacked_roots_equal_np_roots_then_polish(rows, signs, extra):
    # the array Newton step against the one-root-at-a-time loop on
    # np.complex128 scalars; the rows share one matrix, padded with high-
    # order zeros of either sign, so degrees drop inside it
    for row, got in zip(rows, row_roots(rows, signs, extra)):
        assert got.tobytes() == np_roots_polished(Polynomial(row)).tobytes(), row
