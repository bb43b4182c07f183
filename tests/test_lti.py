"""Polynomial/transfer-function algebra, frequency response, poles, ZOH."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from dcgridlab.grid import default_grid
from dcgridlab.lti import (DegenerateLoopError, NoCrossoverError, Polynomial,
                           analytic_phase, bandwidth_3db, cancel_common_factors,
                           freq_response, gain_crossover, poles,
                           tf, tf_constant, tf_feedback, tf_series, zoh)
from dcgridlab.sim import _plant_matrices


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
        assert p.degree == 1

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
        assert (a * b).degree == a.degree + b.degree


class TestSeriesAndFeedback:
    def test_series_identity(self):
        g = _plant()
        out = tf_series(g, tf_constant(1.0))
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
        g1 = tf([1.0, 1.0], [1.0, 2.0])   # (1+s)/(1+2s)
        g2 = tf([1.0, 2.0], [1.0, 3.0])   # (1+2s)/(1+3s)
        out = tf_series(g1, g2)
        assert out.den.degree == 1
        assert out.num.degree == 1

    def test_cancel_keeps_near_misses(self):
        num = Polynomial([1.0, 1.0])
        den = Polynomial([1.000001, 1.0])
        n2, d2 = cancel_common_factors(num, den)
        assert n2.degree == 1 and d2.degree == 1

    def test_cancellation_preserves_multiple_root_accuracy(self):
        # (1+s)/((1+s)(2+s)) times 1/(2+s)^2: the exact (1+s) factor cancels
        # while the resulting triple pole at -2, ill-conditioned in root form,
        # must keep full coefficient accuracy
        g1 = tf([1.0, 1.0], [2.0, 3.0, 1.0])
        g2 = tf([1.0], [4.0, 4.0, 1.0])
        out = tf_series(g1, g2)
        assert out.num.degree == 0
        assert out.den.degree == 3
        for w in (0.1, 1.0, 7.0):
            want = g1(1j * w) * g2(1j * w)
            assert out(1j * w) == pytest.approx(want, rel=1e-12)

    def test_feedback_open_loop(self):
        g = _plant()
        out = tf_feedback(g, tf_constant(0.0))
        assert out(1j) == pytest.approx(g(1j), rel=1e-12)

    def test_feedback_unity_constant(self):
        out = tf_feedback(tf_constant(1.0), tf_constant(1.0))
        assert out.dc_gain() == pytest.approx(0.5)
        assert out.den.degree == 0

    def test_feedback_integrator(self):
        k = 7.0
        out = tf_feedback(tf([k], [0.0, 1.0]), tf_constant(1.0))
        ps = poles(out)
        assert len(ps) == 1
        assert ps[0] == pytest.approx(-k)

    def test_feedback_degenerate_loop(self):
        # forward = -1/s with unity feedback of exactly +1/s cancels the loop:
        # den = s*s + (-1)*s ... construct an identically zero denominator
        fwd = tf([1.0], [1.0])
        fb = tf([-1.0], [1.0])
        with pytest.raises(DegenerateLoopError):
            tf_feedback(fwd, fb)


class TestFrequencyResponse:
    def test_unity_everywhere(self):
        mag, phase = freq_response(tf_constant(1.0), [0.1, 1.0, 10.0])
        assert len(mag) == len(phase) == 3
        assert mag == pytest.approx([0.0] * 3, abs=1e-12)
        assert phase == pytest.approx([0.0] * 3, abs=1e-9)

    def test_integrator_at_one(self):
        mag, phase = freq_response(tf([1.0], [0.0, 1.0]), [1.0])
        assert mag[0] == pytest.approx(0.0, abs=1e-9)
        assert phase[0] == pytest.approx(-90.0)

    def test_unwrap_adjacent_below_180(self):
        _, ph = freq_response(_plant(), np.logspace(-2, 5, 200))
        assert np.all(np.abs(np.diff(ph)) < 180.0)

    def test_imaginary_axis_pole_flagged(self):
        g = tf([1.0], [1.0, 0.0, 1.0])  # poles at +-1j
        mag, phase = freq_response(g, [0.5, 1.0, 2.0])
        assert mag[1] == math.inf
        assert np.isfinite(mag[[0, 2]]).all() and np.isfinite(phase).all()

    def test_requires_positive_ascending(self):
        with pytest.raises(ValueError):
            freq_response(tf_constant(1.0), [1.0, 0.5])

    def test_analytic_phase_double_integrator(self):
        g = tf([100.0], [0.0, 0.0, 1.0])
        assert math.degrees(analytic_phase(g, 10.0)) == pytest.approx(-180.0)


class TestCrossoverAndMargin:
    def test_integrator_crossover(self):
        assert gain_crossover(tf([10.0], [0.0, 1.0])) == pytest.approx(10.0, rel=1e-9)

    def test_bounded_gain_no_crossing(self):
        with pytest.raises(NoCrossoverError) as exc:
            gain_crossover(tf([1.0], [1.0, 1.0]))
        assert exc.value.omega_min == pytest.approx(1e-2)
        assert exc.value.omega_max == pytest.approx(1e5)

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
        for r in den.roots():
            assert abs(den(r)) / scale < 1e-8

    def test_degree_six_against_companion_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            roots = np.concatenate([
                -rng.uniform(0.5, 50, size=2),
                (-rng.uniform(0.5, 50, size=2)
                 + 1j * rng.uniform(0.5, 50, size=2)),
            ])
            roots = np.concatenate([roots, np.conj(roots[2:])])
            coeffs_desc = np.real(np.poly(roots))
            den = Polynomial(coeffs_desc[::-1])
            got = den.roots()
            # independent oracle: eigenvalues of a hand-built companion matrix
            monic = coeffs_desc / coeffs_desc[0]
            n = len(monic) - 1
            comp = np.zeros((n, n))
            comp[1:, :-1] = np.eye(n - 1)
            comp[:, -1] = -monic[1:][::-1]
            want = np.linalg.eigvals(comp)
            assert_roots_paired(got, want)


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
