"""Small-signal grid relations: plants, bus divider, load response, superposition."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcgridlab.control import PiGains
from dcgridlab.grid import (CableParams, ConverterParams, GridConfig,
                            GridModelError, _same_time_constant,
                            _same_time_constants, bus_voltage_load_response,
                            bus_voltage_source_weights, converter_voltage_tf,
                            default_grid, pi_tf, power_plant_tf,
                            total_bus_voltage, voltage_loop_plant_tf)
from dcgridlab.lti import bandwidth_3db, poles, tf

POWER_GAINS = PiGains(kp=0.001, ki=0.130)


def grid_with_cables(*cables):
    return GridConfig(
        converters=tuple(ConverterParams(rated_power=p, voltage_loop_tau=0.005,
                                         cable=CableParams(r, l))
                         for p, (r, l) in zip((4000.0, 2000.0), cables)),
        nominal_bus_voltage=400.0)


def asymmetric_grid():
    g = default_grid()
    heavy = ConverterParams(rated_power=4000.0, voltage_loop_tau=0.005,
                            cable=CableParams(resistance=2.0, inductance=0.012))
    return GridConfig(converters=(heavy, g.converters[1]),
                      nominal_bus_voltage=g.nominal_bus_voltage)


class TestValidation:
    def test_cable_positive(self):
        with pytest.raises(GridModelError):
            CableParams(resistance=0.0, inductance=1e-3)
        with pytest.raises(GridModelError):
            CableParams(resistance=0.5, inductance=-1e-3)

    def test_converter_positive(self):
        cable = CableParams(0.5, 3e-3)
        with pytest.raises(GridModelError):
            ConverterParams(rated_power=0.0, voltage_loop_tau=0.005, cable=cable)
        with pytest.raises(GridModelError):
            ConverterParams(rated_power=1000.0, voltage_loop_tau=0.0, cable=cable)

    @pytest.mark.parametrize("build", [
        lambda v: CableParams(resistance=v, inductance=3e-3),
        lambda v: CableParams(resistance=0.5, inductance=v),
        lambda v: ConverterParams(rated_power=v, voltage_loop_tau=0.005,
                                  cable=CableParams(0.5, 3e-3)),
        lambda v: ConverterParams(rated_power=1000.0, voltage_loop_tau=v,
                                  cable=CableParams(0.5, 3e-3)),
        lambda v: GridConfig(converters=default_grid().converters,
                             nominal_bus_voltage=v),
    ], ids=["resistance", "inductance", "rated_power", "voltage_loop_tau",
            "nominal_bus_voltage"])
    def test_nan_rejected(self, build):
        # nan <= 0 is False: a `value <= 0` check let NaN through
        with pytest.raises(GridModelError):
            build(float("nan"))
        with pytest.raises(GridModelError):    # at one step of a per-step array
            build(np.array([1.0, float("nan"), 2.0]))

    @pytest.mark.parametrize("value", [1e-320, float("inf"), float("nan")])
    def test_time_scale_and_its_reciprocal_finite(self, value):
        # 1/1e-320 overflows to inf, and so would the pole -1/tau or -R/L
        with pytest.raises(GridModelError, match="finite reciprocal"):
            CableParams(resistance=0.5, inductance=value)
        with pytest.raises(GridModelError, match="finite reciprocal"):
            ConverterParams(rated_power=1000.0, voltage_loop_tau=value,
                            cable=CableParams(0.5, 3e-3))

    def test_per_step_time_scale_names_its_first_bad_step(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # 1/1e-320 overflows with no warning
            with pytest.raises(GridModelError, match="cable inductance 1e-320 must"):
                CableParams(resistance=np.full(3, 0.5),
                            inductance=np.array([3e-3, 1e-320, 0.0]))

    def test_grid_needs_two_converters(self):
        g = default_grid()
        with pytest.raises(GridModelError):
            GridConfig(converters=(g.converters[0],), nominal_bus_voltage=400.0)

    def test_two_converter_relations_reject_three(self):
        # every relation is two-source algebra; the grid itself refuses a third
        g = default_grid()
        with pytest.raises(GridModelError, match="exactly 2"):
            GridConfig(converters=g.converters + (g.converters[0],),
                       nominal_bus_voltage=400.0)


class TestConverterVoltageLoop:
    def test_bench_time_constant(self):
        g = converter_voltage_tf(default_grid().converters[0])
        assert g.num.coeffs == (1.0,)
        assert g.den.coeffs == (1.0, 0.005)

    def test_unity_dc_gain(self):
        for tau in (1e-3, 5e-3, 0.1):
            conv = ConverterParams(1000.0, tau, CableParams(0.5, 3e-3))
            assert converter_voltage_tf(conv).dc_gain() == pytest.approx(1.0)

    def test_pole_location(self):
        g = converter_voltage_tf(default_grid().converters[0])
        assert poles(g)[0] == pytest.approx(-200.0)


class TestPowerPlant:
    def test_bench_plant(self):
        g = power_plant_tf(default_grid(), 0)
        assert g.num.coeffs == (400.0,)
        assert g.den.coeffs == pytest.approx((0.5, 0.0055, 1.5e-5))
        assert bandwidth_3db(g) == pytest.approx(116.6, abs=0.5)

    def test_dc_gain(self):
        g = power_plant_tf(default_grid(), 0)
        assert g.dc_gain() == pytest.approx(800.0)

    def test_gain_scales_with_bus_voltage(self):
        g1 = default_grid()
        g2 = GridConfig(converters=g1.converters, nominal_bus_voltage=800.0)
        p1 = power_plant_tf(g1, 0)
        p2 = power_plant_tf(g2, 0)
        for w in (0.1, 10.0, 1e3):
            assert abs(p2(1j * w)) == pytest.approx(2 * abs(p1(1j * w)), rel=1e-12)

    def test_index_checked(self):
        with pytest.raises(GridModelError):
            power_plant_tf(default_grid(), 5)


class TestBusDivider:
    def test_symmetric_cables_half(self):
        w1, w2 = bus_voltage_source_weights(default_grid())
        for s in (0.0, 1j, 100j):
            assert w1(s) == pytest.approx(0.5, rel=1e-12)
            assert w2(s) == pytest.approx(0.5, rel=1e-12)

    def test_resistive_divider_at_dc(self):
        w1, w2 = bus_voltage_source_weights(asymmetric_grid())
        assert w1(0.0) == pytest.approx(0.2)
        assert w2(0.0) == pytest.approx(0.8)

    def test_weights_sum_to_one_everywhere(self):
        w1, w2 = bus_voltage_source_weights(asymmetric_grid())
        for w in np.logspace(-2, 5, 25):
            assert abs(w1(1j * w) + w2(1j * w) - 1.0) < 1e-12

    def test_equal_time_constants_give_constant_weights(self):
        # asymmetric_grid's cables are 2 ohm / 12 mH and 0.5 ohm / 3 mH
        w1, w2 = bus_voltage_source_weights(asymmetric_grid())
        assert (w1.num.coeffs, w1.den.coeffs) == ((0.2,), (1.0,))
        assert (w2.num.coeffs, w2.den.coeffs) == ((0.8,), (1.0,))

    @pytest.mark.parametrize("resistances,inductances", [
        # L/R is inf for the first cable: a ratio would call these equal
        ((1e-320, 0.5), (3e-3, 3e-3)),
        # both products L_i*R_j underflow to 0.0 in floats
        ((1e-320, 2e-320), (1e-5, 1e-5))])
    def test_unequal_time_constants_keep_the_divider(self, resistances, inductances):
        grid = grid_with_cables(*zip(resistances, inductances))
        w1, w2 = bus_voltage_source_weights(grid)
        assert len(w1.den.coeffs) - 1 == len(w2.den.coeffs) - 1 == 1


class TestLoadResponse:
    def test_dc_value(self):
        h = bus_voltage_load_response(default_grid())
        assert h.dc_gain() == pytest.approx(-6.25e-4)

    def test_negative_real_at_dc(self):
        for g in (default_grid(), asymmetric_grid()):
            assert bus_voltage_load_response(g).dc_gain() < 0

    def test_four_kw_step(self):
        h = bus_voltage_load_response(default_grid())
        assert h.dc_gain() * 4000.0 == pytest.approx(-2.5)

    def test_magnitude_halves_when_voltage_doubles(self):
        g1 = default_grid()
        g2 = GridConfig(converters=g1.converters, nominal_bus_voltage=800.0)
        h1, h2 = bus_voltage_load_response(g1), bus_voltage_load_response(g2)
        for w in (0.1, 10.0, 1e3):
            assert abs(h2(1j * w)) == pytest.approx(0.5 * abs(h1(1j * w)), rel=1e-12)


class TestSuperposition:
    def test_zero_inputs(self):
        model = total_bus_voltage(default_grid())
        assert model.response(1j * 3.0, 0.0, 0.0, 0.0) == 0.0

    def test_matches_sum_of_parts(self):
        grid = asymmetric_grid()
        model = total_bus_voltage(grid)
        w1, w2 = bus_voltage_source_weights(grid)
        h = bus_voltage_load_response(grid)
        dv1, dv2, dp = 1.3, -0.4, 2500.0
        for w in np.logspace(-2, 4, 20):
            s = 1j * w
            want = w1(s) * dv1 + w2(s) * dv2 + h(s) * dp
            got = model.response(s, dv1, dv2, dp)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_restoration_balance_at_dc(self):
        # equal 2.5 V source rises cancel the sag of a 4 kW load step
        model = total_bus_voltage(default_grid())
        assert model.response(0.0, 2.5, 2.5, 4000.0) == pytest.approx(0.0, abs=1e-12)


class TestPowerExchange:
    def test_power_balance_identity(self):
        # the two exchange relations dP_i = (dV_i - dVg) * Vg / (R_i + L_i s)
        # split any load change exactly
        grid = asymmetric_grid()
        w1, w2 = bus_voltage_source_weights(grid)
        h = bus_voltage_load_response(grid)
        p1, p2 = (tf([grid.nominal_bus_voltage],
                     [c.cable.resistance, c.cable.inductance])
                  for c in grid.converters)
        dv1, dv2, dp = 0.7, 1.1, 3000.0
        for w in np.logspace(-2, 3, 15):
            s = 1j * w
            vg = w1(s) * dv1 + w2(s) * dv2 + h(s) * dp
            total = p1(s) * (dv1 - vg) + p2(s) * (dv2 - vg)
            assert abs(total - dp) <= 1e-9 * dp


class TestOuterVoltagePlant:
    def test_integrator_structure(self):
        g = voltage_loop_plant_tf(default_grid(), 0, POWER_GAINS)
        # power PI integrator dominates at low frequency: phase -> -90 deg
        assert abs(g.den(0.0)) == pytest.approx(0.0, abs=1e-15)
        lo = g(1j * 1e-4)
        assert np.angle(lo, deg=True) == pytest.approx(-90.0, abs=1.0)

    def test_symmetric_divider_half(self):
        g = voltage_loop_plant_tf(default_grid(), 0, PiGains(kp=1.0, ki=0.0))
        # with a unit P-only controller the plant is Gv/2
        assert g(0.0).real == pytest.approx(0.5)

    def test_modes_differ(self):
        a = voltage_loop_plant_tf(default_grid(), 0, POWER_GAINS, mode="as-written")
        b = voltage_loop_plant_tf(default_grid(), 0, POWER_GAINS, mode="closed-inner")
        assert abs(a(10j)) != pytest.approx(abs(b(10j)), rel=1e-3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(GridModelError):
            voltage_loop_plant_tf(default_grid(), 0, POWER_GAINS, mode="other")


RESISTANCE = st.one_of(st.just(1e-320), st.floats(1e-3, 10.0))
INDUCTANCE = st.floats(1e-5, 0.1)


@st.composite
def cable_pairs(draw):
    """Two (R, L) cables and whether their L/R are equal; about half are."""
    r1, l1 = draw(RESISTANCE), draw(INDUCTANCE)
    if draw(st.booleans()):
        if r1 != 1e-320 and draw(st.booleans()):
            r2 = draw(st.floats(1e-3, 10.0))
            return (r1, l1), (r2, r2 * (l1 / r1)), True   # equal to rounding
        k = 2.0 ** draw(st.integers(0, 3))   # exact, subnormals included
        return (r1, l1), (k * r1, k * l1), True
    r2, l2 = draw(RESISTANCE), draw(INDUCTANCE)
    x, y = Fraction(l1) * Fraction(r2), Fraction(l2) * Fraction(r1)
    assume(abs(x - y) > Fraction(1e-6) * max(x, y))
    return (r1, l1), (r2, l2), False


@settings(max_examples=60, deadline=None)
@given(cable_pairs())
def test_property_outer_plant_matches_unreduced_divider(pair):
    """C_P*Gv*Z_j/(Z_i+Z_j), closed-inner with the power loop closed first,
    pointwise; the divider adds a pole exactly when the time constants differ."""
    *cables, equal = pair
    grid = grid_with_cables(*cables)
    cp, v = pi_tf(POWER_GAINS), grid.nominal_bus_voltage
    for i in (0, 1):
        (ri, li), (rj, lj) = cables[i], cables[1 - i]
        gv = converter_voltage_tf(grid.converters[i])
        for mode, base in (("as-written", 2), ("closed-inner", 3)):
            g = voltage_loop_plant_tf(grid, i, POWER_GAINS, mode=mode)
            assert len(g.den.coeffs) - 1 == base + (0 if equal else 1)
            for w in (0.3, 30.0, 3e3):
                s = 1j * w
                fwd = cp(s) * gv(s)
                if mode == "closed-inner":
                    fwd = fwd / (1.0 + fwd * v / (ri + li * s))
                want = fwd * (rj + lj * s) / (ri + rj + (li + lj) * s)
                assert abs(g(s) - want) <= 1e-9 * abs(want)


def fraction_rule(c1, c2):
    """The equal-L/R rule on exact Fraction products: |x - y| <= 1e-9*max(x, y)."""
    x = Fraction(c1.inductance) * Fraction(c2.resistance)
    y = Fraction(c2.inductance) * Fraction(c1.resistance)
    return abs(x - y) <= Fraction(1e-9) * max(x, y)


def constant_weights(r1, l1, r2, l2):
    """Whether bus_voltage_source_weights reduces the divider to constants."""
    w1, w2 = bus_voltage_source_weights(grid_with_cables((r1, l1), (r2, l2)))
    assert len(w1.den.coeffs) == len(w2.den.coeffs)
    return len(w1.den.coeffs) == 1


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


# log-uniform over 1e-320 .. 1e300; an inductance also needs a finite 1/L
SPAN = st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e)
SPAN_L = SPAN.filter(lambda l: math.isfinite(1.0 / l))


@st.composite
def edge_cables(draw):
    """Two cables across the whole span; about half put L2 a few ulps either
    side of an edge of the 1e-9 band around L1*R2/R1."""
    r1, l1, r2 = draw(SPAN), draw(SPAN_L), draw(SPAN)
    if draw(st.booleans()):
        l2 = draw(SPAN_L)
    else:
        scale = 1.0 + draw(st.sampled_from((-1e-9, 1e-9, 0.0)))
        l2 = nudged(l1 * (r2 / r1) * scale, draw(st.integers(-4, 4)))
        assume(l2 > 0 and math.isfinite(l2) and math.isfinite(1.0 / l2))
    return r1, l1, r2, l2


@settings(max_examples=300, deadline=None)
@given(edge_cables())
@example((1e-320, 3e-3, 0.5, 3e-3))
@example((1e-320, 1e-5, 2e-320, 1e-5))
def test_property_equal_time_constant_rule_matches_fractions(cables):
    """The integer-ratio decision equals the Fraction oracle everywhere."""
    r1, l1, r2, l2 = cables
    c1, c2 = CableParams(r1, l1), CableParams(r2, l2)
    assert constant_weights(r1, l1, r2, l2) == fraction_rule(c1, c2)


@pytest.mark.parametrize("r1,l1,r2", [(0.5, 3e-3, 2.0), (1e-320, 1e-300, 1e-30),
                                      (7e250, 1e200, 1e-20)])
@pytest.mark.parametrize("side", [-1e-9, 1e-9])
def test_equal_time_constant_edge_is_exact(r1, l1, r2, side):
    # stepping L2 ulp by ulp across the band edge flips the decision once,
    # exactly where the Fraction oracle flips
    base = l1 * (r2 / r1) * (1.0 + side)
    decisions = []
    for ulps in range(-6, 7):
        l2 = nudged(base, ulps)
        got = constant_weights(r1, l1, r2, l2)
        assert got == fraction_rule(CableParams(r1, l1), CableParams(r2, l2))
        decisions.append(got)
    assert decisions == sorted(decisions, reverse=side > 0) and len(set(decisions)) == 2


def _wide(draw, lo=-1074, hi=1023):
    """A float m * 2**e with m in [1, 2) and e in [lo, hi]: subnormal to near
    the float maximum."""
    return math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(lo, hi)))


@st.composite
def time_constant_args(draw):
    """(L1, R2, L2, R1) across the float range, so L1*R2 and L2*R1 under- or
    overflow float64; about half put L2 a few ulps either side of the 1e-9
    band around L1*R2/R1, or on it."""
    r1, r2 = _wide(draw), _wide(draw)
    if draw(st.booleans()):
        return _wide(draw), r2, _wide(draw), r1
    # a time constant t for which both t*R1 and t*R2 are floats
    e1, e2 = math.frexp(r1)[1], math.frexp(r2)[1]
    t = _wide(draw, max(-1074, -1074 - min(e1, e2)), min(1023, 1023 - max(e1, e2)))
    scale = 1.0 + draw(st.sampled_from((-1e-9, 1e-9, 0.0)))
    l1, l2 = t * r1, nudged(t * r2 * scale, draw(st.integers(-4, 4)))
    assume(0.0 < min(l1, l2) and max(l1, l2) < math.inf)
    return l1, r2, l2, r1


@settings(max_examples=300, deadline=None)
@given(st.lists(time_constant_args(), min_size=1, max_size=6))
# a float64 test of the mantissa products decides these two wrongly: within
# rounding of the 1e-9 edge only the exact rule decides
@example([(0.5722961106404242, 0.054788534952984025, 1.5262450116268298, 0.020544057599574228),
          (0.5685784450619599, 0.041274028968708805, 0.008011215399426373, 2.929333692698309)])
# products that underflow, and that overflow, float64
@example([(1e-300, 3e-300, 3e-300, 1e-300), (1e300, 3e300, 3e300, 1e300),
          (5e-324, 1e308, 1e308, 5e-324)])
def test_property_array_time_constant_rule_equals_exact(args):
    """Per-step cables decide equal L/R as the exact rule does at every step."""
    got = _same_time_constants(*(np.array(column) for column in zip(*args)))
    assert got.tolist() == [_same_time_constant(*a) for a in args]
