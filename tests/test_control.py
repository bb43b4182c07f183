"""PI stepping, sharing weights, scheme types, controllers, and the exchange."""

import math
import random

import pytest

from dcgridlab.control import (CascadeController, CascadeScheme, ControlError,
                               ConventionalController, ConventionalScheme,
                               PiGains, pi_step, weights_from_ratings)
from dcgridlab.grid import default_grid
from dcgridlab.sim import LoadProfile, Scenario, run


class TestWeights:
    def test_bench_ratings(self):
        assert weights_from_ratings(default_grid().rated_powers) == \
            pytest.approx((2 / 3, 1 / 3))

    def test_equal_ratings(self):
        assert weights_from_ratings([3000.0, 3000.0]) == pytest.approx((0.5, 0.5))

    def test_single_converter(self):
        assert weights_from_ratings([1234.0]) == pytest.approx((1.0,))

    def test_sum_to_one(self):
        for ratings in ([1.0, 2.0, 3.0], [10.0, 0.1], [7.0] * 5):
            assert sum(weights_from_ratings(ratings)) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ControlError):
            weights_from_ratings([1000.0, 0.0])


class TestPiGains:
    def test_negative_integral_rejected(self):
        with pytest.raises(ControlError):
            PiGains(kp=1.0, ki=-0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ControlError):
            PiGains(kp=math.inf, ki=0.0)


def run_pi(gains, errors, dt, lo=-math.inf, hi=math.inf):
    """Step a PI from reset through ``errors``; return (outputs, integrator)."""
    integrator, prev, outs = 0.0, None, []
    for err in errors:
        out, integrator = pi_step(gains, integrator, prev, err, dt, lo, hi)
        prev = err
        outs.append(out)
    return outs, integrator


class TestPiStep:
    def test_zero_error_zero_output(self):
        outs, _ = run_pi(PiGains(2.0, 5.0), [0.0] * 10, 1e-3)
        assert outs == [0.0] * 10

    def test_pure_proportional(self):
        out, _ = pi_step(PiGains(1.0, 0.0), 0.0, None, 3.7, 1e-3)
        assert out == pytest.approx(3.7)

    def test_trapezoid_of_constant(self):
        # integrating a constant unit error for 1 s at 1 kHz accumulates 1.0
        outs, integrator = run_pi(PiGains(kp=0.0, ki=1.0), [1.0] * 1000, 1e-3)
        assert outs[-1] == pytest.approx(1.0, abs=1e-6)
        assert integrator == pytest.approx(1.0, abs=1e-6)

    def test_trapezoid_averages_adjacent_errors(self):
        outs, _ = run_pi(PiGains(kp=0.0, ki=1.0), [0.0, 1.0], 1.0)
        assert outs[-1] == pytest.approx(0.5)  # (0 + 1)/2 * dt

    def test_output_clamped(self):
        out, _ = pi_step(PiGains(10.0, 0.0), 0.0, None, 100.0, 1e-3, lo=-2.0, hi=2.0)
        assert out == 2.0

    def test_conditional_integration_freezes_at_clamp(self):
        outs, integrator = run_pi(PiGains(kp=0.0, ki=1.0), [10.0] * 100, 1.0,
                                  lo=-5.0, hi=5.0)
        assert outs[-1] == 5.0
        assert abs(integrator) <= 5.0 + 1e-12

    def test_rejects_bad_dt(self):
        with pytest.raises(ControlError):
            pi_step(PiGains(1.0, 1.0), 0.0, None, 1.0, 0.0)


def conventional(droop, voltage_pi, current_pi, index=0, active=True,
                 secondary_dt=2e-2):
    scheme = ConventionalScheme(droop_resistance=droop, voltage_pi=voltage_pi,
                                current_pi=current_pi)
    ctl = ConventionalController(scheme, default_grid(), index, 1e-3, secondary_dt)
    ctl.active = active
    return ctl


def cascade(power_pi, index, active=True):
    scheme = CascadeScheme(power_pi=power_pi, bus_voltage_pi=PiGains(0.0, 0.0),
                           weights=(2 / 3, 1 / 3))
    ctl = CascadeController(scheme, default_grid(), index, 1e-3, 2e-2)
    ctl.active = active
    return ctl


# snapshots are (terminal voltage deviation V, cable current A); at the 400 V
# bench bus 1 A carries 400 W
ZERO = (0.0, 0.0)


class TestSchemes:
    def test_cascade_weights_validated(self):
        with pytest.raises(ControlError):
            CascadeScheme(power_pi=PiGains(1, 1), bus_voltage_pi=PiGains(1, 1),
                          weights=(0.5, 0.4))

    def test_conventional_droop_nonnegative(self):
        with pytest.raises(ControlError):
            ConventionalScheme(droop_resistance=-0.5, voltage_pi=PiGains(1, 1),
                               current_pi=PiGains(1, 1))

    def test_droop_arithmetic(self):
        ctl = conventional(0.5, PiGains(0, 0), PiGains(0, 0))
        # 10 A through the 0.5 ohm virtual impedance drops the reference 5 V
        ref = ctl.step((0.0, 10.0), ZERO, None)
        assert ref == pytest.approx(-5.0)

    def test_inactive_scheme_keeps_primary_reference(self):
        ctl = conventional(0.0, PiGains(1, 1), PiGains(1, 1), active=False)
        ctl.v_pi.out, ctl.i_pi.out = 3.0, 2.0
        assert ctl.step((0.0, 5.0), ZERO, (1.0, 1.0)) == 0.0
        # secondary PIs frozen
        for pi, out in ((ctl.v_pi, 3.0), (ctl.i_pi, 2.0)):
            assert (pi.out, pi.integrator, pi.prev_error) == (out, 0.0, None)

    def test_conventional_step_zero_measurements(self):
        ctl = conventional(0.5, PiGains(1.0, 2.0), PiGains(1.0, 2.0),
                           secondary_dt=1e-2)
        assert ctl.step(ZERO, ZERO, ZERO) == 0.0
        assert ctl.v_pi.out == 0.0 and ctl.i_pi.out == 0.0

    def test_cascade_reference_split(self):
        # a measured 3 kW total with no corrections splits 2 kW / 1 kW; with
        # both sources at 1.5 kW the inner P-only PI sees +-500 W of error
        kp = 0.004
        own = nb = (0.0, 3.75)
        out0 = cascade(PiGains(kp, 0.0), 0).step(own, nb, None)
        out1 = cascade(PiGains(kp, 0.0), 1).step(own, nb, None)
        assert out0 == pytest.approx(kp * (2000.0 - 1500.0))
        assert out1 == pytest.approx(kp * (1000.0 - 1500.0))

    def test_cascade_reference_clamped(self):
        # a 1 MW neighbor reading drives the reference to its 8 kW clamp
        # (twice the 4 kW rating), not to two thirds of 1 MW
        kp = 1e-4
        out = cascade(PiGains(kp, 0.0), 0).step(ZERO, (0.0, 2500.0), None)
        assert out == pytest.approx(kp * 8000.0)


def zero_gain_cascade():
    return CascadeScheme(power_pi=PiGains(0.0, 0.0),
                         bus_voltage_pi=PiGains(0.0, 0.0), weights=(2 / 3, 1 / 3))


def recorded_exchange(monkeypatch, load_steps, duration, ramp):
    """Run a scenario whose controllers command ``ramp`` volts per call, and
    record every controller step's inputs."""
    calls = []

    def spy(self, own, neighbor_fast, neighbor_slow):
        calls.append((own, neighbor_fast, neighbor_slow))
        return ramp * len(calls)

    monkeypatch.setattr(CascadeController, "step", spy)
    run(Scenario(grid=default_grid(), scheme=zero_gain_cascade(),
                 load=LoadProfile(load_steps), activation_time=0.0,
                 duration=duration, plant_dt=1e-4, control_dt=1e-3,
                 secondary_dt=0.005))
    # calls alternate converter 0, converter 1 on every control tick
    return calls[0::2], calls[1::2]


class TestCommChannel:
    def test_constant_signal_identical_after_first_sample(self, monkeypatch):
        # with no load the state stays at zero: the neighbor views are the
        # zero registers first and the identical zero snapshots after
        conv0, conv1 = recorded_exchange(monkeypatch, (), 0.02, ramp=0.0)
        for own, fast, slow in conv0 + conv1:
            assert own == fast == ZERO
            assert slow is None or slow == ZERO

    def test_ramp_lags_one_period(self, monkeypatch):
        # ramped voltage references move both snapshots every tick; each
        # converter sees its neighbor's snapshot one control tick (telemetry)
        # or one secondary tick (coordination, every 5th tick) old
        conv0, conv1 = recorded_exchange(monkeypatch, ((0.002, 4000.0),), 0.03,
                                         ramp=0.1)
        for mine, theirs in ((conv0, conv1), (conv1, conv0)):
            assert mine[0][1] == ZERO and mine[0][2] == ZERO
            for k in range(1, len(mine)):
                assert mine[k][1] == theirs[k - 1][0]
                if k % 5 == 0:
                    assert mine[k][2] == theirs[k - 5][0]
                else:
                    assert mine[k][2] is None
        for k in range(2, len(conv0)):
            assert conv0[k][1] != conv1[k][0]  # the lag is visible


class TestBusEstimate:
    def test_average_of_terminals(self):
        # P-only voltage PI: the correction is minus the mean terminal voltage
        ctl = conventional(0.0, PiGains(1.0, 0.0), PiGains(0.0, 0.0))
        assert ctl.step((2.0, 0.0), ZERO, (-1.0, 0.0)) == \
            pytest.approx(-0.5)


# ---------------------------------------------------------------------------
# the control law, bit for bit: each controller against a fold of direct
# pi_step calls that spells out the arithmetic in its documented order

CONTROL_DT, SECONDARY_DT, N_SEC, ACTIVATION = 1e-3, 4e-3, 4, 4


def snapshot_ticks(v_scale, i_scale, seed):
    """(active, own, neighbor_fast, neighbor_slow) for 60 ticks: inactive
    ticks (a secondary one among them), activation on a secondary tick, then
    ordinary and secondary ticks whose deviations grow from small to far past
    every clamp, first in one sign and then in the other."""
    rng = random.Random(seed)

    def snap(scale, bias):
        return (v_scale * (scale * rng.uniform(-1.0, 1.0) + bias),
                i_scale * (scale * rng.uniform(-1.0, 1.0) + bias))

    ticks = []
    for k in range(60):
        scale, bias = ((1.0, 0.0) if k < 24 else (1e3, 2e3) if k < 42
                       else (1e3, -2e3))
        own, fast, slow = (snap(scale, bias) for _ in range(3))
        ticks.append((k >= ACTIVATION, own, fast, slow if k % N_SEC == 0 else None))
    return ticks


def conventional_fold(scheme, grid, index, ticks):
    """Per tick: (reference, voltage-PI out, current-PI out)."""
    weight = weights_from_ratings(grid.rated_powers)[index]
    clamp = 0.1 * grid.nominal_bus_voltage
    v_int, v_prev, dv = 0.0, None, 0.0
    i_int, i_prev, di = 0.0, None, 0.0
    rows = []
    for active, (own_v, own_i), _, slow in ticks:
        if active and slow is not None:
            v_err = 0.0 - 0.5 * (own_v + slow[0])
            dv, v_int = pi_step(scheme.voltage_pi, v_int, v_prev, v_err,
                                SECONDARY_DT, -clamp, clamp)
            v_prev = v_err
            i_err = weight * (own_i + slow[1]) - own_i
            di, i_int = pi_step(scheme.current_pi, i_int, i_prev, i_err,
                                SECONDARY_DT, -clamp, clamp)
            i_prev = i_err
        ref = -scheme.droop_resistance * own_i
        if active:
            ref += dv + di
        rows.append((ref, dv, di))
    return rows


def cascade_fold(scheme, grid, index, ticks):
    """Per tick: (inner output, outer-PI out, clamped power reference)."""
    weight, v_nom = scheme.weights[index], grid.nominal_bus_voltage
    conv = grid.converters[index]
    p_lim = 2.0 * conv.rated_power
    v_lim = 2.0 * conv.rated_power * conv.cable.resistance / v_nom
    o_int, o_prev, corr = 0.0, None, 0.0
    n_int, n_prev = 0.0, None
    rows = []
    for active, (own_v, own_i), fast, slow in ticks:
        if not active:
            rows.append((0.0, corr, None))
            continue
        own_power = v_nom * own_i
        if slow is not None:
            v_err = 0.0 - 0.5 * (own_v + slow[0])
            corr, o_int = pi_step(scheme.bus_voltage_pi, o_int, o_prev, v_err,
                                  SECONDARY_DT, -p_lim, p_lim)
            o_prev = v_err
        ref = weight * (own_power + v_nom * fast[1] + corr)
        ref = min(max(ref, -p_lim), p_lim)
        p_err = ref - own_power
        out, n_int = pi_step(scheme.power_pi, n_int, n_prev, p_err, CONTROL_DT,
                             -v_lim, v_lim)
        n_prev = p_err
        rows.append((out, corr, ref))
    return rows


def stepped(ctl, ticks, extra):
    """Step ``ctl`` through ``ticks`` as the control loop does; per tick the
    output followed by ``extra(ctl)``."""
    rows = []
    for active, own, fast, slow in ticks:
        ctl.active = active
        rows.append((ctl.step(own, fast, slow),) + extra(ctl))
    return rows


class TestControlLawBits:
    @pytest.mark.parametrize("index", [0, 1])
    def test_conventional_matches_direct_pi_steps(self, index):
        grid = default_grid()
        scheme = ConventionalScheme(droop_resistance=0.5,
                                    voltage_pi=PiGains(0.3718, 7.113),
                                    current_pi=PiGains(0.8291, 11.37))
        ticks = snapshot_ticks(0.7, 3.1, seed=11 + index)
        want = conventional_fold(scheme, grid, index, ticks)
        ctl = ConventionalController(scheme, grid, index, CONTROL_DT, SECONDARY_DT)
        got = stepped(ctl, ticks, lambda c: (c.v_pi.out, c.i_pi.out))
        assert got == want
        clamp = 0.1 * grid.nominal_bus_voltage
        for j in (1, 2):    # both PIs reach both clamps
            assert {clamp, -clamp} <= {row[j] for row in want}

    @pytest.mark.parametrize("index", [0, 1])
    def test_cascade_matches_direct_pi_steps(self, index):
        grid = default_grid()
        scheme = CascadeScheme(power_pi=PiGains(0.00099281, 0.129251),
                               bus_voltage_pi=PiGains(143.698, 566.909),
                               weights=(2 / 3, 1 / 3))
        ticks = snapshot_ticks(0.7, 3.1, seed=23 + index)
        want = cascade_fold(scheme, grid, index, ticks)
        ctl = CascadeController(scheme, grid, index, CONTROL_DT, SECONDARY_DT)
        got = stepped(ctl, ticks, lambda c: (c.v_pi.out,))
        assert got == [row[:2] for row in want]
        conv = grid.converters[index]
        p_lim = 2.0 * conv.rated_power
        v_lim = p_lim * conv.cable.resistance / grid.nominal_bus_voltage
        # the inner PI, the outer PI and the power reference reach both clamps
        for j, lim in ((0, v_lim), (1, p_lim), (2, p_lim)):
            assert {lim, -lim} <= {row[j] for row in want}
