"""Time-domain engine: oracles, linearity, determinism, scoring metrics."""

import copy
import dataclasses
import functools
import json
import logging
import math
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcgridlab import control, sim
from dcgridlab.cli import COMPARE_CASES, build_scheme
from dcgridlab.config import CONVENTIONAL_HIGH_PI, load_config
from dcgridlab.control import CascadeScheme, ConventionalScheme, PiGains, pi_step
from dcgridlab.grid import default_grid
from dcgridlab.lti import zoh
from dcgridlab.sim import (DEFAULT_ITAE_WINDOW, SETTLING_BAND, LoadProfile, Scenario,
                           SimResult, SimulationDiverged, SimulationError, _ControlLoop,
                           _period_map, _plant_matrices, _window_slice, itae_current,
                           itae_voltage, run, voltage_settling)


def zero_gain_cascade():
    return CascadeScheme(power_pi=PiGains(0.0, 0.0), bus_voltage_pi=PiGains(0.0, 0.0),
                         weights=(2 / 3, 1 / 3))


def open_loop_scenario(load_steps, duration=6.0, plant_dt=1e-4):
    # activation beyond the horizon: converters stay at their setpoints
    return Scenario(grid=default_grid(), scheme=zero_gain_cascade(),
                    load=LoadProfile(load_steps), activation_time=2 * duration,
                    duration=duration, plant_dt=plant_dt, control_dt=1e-3,
                    secondary_dt=0.02)


@pytest.fixture(scope="module")
def cascade_result():
    cfg = load_config(None)
    return run(cfg.scenario())


@pytest.fixture(scope="module")
def conventional_result():
    cfg = load_config(None)
    scheme = ConventionalScheme(droop_resistance=cfg.droop_ohm,
                                voltage_pi=PiGains(1.0, 20.0),
                                current_pi=cfg.current_pi)
    return run(cfg.scenario(scheme=scheme))


class TestValidation:
    def test_duration_must_exceed_events(self):
        with pytest.raises(SimulationError):
            open_loop_scenario(((1.0, 2000.0),), duration=1.0)

    def test_times_increasing(self):
        with pytest.raises(SimulationError):
            LoadProfile(((2.0, 1000.0), (1.0, 2000.0)))

    def test_powers_nonnegative(self):
        with pytest.raises(SimulationError):
            LoadProfile(((1.0, -5.0),))

    def test_non_finite_rejected(self):
        with pytest.raises(SimulationError):
            LoadProfile(((1.0, math.nan),))

    def test_step_ordering(self):
        with pytest.raises(SimulationError):
            Scenario(grid=default_grid(), scheme=zero_gain_cascade(),
                     load=LoadProfile(()), activation_time=1.0, duration=2.0,
                     plant_dt=1e-2, control_dt=1e-3, secondary_dt=0.02)

    def test_multiples_enforced(self):
        with pytest.raises(SimulationError):
            Scenario(grid=default_grid(), scheme=zero_gain_cascade(),
                     load=LoadProfile(()), activation_time=1.0, duration=2.0,
                     plant_dt=3e-4, control_dt=1e-3, secondary_dt=0.02)

    # the engine acts on control ticks only; an off-grid time would move
    # silently to the next tick (a step at 1.0004 s acted at 1.001 s)
    def test_off_grid_load_step_rejected(self):
        with pytest.raises(SimulationError, match="load step time 1.0004"):
            open_loop_scenario(((1.0004, 2000.0),))

    def test_off_grid_activation_rejected(self):
        scenario = open_loop_scenario(((1.0, 2000.0),))
        with pytest.raises(SimulationError, match="activation_time 2.0005"):
            dataclasses.replace(scenario, activation_time=2.0005)

    # the engine starts at t = 0, so a negative time would act at t = 0
    def test_negative_load_step_rejected(self):
        with pytest.raises(SimulationError, match="load step time -1.0 s is negative"):
            open_loop_scenario(((-1.0, 2000.0),))

    def test_negative_activation_rejected(self):
        scenario = open_loop_scenario(((1.0, 2000.0),))
        with pytest.raises(SimulationError, match="activation_time -2.0 s is negative"):
            dataclasses.replace(scenario, activation_time=-2.0)

    # the scoring's bounds: the ITAE window inside the run, and at least two
    # plant steps to the next scored event
    def test_scored_window_past_horizon_rejected(self):
        scenario = dataclasses.replace(open_loop_scenario(((0.2, 2000.0),), duration=3.0),
                                       activation_time=2.0)
        with pytest.raises(SimulationError, match=r"activation_time 2.0 s: its ITAE "
                                                  r"window \[2, 4\] s ends after duration 3.0"):
            scenario.scored_events()

    def test_scored_events_under_two_plant_steps_rejected(self):
        scenario = dataclasses.replace(
            open_loop_scenario(((1.0, 2000.0), (5.001, 4000.0)), duration=10.0,
                               plant_dt=1e-3), activation_time=5.0)
        with pytest.raises(SimulationError, match="activation_time 5.0 s: the next "
                                                  "scored event follows 0.001 s"):
            scenario.scored_events()
        assert dataclasses.replace(scenario, plant_dt=5e-4).scored_events() == [
            (5.0, pytest.approx(0.001)), (5.001, pytest.approx(4.999))]

    # CascadeController reads its converter's weight by index: one weight
    # died with an IndexError, and three ran, sharing by the first two
    @pytest.mark.parametrize("weights", [(1.0,), (0.5, 0.3, 0.2)])
    def test_cascade_weights_one_per_converter(self, weights):
        scheme = dataclasses.replace(zero_gain_cascade(), weights=weights)
        with pytest.raises(SimulationError, match=rf"cascade weights \[.*\] must be one "
                                                  rf"per converter of the grid's 2"):
            dataclasses.replace(open_loop_scenario(((1.0, 2000.0),)), scheme=scheme)

    def test_off_grid_duration_rejected(self):
        # 2.99951 s used to run 30000 rows, to 3.0 s
        scenario = open_loop_scenario(((1.0, 2000.0),), duration=3.0)
        with pytest.raises(SimulationError, match="duration 2.99951"):
            dataclasses.replace(scenario, duration=2.99951)


def coarse_scenario(load_steps, activation_time):
    # control_dt = 0.01 s: a time 9e-12 s past a tick is 9e-10 ticks past it,
    # on the grid, and must act at that tick, not at the next one
    return Scenario(grid=default_grid(), scheme=load_config(None).scheme(),
                    load=LoadProfile(load_steps), activation_time=activation_time,
                    duration=6.0, plant_dt=1e-3, control_dt=0.01,
                    secondary_dt=0.02)


class TestEventTicks:
    def test_load_step_acts_at_its_tick(self):
        res = run(coarse_scenario(((1.000000000009, 2000.0),), 12.0))
        first = np.flatnonzero(res.current.sum(axis=1))[0]
        assert res.time[first] == pytest.approx(1.001, abs=1e-9)

    def test_activation_acts_at_its_tick(self):
        res = run(coarse_scenario(((1.0, 2000.0),), 5.000000000009))
        first = np.flatnonzero(res.voltage_reference.any(axis=1))[0]
        assert res.time[first] == pytest.approx(5.001, abs=1e-9)

    def test_each_applied_event_logs_one_debug_line(self, caplog):
        # the bench-default shape: a load step, activation, a second step;
        # ordinary ticks log nothing
        caplog.set_level(logging.DEBUG, logger="dcgridlab.sim")
        run(fast_scenario("cascade"))
        assert [r.getMessage() for r in caplog.records] == [
            "tick 200 (t = 0.2 s): load 0 -> 2000 W",
            "tick 500 (t = 0.5 s): secondary control activated",
            "tick 1000 (t = 1 s): load 2000 -> 4000 W",
            "run: 147 secondary periods advanced by period maps, 3 ticked; "
            "blocks cut short by a test: 0"]


class TestOpenLoop:
    @pytest.mark.parametrize("duration,plant_dt", [(1.0, 1e-4), (0.3, 5e-4)])
    def test_end_time_is_the_last_sample(self, duration, plant_dt):
        # load_config bounds the scoring windows by it before any run
        scenario = open_loop_scenario((), duration=duration, plant_dt=plant_dt)
        assert run(scenario).time[-1] == scenario.end_time

    def test_all_quiet_stays_zero(self):
        res = run(open_loop_scenario((), duration=1.0))
        assert np.all(res.power == 0.0)
        assert np.all(res.bus_voltage == 0.0)
        assert np.all(res.voltage_reference == 0.0)

    def test_four_kw_step_bus_sag(self):
        # hand oracle: DC sag is -(R1 R2/(R1+R2)) / V_nominal per watt, -2.5 V at 4 kW
        res = run(open_loop_scenario(((2.0, 4000.0),)))
        assert res.bus_voltage[-1] == pytest.approx(-2.5, rel=1e-3)
        # terminals stay at the setpoints without control action
        assert np.all(res.terminal_voltage == 0.0)

    def test_load_splits_by_cable_at_dc(self):
        res = run(open_loop_scenario(((2.0, 4000.0),)))
        # symmetric cables: each source picks up half the 10 A
        assert res.current[-1, 0] == pytest.approx(5.0, rel=1e-6)
        assert res.current[-1, 1] == pytest.approx(5.0, rel=1e-6)

    def test_power_balance_exact(self):
        res = run(open_loop_scenario(((2.0, 4000.0),)))
        after = res.time > 2.0
        total = res.power[after].sum(axis=1)
        assert np.allclose(total, 4000.0, rtol=1e-9)

    def test_plant_linearity_controllers_off(self):
        res1 = run(open_loop_scenario(((2.0, 2000.0),)))
        res2 = run(open_loop_scenario(((2.0, 4000.0),)))
        for name in ("power", "current", "bus_voltage", "terminal_voltage"):
            a = getattr(res1, name)
            b = getattr(res2, name)
            assert np.allclose(2.0 * a, b, rtol=1e-9, atol=1e-12), name


class TestDeterminism:
    def test_bit_identical_runs(self):
        cfg = load_config(None)
        scenario = dataclasses.replace(cfg.scenario(), duration=8.0,
                                       load=LoadProfile(((1.0, 2000.0),)))
        r1 = run(scenario)
        r2 = run(scenario)
        for name in ("time", "power", "current", "terminal_voltage",
                     "bus_voltage", "regulated_voltage", "voltage_reference"):
            assert np.array_equal(getattr(r1, name), getattr(r2, name)), name


class TestCascadeSteadyState:
    def test_sharing_and_voltage_after_each_event(self, cascade_result):
        res = cascade_result
        for t_check in (7.0, 22.0):
            i = np.searchsorted(res.time, t_check) - 1
            ratio = res.power[i, 0] / res.power[i, 1]
            assert ratio == pytest.approx(2.0, rel=5e-3)
            assert abs(res.regulated_voltage[i]) < 0.05

    def test_power_balance_after_settling(self, cascade_result):
        res = cascade_result
        i = np.searchsorted(res.time, 22.0) - 1
        assert res.power[i].sum() == pytest.approx(6000.0, rel=1e-3)

    def test_references_bounded_by_clamps(self, cascade_result):
        # inner PI outputs are clamped to the voltage swing of twice rated
        # power through each cable (10 V and 5 V at the bench values)
        refs = cascade_result.voltage_reference
        assert np.abs(refs[:, 0]).max() <= 10.0 + 1e-9
        assert np.abs(refs[:, 1]).max() <= 5.0 + 1e-9


class TestConventionalSteadyState:
    def test_voltage_restored_and_sharing_converges(self, conventional_result):
        res = conventional_result
        i = np.searchsorted(res.time, 19.0) - 1
        assert abs(res.regulated_voltage[i]) < 0.01
        assert res.power[i, 0] / res.power[i, 1] == pytest.approx(2.0, rel=5e-3)

    def test_droop_active_before_activation(self, conventional_result):
        res = conventional_result
        # between the 2 kW step and activation, droop sags the terminals
        i = np.searchsorted(res.time, 4.5) - 1
        assert res.regulated_voltage[i] < -1.0

    def test_zero_gain_secondary_leaves_droop_only(self):
        # with both secondary PIs at zero gain the reference is pure droop
        cfg = load_config(None)
        scheme = ConventionalScheme(droop_resistance=0.5,
                                    voltage_pi=PiGains(0.0, 0.0),
                                    current_pi=PiGains(0.0, 0.0))
        scenario = dataclasses.replace(cfg.scenario(scheme=scheme),
                                       duration=4.0, activation_time=2.0,
                                       load=LoadProfile(((1.0, 2000.0),)))
        res = run(scenario)
        i = np.searchsorted(res.time, 3.9) - 1
        want = -0.5 * res.current[i]
        assert res.voltage_reference[i] == pytest.approx(want, rel=1e-9)

    def test_references_bounded_by_clamps(self, conventional_result):
        res = conventional_result
        # droop part (R_d * I) plus two corrections clamped at 40 V each
        droop = load_config(None).droop_ohm
        bound = droop * np.abs(res.current).max() + 80.0
        assert np.abs(res.voltage_reference).max() <= bound


class TestDivergenceGuard:
    def test_non_finite_state_reported(self, monkeypatch):
        # converter 1's reference blows up at the first tick, converter 2's
        # stays finite; the error names the tick's state and both inputs
        from dcgridlab import control as ctl
        monkeypatch.setattr(ctl.CascadeController, "step",
                            lambda self, *a, **k: math.inf if self.weight > 0.5 else 0.25)
        scenario = open_loop_scenario((), duration=0.2)
        scenario = dataclasses.replace(scenario, activation_time=0.0)
        # the inf reference times a zero entry of the input map is a NaN, which
        # the run reports with no numpy warning
        with pytest.raises(SimulationDiverged) as exc, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run(scenario)
        err = exc.value
        assert err.time == pytest.approx(scenario.control_dt)
        assert err.inputs == (math.inf, 0.25)
        assert len(err.state) == 4 and err.state[0] == math.inf
        assert not all(map(math.isfinite, err.state))
        assert "[V1, V2, I1, I2] = [inf, " in str(err)
        assert "held references u = [inf, 0.25]" in str(err)

    def test_last_block_checked(self, monkeypatch):
        # a NaN reference held over only the final control period still raises,
        # stamped with the horizon
        from dcgridlab import control as ctl
        scenario = dataclasses.replace(open_loop_scenario((), duration=0.2),
                                       activation_time=0.0)
        calls = []

        def step(self, *args, **kwargs):
            calls.append(None)
            last = len(calls) > 2 * (round(scenario.duration / scenario.control_dt) - 1)
            return math.nan if last and self.weight < 0.5 else 0.25

        monkeypatch.setattr(ctl.CascadeController, "step", step)
        with pytest.raises(SimulationDiverged) as exc:
            run(scenario)
        err = exc.value
        assert err.time == pytest.approx(scenario.duration)
        assert err.inputs[0] == 0.25 and math.isnan(err.inputs[1])
        assert not all(map(math.isfinite, err.state))


    @pytest.mark.parametrize("tick,saturated", [
        (500, ()),   # activation: every PI active, none at its clamp
        (1500, ("converter 2 p_pi",)),
        (2800, ("converter 1 v_pi", "converter 2 v_pi", "converter 2 p_pi"))])
    def test_saturated_pis_named(self, tick, saturated):
        # the real control law on the clamped oracle case, with converter 1's
        # reference turned NaN at one tick; the report names the PIs whose
        # output sits at its clamp after that tick, or says that none does
        scenario = oracle_scenario(CLAMPED_CASE)
        real_tick = _ControlLoop.tick

        def tick_with_nan(loop, k, x):
            x, u = real_tick(loop, k, x)
            return x, ([math.nan, u[1]] if k == tick else u)

        with mock.patch.object(_ControlLoop, "tick", tick_with_nan):
            with pytest.raises(SimulationDiverged) as exc:
                run(scenario)
        err = exc.value
        assert err.time == pytest.approx((tick + 1) * scenario.control_dt)
        assert err.saturated == saturated
        assert str(err).endswith(f"; PIs at their clamp: {', '.join(saturated)}"
                                 if saturated else "; no PI at its clamp")


def synthetic_result(t, term1, term2, i1, i2):
    term = np.column_stack([term1, term2])
    curr = np.column_stack([i1, i2])
    return SimResult(time=t, power=400.0 * curr, current=curr,
                     terminal_voltage=term, bus_voltage=np.zeros_like(t),
                     regulated_voltage=term.mean(axis=1),
                     voltage_reference=np.zeros_like(term),
                     weights=(2 / 3, 1 / 3))


class TestItaeMetrics:
    def test_zero_deviation_zero_score(self):
        t = np.linspace(0.001, 3.0, 3000)
        z = np.zeros_like(t)
        res = synthetic_result(t, z, z, z, z)
        assert itae_voltage(res, 0.0) == 0.0
        assert itae_current(res, 0.0) == 0.0

    def test_constant_voltage_deviation(self):
        # |error| = 1 V for 2 s: integral of t dt = t^2/2 = 2.0
        t = np.linspace(0.0005, 2.0, 4000)
        one = np.ones_like(t)
        res = synthetic_result(t, one, one, np.zeros_like(t), np.zeros_like(t))
        assert itae_voltage(res, 0.0) == pytest.approx(2.0, rel=1e-5)

    def test_constant_current_error(self):
        # split a constant total so the two sharing errors sum to 1 A
        t = np.linspace(0.0005, 2.0, 4000)
        total = np.full_like(t, 9.0)
        a = 0.5
        i1 = (2 / 3) * total + a
        i2 = (1 / 3) * total - a
        res = synthetic_result(t, np.zeros_like(t), np.zeros_like(t), i1, i2)
        assert itae_current(res, 0.0) == pytest.approx(2.0, rel=1e-5)

    def test_window_must_fit(self, cascade_result):
        with pytest.raises(SimulationError):
            itae_voltage(cascade_result, 24.5)

    def test_discretization_convergence(self):
        # halving the plant step moves either ITAE by less than 0.5 percent
        cfg = load_config(None)
        base = dataclasses.replace(cfg.scenario(), duration=8.0,
                                   load=LoadProfile(((1.0, 2000.0),)))
        fine = dataclasses.replace(base, plant_dt=base.plant_dt / 2)
        r1, r2 = run(base), run(fine)
        for fn in (itae_voltage, itae_current):
            a, b = fn(r1, 5.0), fn(r2, 5.0)
            assert a == pytest.approx(b, rel=5e-3), fn.__name__


def settling(t, v):
    """voltage_settling over all of t, both terminal voltages at v."""
    z = np.zeros_like(t)
    return voltage_settling(synthetic_result(t, v, v, z, z), 0.0, float(t[-1]))


class TestSettling:
    def test_constant_at_target(self):
        t = np.linspace(0.001, 1.0, 1000)
        assert settling(t, np.zeros_like(t)) == 0.0

    def test_first_order_decay(self):
        tau = 0.25
        t = np.linspace(0.0001, 3.0, 30000)
        y = 10.0 * np.exp(-t / tau)
        # 2 percent band of the initial amplitude: ln(50) tau
        assert settling(t, y) == pytest.approx(math.log(50.0) * tau, rel=1e-2)

    def test_never_settles(self):
        t = np.linspace(0.001, 1.0, 1000)
        y = np.ones_like(t) + 0.5 * np.sign(np.sin(40 * t))
        assert settling(t, y) == math.inf

    def test_band_floor_guards_tiny_signals(self, cascade_result):
        # a 1 V decay settles into the 0.05 V floor (ln(20) tau), not into 2
        # percent of its peak (ln(50) tau)
        tau = 0.25
        t = np.linspace(0.0001, 3.0, 30000)
        got = settling(t, np.exp(-t / tau))
        assert got == pytest.approx(math.log(20.0) * tau, rel=1e-2)
        # the cascade's regulated voltage barely moves at activation; with the
        # 0.05 V floor the event counts as settled immediately
        assert voltage_settling(cascade_result, 5.0, 10.0) == 0.0


def mask_window(result: SimResult, start: float, length: float) -> np.ndarray:
    """The oracle of ``_window_slice``: its samples as a mask of the time grid."""
    t = result.time
    return (t > start + 1e-12) & (t <= start + length + 1e-12)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 3000), plant_dt=st.sampled_from((1e-4, 5e-4, 1e-3)),
       data=st.data())
def test_window_slice_selects_the_masks_samples(n, plant_dt, data):
    # starts on a plant-grid time (or 0), within 1e-13 of one, 1e-12 before
    # one (so the rule's slack lands on it), or between two; windows of one
    # to three plant steps, to a grid time (or 1e-12 before one), to the last
    # sample (end_time) or of any length up to a step past it
    t = np.arange(1, n + 1) * plant_dt
    result = synthetic_result(t, *([np.zeros(n)] * 4))
    near = data.draw(st.sampled_from((0.0, float(t[0]), float(t[-1])))
                     | st.integers(0, n - 1).map(lambda i: float(t[i])))
    start = data.draw(st.just(near)
                      | st.floats(-1e-13, 1e-13).map(lambda d: near + d)
                      | st.just(near - 1e-12)
                      | st.floats(0.0, 1.0).map(lambda f: near + f * plant_dt))
    length = data.draw(st.integers(1, 3).map(lambda k: k * plant_dt)
                       | st.integers(0, n - 1).map(lambda i: float(t[i]) - start)
                       | st.integers(0, n - 1).map(lambda i: float(t[i]) - start - 1e-12)
                       | st.just(float(t[-1]) - start)
                       | st.floats(0.0, float(t[-1]) + plant_dt))
    mask = mask_window(result, start, length)
    if start + length > t[-1] + 1e-12 or np.count_nonzero(mask) < 2:
        match = ("exceeds the simulated span" if start + length > t[-1] + 1e-12
                 else "holds fewer than 2 samples")
        with pytest.raises(SimulationError, match=match):
            _window_slice(result, start, length)
        return
    window, times = _window_slice(result, start, length)
    assert np.array_equal(np.arange(n)[window], np.flatnonzero(mask))
    assert times.tobytes() == (t[mask] - start).tobytes()


def masked_scores(result: SimResult, t0: float, span: float) -> tuple[float, float, float]:
    """itae_voltage, itae_current and voltage_settling as they were written
    on the mask of ``mask_window``."""
    m = mask_window(result, t0, DEFAULT_ITAE_WINDOW)
    t = result.time[m] - t0
    itae_v = float(np.trapezoid(t * np.abs(result.regulated_voltage[m]), t))
    total = result.current[m].sum(axis=1)
    err = sum(np.abs(result.weights[i] * total - result.current[m][:, i]) for i in range(2))
    itae_i = float(np.trapezoid(t * err, t))
    m = mask_window(result, t0, span)
    t, err = result.time[m] - t0, np.abs(result.regulated_voltage[m])
    outside = np.nonzero(err > max(SETTLING_BAND * float(err.max()), 0.05))[0]
    settling = (0.0 if len(outside) == 0 else math.inf if outside[-1] == len(err) - 1
                else float(t[outside[-1] + 1]))
    return itae_v, itae_i, settling


@pytest.mark.parametrize("case", ("cascade", "conventional-high"))
def test_scores_equal_their_mask_versions(case):
    # slices take the mask's samples in its order, so every score keeps its
    # bits; so does the regulated voltage, formed as (V1 + V2) / 2
    scenario = fast_scenario(case)
    result = run(scenario)
    assert (result.regulated_voltage.tobytes()
            == result.terminal_voltage.mean(axis=1).tobytes())
    for t0, span in scenario.scored_events():
        for length in (span, DEFAULT_ITAE_WINDOW, 2 * scenario.plant_dt):
            got = (itae_voltage(result, t0), itae_current(result, t0),
                   voltage_settling(result, t0, length))
            want = masked_scores(result, t0, length)
            assert [v.hex() for v in got] == [v.hex() for v in want], (t0, length)


PINNED = Path(__file__).with_name("pinned_series.json")
SERIES = ("time", "power", "current", "terminal_voltage", "bus_voltage",
          "regulated_voltage", "voltage_reference")


def fast_scenario(case: str) -> Scenario:
    """The 3 s scenario of test_cli.FAST_SCENARIO under one compare case."""
    cfg = load_config(None)
    scheme = cfg.scheme() if case == "cascade" else ConventionalScheme(
        droop_resistance=cfg.droop_ohm, voltage_pi=CONVENTIONAL_HIGH_PI,
        current_pi=cfg.current_pi)
    return dataclasses.replace(
        cfg.scenario(scheme=scheme), activation_time=0.5, duration=3.0,
        load=LoadProfile(((0.2, 2000.0), (1.0, 4000.0))))


def pinned_columns(series) -> dict[str, np.ndarray]:
    """Every series of a run (``vars`` of a SimResult, or a reference's dict)
    but time, one entry per column."""
    cols = {}
    for name in SERIES[1:]:
        arr = series[name]
        if arr.ndim == 1:
            cols[name] = arr
        else:
            cols.update({f"{name}[{j}]": arr[:, j] for j in range(arr.shape[1])})
    return cols


PINNED_CASES = ("cascade", "conventional-high")


@pytest.mark.parametrize("case", PINNED_CASES)
def test_series_match_pinned_reference(case):
    # pinned_series.json holds, per column, the peak |value|, the sum and every
    # 97th row of the 3 s scenario of test_cli.FAST_SCENARIO, captured from
    # exact_reference (run this file as a script to re-capture it).  Rows and
    # peaks agree to 1e-12 of the column peak, sums to 1e-12 of peak * rows.
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    result = run(fast_scenario(case))
    want = pinned[case]
    assert len(result.time) == want["n_rows"]
    cols = pinned_columns(vars(result))
    assert set(cols) == set(want["columns"])
    for name, ref in want["columns"].items():
        got = cols[name]
        tol = 1e-12 * ref["peak"]
        assert abs(np.abs(got).max() - ref["peak"]) <= tol, name
        assert abs(got.sum() - ref["sum"]) <= tol * len(got), name
        assert np.max(np.abs(got[::pinned["stride"]] - ref["rows"])) <= tol, name


# worst |I1 + I2 - P_load / V_nom| relative to the sum after a load step, on
# the 3 s scenario: 1.4e-15 (cascade) and 5.7e-15 (conventional-high) measured
# (the stepwise engine: 1.27e-12)
CURRENT_SUM_DRIFT = 3e-13


@pytest.mark.parametrize("case", PINNED_CASES)
def test_current_sum_conserved_between_load_steps(case):
    # the load pins the current sum; only rounding can move it
    scenario = fast_scenario(case)
    result = run(scenario)
    steps = scenario.load.steps
    ends = [t for t, _ in steps[1:]] + [scenario.duration]
    for (t0, power), t1 in zip(steps, ends):
        after = (result.time > t0 + 1e-12) & (result.time <= t1 + 1e-12)
        want = power / scenario.grid.nominal_bus_voltage
        drift = np.abs(result.current[after].sum(axis=1) - want).max() / want
        assert drift <= CURRENT_SUM_DRIFT, (t0, drift)


@pytest.mark.parametrize("duration", (100.0, 400.0))
@pytest.mark.parametrize("case", tuple(COMPARE_CASES))
def test_current_sum_held_on_long_horizons(case, duration):
    # every mapped period repeats its map's rounding, so a current-sum row
    # that rounds off the exact sum drifts in proportion to the horizon; the
    # maps' I2 rows hold the sum exactly, and the drift after the 20 s step
    # stays at rounding (7.2e-14 at most measured)
    scenario = dataclasses.replace(bench_scenario(case), duration=duration)
    result = run(scenario)
    t0, power = scenario.load.steps[-1]
    want = power / scenario.grid.nominal_bus_voltage
    after = result.time > t0 + 1e-12
    drift = np.abs(result.current[after].sum(axis=1) - want).max() / want
    assert drift <= CURRENT_SUM_DRIFT, drift


def event_scores(scenario: Scenario) -> list[tuple[float, float, float]]:
    """(itae_v, itae_i, settling_v_s) of each scored event, as the CLI scores them."""
    result = run(scenario)
    return [(itae_voltage(result, t0),
             itae_current(result, t0),
             voltage_settling(result, t0, span))
            for t0, span in scenario.scored_events()]


@settings(max_examples=6, deadline=None)
@given(case=st.sampled_from(PINNED_CASES), periods=st.integers(1, 100),
       levels=st.tuples(st.floats(500.0, 3000.0), st.floats(500.0, 3000.0)))
def test_scores_unchanged_when_every_event_shifts(case, periods, levels):
    # the run starts at rest, so moving every event and the horizon by whole
    # secondary periods (the controllers' phase) only prepends quiet rows
    base = fast_scenario(case)
    base = dataclasses.replace(base, load=LoadProfile(tuple(
        (t, p) for (t, _), p in zip(base.load.steps, levels))))
    shift = periods * base.secondary_dt
    moved = dataclasses.replace(
        base, activation_time=base.activation_time + shift,
        duration=base.duration + shift,
        load=LoadProfile(tuple((t + shift, p) for t, p in base.load.steps)))
    want = event_scores(base)
    got = event_scores(moved)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-9, abs=0.0)


def swapped(scenario: Scenario) -> Scenario:
    """The scenario with its converters' order reversed: ratings, cables and
    voltage-loop time constants, and the cascade weights that follow the
    ratings."""
    grid = dataclasses.replace(scenario.grid, converters=scenario.grid.converters[::-1])
    scheme = scenario.scheme
    if isinstance(scheme, CascadeScheme):
        scheme = dataclasses.replace(scheme, weights=scheme.weights[::-1])
    return dataclasses.replace(scenario, grid=grid, scheme=scheme)


@settings(max_examples=6, deadline=None)
@given(case=st.sampled_from(PINNED_CASES),
       levels=st.tuples(st.floats(500.0, 3000.0), st.floats(500.0, 3000.0)))
def test_converter_swap_swaps_columns(case, levels):
    # converter 2 gets its own cable and time constant, so a swap moves every
    # converter parameter; the run's per-converter columns swap with it, and
    # the bus and regulated voltages stay, to rounding
    base = fast_scenario(case)
    c1, c2 = base.grid.converters
    c2 = dataclasses.replace(c2, voltage_loop_tau=0.004, cable=dataclasses.replace(
        c2.cable, resistance=0.4, inductance=0.005))
    base = dataclasses.replace(
        base, grid=dataclasses.replace(base.grid, converters=(c1, c2)),
        load=LoadProfile(tuple((t, p) for (t, _), p in zip(base.load.steps, levels))))
    want, got = run(base), run(swapped(base))
    for name in ("power", "current", "terminal_voltage", "voltage_reference"):
        for j in range(2):
            col = getattr(want, name)[:, j]
            err = np.abs(getattr(got, name)[:, 1 - j] - col).max()
            assert err <= 1e-12 * np.abs(col).max(), (name, j, err)
    for name in ("bus_voltage", "regulated_voltage"):
        col = getattr(want, name)
        err = np.abs(getattr(got, name) - col).max()
        assert err <= 1e-12 * np.abs(col).max(), (name, err)


def run_recording_clamps(scenario: Scenario) -> tuple[SimResult, bool]:
    """``run``, and whether any PI update ended at its output clamp."""
    clamped = []

    def step(gains, integrator, prev_error, error, dt, lo, hi):
        out, integrator = pi_step(gains, integrator, prev_error, error, dt, lo, hi)
        clamped.append(not lo < out < hi)
        return out, integrator

    with mock.patch.object(control, "pi_step", step):
        result = run(scenario)
    return result, any(clamped)


@functools.lru_cache(maxsize=None)
def unscaled_run(case: str) -> tuple[SimResult, bool]:
    return run_recording_clamps(fast_scenario(case))


@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(PINNED_CASES), c=st.floats(0.1, 1.0))
def test_load_scaling_is_linear_while_unclamped(case, c):
    # the run starts at rest and activates before the 1 s step; while no PI
    # reaches its clamp the closed loop is linear, so loads scaled by c scale
    # every series by c
    base = fast_scenario(case)
    scaled = dataclasses.replace(base, load=LoadProfile(tuple(
        (t, c * p) for t, p in base.load.steps)))
    want, want_clamped = unscaled_run(case)
    got, got_clamped = run_recording_clamps(scaled)
    assert not want_clamped and not got_clamped
    assert np.array_equal(got.time, want.time)
    want_cols = pinned_columns(vars(want))
    for name, col in pinned_columns(vars(got)).items():
        err = np.abs(col - c * want_cols[name]).max()
        assert err <= 1e-9 * np.abs(col).max(), (name, err)


def reference_run(scenario: Scenario, ad: np.ndarray, bd: np.ndarray,
                  c_vg: np.ndarray) -> dict[str, np.ndarray]:
    """``sim.run``'s control loop (``_ControlLoop``) around a plant stepped
    row by row as ``x = ad @ x + bd @ u``, in the dtype of ``ad``, with the
    bus voltage formed row by row.  Every series is returned as float64."""
    n_sub = round(scenario.control_dt / scenario.plant_dt)
    n_rows = scenario.n_rows
    loop = _ControlLoop(scenario)
    states = np.empty((n_rows, 4), ad.dtype)
    bus = np.empty(n_rows, ad.dtype)
    refs = np.empty((n_rows, 2))
    x = np.zeros(4, ad.dtype)
    for k in range(n_rows // n_sub):
        x, u = loop.tick(k, x)
        u = np.array(u)
        for row in range(k * n_sub, (k + 1) * n_sub):
            x = ad @ x + bd @ u
            states[row] = x
            bus[row] = c_vg @ x
            refs[row] = u
    term, curr = states[:, 0:2], states[:, 2:4]
    v_nom = ad.dtype.type(scenario.grid.nominal_bus_voltage)
    return {"time": np.arange(1, n_rows + 1) * scenario.plant_dt,
            "power": (v_nom * curr).astype(float), "current": curr.astype(float),
            "terminal_voltage": term.astype(float),
            "bus_voltage": bus.astype(float),
            "regulated_voltage": term.mean(axis=1).astype(float),
            "voltage_reference": refs}


def stepwise_reference(scenario: Scenario) -> dict[str, np.ndarray]:
    """The engine before the lifted control period: the plant stepped once per
    plant step in float64 by the one-step ZOH, the bus formed row by row."""
    a, b, c_vg = _plant_matrices(scenario.grid)
    ad, bd = zoh(a, b, scenario.plant_dt)
    return reference_run(scenario, ad, bd, c_vg)


def at_clamp(loop: _ControlLoop) -> bool:
    return any(abs(pi.out) >= pi.limit for _, _, pi in loop.pis())


def per_tick_reference(scenario: Scenario) -> tuple[dict[str, np.ndarray], set[int]]:
    """The engine before the period maps: every control tick through
    ``_ControlLoop.tick``, then the plant's rows of its control period from
    the lifted ZOH pairs (``_ControlLoop.period``).  Also returns the ticks
    after which a PI output sits at its clamp."""
    loop = _ControlLoop(scenario)
    size, n_ctl = len(loop.phi), round(scenario.duration / scenario.control_dt)
    states, inputs = np.empty((scenario.n_rows, 4)), np.empty((n_ctl, 2))
    flat, x, clamped = states.reshape(-1), np.zeros(4), set()
    for k in range(n_ctl):
        block = flat[k * size:(k + 1) * size]
        _, inputs[k] = loop.period(k, x, block)
        x = block[-4:]
        if at_clamp(loop):
            clamped.add(k)
    term, curr = states[:, 0:2], states[:, 2:4]
    return {"time": np.arange(1, scenario.n_rows + 1) * scenario.plant_dt,
            "power": scenario.grid.nominal_bus_voltage * curr, "current": curr,
            "terminal_voltage": term, "bus_voltage": states @ loop.c_vg,
            "regulated_voltage": term.mean(axis=1),
            "voltage_reference": np.repeat(inputs, size // 4, axis=0)}, clamped


def run_recording_ticks(scenario: Scenario) -> tuple[SimResult, int, set[int]]:
    """``run``, the number of control ticks it ran one by one, and those
    after which a PI output sat at its clamp."""
    ticked, clamped = [], set()
    tick = _ControlLoop.tick

    def spy(loop, k, x):
        out = tick(loop, k, x)
        if all(math.isfinite(pi.limit) for _, _, pi in loop.pis()):
            ticked.append(k)    # the engine's loop, not a map's lifted copy
            if at_clamp(loop):
                clamped.add(k)
        return out

    with mock.patch.object(_ControlLoop, "tick", spy):
        result = run(scenario)
    return result, len(ticked), clamped


def exact_reference(scenario: Scenario) -> dict[str, np.ndarray]:
    """The oracle: the one-step ZOH of the same block matrix as ``lti.zoh``,
    its exponential taken by mpmath at 40 digits, the plant stepped in
    np.longdouble."""
    mpmath = pytest.importorskip("mpmath")
    a, b, c_vg = _plant_matrices(scenario.grid)
    n, m = b.shape
    big = np.zeros((n + m, n + m))
    big[:n, :n] = a * scenario.plant_dt
    big[:n, n:] = b * scenario.plant_dt
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(big.tolist()))
        # each entry as the longdouble sum of its two leading float64 parts
        hi = np.array(e.tolist(), dtype=float)
        lo = np.array((e - mpmath.matrix(hi.tolist())).tolist(), dtype=float)
    e = hi.astype(np.longdouble) + lo.astype(np.longdouble)
    return reference_run(scenario, e[:n, :n], e[:n, n:], c_vg.astype(np.longdouble))


# the cascade case with the 4 kW step raised to 20 kW, past twice either
# rating: from 1 s on, converter 2's reference sits at its 5 V clamp (20,000
# of 30,000 rows) and converter 1's comes within 1e-12 of its 10 V clamp
CLAMPED_CASE = "cascade-clamped"
# the cascade case with the 4 kW step raised to 11.9 kW: from 5 to 40 ms after
# it the power references sit at their clamps (twice each rating) while every
# PI output stays inside its own
REFERENCE_CLAMPED_CASE = "cascade-reference-clamped"
# the cascade case activated 5 ms off the secondary grid: the bus-voltage PIs
# first update one period after activation
OFF_GRID_ACTIVATION_CASE = "cascade-activation-off-grid"
# the cascade case run 7 ms past 3 s: its last secondary period is partial
PARTIAL_PERIOD_CASE = "cascade-partial-period"
# the cascade case on 3 mH and 5 mH cables with loads off the 400 W grid: the
# divider split l_j/(l1 + l2) and the jump dP/V are inexact in any dtype
UNEQUAL_CASE = "cascade-unequal-cables"
# the cascade case with bus-voltage PI (300, 2000) and the 4 kW step raised to
# 11.8 kW: converter 2's power reference sits at its clamp through periods 51
# and 53 after the step (period 50) but not through 52, so a block of mapped
# periods 52 and 53 passes its first period and is cut short at its second
MID_BLOCK_CASE = "cascade-mid-block-clamp"
# the pinned cases with one control tick per secondary period (secondary_dt =
# control_dt), the second load step 2 ms after activation: the tick after a
# period's own is the next period's, and may hold an event
ONE_TICK_CASES = tuple(f"{case}-one-tick-periods" for case in PINNED_CASES)
ORACLE_CASES = PINNED_CASES + (CLAMPED_CASE, UNEQUAL_CASE)


def oracle_scenario(case: str) -> Scenario:
    if case in (CLAMPED_CASE, REFERENCE_CLAMPED_CASE):
        return dataclasses.replace(fast_scenario("cascade"), load=LoadProfile(
            ((0.2, 2000.0), (1.0, 20000.0 if case == CLAMPED_CASE else 11900.0))))
    if case == OFF_GRID_ACTIVATION_CASE:
        return dataclasses.replace(fast_scenario("cascade"), activation_time=0.505)
    if case == PARTIAL_PERIOD_CASE:
        return dataclasses.replace(fast_scenario("cascade"), duration=3.007)
    if case == MID_BLOCK_CASE:
        scenario = fast_scenario("cascade")
        return dataclasses.replace(
            scenario, scheme=dataclasses.replace(scenario.scheme,
                                                 bus_voltage_pi=PiGains(300.0, 2000.0)),
            load=LoadProfile(((0.2, 2000.0), (1.0, 11800.0))))
    if case in ONE_TICK_CASES:
        scenario = fast_scenario(case[:-len("-one-tick-periods")])
        return dataclasses.replace(scenario, secondary_dt=scenario.control_dt,
                                   duration=2.6, load=LoadProfile(
                                       ((0.2, 2000.0), (0.502, 4000.0))))
    if case == UNEQUAL_CASE:
        scenario = fast_scenario("cascade")
        converters = tuple(
            dataclasses.replace(c, cable=dataclasses.replace(c.cable, inductance=l))
            for c, l in zip(scenario.grid.converters, (0.003, 0.005)))
        return dataclasses.replace(
            scenario, grid=dataclasses.replace(scenario.grid, converters=converters),
            load=LoadProfile(((0.2, 1234.5), (1.0, 3210.7))))
    return fast_scenario(case)


@functools.cache
def oracle_series(case: str) -> dict[str, np.ndarray]:
    """``exact_reference`` of one oracle case, computed once per session."""
    return exact_reference(oracle_scenario(case))


LONGDOUBLE_IS_WIDE = np.finfo(np.longdouble).eps < 1e-18
needs_wide_longdouble = pytest.mark.skipif(
    not LONGDOUBLE_IS_WIDE,
    reason="np.longdouble is no wider than float64 on this platform, so the "
           "oracle is not more exact than the engine")


@needs_wide_longdouble
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_run_closer_to_exact_reference_than_stepwise(case):
    # the lifted period samples the continuous plant exactly at every row and
    # rounds once per control tick, the stepwise engine once per plant step
    scenario = oracle_scenario(case)
    result = run(scenario)
    if case == CLAMPED_CASE:
        peaks = np.abs(result.voltage_reference).max(axis=0)
        assert peaks == pytest.approx((10.0, 5.0), rel=1e-12, abs=0)
    got = pinned_columns(vars(result))
    baseline = pinned_columns(stepwise_reference(scenario))
    for name, want in pinned_columns(oracle_series(case)).items():
        peak = np.abs(want).max()
        lifted_err = np.abs(got[name] - want).max()
        stepwise_err = np.abs(baseline[name] - want).max()
        assert lifted_err <= stepwise_err, (
            f"{name}: {lifted_err / peak:.3g} vs stepwise {stepwise_err / peak:.3g} of peak")


@needs_wide_longdouble
def test_oracle_load_jump_is_exact_to_longdouble():
    # the oracle's load jump is _ControlLoop's, made in the longdouble state's
    # own dtype; a split rounded to float64 would sit ~1e-16 off the exact one
    scenario = oracle_scenario(UNEQUAL_CASE)
    l1, l2 = (Fraction(c.cable.inductance) for c in scenario.grid.converters)
    shares = (l2 / (l1 + l2), l1 / (l1 + l2))
    loads = {round(t / scenario.control_dt): Fraction(p) for t, p in scenario.load.steps}
    loop = _ControlLoop(scenario)
    x = np.zeros(4, np.longdouble)
    for k in range(max(loads) + 1):
        x, _ = loop.tick(k, x)
        if k in loads:
            # each cable current holds its share of the load current so far
            want = [share * loads[k] / Fraction(scenario.grid.nominal_bus_voltage)
                    for share in shares]
            for got, w in zip(x[2:], want):
                err = Fraction(*got.as_integer_ratio()) - w
                assert abs(err) <= 8 * np.finfo(np.longdouble).eps * w, (k, float(err / w))


def bench_scenario(case: str) -> Scenario:
    """The bench-default 25 s scenario under one of ``compare``'s cases."""
    cfg = load_config(None)
    kind, voltage_pi = COMPARE_CASES[case]
    return cfg.scenario(scheme=build_scheme(
        kind, cfg.grid, cfg.power_pi, voltage_pi or cfg.voltage_pi, cfg.current_pi,
        cfg.droop_ohm))


@pytest.mark.parametrize("case", ORACLE_CASES + (
    REFERENCE_CLAMPED_CASE, OFF_GRID_ACTIVATION_CASE, PARTIAL_PERIOD_CASE, MID_BLOCK_CASE)
    + ONE_TICK_CASES + tuple(f"bench-{c}" for c in COMPARE_CASES))
def test_run_matches_per_tick_reference(case):
    # periods advanced by the maps round differently from ticks, by at most
    # ~1.8e-13 of a column's peak; clamps engage at the same ticks
    bench = case.startswith("bench-")
    scenario = bench_scenario(case[len("bench-"):]) if bench else oracle_scenario(case)
    result, ticked, clamped = run_recording_ticks(scenario)
    want, want_clamped = per_tick_reference(scenario)
    assert np.array_equal(result.time, want["time"])
    got = pinned_columns(vars(result))
    for name, col in pinned_columns(want).items():
        err = np.abs(got[name] - col).max()
        assert err <= 1e-12 * np.abs(col).max(), (name, err)
    assert clamped == want_clamped
    assert bool(clamped) == (case == CLAMPED_CASE)
    # only the periods of the two load steps and activation run tick by tick;
    # also the one after the step when the references clamp, the one after an
    # off-grid activation, the last, partial one, every period from the step
    # on in the clamped case, and periods 51 and 53 in the mid-block case;
    # a period of the one-tick cases is one tick
    assert ticked == {CLAMPED_CASE: 2 * 20 + 2000, REFERENCE_CLAMPED_CASE: 4 * 20,
                      OFF_GRID_ACTIVATION_CASE: 4 * 20,
                      PARTIAL_PERIOD_CASE: 3 * 20 + 7,
                      MID_BLOCK_CASE: 5 * 20,
                      **dict.fromkeys(ONE_TICK_CASES, 3)}.get(case, 3 * 20), ticked


def test_mid_block_case_cuts_a_block_after_a_passed_period():
    # the case's point: a block whose first period passes and whose second,
    # 53, fails a clamp test, so the loop takes the state after 52 and 53
    # runs tick by tick from it (test_run_matches_per_tick_reference checks
    # the rows); (first period, width, periods passed) of every block
    blocks, advance = [], sim._advance

    def spy(loop, maps, x, flat, inputs, k0, count):
        done = advance(loop, maps, x, flat, inputs, k0, count)
        blocks.append((k0 // loop.n_sec, count, done))
        return done

    with mock.patch.object(sim, "_advance", spy):
        run(oracle_scenario(MID_BLOCK_CASE))
    assert [b for b in blocks if b[2] < b[1]] == [(51, 2, 0), (52, 2, 1)]


def test_clamped_case_wastes_few_mapped_periods():
    # blocks restart at two periods after a ticked one, so each block that a
    # clamp test cuts throws few mapped periods away: 197 in 109 blocks here,
    # where fixed 256-period blocks throw away 4,950
    wasted, advance = [], sim._advance

    def spy(loop, maps, x, flat, inputs, k0, count):
        done = advance(loop, maps, x, flat, inputs, k0, count)
        wasted.append(count - done)
        return done

    with mock.patch.object(sim, "_advance", spy):
        run(oracle_scenario(CLAMPED_CASE))
    assert sum(wasted) <= 197, (sum(wasted), len(wasted))


@pytest.mark.parametrize("case,counts", [
    ("bench-proposed", (1247, 3, 0)), (CLAMPED_CASE, (48, 102, 99)),
    (REFERENCE_CLAMPED_CASE, (146, 4, 1)), (MID_BLOCK_CASE, (145, 5, 2))])
def test_run_logs_its_periods(caplog, case, counts):
    # one DEBUG line per run: the periods the maps advanced, those ticked,
    # and the blocks of mapped periods that a clamp or finiteness test cut
    # short (in the mid-block case, the block of period 51 at its first
    # period and that of 52 and 53 at its second)
    scenario = bench_scenario("proposed") if case == "bench-proposed" else oracle_scenario(case)
    caplog.set_level(logging.DEBUG, logger="dcgridlab.sim")
    run(scenario)
    assert caplog.records[-1].getMessage() == (
        "run: %d secondary periods advanced by period maps, %d ticked; "
        "blocks cut short by a test: %d" % counts)
    assert [r.getMessage().startswith("run: ") for r in caplog.records].count(True) == 1


@pytest.mark.parametrize("case", ONE_TICK_CASES)
def test_one_tick_periods_log_only_their_events(caplog, case):
    # a map probes only ticks of its own period, never the next period's
    # tick, which may hold an event: the run logs its three events, then
    # its run line
    caplog.set_level(logging.DEBUG, logger="dcgridlab.sim")
    run(oracle_scenario(case))
    assert [r.getMessage() for r in caplog.records] == [
        "tick 200 (t = 0.2 s): load 0 -> 2000 W",
        "tick 500 (t = 0.5 s): secondary control activated",
        "tick 502 (t = 0.502 s): load 2000 -> 4000 W",
        "run: 2597 secondary periods advanced by period maps, 3 ticked; "
        "blocks cut short by a test: 0"]


def control_tick(periods: range):
    """A control tick of one of the given secondary periods of 20 ticks: its
    first, its last or one inside it."""
    return st.builds(lambda period, offset: 20 * period + offset,
                     st.sampled_from(periods),
                     st.one_of(st.sampled_from((0, 19)), st.integers(1, 18)))


@settings(max_examples=20, deadline=None)    # ~0.07 s a draw
@given(case=st.sampled_from(PINNED_CASES),
       ticks=st.lists(control_tick(range(50)), min_size=3, max_size=3, unique=True),
       levels=st.tuples(st.floats(500.0, 4000.0), st.floats(500.0, 4000.0)))
def test_tick_map_split_is_deterministic(case, ticks, levels):
    # where the events fall decides which periods the maps advance; wherever
    # that is, reruns are bit-identical and every row matches the per-tick
    # engine.  Every event lies in the first second, so activation and the
    # steps after it keep their ITAE windows inside the 3 s run
    activation, *steps = ticks
    base = fast_scenario(case)
    scenario = dataclasses.replace(
        base, activation_time=activation * base.control_dt,
        load=LoadProfile(tuple((k * base.control_dt, p)
                               for k, p in zip(sorted(steps), levels))))
    first, again = run(scenario), run(scenario)
    for name in SERIES:
        assert getattr(first, name).tobytes() == getattr(again, name).tobytes(), name
    want, _ = per_tick_reference(scenario)
    got = pinned_columns(vars(first))
    for name, col in pinned_columns(want).items():
        err = np.abs(got[name] - col).max()
        assert err <= 1e-12 * np.abs(col).max(), (name, err)


@pytest.mark.parametrize("case", PINNED_CASES)
def test_period_map_advances_per_tick_engine(case):
    # between events, after activation's first update, the period map M
    # carries the packed loop state z from one secondary tick to the next
    scenario = fast_scenario(case)
    loop = _ControlLoop(scenario)
    n_sec = loop.n_sec
    x, block, m, predicted, checked = np.zeros(4), np.empty(len(loop.phi)), None, None, 0
    for k in range(round(scenario.duration / scenario.control_dt)):
        if k % n_sec == 0:
            z = loop.pack(x)
            if predicted is not None:
                err = np.abs(predicted - z).max()
                assert err <= 1e-12 * np.abs(z).max(), (k, err)
                checked += 1
            predicted = None
            # after the period of activation's first secondary tick
            first_update = -(-loop.activation // n_sec)
            if k // n_sec not in loop.eventful and k // n_sec > first_update:
                if m is None:
                    m = _period_map(loop, k)[0][-len(z):]
                predicted = m @ z
        loop.period(k, x, block)
        x = block[-4:].copy()
    # periods 26-149 but the 1 s step's (50) and the last, which ends the run
    assert checked == 122, checked


def replayed_period_map(loop: _ControlLoop, k0: int, x: np.ndarray):
    """The maps from z, the loop's state (plant, PI states, both registers),
    at the start of the secondary period from tick k0 to its plant rows, u,
    clamped values and next z, plus those values' bounds, under the loop's
    ``active`` flags: the period's ticks on each basis vector of z, on a copy
    with every clamp lifted.  The period holds no event."""
    probe = copy.deepcopy(loop)
    for _, _, pi in probe.pis():
        pi.limit, pi.prev_error = math.inf, 0.0
    columns = []
    for e in np.eye(len(loop.pack(x))):
        probe.unpack(e)
        xj, rows, refs, tests = e[:4], [], [], []
        for k in range(k0, k0 + loop.n_sec):
            rows.append(np.empty(len(loop.phi)))
            xj, u = probe.period(k, xj, rows[-1])
            refs += u
            tests += [value for value, _ in probe.clamps()]
            xj = rows[-1][-4:]
        columns.append((np.concatenate(rows), refs, tests, probe.pack(xj)))
    rows, refs, tests, nxt = (np.array(c).T.copy() for c in zip(*columns))
    # the margin dwarfs the maps' rounding (~1e-13), so a value the maps keep
    # inside its bound is inside it in the per-tick arithmetic too
    limits = [limit for _, limit in loop.clamps()]
    return rows, refs, tests, np.tile(limits, loop.n_sec) * (1 - 1e-9), nxt


@pytest.mark.parametrize("active", (False, True))
@pytest.mark.parametrize("case", tuple(COMPARE_CASES))
def test_stacked_period_map_equals_replayed_ticks(case, active):
    # the product of the probed tick maps is the map of the period's ticks
    # replayed on each basis vector, block by block (plant rows, references,
    # clamp tests, next z) within 1e-14 of the block's peak, with the
    # current-sum rows included; a block of zeros is zero
    loop = _ControlLoop(bench_scenario(case))
    for unit in loop.units:
        unit.active = active
    stacked, bound = _period_map(loop, loop.n_sec)
    *want, want_bound, nxt = replayed_period_map(loop, loop.n_sec, np.zeros(4))
    assert np.array_equal(bound, want_bound)
    blocks = np.split(stacked, np.cumsum([len(w) for w in want]))
    for name, got, w in zip(("rows", "refs", "tests", "next z"), blocks, want + [nxt]):
        assert got.shape == w.shape, name
        peak = np.abs(w).max(initial=0.0)
        if peak == 0.0:
            assert np.array_equal(got, w), name
        else:
            assert np.abs(got - w).max() <= 1e-14 * peak, (name, np.abs(got - w).max() / peak)


@pytest.mark.parametrize("active", (False, True))
@pytest.mark.parametrize("case", tuple(COMPARE_CASES))
def test_period_map_holds_the_current_sum_exactly(case, active):
    # M, the stacked map's last n rows, is the next z as the engine steps it:
    # its plant rows are the period's last plant row, whose I1 + I2 is z's
    # current sum bit for bit
    loop = _ControlLoop(bench_scenario(case))
    for unit in loop.units:
        unit.active = active
    stacked, _ = _period_map(loop, loop.n_sec)
    n, span = stacked.shape[1], loop.n_sec * len(loop.phi)
    m, eye = stacked[-n:], np.eye(n)
    assert (m[2] + m[3]).tobytes() == (eye[2] + eye[3]).tobytes()
    assert m.tobytes() == np.vstack([stacked[span - 4:span], stacked[4 - n:]]).tobytes()


def capture_pinned(stride: int = 97) -> dict:
    """The content of pinned_series.json, computed by the oracle."""
    pinned = {"stride": stride}
    for case in PINNED_CASES:
        series = oracle_series(case)
        pinned[case] = {"n_rows": len(series["time"]), "columns": {
            name: {"peak": float(np.abs(col).max()), "sum": float(col.sum()),
                   "rows": col[::stride].tolist()}
            for name, col in pinned_columns(series).items()}}
    return pinned


@needs_wide_longdouble
def test_oracle_reproduces_pinned_capture():
    # the oracle runs the engine's _ControlLoop; a load jump that rounded the
    # longdouble state to float64 moves the capture by far less than the
    # 1e-12 tolerance of test_series_match_pinned_reference, but not bit for bit
    text = json.dumps(capture_pinned(), separators=(",", ":"))
    assert text == PINNED.read_text(encoding="utf-8")


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_sim.py  rewrites pinned_series.json
    PINNED.write_text(json.dumps(capture_pinned(), separators=(",", ":")),
                      encoding="utf-8")
