"""Frequency-domain PI synthesis: reproduction, round trips, infeasibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcgridlab.config import load_config
from dcgridlab.control import PiGains
from dcgridlab.grid import default_grid, pi_tf, power_plant_tf, voltage_loop_plant_tf
from dcgridlab.lti import tf, tf_series
from dcgridlab.tuning import (InfeasibleDesignError, TuningSpec, design_pi,
                              verify_design)


@pytest.fixture(scope="module")
def power_plant():
    return power_plant_tf(default_grid(), 0)


class TestSpecValidation:
    def test_bad_crossover(self):
        with pytest.raises(ValueError):
            TuningSpec(crossover_omega=0.0, phase_margin=60.0)

    def test_bad_margin(self):
        with pytest.raises(ValueError):
            TuningSpec(crossover_omega=10.0, phase_margin=185.0)


class TestDesign:
    def test_power_loop_gains(self, power_plant):
        tuned = design_pi(power_plant, TuningSpec(100.0, 70.0))
        assert tuned.gains.kp == pytest.approx(0.001, rel=0.10)
        assert tuned.gains.ki == pytest.approx(0.130, rel=0.10)

    def test_voltage_loop_gains(self, power_plant):
        power = design_pi(power_plant, TuningSpec(100.0, 70.0))
        plant = voltage_loop_plant_tf(default_grid(), 0, power.gains,
                                      mode="as-written")
        tuned = design_pi(plant, TuningSpec(10.0, 70.0))
        assert tuned.gains.kp == pytest.approx(142.9, rel=0.10)
        assert tuned.gains.ki == pytest.approx(563.8, rel=0.10)

    def test_integrator_plant_degenerates_to_p(self):
        for wc in (1.0, 10.0, 250.0):
            tuned = design_pi(tf([1.0], [0.0, 1.0]), TuningSpec(wc, 90.0))
            assert tuned.gains.kp == pytest.approx(wc, rel=1e-9)
            assert tuned.gains.ki == pytest.approx(0.0, abs=1e-9)

    def test_achieved_matches_spec(self, power_plant):
        tuned = design_pi(power_plant, TuningSpec(100.0, 70.0))
        assert tuned.crossover == pytest.approx(100.0, rel=1e-6)
        assert tuned.margin == pytest.approx(70.0, rel=1e-6)

    def test_margin_demanding_phase_lift_rejected(self):
        # 1/s sits at -90 deg; a 170 deg margin would need +80 deg from the PI
        with pytest.raises(InfeasibleDesignError,
                           match=r"achievable margins on this plant are "
                                 r"\(0\.00, 90\.00\] deg$"):
            design_pi(tf([1.0], [0.0, 1.0]), TuningSpec(10.0, 170.0))

    def test_missed_crossover_rejected(self):
        # |C*G| only touches 1 at 1.875 rad/s from below; the loop's lowest
        # crossing is at 0.619 rad/s
        plant = tf([6.890625], [6.890625, 2.54296875, 1.0])
        with pytest.raises(InfeasibleDesignError, match="0.6189"):
            design_pi(plant, TuningSpec(1.875, 114.0))

    def test_ki_decreases_with_requested_margin(self, power_plant):
        # more margin demands less lag from the integral term
        kis = [design_pi(power_plant, TuningSpec(100.0, m)).gains.ki
               for m in range(40, 90, 5)]
        assert all(a > b for a, b in zip(kis, kis[1:]))


class TestVerify:
    def test_round_trip(self, power_plant):
        spec = TuningSpec(100.0, 70.0)
        tuned = design_pi(power_plant, spec)
        report = verify_design(power_plant, tuned.gains, spec)
        assert report.ok
        assert abs(report.crossover_delta) < 1e-6 * spec.crossover_omega
        assert abs(report.margin - spec.phase_margin) < 1e-6 * spec.phase_margin

    def test_design_returns_its_verified_report(self):
        # the bench power loop and the bench-default voltage loop on its gains:
        # each design's report equals a fresh verification of its gains, field
        # for field, and its loop is C*G
        cfg = load_config(None)
        power_plant = power_plant_tf(cfg.grid, 0)
        power = design_pi(power_plant, cfg.tuning.power)
        voltage_plant = voltage_loop_plant_tf(cfg.grid, 0, power.gains,
                                              mode=cfg.tuning.outer_plant_mode)
        for plant, spec in ((power_plant, cfg.tuning.power),
                            (voltage_plant, cfg.tuning.voltage)):
            report = design_pi(plant, spec)
            assert report == verify_design(plant, report.gains, spec)
            assert report.loop == tf_series(pi_tf(report.gains), plant)

    def test_bench_gains_on_bench_plant(self, power_plant):
        report = verify_design(power_plant, PiGains(kp=0.001, ki=0.130),
                               TuningSpec(100.0, 70.0))
        assert report.ok
        assert report.crossover == pytest.approx(100.0, abs=2.0)
        assert report.margin == pytest.approx(70.0, abs=2.0)

    # a unit proportional gain leaves the loop equal to the plant
    def test_margin_of_integrator(self):
        report = verify_design(tf([10.0], [0.0, 1.0]), PiGains(kp=1.0, ki=0.0),
                               TuningSpec(10.0, 90.0))
        assert report.crossover == pytest.approx(10.0, rel=1e-9)
        assert report.margin == pytest.approx(90.0)

    def test_margin_of_double_integrator(self):
        report = verify_design(tf([100.0], [0.0, 0.0, 1.0]),
                               PiGains(kp=1.0, ki=0.0), TuningSpec(10.0, 45.0))
        assert report.crossover == pytest.approx(10.0, rel=1e-9)
        assert report.margin == pytest.approx(0.0, abs=1e-9)

    def test_zero_gains_reported_not_raised(self, power_plant):
        report = verify_design(power_plant, PiGains(kp=0.0, ki=0.0),
                               TuningSpec(100.0, 70.0))
        assert not report.ok
        assert report.crossover is None
        assert "0 dB" in report.reason

    def test_pi_tf_pure_gain(self):
        g = pi_tf(PiGains(kp=3.0, ki=0.0))
        assert len(g.den.coeffs) == 1
        assert g.dc_gain() == pytest.approx(3.0)


@st.composite
def feasible_cases(draw):
    # stable second-order plants with a feasible spec at a mid-band crossover
    wn = draw(st.floats(1.0, 50.0))
    zeta = draw(st.floats(0.4, 2.0))
    k = draw(st.floats(0.5, 20.0))
    plant = tf([k * wn * wn], [wn * wn, 2 * zeta * wn, 1.0])
    wc = draw(st.floats(0.2 * wn, 2.0 * wn))
    from dcgridlab.lti import analytic_phase
    import math
    phase = math.degrees(analytic_phase(plant, wc))
    margin = draw(st.floats(95.0 + phase, 175.0 + phase))
    if not 1.0 < margin < 179.0:
        margin = min(max(margin, 1.0), 179.0)
    return plant, TuningSpec(wc, margin)


def _unity_crossings(loop):
    levels = np.sign([abs(loop(1j * w)) - 1.0 for w in np.logspace(-2, 5, 400)])
    return int(np.count_nonzero(np.diff(levels[levels != 0])))


@settings(max_examples=30, deadline=None)
@given(feasible_cases())
def test_property_design_verify_round_trip(case):
    plant, spec = case
    try:
        tuned = design_pi(plant, spec)
    except InfeasibleDesignError:
        return  # margin clamping can still fall outside the PI range
    loop = tf_series(pi_tf(tuned.gains), plant)
    if _unity_crossings(loop) != 1:
        return  # crossover hunting assumes a single monotone crossing
    report = verify_design(plant, tuned.gains, spec)
    assert report.ok
    assert abs(report.crossover_delta) < 1e-6 * spec.crossover_omega
    assert abs(report.margin - spec.phase_margin) < 1e-6 * max(spec.phase_margin, 1.0)
