"""Impedance-sweep pole trajectories and stability classification."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal
from scipy.optimize import linear_sum_assignment

from dcgridlab import rootlocus
from dcgridlab.cli import _locus_columns, main
from dcgridlab.config import POWER_PI, VOLTAGE_PI
from dcgridlab.control import PiGains
from dcgridlab.grid import (CableParams, default_grid, pi_tf, power_plant_tf,
                            voltage_loop_plant_tf)
from dcgridlab.lti import (DegenerateLoopError, LtiError, poles, tf, tf_feedback,
                           tf_series)
from dcgridlab.rootlocus import (ImpedanceSweep, LocusResult, LocusStep,
                                 SweepError, _characteristic_rows, _locus,
                                 _power_loop, _voltage_loop, check_last_step,
                                 max_resistance_bound, sweep_power_loop,
                                 sweep_voltage_loop)

RATIO = 0.5 / 0.003


def grid_with_first_cable(grid, r, l):
    """The grid with converter 0's cable replaced, built by dataclasses.replace."""
    conv0 = dataclasses.replace(grid.converters[0], cable=CableParams(resistance=r, inductance=l))
    return dataclasses.replace(grid, converters=(conv0,) + grid.converters[1:])


@pytest.fixture(scope="module")
def grid():
    return default_grid()


@pytest.fixture(scope="module")
def default_sweep():
    return ImpedanceSweep(r_min=0.1, r_max=2.0, ratio_r_over_l=RATIO, steps=50)


@pytest.fixture(scope="module")
def power_locus(grid, default_sweep):
    return sweep_power_loop(grid, POWER_PI, default_sweep)


@pytest.fixture(scope="module")
def voltage_locus(grid, default_sweep):
    return sweep_voltage_loop(grid, POWER_PI, VOLTAGE_PI, default_sweep)


class TestSweepValidation:
    def test_single_step_rejected(self):
        with pytest.raises(SweepError):
            ImpedanceSweep(r_min=0.1, r_max=2.0, ratio_r_over_l=RATIO, steps=1)

    def test_reversed_range_rejected(self):
        with pytest.raises(SweepError):
            ImpedanceSweep(r_min=2.0, r_max=0.1, ratio_r_over_l=RATIO, steps=10)

    @pytest.mark.parametrize("ratio,end", [(1e-320, "0.1"), (1e-309, "2.0"),
                                           (1e308, "0.1")])
    def test_swept_cable_checked_at_both_ends(self, ratio, end):
        # inductance r/ratio: inf at both ends, inf at r_max alone (0.1/1e-309
        # is 1e308), and at r_min alone a subnormal 1e-309 whose reciprocal
        # overflows
        with pytest.raises(SweepError, match=f"swept cable at r = {end} ohm"):
            ImpedanceSweep(r_min=0.1, r_max=2.0, ratio_r_over_l=ratio, steps=10)

    def test_inductance_follows_ratio(self, default_sweep):
        rs = default_sweep.resistances()
        assert rs[0] == pytest.approx(0.1)
        assert rs[-1] == pytest.approx(2.0)
        # at the top of the range: 2 ohm at the fixed ratio means 12 mH
        assert rs[-1] / RATIO == pytest.approx(0.012)


# r_max = 1e300 at R/L = 1: the closed-inner loop squares the inductance,
# which overflows from r = 1e154 ohm on; the as-written loop stays finite
OVERFLOWING_SWEEP = ImpedanceSweep(r_min=0.1, r_max=1e300, ratio_r_over_l=1.0, steps=50)


class TestLastStepCheck:
    @pytest.mark.parametrize("sweep", [
        ImpedanceSweep(r_min=0.1, r_max=2.0, ratio_r_over_l=RATIO, steps=50),
        # equal L/R at some steps only: 3 or 4 power-loop poles along the sweep
        ImpedanceSweep(r_min=0.1, r_max=2.0, ratio_r_over_l=166.66666683333332, steps=1000),
        OVERFLOWING_SWEEP])
    @pytest.mark.parametrize("mode", ["as-written", "closed-inner"])
    def test_ends_are_the_sweeps_own_rows(self, grid, sweep, mode):
        # the check's two rows are the sweep's first and last, bit for bit,
        # but for the zero high-order terms that a step with equal L/R pads
        # with where the others have none
        rs = sweep.resistances()
        ends = dataclasses.replace(sweep, steps=2).resistances()
        assert ends.tobytes() == rs[[0, -1]].tobytes()
        for build in (_power_loop(POWER_PI), _voltage_loop(POWER_PI, VOLTAGE_PI, mode)):
            want = _characteristic_rows(grid, rs, rs / sweep.ratio_r_over_l, build)
            got = _characteristic_rows(grid, ends, ends / sweep.ratio_r_over_l, build)
            width = got.shape[1]
            assert got.tobytes() == want[[0, -1], :width].tobytes()
            assert not want[[0, -1], width:].any()

    def test_loop_that_overflows_at_the_last_step_rejected(self, grid):
        with pytest.raises(SweepError, match=r"^\[sweep\] r_max 1e\+300: at the last step, "
                           r"r = 1e\+300 ohm, the voltage loop's .* is not finite$"):
            check_last_step(grid, POWER_PI, VOLTAGE_PI, OVERFLOWING_SWEEP, "closed-inner")
        check_last_step(grid, POWER_PI, VOLTAGE_PI, OVERFLOWING_SWEEP, "as-written")
        # the sweep itself still names the first step that overflows
        with pytest.raises(LtiError, match=r"^sweep step 26 at r = 5\.17947e\+158 ohm: "
                           r"closed-loop characteristic polynomial \[.*\] is not finite$"):
            sweep_voltage_loop(grid, POWER_PI, VOLTAGE_PI, OVERFLOWING_SWEEP,
                               mode="closed-inner")

    def test_gains_that_overflow_every_step_left_to_the_sweep(self, grid, default_sweep):
        # not the sweep's range: the check passes, and the sweep reports step 0
        gains = PiGains(kp=1.2e308, ki=1.2e308)
        check_last_step(grid, gains, VOLTAGE_PI, default_sweep, "as-written")
        with pytest.raises(LtiError, match=r"^sweep step 0 at r = 0\.1 ohm: "):
            sweep_power_loop(grid, gains, default_sweep)


class TestPowerLoopSweep:
    def test_all_steps_stable(self, power_locus):
        assert power_locus.all_stable

    def test_dominant_pole_moves_toward_axis(self, power_locus):
        doms = [max(s.poles, key=lambda p: p.real).real for s in power_locus.steps]
        assert doms[-1] > doms[0]

    def test_nominal_step_matches_direct_closure(self, grid, power_locus):
        # the sweep step nearest the nominal 0.5 ohm cable reproduces the
        # poles of the directly closed nominal loop
        step = min(power_locus.steps, key=lambda s: abs(s.resistance - 0.5))
        loop = tf_series(pi_tf(POWER_PI), power_plant_tf(grid, 0))
        closed = tf_feedback(loop, tf([1.0], [1.0]))
        want = poles(closed)
        # nominal step resistance differs slightly from 0.5 on the log grid
        rel = abs(step.resistance - 0.5) / 0.5
        for p in step.poles:
            assert min(abs(p - w) for w in want) < max(10 * rel * abs(p), 1e-6)

    def test_conjugate_symmetry(self, power_locus):
        for step in power_locus.steps:
            ps = np.array(step.poles)
            assert np.allclose(np.sort_complex(ps),
                               np.sort_complex(np.conj(ps)), rtol=1e-9, atol=1e-9)

    def test_trajectories_are_continuous(self, power_locus):
        paths = power_locus.trajectories()
        jumps = np.abs(np.diff(paths, axis=0))
        scale = 1.0 + np.abs(paths[:-1])
        # 50 log steps over a factor 20 move each coefficient ~6% per step
        assert np.all(jumps / scale < 0.5)

    def test_default_sweep_pairing_is_unambiguous(self, power_locus):
        assert power_locus.pairing_ambiguities() == []


def locus_of(steps):
    """A LocusResult holding these steps of equal pole counts."""
    return LocusResult(np.array([s.resistance for s in steps]),
                       np.array([s.inductance for s in steps]),
                       np.array([s.poles for s in steps], dtype=complex),
                       np.array([len(s.poles) for s in steps]))


class TestPairing:
    def test_least_total_distance_not_greedy(self):
        # nearest-first would send 0 -> 0.55 and leave 1 -> -0.6 (total 2.15)
        locus = locus_of((
            LocusStep(0.1, 0.1 / RATIO, (0j, 1 + 0j), True),
            LocusStep(0.2, 0.2 / RATIO, (0.55 + 0j, -0.6 + 0j), False)))
        paths = locus.trajectories()
        assert paths.tolist() == [[0j, 1 + 0j], [-0.6 + 0j, 0.55 + 0j]]
        # branch 0's other candidate (0.55) is within twice its 0.6 move
        assert locus.pairing_ambiguities() == [(1, 0)]
        assert locus.trajectories() is paths and not paths.flags.writeable

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_total_distance_matches_hungarian(self, n):
        rng = np.random.default_rng(n)
        steps = tuple(LocusStep(1.0, 1.0, tuple(rng.normal(size=n)
                                                + 1j * rng.normal(size=n)), True)
                      for _ in range(20))
        paths = locus_of(steps).trajectories()
        for k in range(1, len(steps)):
            dist = np.abs(paths[k - 1][:, None] - np.array(steps[k].poles)[None, :])
            rows, cols = linear_sum_assignment(dist)
            moved = np.abs(paths[k] - paths[k - 1]).sum()
            assert moved == pytest.approx(dist[rows, cols].sum(), rel=1e-12)


def sequential_pairing(steps):
    """The pairing one step at a time, in branch order: every assignment
    scored in permutation order, the first of least total distance taken."""
    n = len(steps[0].poles)
    assignments = np.array(list(itertools.permutations(range(n))), dtype=int)
    branch = np.arange(n)
    paths = np.empty((len(steps), n), dtype=complex)
    paths[0] = steps[0].poles
    flags = []
    for k, step in enumerate(steps[1:], start=1):
        candidates = np.array(step.poles, dtype=complex)
        dist = np.abs(paths[k - 1][:, None] - candidates[None, :])
        chosen = assignments[np.argmin(dist[branch, assignments].sum(axis=1))]
        paths[k] = candidates[chosen]
        assigned = dist[branch, chosen]
        dist[branch, chosen] = np.inf
        unclear = np.nonzero(dist.min(axis=1) < 2.0 * assigned)[0]
        flags += [(k, int(j)) for j in unclear]
    return paths, flags


# a pole part: any, or on a coarse grid, or rounded to one decimal, so poles
# repeat and distances tie
_PART = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                  st.floats(-5.0, 5.0).map(lambda x: round(x, 1)))


@st.composite
def loci(draw):
    """2-8 steps of n = 1-5 poles, each new, a duplicate or the conjugate of
    an earlier pole of its step."""
    n = draw(st.integers(1, 5))
    steps = []
    for _ in range(draw(st.integers(2, 8))):
        ps = []
        for _ in range(n):
            kind = draw(st.sampled_from(["new", "duplicate", "conjugate"])) if ps else "new"
            p = complex(draw(_PART), draw(_PART)) if kind == "new" else draw(st.sampled_from(ps))
            ps.append(p.conjugate() if kind == "conjugate" else p)
        steps.append(LocusStep(1.0, 1.0, tuple(ps), True))
    return tuple(steps)


@settings(max_examples=200, deadline=None)
@given(loci())
# a conjugate pair that meets on the real axis and splits again: the split's
# two assignments cost the same
@example(tuple(LocusStep(1.0, 1.0, ps, True) for ps in
               [(-1 + 1j, -1 - 1j), (-1 + 0j, -1 + 0j), (-1 + 1j, -1 - 1j)]))
def test_property_pairing_equals_sequential(steps):
    # all steps scored at once in eigvals order, near-ties decided again in
    # branch order, against the one-step-at-a-time loop
    locus = locus_of(steps)
    paths, flags = sequential_pairing(steps)
    assert locus.trajectories().tobytes() == paths.tobytes()
    assert locus.pairing_ambiguities() == flags


@pytest.mark.parametrize("mode", ["power", "as-written", "closed-inner"])
def test_sweep_pairing_equals_sequential(grid, mode):
    sweep = ImpedanceSweep(r_min=0.1, r_max=2.0, ratio_r_over_l=RATIO, steps=200)
    locus = (sweep_power_loop(grid, POWER_PI, sweep) if mode == "power" else
             sweep_voltage_loop(grid, POWER_PI, VOLTAGE_PI, sweep, mode=mode))
    paths, flags = sequential_pairing(locus.steps)
    assert locus.trajectories().tobytes() == paths.tobytes()
    assert locus.pairing_ambiguities() == flags


def per_step_loop_pairing(locus):
    """The pairing with every step scored at once and each step's branch order
    built from the last one in a loop over the steps, near-ties decided again
    in branch order: paths, flags and the number of steps decided again."""
    raw, n = locus.poles, locus.poles.shape[1]
    dist = np.abs(raw[:-1, :, None] - raw[1:, None])
    best, second = np.full(len(dist), np.inf), np.full(len(dist), np.inf)
    pick = np.zeros(len(dist), dtype=int)
    assignments = np.array(list(itertools.permutations(range(n))), dtype=int)
    for t, perm in enumerate(assignments.tolist()):
        cost = sum((dist[:, i, j] for i, j in enumerate(perm)), np.zeros(len(dist)))
        pick[cost < best] = t
        np.minimum(second, np.maximum(best, cost), out=second)
        np.minimum(best, cost, out=best)
    clear = second - best > 1e-12 * best
    moves = assignments[pick].tolist()
    branch = np.arange(n)
    order = [list(range(n))]
    for k, (move, ok) in enumerate(zip(moves, clear.tolist())):
        if ok:
            order.append([move[i] for i in order[-1]])
        else:
            d = dist[k][order[-1]]
            order.append(assignments[np.argmin(d[branch, assignments].sum(axis=1))].tolist())
    order = np.array(order, dtype=int)
    steps = np.arange(len(dist))[:, None]
    rows, cols = order[:-1], order[1:]
    assigned = dist[steps, rows, cols]
    dist[steps, rows, cols] = np.inf
    unclear = dist.min(axis=2)[steps, rows] < 2.0 * assigned
    flags = [(int(k) + 1, int(b)) for k, b in zip(*np.nonzero(unclear))]
    return np.take_along_axis(raw, order, axis=1), flags, int((~clear).sum())


def assert_pairing_is_the_loops(locus):
    paths, flags, decided_again = per_step_loop_pairing(locus)
    assert locus.trajectories().tobytes() == paths.tobytes()
    assert locus.pairing_ambiguities() == flags
    return decided_again


@pytest.mark.parametrize("mode", ["power", "as-written", "closed-inner"])
def test_bench_sweep_pairing_equals_per_step_loop(grid, mode):
    # design-sweep's 1000-step sweeps; their real poles print as 0, never -0
    sweep = ImpedanceSweep(r_min=0.1, r_max=2.0, ratio_r_over_l=RATIO, steps=1000)
    locus = (sweep_power_loop(grid, POWER_PI, sweep) if mode == "power" else
             sweep_voltage_loop(grid, POWER_PI, VOLTAGE_PI, sweep, mode=mode))
    assert_pairing_is_the_loops(locus)
    on_axis = locus.poles.imag == 0.0
    assert on_axis.any() and not np.signbit(locus.poles.imag[on_axis]).any()


def test_crossing_locus_pairing_equals_per_step_loop():
    # two real poles that cross at -2, and a conjugate pair that meets the
    # real axis at -0.5 and splits along it, eigvals-like orders shuffled:
    # the steps at and next to each meeting are decided again
    rng = np.random.default_rng(5)
    steps = []
    for t in np.linspace(0.0, 2.0, 41).tolist():
        im = complex(0.0, 1.0 - t) if t < 1.0 else complex(t - 1.0, 0.0)
        ps = [complex(-1.0 - t, 0.0), complex(-3.0 + t, 0.0), -0.5 + im, -0.5 - im]
        steps.append(LocusStep(1.0, 1.0, tuple(ps[i] for i in rng.permutation(4)), True))
    locus = locus_of(tuple(steps))
    assert assert_pairing_is_the_loops(locus) >= 2
    assert locus.pairing_ambiguities()


@st.composite
def tied_loci(draw):
    """3-40 steps of n = 2-5 poles in a drawn order: each step moves the last
    one's poles a little, or draws new ones, or sends two of them to points
    at most 1e-12 apart, so two assignments nearly tie."""
    n = draw(st.integers(2, 5))
    steps = [[complex(draw(_PART), draw(_PART)) for _ in range(n)]]
    small = st.floats(-0.5, 0.5)
    for _ in range(draw(st.integers(2, 39))):
        kind = draw(st.sampled_from(["drift", "new", "tie"]))
        if kind == "drift":
            ps = [p + complex(draw(small), draw(small)) for p in steps[-1]]
        elif kind == "new":
            ps = [complex(draw(_PART), draw(_PART)) for _ in range(n)]
        else:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            ps = list(steps[-1])
            meet = (ps[i] + ps[j]) / 2
            ps[i], ps[j] = meet, meet + complex(draw(st.floats(0.0, 1e-12)),
                                                draw(st.floats(0.0, 1e-12)))
        steps.append(draw(st.permutations(ps)))
    return tuple(LocusStep(1.0, 1.0, tuple(ps), True) for ps in steps)


@settings(max_examples=200, deadline=None)
@given(tied_loci())
def test_property_composed_pairing_equals_per_step_loop(steps):
    assert_pairing_is_the_loops(locus_of(steps))


class TestVoltageLoopSweep:
    def test_all_steps_stable(self, voltage_locus):
        assert voltage_locus.all_stable

    def test_dominant_pair_in_left_half_plane(self, voltage_locus):
        for step in voltage_locus.steps:
            pair = [p for p in step.poles if abs(p.imag) > 1e-9]
            assert pair, "expected a complex dominant pair"
            assert max(p.real for p in pair) < 0

    def test_conjugate_symmetry(self, voltage_locus):
        for step in voltage_locus.steps:
            ps = np.array(step.poles)
            assert np.allclose(np.sort_complex(ps),
                               np.sort_complex(np.conj(ps)), rtol=1e-9, atol=1e-9)

    def test_closed_inner_pole_count_is_structural(self, grid, default_sweep):
        # voltage PI, power PI, converter lag and the cable in the inner
        # loop: 4 poles at every step.  The divider of two cables with equal
        # L/R is a constant, so its -R/L mode is no pole of the loop
        locus = sweep_voltage_loop(grid, POWER_PI, VOLTAGE_PI, default_sweep,
                                   mode="closed-inner")
        assert [len(s.poles) for s in locus.steps] == [4] * 50
        assert locus.trajectories().shape == (50, 4)


# the first cable's L/R equals the second's, within the divider's 1e-9, at 741
# of these 1000 steps: the batched divider mixes constant and impedance steps
MIXED_SWEEP = ImpedanceSweep(r_min=0.1, r_max=2.0,
                             ratio_r_over_l=166.66666683333332, steps=1000)


class TestStackedSolve:
    @pytest.mark.parametrize("loop,sweep", [
        pytest.param("power", None, id="power"),
        pytest.param("as-written", None, id="as-written"),
        pytest.param("closed-inner", None, id="closed-inner"),
        pytest.param("as-written", MIXED_SWEEP, id="as-written-mixed"),
        pytest.param("closed-inner", MIXED_SWEEP, id="closed-inner-mixed")])
    def test_every_step_equals_its_direct_closure(self, grid, default_sweep, loop, sweep):
        # the sweep's one batched build and stacked solve against each step's
        # loop built alone, closed by tf_feedback and solved alone
        if sweep is None:
            sweep = default_sweep
        else:
            # the divider's constant steps drop the cable pole: one pole fewer
            counts = {"as-written": {3, 4}, "closed-inner": {4, 5}}[loop]
        if loop == "power":
            locus = sweep_power_loop(grid, POWER_PI, sweep)
            def build(g):
                return tf_series(pi_tf(POWER_PI), power_plant_tf(g, 0))
        else:
            locus = sweep_voltage_loop(grid, POWER_PI, VOLTAGE_PI, sweep, mode=loop)
            def build(g):
                return tf_series(pi_tf(VOLTAGE_PI),
                                 voltage_loop_plant_tf(g, 0, POWER_PI, mode=loop))
        if sweep is MIXED_SWEEP:
            assert {len(s.poles) for s in locus.steps} == counts
        for step in locus.steps:
            g = grid_with_first_cable(grid, step.resistance, step.inductance)
            want = poles(tf_feedback(build(g), tf([1.0], [1.0])))
            assert np.array_equal(step.poles, want)
            assert step.stable == all(p.real < 0 for p in want)

    def test_zero_characteristic_polynomial_raises(self, grid, default_sweep):
        # a loop gain of -1 makes 1 + L(s) identically zero at every step
        with pytest.raises(DegenerateLoopError, match="algebraic loop"):
            _locus(grid, default_sweep, lambda g: tf([-1.0], [1.0]))


class TestLocusArrays:
    @pytest.mark.parametrize("mode", ["as-written", "closed-inner"])
    def test_csv_columns_concatenate_the_steps(self, grid, mode):
        # a ragged locus: 3/4 or 4/5 poles per step
        locus = sweep_voltage_loop(grid, POWER_PI, VOLTAGE_PI, MIXED_SWEEP, mode=mode)
        r, l, re, im, stable = _locus_columns(locus)
        steps = locus.steps
        counts = [len(s.poles) for s in steps]
        assert len(set(counts)) == 2 and locus.counts.tolist() == counts
        assert r.tolist() == np.repeat([s.resistance for s in steps], counts).tolist()
        assert l.tolist() == np.repeat([s.inductance for s in steps], counts).tolist()
        poles = np.array([p for s in steps for p in s.poles])
        assert re.tobytes() == poles.real.tobytes() and im.tobytes() == poles.imag.tobytes()
        assert stable.tolist() == np.repeat([int(s.stable) for s in steps], counts).tolist()
        assert locus.all_stable == all(s.stable for s in steps)
        assert locus.terminal_dominant_pole == max(steps[-1].poles, key=lambda p: p.real)

    def test_ragged_locus_cannot_pair(self, grid):
        locus = sweep_voltage_loop(grid, POWER_PI, VOLTAGE_PI, MIXED_SWEEP)
        with pytest.raises(SweepError, match="pole count changes along the sweep"):
            locus.trajectories()

    def test_rootlocus_command_builds_no_steps(self, grid, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(rootlocus, "LocusStep", lambda *step: built.append(step))
        ini = tmp_path / "mixed.ini"
        ini.write_text("[sweep]\nr_min = 0.1\nratio_r_over_l = 166.66666683333332\n")
        assert main(["rootlocus", "--config", str(ini), "--out", str(tmp_path / "o")]) == 0
        assert built == []
        # the spy sees the steps a caller asks for
        sweep = dataclasses.replace(MIXED_SWEEP, steps=50)
        assert len(sweep_power_loop(grid, POWER_PI, sweep).steps) == len(built) == 50


def step_samples(g, dt, n_steps):
    """Unit-step output at t = dt..n_steps*dt, from scipy as an independent oracle."""
    _, y = signal.step((g.num.coeffs[::-1], g.den.coeffs[::-1]),
                       T=np.arange(1, n_steps + 1) * dt)
    return y


class TestStabilityTimeDomainConsistency:
    def test_classification_matches_step_decay(self, grid, power_locus):
        # three sampled sweep points: a classified-stable loop's closed-loop
        # step response must converge to its DC gain
        for step in (power_locus.steps[0], power_locus.steps[24],
                     power_locus.steps[-1]):
            g = grid_with_first_cable(grid, step.resistance, step.inductance)
            loop = tf_series(pi_tf(POWER_PI), power_plant_tf(g, 0))
            closed = tf_feedback(loop, tf([1.0], [1.0]))
            y = step_samples(closed, dt=1e-4, n_steps=40000)
            tail = np.abs(y[-100:] - closed.dc_gain())
            head = np.abs(y[:100] - closed.dc_gain())
            assert step.stable
            assert tail.max() < 1e-3 * head.max()

    def test_unstable_loop_detected_and_diverges(self, grid):
        # flip the integral action sign path by negating kp enough to
        # destabilize: positive feedback around the plant
        from dcgridlab.control import PiGains
        bad = PiGains(kp=-0.01, ki=0.0)
        loop = tf_series(pi_tf(bad), power_plant_tf(grid, 0))
        closed = tf_feedback(loop, tf([1.0], [1.0]))
        assert any(p.real > 0 for p in poles(closed))
        y = step_samples(closed, dt=1e-4, n_steps=20000)
        assert np.abs(y[-1]) > 10 * np.abs(y[100])


class TestResistanceBound:
    def test_bench_bound(self, grid):
        # 5 percent regulation at 10 A rated current on the 400 V bus
        assert max_resistance_bound(grid) == pytest.approx(2.0)
