"""Fixed-step time-domain simulation of the small-signal grid.

The plant is the four-state linear interconnection of both converter voltage
loops and both cable currents.  The load draws a commanded power through the
nominal bus voltage, which pins the current sum between events; a load step
therefore enters as a state jump whose split follows the inductive divider.

:func:`run` returns ``Scenario.n_rows`` plant rows, at plant_dt up to
``Scenario.end_time``:

- each row is an exact sample of the continuous plant, whose input each
  converter holds over a control period;
- events act on control ticks only, at round(t / control_dt), and each
  applied event logs one DEBUG line; :class:`Scenario` accepts only times
  within 1e-9 of a whole tick count;
- between events, whole secondary periods advance by the closed loop's
  linear period maps M, in blocks, while no clamp can act: a period's next
  loop state is the tail of its product with the stacked map; every plant
  row of a map, M's included, holds the current sum that the load pins
  exactly, so it moves by rounding only, not with the horizon; a run logs
  one DEBUG line with how many periods the maps advanced and how many ran
  tick by tick;
- telemetry (the neighbor power feeding the cascade reference) arrives one
  control period old, and droop and the cascade's inner power PI run every
  control period; the coordination layer (the bus-voltage PIs and the
  conventional current-sharing PI) updates once per secondary period, seeing
  the neighbor one secondary period old;
- every row agrees with control ticks stepped one by one within 1.8e-13 of
  its column's peak (measured on the bench-default cases), and the PIs clamp
  at the same ticks; how mapped periods are grouped into blocks changes no
  bit;
- a non-finite state raises :class:`SimulationDiverged` at the control tick
  that finds it; before the first tick, a plant whose ZOH is not finite (a
  cable's L/R far under plant_dt) raises :class:`SimulationError`, and so
  does one whose ZOH blocks read a spectral radius above 1 + 1e-7, which an
  exact block of this stable plant never does (a cable's L/R or a voltage
  loop's time constant near 1e-9 plant_dt or shorter, where the matrix
  exponential's scaling and squaring loses accuracy);
- identical scenarios produce bit-identical results.

:class:`_ControlLoop` owns the closed loop's model: the lifted plant, the
event schedule, both controllers and the two delay registers.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .control import (CascadeController, CascadeScheme, ConventionalController,
                      ConventionalScheme, _Pi, weights_from_ratings)
from .grid import GridConfig
from .lti import zoh

log = logging.getLogger(__name__)


class SimulationError(Exception):
    pass


class SimulationDiverged(SimulationError):
    """The state left the finite range; reported with the time, the plant
    state, the held references and the PIs at their clamp (as "converter n
    name") of the control tick that found it."""

    def __init__(self, time: float, state, inputs, saturated=()):
        self.time = time
        self.state = tuple(map(float, state))
        self.inputs = tuple(map(float, inputs))
        self.saturated = tuple(saturated)
        clamped = (f"PIs at their clamp: {', '.join(self.saturated)}"
                   if self.saturated else "no PI at its clamp")
        super().__init__(
            f"simulation diverged (non-finite state) at t = {time:.6f} s: "
            f"[V1, V2, I1, I2] = {list(self.state)}, "
            f"held references u = {list(self.inputs)}; {clamped}")


@dataclass(frozen=True)
class LoadProfile:
    """Timed steps of the total load power (watt), strictly increasing times."""

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        times = [t for t, _ in self.steps]
        if any(not (math.isfinite(t) and math.isfinite(p)) for t, p in self.steps):
            raise SimulationError("event times and powers must be finite")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise SimulationError("event times must be strictly increasing")
        if any(p < 0 for _, p in self.steps):
            raise SimulationError("load powers must be >= 0")


Scheme = Union[ConventionalScheme, CascadeScheme]


@dataclass(frozen=True)
class Scenario:
    grid: GridConfig
    scheme: Scheme
    load: LoadProfile
    activation_time: float
    duration: float
    plant_dt: float
    control_dt: float
    secondary_dt: float

    def __post_init__(self):
        if self.plant_dt <= 0 or self.control_dt <= 0 or self.secondary_dt <= 0:
            raise SimulationError("time steps must be positive")
        if self.plant_dt > self.control_dt:
            raise SimulationError("plant_dt must not exceed control_dt")
        if self.control_dt > self.secondary_dt:
            raise SimulationError("control_dt must not exceed secondary_dt")
        if self.duration <= max((t for t, _ in self.load.steps), default=0.0):
            raise SimulationError("duration must exceed the last load event")
        if not _is_multiple(self.control_dt, self.plant_dt):
            raise SimulationError("control_dt must be a multiple of plant_dt")
        if not _is_multiple(self.secondary_dt, self.control_dt):
            raise SimulationError("secondary_dt must be a multiple of control_dt")
        n = len(self.grid.converters)
        if isinstance(self.scheme, CascadeScheme) and len(self.scheme.weights) != n:
            raise SimulationError(f"cascade weights {list(self.scheme.weights)} must be "
                                  f"one per converter of the grid's {n}")
        # the engine acts only on control ticks from t = 0, so an off-grid
        # time would silently move to another tick and a negative one to 0
        timed = [("activation_time", self.activation_time),
                 ("duration", self.duration)]
        timed += [("load step time", t) for t, _ in self.load.steps]
        for name, t in timed:
            if t < 0:
                raise SimulationError(f"{name} {t!r} s is negative")
            if not _is_multiple(t, self.control_dt):
                raise SimulationError(
                    f"{name} {t!r} s is not a finite multiple of control_dt "
                    f"{self.control_dt!r} s")
        # numpy indexes the (n_rows, 4) float64 state array in bytes
        if self.n_rows * 32 > np.iinfo(np.intp).max:
            raise SimulationError(
                f"duration {self.duration!r} s needs {_sci(self.n_rows)} "
                f"plant rows; numpy indexes at most {np.iinfo(np.intp).max // 32}")

    @property
    def n_rows(self) -> int:
        """Number of plant samples :func:`run` produces."""
        return (round(self.duration / self.control_dt)
                * round(self.control_dt / self.plant_dt))

    @property
    def end_time(self) -> float:
        """Time of the last sample :func:`run` produces."""
        return self.n_rows * self.plant_dt

    def scored_events(self) -> list[tuple[float, float]]:
        """(time, span to the next scored event or ``duration``) of activation
        and every later load step: the events a run is scored on.

        Raises :class:`SimulationError` unless each event's ITAE window ends by
        the last sample and the next scored event follows at least two plant
        steps later, the bounds the scoring (``_window_slice``) needs."""
        times = [self.activation_time] + [t for t, _ in self.load.steps
                                          if t > self.activation_time]
        events = [(t0, t1 - t0) for t0, t1 in zip(times, times[1:] + [self.duration])]
        for i, (t0, span) in enumerate(events):
            name = "activation_time" if i == 0 else "load step at"
            if t0 + DEFAULT_ITAE_WINDOW > self.end_time + 1e-12:
                raise SimulationError(
                    f"{name} {t0!r} s: its ITAE window [{t0:g}, "
                    f"{t0 + DEFAULT_ITAE_WINDOW:g}] s ends after duration "
                    f"{self.duration!r} s")
            if span < (2 - 1e-9) * self.plant_dt:
                raise SimulationError(
                    f"{name} {t0!r} s: the next scored event follows {span:g} s "
                    f"later, under two plant steps of plant_dt {self.plant_dt!r} s, "
                    f"too short to score settling")
        return events


def _is_multiple(value: float, step: float) -> bool:
    n = value / step
    return math.isfinite(n) and abs(n - round(n)) <= 1e-9


def _sci(n: int) -> str:
    """``n`` as ``%.3e``, also past the float range."""
    from decimal import Decimal   # for error messages only: off the import path
    return f"{Decimal(n):.3e}"


@dataclass(frozen=True)
class SimResult:
    """Time series of one run.  All series share the plant time grid."""

    time: np.ndarray                 # (n,)
    power: np.ndarray                # (n, 2)  exchanged power deviations, W
    current: np.ndarray              # (n, 2)  cable currents, A (power over nominal voltage)
    terminal_voltage: np.ndarray     # (n, 2)  converter terminal deviations, V
    bus_voltage: np.ndarray          # (n,)    load-node voltage deviation, V
    regulated_voltage: np.ndarray    # (n,)    mean terminal deviation, V
    voltage_reference: np.ndarray    # (n, 2)  commanded reference deviations, V
    weights: tuple[float, ...]


def _plant_matrices(grid: GridConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State equations for x = [V1, V2, I1, I2], inputs u = [V1*, V2*].

    Between load events the current sum is invariant, the bus voltage is the
    algebraic combination c_vg @ x, and each cable current relaxes toward its
    own source voltage against the bus.
    """
    c1, c2 = grid.converters[0], grid.converters[1]
    r1, l1 = c1.cable.resistance, c1.cable.inductance
    r2, l2 = c2.cable.resistance, c2.cable.inductance
    a = np.zeros((4, 4))
    b = np.zeros((4, 2))
    a[0, 0] = -1.0 / c1.voltage_loop_tau
    b[0, 0] = 1.0 / c1.voltage_loop_tau
    a[1, 1] = -1.0 / c2.voltage_loop_tau
    b[1, 1] = 1.0 / c2.voltage_loop_tau
    lsum = l1 + l2
    c_vg = np.array([l2 / lsum, l1 / lsum, -r1 * l2 / lsum, -r2 * l1 / lsum])
    a[2] = (np.array([1.0, 0.0, -r1, 0.0]) - c_vg) / l1
    a[3] = (np.array([0.0, 1.0, 0.0, -r2]) - c_vg) / l2
    return a, b, c_vg


# how far the lifted ZOH blocks' spectral radius may read above 1.  lti.zoh's
# scaling and squaring amplifies rounding with the stiffest mode's |a| *
# plant_dt.  With 0.5 ohm cables the radius reads 1 + 8.1e-9 at 1e-12 H (a 3 s
# scenario's ITAE_I within 7.2e-5 of its value at 1e-6 H), 1 + 1.2e-7 at
# 1e-13 H and 1 + 1.9e-6 at 1e-14 H (ITAE_I 1.3 % off)
_ZOH_RADIUS_TOL = 1e-7


class _ControlLoop:
    """The closed loop's model: the plant lifted over a control period
    (``phi``, ``gam``) and its bus-voltage row ``c_vg``, the event schedule
    (the load jumps, activation and the ``eventful`` secondary periods that
    hold them), both controllers and the telemetry and coordination delay
    registers.  Ticks run in increasing order; a period that a period map
    advances instead sets the state with ``unpack``."""

    def __init__(self, scenario: Scenario):
        self.grid = grid = scenario.grid
        a, b, self.c_vg = _plant_matrices(grid)
        # exact ZOH over j plant steps, j = 1..n_sub, stacked: row block j - 1 of
        # phi @ x + gam @ u is the state j plant steps into a control period
        n_sub = round(scenario.control_dt / scenario.plant_dt)
        with np.errstate(over="ignore", invalid="ignore"):    # checked below
            pairs = [zoh(a, b, j * scenario.plant_dt) for j in range(1, n_sub + 1)]
        self.phi = np.vstack([ad for ad, _ in pairs])    # (n_sub * 4, 4)
        self.gam = np.vstack([bd for _, bd in pairs])    # (n_sub * 4, 2)
        taus = [c.cable.inductance / c.cable.resistance for c in grid.converters]
        if not (np.isfinite(self.phi).all() and np.isfinite(self.gam).all()):
            # a stable plant, but too stiff for the exponential's float range
            raise SimulationError(
                f"the plant's zero-order hold (ZOH) over plant_dt "
                f"{scenario.plant_dt!r} s is not finite: the cables' L/R time "
                f"constants {taus} s are too short against plant_dt")
        # or too stiff for its accuracy: an exact block of a stable plant has
        # a spectral radius of at most 1
        excess = np.abs(np.linalg.eigvals(self.phi.reshape(n_sub, 4, 4))).max() - 1.0
        if excess > _ZOH_RADIUS_TOL:
            raise SimulationError(
                f"the plant's zero-order hold (ZOH) over plant_dt "
                f"{scenario.plant_dt!r} s is inaccurate: its spectral radius reads "
                f"1 + {excess:.3g}, where the stable plant's is at most 1 (tolerance "
                f"{_ZOH_RADIUS_TOL:g}): the cables' L/R time constants {taus} s or "
                f"the voltage loops' time constants "
                f"{[c.voltage_loop_tau for c in grid.converters]} s are too short "
                f"against plant_dt")
        unit = (CascadeController if isinstance(scenario.scheme, CascadeScheme)
                else ConventionalController)
        self.units = [unit(scenario.scheme, grid, i, scenario.control_dt,
                           scenario.secondary_dt) for i in range(2)]
        self.control_dt = scenario.control_dt
        self.n_sec = round(scenario.secondary_dt / scenario.control_dt)
        self.load_now = 0.0
        # control tick -> load; steps that share a tick leave the last one's load
        self.load_at = {round(t / scenario.control_dt): p
                        for t, p in scenario.load.steps}
        self.activation = round(scenario.activation_time / scenario.control_dt)
        self.eventful = {k // self.n_sec for k in (*self.load_at, self.activation)}
        # one-step delay registers of the two channels: entry i is what
        # converter i receives, its neighbor's snapshot from the previous
        # control tick (telemetry) or secondary tick (coordination); both
        # start at zero
        self.telemetry = self.coordination = ((0.0, 0.0), (0.0, 0.0))

    def tick(self, k: int, x: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """Act on tick k's events, then step both controllers on the state x
        at the tick.  Returns the state after any load jump (a new array in
        x's dtype; x itself is never written) and the two references u held
        over the control period."""
        if k in self.load_at:
            load = self.load_at[k]
            log.debug("tick %d (t = %.6g s): load %g -> %g W",
                      k, k * self.control_dt, self.load_now, load)
            # in x's own dtype, so a wider plant keeps its precision
            real = x.dtype.type
            l1, l2 = (real(c.cable.inductance) for c in self.grid.converters)
            jump = ((real(load) - real(self.load_now))
                    / real(self.grid.nominal_bus_voltage))
            x = x.copy()
            x[2] += l2 / (l1 + l2) * jump   # inductive divider split
            x[3] += l1 / (l1 + l2) * jump
            self.load_now = load
        if k == self.activation:
            log.debug("tick %d (t = %.6g s): secondary control activated",
                      k, k * self.control_dt)
            for unit in self.units:
                unit.active = True

        v1, v2, i1, i2 = x.astype(float, copy=False).tolist()
        snapshots = ((v1, i1), (v2, i2))
        secondary = (k % self.n_sec == 0)
        slow = self.coordination if secondary else (None, None)
        u = [unit.step(snapshots[i], self.telemetry[i], slow[i])
             for i, unit in enumerate(self.units)]
        self.telemetry = snapshots[::-1]
        if secondary:
            self.coordination = self.telemetry
        return x, u

    def period(self, k: int, x: np.ndarray, block: np.ndarray):
        """Tick k on the state x, then the plant's rows of its control period
        into block; returns what :meth:`tick` returns."""
        x, u = self.tick(k, x)
        with np.errstate(over="ignore", invalid="ignore"):    # run tests the rows
            np.dot(self.phi, x, out=block)
            block += self.gam.dot(u)
        return x, u

    def pis(self) -> list[tuple[int, str, _Pi]]:
        """(converter number, name, PI) of every PI, in the order z packs them."""
        return [(i + 1, name, getattr(unit, name))
                for i, unit in enumerate(self.units) for name in unit.PI_NAMES]

    def pack(self, x: np.ndarray) -> np.ndarray:
        """The loop's state z: the plant state x, each PI's integrator,
        prev_error (0.0 for None) and out, and both delay registers."""
        z = x.tolist()
        for _, _, pi in self.pis():
            z += [pi.integrator, 0.0 if pi.prev_error is None else pi.prev_error, pi.out]
        return np.array(z + [v for reg in (self.telemetry, self.coordination)
                             for snapshot in reg for v in snapshot])

    def unpack(self, z: np.ndarray) -> None:
        """Set the PIs and the registers from z; a prev_error of None stays None."""
        values = z.tolist()
        for j, (_, _, pi) in enumerate(self.pis(), start=1):
            pi.integrator, prev, pi.out = values[3 * j + 1:3 * j + 4]
            pi.prev_error = None if pi.prev_error is None else prev
        t = values[-8:]
        self.telemetry = (t[0], t[1]), (t[2], t[3])
        self.coordination = (t[4], t[5]), (t[6], t[7])

    def clamps(self) -> list[tuple[float, float]]:
        """(value, limit) of each clamp that the active controllers applied
        at the last tick: PI integrators and outputs, and the cascade's
        unclamped power reference."""
        pairs = []
        for unit in self.units:
            if unit.active:
                for pi in (getattr(unit, name) for name in unit.PI_NAMES):
                    pairs += [(pi.integrator, pi.limit), (pi.out, pi.limit)]
                if isinstance(unit, CascadeController):
                    pairs.append((unit.ref, unit.v_pi.limit))
        return pairs


def _period_map(loop: _ControlLoop, k0: int):
    """The secondary period from tick k0 as one stacked map of z, the loop's
    state (plant, PI states, both registers) at its start, under the loop's
    ``active`` flags, and the bounds of its clamp tests.  The stacked map's
    rows are the period's plant rows, its references and its clamp tests,
    each in tick order, then the next z: ``stacked[-n:]``, for z of n floats,
    is the period map M.  The period holds no event.

    Each tick is a linear map of z (the lifting of Bamieh, Pearson, Francis &
    Tannenbaum, 1991): the period's secondary tick and, when the period has
    one, its first ordinary tick are run on each basis vector of z, on a copy
    with every clamp lifted, and M = A_ord^(n_sec - 1) A_sec.  The load pins
    I1 + I2 between events, so in every plant row, M's included, the I2
    coefficients are z's current sum minus the I1 ones: M[2] + M[3] is
    e2 + e3 exactly, and M's plant rows are the period's last plant row."""
    probe = copy.deepcopy(loop)
    for _, _, pi in probe.pis():
        pi.limit, pi.prev_error = math.inf, 0.0
    size, eye = len(loop.phi), np.eye(len(probe.pack(np.zeros(4))))
    n = len(eye)

    def outputs(k, z):
        # tick k from z: its plant rows, references, clamp tests and next z
        probe.unpack(z)
        block = np.empty(size)
        _, u = probe.period(k, z[:4], block)
        tests = [value for value, _ in probe.clamps()]
        return np.concatenate((block, u, tests, probe.pack(block[-4:])))

    # only the period's own ticks: with one tick a period, tick k0 + 1 is the
    # next period's and may hold an event
    tick_maps = [np.array([outputs(k, e) for e in eye]).T
                 for k in range(k0, k0 + min(loop.n_sec, 2))]
    ticks = tick_maps[:1]
    with np.errstate(over="ignore", invalid="ignore"):    # _advance checks the results
        for tick_map in tick_maps[1:] * (loop.n_sec - 1):
            ticks.append(tick_map @ ticks[-1][-n:])
    plant, refs, tests = np.split(np.array(ticks)[:, :-n], [size, size + 2], axis=1)
    plant[:, 3::4] = eye[2] + eye[3] - plant[:, 2::4]
    stacked = np.vstack([p.reshape(-1, n)
                         for p in (plant, refs, tests, plant[-1, -4:], ticks[-1][4 - n:])])
    # the margin dwarfs the maps' rounding (~1e-13), so a value the maps keep
    # inside its bound is inside it in the per-tick arithmetic too
    limits = [limit for _, limit in loop.clamps()]
    return stacked, np.tile(limits, loop.n_sec) * (1 - 1e-9)


# the most periods a block of mapped periods spans: it bounds the block's
# temporaries (256 x 1,064 floats on bench defaults, 2.2 MB) on long runs,
# while its fixed cost (pack, checks, unpack) stays about 1% of its time
_MAX_BLOCK = 256


def _advance(loop: _ControlLoop, maps, x: np.ndarray, flat: np.ndarray,
             inputs: np.ndarray, k0: int, count: int) -> int:
    """Advance up to ``count`` event-free secondary periods from tick k0 by
    the :func:`_period_map` ``maps``, from the plant state x: one product of
    the stacked map per period into a row of a block buffer, on z, the loop
    state packed from x for the first period and the row tail ``row[-n_z:]``,
    the previous period's next z, for each later one.  Then write every
    period's plant rows into ``flat`` and its references into ``inputs``, and
    check every period's results and clamp tests at once.  The loop takes the
    state after the last period that passes; returns how many passed, the
    leading ones.  A later period's rows may be written, to be written over."""
    stacked, bound = maps
    n_z, n_ref, size = stacked.shape[1], 2 * loop.n_sec, len(loop.phi)
    span, k1 = loop.n_sec * size, k0 + count * loop.n_sec
    out = np.empty((count, len(stacked)))
    z = loop.pack(x)
    with np.errstate(over="ignore", invalid="ignore"):    # checked below
        for row in out:
            z = np.dot(stacked, z, out=row)[-n_z:]
    flat[k0 * size:k1 * size].reshape(count, span)[:] = out[:, :span]
    inputs[k0:k1].reshape(count, n_ref)[:] = out[:, span:span + n_ref]
    passed = (np.isfinite(out).all(axis=1)
              & (np.abs(out[:, span + n_ref:-n_z]) < bound).all(axis=1))
    done = count if passed.all() else int(np.argmin(passed))
    if done:
        loop.unpack(out[done - 1, -n_z:])
    return done


def run(scenario: Scenario) -> SimResult:
    """Simulate one scenario; raises :class:`SimulationDiverged` on blow-up.

    A secondary period that holds no event, in which every active PI has
    updated, advances by the :func:`_period_map` of the ``active`` flags
    unless a value that a clamp tests comes within 1e-9 of its limit or a
    result is not finite.  Any other period, the last, partial one included,
    runs tick by tick.

    Consecutive mapped periods advance in blocks (:func:`_advance`): each
    period takes one product of the stacked map with its z, as it would
    alone, so a block changes no bit, and the block's results and clamp tests
    are checked in one pass.  A block ends before the next period that holds
    an event or is partial.  It spans at most two periods at the start and
    after any period that ran tick by tick, and at most twice as many as the
    block before after one that passed, up to ``_MAX_BLOCK``.  The short
    restarts bound the mapped periods that a failed test throws away: a 3 s
    cascade whose second reference holds its clamp from 1 s on (the clamped
    case of the tests) wastes 197 periods in 109 blocks and runs in 27-28 ms
    on a 2-vCPU x86_64 VM, where blocks of ``_MAX_BLOCK`` periods waste 4,950
    and take 62-64 ms; the bench defaults waste none either way.  The first
    period that fails a test runs tick by tick, from the state after the ones
    before it.  Logs one DEBUG line per
    run: the periods advanced by maps, the periods ticked and the blocks that
    a test cut short."""
    grid = scenario.grid
    n_sub = round(scenario.control_dt / scenario.plant_dt)
    n_ctl = round(scenario.duration / scenario.control_dt)
    n_rows = scenario.n_rows
    # before the ZOH stack, whose n_sub blocks cost one matrix exponential each
    try:
        time_grid = np.arange(1, n_rows + 1) * scenario.plant_dt
        states = np.empty((n_rows, 4))   # x = [V1, V2, I1, I2] at each plant step
        inputs = np.empty((n_ctl, 2))    # u held over each control period
    except MemoryError as exc:
        raise SimulationError(
            f"duration {scenario.duration!r} s needs {_sci(n_rows)} plant "
            f"rows, which do not fit in memory: {exc}") from exc
    flat = states.reshape(-1)        # a view: row r is flat[4 r:4 r + 4]
    loop = _ControlLoop(scenario)
    n_sec, size = loop.n_sec, len(loop.phi)
    n_full = n_ctl // n_sec    # the secondary periods that end by the horizon
    maps = {}    # active flags -> _period_map

    x = np.zeros(4)
    mapped = ticked = cut = 0
    period, width = 0, 2
    while period * n_sec < n_ctl:
        if (period < n_full and period not in loop.eventful
                and all(getattr(unit, name).prev_error is not None
                        for unit in loop.units if unit.active
                        for name in unit.PI_NAMES)):
            active = tuple(unit.active for unit in loop.units)
            if active not in maps:
                maps[active] = _period_map(loop, period * n_sec)
            end = min([period + width, n_full] + [p for p in loop.eventful if p > period])
            done = _advance(loop, maps[active], x, flat, inputs, period * n_sec,
                            end - period)
            mapped, period = mapped + done, period + done
            if done:
                x = flat[period * n_sec * size - 4:period * n_sec * size]
            if period == end:
                width = min(2 * width, _MAX_BLOCK)
                continue
            cut += 1
        k0 = period * n_sec
        for k in range(k0, min(k0 + n_sec, n_ctl)):
            block = flat[k * size:(k + 1) * size]
            _, inputs[k] = loop.period(k, x, block)
            x = block[-4:]
            if not all(map(math.isfinite, x.tolist())):
                raise SimulationDiverged(
                    time_grid[(k + 1) * n_sub - 1], x, inputs[k],
                    [f"converter {n} {name}" for n, name, pi in loop.pis()
                     if abs(pi.out) >= pi.limit])
        ticked, period, width = ticked + 1, period + 1, 2
    log.debug("run: %d secondary periods advanced by period maps, %d ticked; "
              "blocks cut short by a test: %d", mapped, ticked, cut)

    term = states[:, 0:2]
    curr = states[:, 2:4]
    return SimResult(
        time=time_grid,
        power=grid.nominal_bus_voltage * curr,
        current=curr,
        terminal_voltage=term,
        bus_voltage=states @ loop.c_vg,
        regulated_voltage=(states[:, 0] + states[:, 1]) / 2,
        voltage_reference=np.repeat(inputs, n_sub, axis=0),
        weights=weights_from_ratings(grid.rated_powers),
    )


# ---------------------------------------------------------------------------
# transient scoring

DEFAULT_ITAE_WINDOW = 2.0
SETTLING_BAND = 0.02    # of the largest deviation in the window


def _window_slice(result: SimResult, start: float,
                  length: float) -> tuple[slice, np.ndarray]:
    """The samples in (start, start + length], each bound 1e-12 later, as a
    slice of the (increasing) time grid, and their times from start."""
    if start + length > result.time[-1] + 1e-12:
        raise SimulationError(
            f"window [{start:g}, {start + length:g}] exceeds the simulated span")
    t = result.time
    lo, hi = np.searchsorted(t, (start + 1e-12, start + length + 1e-12), side="right")
    if hi - lo < 2:
        raise SimulationError(
            f"window [{start:g}, {start + length:g}] holds fewer than 2 samples")
    return slice(lo, hi), t[lo:hi] - start


def itae_voltage(result: SimResult, window_start: float) -> float:
    """Integral of t * |mean terminal-voltage deviation| over the
    ``DEFAULT_ITAE_WINDOW`` after ``window_start``.

    Time is measured from the window start; the integrand uses the mean of
    the two converter terminal voltages against the nominal reference.
    """
    w, t = _window_slice(result, window_start, DEFAULT_ITAE_WINDOW)
    err = np.abs(result.regulated_voltage[w])
    return float(np.trapezoid(t * err, t))


def itae_current(result: SimResult, window_start: float) -> float:
    """Integral of t * (|I_ref1 - I1| + |I_ref2 - I2|) over the
    ``DEFAULT_ITAE_WINDOW`` after ``window_start``.

    Current references are the rated-power shares of the total measured
    current at each sample.
    """
    w, t = _window_slice(result, window_start, DEFAULT_ITAE_WINDOW)
    total = result.current[w].sum(axis=1)
    err = sum(np.abs(result.weights[i] * total - result.current[w][:, i])
              for i in range(2))
    return float(np.trapezoid(t * err, t))


def voltage_settling(result: SimResult, window_start: float,
                     window_length: float) -> float:
    """Settling time of the regulated (mean terminal) voltage after an event:
    the last time, from ``window_start``, that it leaves the band around 0.

    The band is ``SETTLING_BAND`` of the peak deviation in the window, with an
    absolute floor of 0.05 V, the steady-state voltage band the comparison
    uses, so signals that never leave it count as settled at 0.  Returns
    ``math.inf`` when the voltage is still outside the band at the window's
    last sample.
    """
    w, t = _window_slice(result, window_start, window_length)
    err = np.abs(result.regulated_voltage[w])
    outside = np.nonzero(err > max(SETTLING_BAND * float(err.max()), 0.05))[0]
    if len(outside) == 0:
        return 0.0
    if outside[-1] == len(err) - 1:
        return math.inf
    return float(t[outside[-1] + 1])
