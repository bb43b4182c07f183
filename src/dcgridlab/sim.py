"""Fixed-step time-domain simulation of the small-signal grid.

The plant is the four-state linear interconnection of both converter voltage
loops and both cable currents.  The load draws a commanded power through the
nominal bus voltage, which pins the current sum between events; a load step
therefore enters as a state jump whose split follows the inductive divider.
The plant is linear and its input is held over a control period, so the
whole period follows exactly from the state at its start (the lifted
sampled-data system).  At set-up the exact zero-order-hold pair (matrix
exponential) over j plant steps is formed for each j = 1..n_sub and stacked
into ``phi`` (n_sub*4, 4) and ``gam`` (n_sub*4, 2); each control tick then
fills its n_sub rows of one preallocated state array as ``phi @ x + gam @ u``,
whose columns are the result's voltage and current series.  Every row is an
exact sample of the continuous plant, rounded once per tick instead of
accumulating one rounding per plant step, so integration error never
contaminates transient scores.  The bus voltage ``c_vg @ x`` is formed for all
rows at once after the loop, and the inputs are recorded once per tick and
repeated over the plant steps at the end.

Load steps and activation act on control ticks only: an event at time t acts
at tick round(t / control_dt).  :class:`Scenario` accepts only times within
1e-9 of a whole tick count, so every event acts at its stated time.

Controllers run on two cadences backed by two sampled channels.  Telemetry
(the neighbor power feeding the cascade reference arithmetic) flows at the
control rate, so it arrives one control period old; droop and the cascade's
inner power PI also run every control period.  The coordination layer (the
bus-voltage PIs of both schemes and the conventional current-sharing PI)
exchanges its datasets and updates once per secondary period, seeing the
neighbor one secondary period old.  Runs are deterministic: identical
scenarios produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

import numpy as np

from .control import (CascadeController, CascadeScheme, ConventionalController,
                      ConventionalScheme, weights_from_ratings)
from .grid import GridConfig
from .lti import zoh


class SimulationError(Exception):
    pass


class SimulationDiverged(SimulationError):
    """The state left the finite range; reported with the time, the plant
    state and the held references of the control tick that found it."""

    def __init__(self, time: float, state, inputs):
        self.time = time
        self.state = tuple(map(float, state))
        self.inputs = tuple(map(float, inputs))
        super().__init__(
            f"simulation diverged (non-finite state) at t = {time:.6f} s: "
            f"[V1, V2, I1, I2] = {list(self.state)}, "
            f"held references u = {list(self.inputs)}")


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
                f"duration {self.duration!r} s needs {Decimal(self.n_rows):.3e} "
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
        and every later load step: the events a run is scored on."""
        times = [self.activation_time] + [t for t, _ in self.load.steps
                                          if t > self.activation_time]
        return [(t0, t1 - t0) for t0, t1 in zip(times, times[1:] + [self.duration])]


def _is_multiple(value: float, step: float) -> bool:
    n = value / step
    return math.isfinite(n) and abs(n - round(n)) <= 1e-9


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


def _make_controllers(scenario: Scenario):
    if isinstance(scenario.scheme, CascadeScheme):
        return [CascadeController(scenario.scheme, scenario.grid, i)
                for i in range(2)]
    return [ConventionalController(scenario.scheme, scenario.grid, i)
            for i in range(2)]


def run(scenario: Scenario) -> SimResult:
    """Simulate one scenario; raises :class:`SimulationDiverged` on blow-up."""
    grid = scenario.grid
    v_nom = grid.nominal_bus_voltage
    l1 = grid.converters[0].cable.inductance
    l2 = grid.converters[1].cable.inductance
    a, b, c_vg = _plant_matrices(grid)

    n_sub = int(round(scenario.control_dt / scenario.plant_dt))
    n_sec = int(round(scenario.secondary_dt / scenario.control_dt))
    n_ctl = int(round(scenario.duration / scenario.control_dt))
    n_rows = scenario.n_rows

    # exact ZOH over j plant steps, j = 1..n_sub, stacked: row block j - 1 of
    # phi @ x + gam @ u is the state j plant steps into a control period
    pairs = [zoh(a, b, j * scenario.plant_dt) for j in range(1, n_sub + 1)]
    phi = np.vstack([ad for ad, _ in pairs])    # (n_sub * 4, 4)
    gam = np.vstack([bd for _, bd in pairs])    # (n_sub * 4, 2)

    units = _make_controllers(scenario)

    try:
        time_grid = np.arange(1, n_rows + 1) * scenario.plant_dt
        states = np.empty((n_rows, 4))   # x = [V1, V2, I1, I2] at each plant step
        inputs = np.empty((n_ctl, 2))    # u held over each control period
    except MemoryError as exc:
        raise SimulationError(
            f"duration {scenario.duration!r} s needs {Decimal(n_rows):.3e} plant "
            f"rows, which do not fit in memory: {exc}") from exc
    flat = states.reshape(-1)        # a view: row r is flat[4 r:4 r + 4]

    x = np.zeros(4)
    load_now = 0.0
    # control tick -> load; steps that share a tick leave the last one's load
    load_at = {round(t / scenario.control_dt): p for t, p in scenario.load.steps}
    activation = round(scenario.activation_time / scenario.control_dt)
    # one-step delay registers of the two channels: entry i is what converter
    # i receives, its neighbor's snapshot from the previous control tick
    # (telemetry) or secondary tick (coordination); both start at zero
    telemetry = coordination = ((0.0, 0.0), (0.0, 0.0))

    for k in range(n_ctl):
        if k in load_at:
            x = x.copy()   # x is the last row of states
            jump = (load_at[k] - load_now) / v_nom
            x[2] += l2 / (l1 + l2) * jump   # inductive divider split
            x[3] += l1 / (l1 + l2) * jump
            load_now = load_at[k]
        if k == activation:
            for unit in units:
                unit.active = True

        v1, v2, i1, i2 = x.tolist()
        snapshots = ((v1, i1), (v2, i2))
        secondary = (k % n_sec == 0)
        slow = coordination if secondary else (None, None)
        u = inputs[k]
        u[:] = [units[i].step(snapshots[i], telemetry[i], slow[i],
                              scenario.control_dt, scenario.secondary_dt)
                for i in range(2)]
        telemetry = snapshots[::-1]
        if secondary:
            coordination = telemetry

        # the whole control period from the state at its start
        block = flat[k * n_sub * 4:(k + 1) * n_sub * 4]
        np.dot(phi, x, out=block)
        block += gam.dot(u)
        x = block[-4:]
        if not np.isfinite(x).all():
            raise SimulationDiverged(time_grid[(k + 1) * n_sub - 1], x, u)

    term = states[:, 0:2]
    curr = states[:, 2:4]
    return SimResult(
        time=time_grid,
        power=v_nom * curr,
        current=curr,
        terminal_voltage=term,
        bus_voltage=states @ c_vg,
        regulated_voltage=term.mean(axis=1),
        voltage_reference=np.repeat(inputs, n_sub, axis=0),
        weights=weights_from_ratings(grid.rated_powers),
    )


# ---------------------------------------------------------------------------
# transient scoring

DEFAULT_ITAE_WINDOW = 2.0
SETTLING_BAND = 0.02    # of the largest deviation in the window


def _window_slice(result: SimResult, start: float, length: float) -> np.ndarray:
    if start + length > result.time[-1] + 1e-12:
        raise SimulationError(
            f"window [{start:g}, {start + length:g}] exceeds the simulated span")
    t = result.time
    mask = (t > start + 1e-12) & (t <= start + length + 1e-12)
    if np.count_nonzero(mask) < 2:
        raise SimulationError(
            f"window [{start:g}, {start + length:g}] holds fewer than 2 samples")
    return mask


def itae_voltage(result: SimResult, window_start: float,
                 window_length: float = DEFAULT_ITAE_WINDOW) -> float:
    """Integral of t * |mean terminal-voltage deviation| over the window.

    Time is measured from the window start; the integrand uses the mean of
    the two converter terminal voltages against the nominal reference.
    """
    m = _window_slice(result, window_start, window_length)
    t = result.time[m] - window_start
    err = np.abs(result.regulated_voltage[m])
    return float(np.trapezoid(t * err, t))


def itae_current(result: SimResult, window_start: float,
                 window_length: float = DEFAULT_ITAE_WINDOW) -> float:
    """Integral of t * (|I_ref1 - I1| + |I_ref2 - I2|) over the window.

    Current references are the rated-power shares of the total measured
    current at each sample.
    """
    m = _window_slice(result, window_start, window_length)
    t = result.time[m] - window_start
    total = result.current[m].sum(axis=1)
    err = sum(np.abs(result.weights[i] * total - result.current[m][:, i])
              for i in range(2))
    return float(np.trapezoid(t * err, t))


def settling_time(times: np.ndarray, series: np.ndarray, target: float,
                  band_floor: float = 0.0) -> float:
    """Last time the signal exits the band around the target, from the window start.

    The band is ``SETTLING_BAND`` of the largest deviation seen in the window,
    raised to ``band_floor`` when given (guards signals that never deviate
    meaningfully).  Returns ``math.inf`` when the signal is still outside the
    band at the final sample (not settled).
    """
    if len(series) == 0:
        raise SimulationError("settling_time needs a nonempty series")
    err = np.abs(np.asarray(series) - target)
    peak = float(err.max())
    band = max(SETTLING_BAND * peak, band_floor)
    if band == 0.0:
        return 0.0
    outside = np.nonzero(err > band)[0]
    if len(outside) == 0:
        return 0.0
    if outside[-1] == len(err) - 1:
        return math.inf
    return float(times[outside[-1] + 1])


def voltage_settling(result: SimResult, window_start: float,
                     window_length: float) -> float:
    """Settling of the regulated (mean terminal) voltage after an event.

    The band is 2 % of the peak deviation with an absolute floor of 0.05 V,
    the steady-state voltage band the comparison uses, so signals that never
    leave it count as settled at 0.
    """
    m = _window_slice(result, window_start, window_length)
    times = result.time[m] - window_start
    series = result.regulated_voltage[m]
    return settling_time(times, series, 0.0, band_floor=0.05)
