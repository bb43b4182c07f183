"""Secondary control laws for the two-source microgrid.

Two distributed schemes are implemented, both running one controller per
converter:

- conventional: primary droop on the local current plus two parallel
  secondary corrections, a bus-voltage PI and a current-sharing PI, added to
  the converter voltage reference;
- cascade: no droop; an outer bus-voltage PI produces a power-reference
  correction that joins the weighted total-power reference, and an inner
  power PI turns the power error into the voltage reference.

Controllers exchange measurements over sampled channels; a neighbor's values
are always one exchange period old (zero-order hold).  Each converter's bus
voltage measurement is its own terminal voltage; the regulated quantity is the
average of the local (fresh) and the neighbor (delayed) terminal voltage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .grid import GridConfig


class ControlError(Exception):
    pass


@dataclass(frozen=True)
class PiGains:
    """Proportional and integral gains; units follow the loop they close."""

    kp: float
    ki: float

    def __post_init__(self):
        if not (math.isfinite(self.kp) and math.isfinite(self.ki)):
            raise ControlError("PI gains must be finite")
        if self.ki < 0:
            raise ControlError("integral gain must be >= 0")


def pi_step(gains: PiGains, integrator: float, prev_error: Optional[float],
            error: float, dt: float, lo: float = -math.inf,
            hi: float = math.inf) -> tuple[float, float]:
    """One trapezoidal PI update with clamped output and conditional integration.

    Returns the output and the new integrator.  The integrator accumulates
    ki*dt*(error + prev_error)/2; on the first step after a reset
    (``prev_error`` None) the current error stands in for the missing history.
    Anti-windup: while the output sits at a clamp, updates that would drive it
    further past the clamp are skipped, and the integrator itself never leaves
    [lo, hi].
    """
    if dt <= 0:
        raise ControlError("dt must be positive")
    prev = error if prev_error is None else prev_error
    delta = gains.ki * dt * (error + prev) / 2.0
    unclamped = gains.kp * error + integrator
    pushing_past = (unclamped >= hi and delta > 0) or (unclamped <= lo and delta < 0)
    if not pushing_past:
        integrator = min(max(integrator + delta, lo), hi)
    out = min(max(gains.kp * error + integrator, lo), hi)
    return out, integrator


def weights_from_ratings(ratings: Sequence[float]) -> tuple[float, ...]:
    """Proportional sharing weights w_i = P_i,rated / sum(P_rated)."""
    if any(r <= 0 for r in ratings):
        raise ControlError("rated powers must be positive")
    total = sum(ratings)
    return tuple(r / total for r in ratings)


@dataclass(frozen=True)
class ConventionalScheme:
    """Droop primary plus parallel secondary voltage/current compensation."""

    droop_resistance: float           # ohm, per converter
    voltage_pi: PiGains
    current_pi: PiGains

    def __post_init__(self):
        if self.droop_resistance < 0:
            raise ControlError("droop resistance must be >= 0")


@dataclass(frozen=True)
class CascadeScheme:
    """Inner power PI fed by a weighted power reference, outer bus-voltage PI."""

    power_pi: PiGains
    bus_voltage_pi: PiGains
    weights: tuple[float, ...]

    def __post_init__(self):
        if any(w <= 0 for w in self.weights):
            raise ControlError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ControlError("weights must sum to 1")


# ---------------------------------------------------------------------------
# per-converter controllers, stepped by the simulation loop
#
# A snapshot is one converter's (terminal voltage, cable current) deviation
# pair.  ``step`` receives the fresh local snapshot, the neighbor's snapshot
# from the previous control tick (telemetry), and on secondary ticks the
# neighbor's snapshot from the previous secondary tick (coordination; None on
# other ticks).  Each controller binds its constants and both periods at
# construction; its state is its two PIs, named by the class's ``PI_NAMES``,
# and ``active``.  The cascade also keeps ``ref``, the power reference its
# last active step formed before clamping it, which the next step overwrites.
# The PI states start at zero and stay there until activation.


class _Pi:
    """One PI: its constants (gains, update period ``dt``, symmetric output
    ``limit``) and its state (``integrator``, ``prev_error``, None before the
    first update, and ``out``, the output held until the next update)."""

    def __init__(self, gains: PiGains, dt: float, limit: float):
        self.gains, self.dt, self.limit = gains, dt, limit
        self.integrator, self.prev_error, self.out = 0.0, None, 0.0

    def update(self, error: float) -> float:
        """One :func:`pi_step` on ``error``; returns the new ``out``."""
        self.out, self.integrator = pi_step(self.gains, self.integrator,
                                            self.prev_error, error, self.dt,
                                            -self.limit, self.limit)
        self.prev_error = error
        return self.out


class ConventionalController:
    """One converter's conventional controller (droop + two secondary PIs).

    Droop acts on the fresh local current every control step.  The secondary
    voltage and current PIs (``v_pi``, ``i_pi``) update once per secondary
    step, from the local snapshot and the neighbor snapshot exchanged on the
    coordination channel; the current reference is the rated-power share of
    the total measured current.  Droop holds no state, so ``control_dt`` is
    unused.
    """

    PI_NAMES = ("v_pi", "i_pi")

    def __init__(self, scheme: ConventionalScheme, grid: GridConfig, index: int,
                 control_dt: float, secondary_dt: float):
        self.droop = scheme.droop_resistance
        self.weight = weights_from_ratings(grid.rated_powers)[index]
        clamp = 0.1 * grid.nominal_bus_voltage
        self.v_pi = _Pi(scheme.voltage_pi, secondary_dt, clamp)
        self.i_pi = _Pi(scheme.current_pi, secondary_dt, clamp)
        self.active = False

    def step(self, own: tuple[float, float], neighbor_fast: tuple[float, float],
             neighbor_slow: Optional[tuple[float, float]]) -> float:
        """Voltage-reference deviation: droop always, corrections when active."""
        own_v, own_i = own
        if neighbor_slow is not None and self.active:
            nb_v, nb_i = neighbor_slow
            self.v_pi.update(0.0 - 0.5 * (own_v + nb_v))
            self.i_pi.update(self.weight * (own_i + nb_i) - own_i)
        ref = -self.droop * own_i
        if self.active:
            ref += self.v_pi.out + self.i_pi.out
        return ref


class CascadeController:
    """One converter's cascade controller (outer voltage PI, inner power PI).

    The outer bus-voltage PI (``v_pi``) updates once per secondary step from
    the coordination-channel snapshot.  The weighted power reference (share of
    the measured total plus the outer correction, clamped to the outer PI's
    limit of twice rated power) and the inner power PI (``p_pi``) run every
    control step on the fresh local power and the telemetry-channel neighbor
    power.  Powers are cable currents times the nominal bus voltage.
    """

    PI_NAMES = ("v_pi", "p_pi")

    def __init__(self, scheme: CascadeScheme, grid: GridConfig, index: int,
                 control_dt: float, secondary_dt: float):
        self.weight = scheme.weights[index]
        self.v_nom = grid.nominal_bus_voltage
        conv = grid.converters[index]
        power_clamp = 2.0 * conv.rated_power
        self.v_pi = _Pi(scheme.bus_voltage_pi, secondary_dt, power_clamp)
        # inner output is a voltage reference; clamp it to the voltage swing
        # that corresponds to twice rated power through the cable at DC
        self.p_pi = _Pi(scheme.power_pi, control_dt,
                        power_clamp * conv.cable.resistance / grid.nominal_bus_voltage)
        self.active = False
        self.ref = 0.0

    def step(self, own: tuple[float, float], neighbor_fast: tuple[float, float],
             neighbor_slow: Optional[tuple[float, float]]) -> float:
        """Voltage-reference deviation from the inner power PI; 0 until active."""
        if not self.active:
            return 0.0
        own_v, own_i = own
        own_power = self.v_nom * own_i
        if neighbor_slow is not None:
            self.v_pi.update(0.0 - 0.5 * (own_v + neighbor_slow[0]))
        self.ref = self.weight * (own_power + self.v_nom * neighbor_fast[1] + self.v_pi.out)
        limit = self.v_pi.limit
        return self.p_pi.update(min(max(self.ref, -limit), limit) - own_power)
