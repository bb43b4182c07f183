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
# other ticks).  The PI states start at zero and stay there until activation.


class ConventionalController:
    """One converter's conventional controller (droop + two secondary PIs).

    Droop acts on the fresh local current every control step.  The secondary
    voltage and current corrections update once per secondary step, from the
    local snapshot and the neighbor snapshot exchanged on the coordination
    channel; the current reference is the rated-power share of the total
    measured current.
    """

    def __init__(self, scheme: ConventionalScheme, grid: GridConfig, index: int):
        self.scheme = scheme
        self.weight = weights_from_ratings(grid.rated_powers)[index]
        self.clamp = 0.1 * grid.nominal_bus_voltage
        self.active = False
        self.v_integrator, self.v_prev_error = 0.0, None
        self.i_integrator, self.i_prev_error = 0.0, None
        self.dv = 0.0
        self.di = 0.0

    def step(self, own: tuple[float, float], neighbor_fast: tuple[float, float],
             neighbor_slow: Optional[tuple[float, float]], control_dt: float,
             secondary_dt: float) -> float:
        """Voltage-reference deviation: droop always, corrections when active."""
        own_v, own_i = own
        if neighbor_slow is not None and self.active:
            nb_v, nb_i = neighbor_slow
            v_err = 0.0 - 0.5 * (own_v + nb_v)
            self.dv, self.v_integrator = pi_step(
                self.scheme.voltage_pi, self.v_integrator, self.v_prev_error,
                v_err, secondary_dt, -self.clamp, self.clamp)
            self.v_prev_error = v_err
            i_err = self.weight * (own_i + nb_i) - own_i
            self.di, self.i_integrator = pi_step(
                self.scheme.current_pi, self.i_integrator, self.i_prev_error,
                i_err, secondary_dt, -self.clamp, self.clamp)
            self.i_prev_error = i_err
        ref = -self.scheme.droop_resistance * own_i
        if self.active:
            ref += self.dv + self.di
        return ref


class CascadeController:
    """One converter's cascade controller (outer voltage PI, inner power PI).

    The outer bus-voltage PI updates once per secondary step from the
    coordination-channel snapshot.  The weighted power reference (share of
    the measured total plus corrections) and the inner power PI run every
    control step on the fresh local power and the telemetry-channel neighbor
    power.  Powers are cable currents times the nominal bus voltage.
    """

    def __init__(self, scheme: CascadeScheme, grid: GridConfig, index: int):
        self.scheme = scheme
        self.weight = scheme.weights[index]
        self.v_nom = grid.nominal_bus_voltage
        conv = grid.converters[index]
        self.power_clamp = 2.0 * conv.rated_power
        # inner output is a voltage reference; clamp it to the voltage swing
        # that corresponds to twice rated power through the cable at DC
        self.voltage_clamp = 2.0 * conv.rated_power * conv.cable.resistance \
            / grid.nominal_bus_voltage
        self.active = False
        self.outer_integrator, self.outer_prev_error = 0.0, None
        self.inner_integrator, self.inner_prev_error = 0.0, None
        self.voltage_correction = 0.0

    def step(self, own: tuple[float, float], neighbor_fast: tuple[float, float],
             neighbor_slow: Optional[tuple[float, float]], control_dt: float,
             secondary_dt: float) -> float:
        """Voltage-reference deviation from the inner power PI; 0 until active."""
        if not self.active:
            return 0.0
        own_v, own_i = own
        own_power = self.v_nom * own_i
        if neighbor_slow is not None:
            v_err = 0.0 - 0.5 * (own_v + neighbor_slow[0])
            self.voltage_correction, self.outer_integrator = pi_step(
                self.scheme.bus_voltage_pi, self.outer_integrator,
                self.outer_prev_error, v_err, secondary_dt,
                -self.power_clamp, self.power_clamp)
            self.outer_prev_error = v_err
        ref = self.weight * (own_power + self.v_nom * neighbor_fast[1]
                             + self.voltage_correction)
        ref = min(max(ref, -self.power_clamp), self.power_clamp)
        p_err = ref - own_power
        out, self.inner_integrator = pi_step(
            self.scheme.power_pi, self.inner_integrator, self.inner_prev_error,
            p_err, control_dt, -self.voltage_clamp, self.voltage_clamp)
        self.inner_prev_error = p_err
        return out
