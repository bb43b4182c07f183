"""Closed-loop pole trajectories under cable-impedance variation.

The first converter's cable resistance sweeps over a range with a fixed R/L
ratio (so the inductance scales along); controller gains stay at their
nominal design.  For each step the loop is rebuilt, its closed-loop poles are
extracted, and stability is classified.  Pole trajectories are matched step
to step by the assignment of least total distance so they can be plotted as
continuous branches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .control import PiGains
from .grid import (CableParams, GridConfig, pi_tf, power_plant_tf,
                   voltage_loop_plant_tf)
from .lti import poles, tf_constant, tf_feedback, tf_series


class SweepError(Exception):
    pass


@dataclass(frozen=True)
class ImpedanceSweep:
    """Log-spaced resistance sweep with R/L held constant."""

    r_min: float             # ohm
    r_max: float             # ohm
    ratio_r_over_l: float    # ohm per henry
    steps: int

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise SweepError("need 0 < r_min < r_max")
        if self.ratio_r_over_l <= 0:
            raise SweepError("R/L ratio must be positive")
        if self.steps < 2:
            raise SweepError("a sweep needs at least 2 steps")

    def resistances(self) -> np.ndarray:
        return np.logspace(math.log10(self.r_min), math.log10(self.r_max), self.steps)


@dataclass(frozen=True)
class LocusStep:
    resistance: float
    inductance: float
    poles: tuple[complex, ...]
    stable: bool


@dataclass(frozen=True)
class LocusResult:
    steps: tuple[LocusStep, ...]

    @property
    def all_stable(self) -> bool:
        return all(s.stable for s in self.steps)

    @property
    def terminal_dominant_pole(self) -> complex:
        return max(self.steps[-1].poles, key=lambda p: p.real)

    def trajectories(self) -> np.ndarray:
        """Pole paths as a read-only (n_steps, n_poles) array, matched step to step."""
        return self._pairing[0]

    def pairing_ambiguities(self) -> list[tuple[int, int]]:
        """(step, branch) points where the pairing was unclear.

        Flags a branch when another candidate lies within twice the distance
        to the one assigned to it, which happens when trajectories cross.
        """
        return list(self._pairing[1])

    @cached_property
    def _pairing(self) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
        n = len(self.steps[0].poles)
        if any(len(s.poles) != n for s in self.steps):
            raise SweepError("pole count changes along the sweep; cannot pair")
        # Every assignment is scored: n! is 120 for the largest loop here (5
        # poles).  scipy.optimize.linear_sum_assignment gives the same optimum
        # (the tests use it as the oracle), but the package imports no scipy.
        assignments = np.array(list(itertools.permutations(range(n))), dtype=int)
        branch = np.arange(n)
        paths = np.empty((len(self.steps), n), dtype=complex)
        paths[0] = self.steps[0].poles
        flags = []
        for k, step in enumerate(self.steps[1:], start=1):
            candidates = np.array(step.poles, dtype=complex)
            dist = np.abs(paths[k - 1][:, None] - candidates[None, :])
            chosen = assignments[np.argmin(dist[branch, assignments].sum(axis=1))]
            paths[k] = candidates[chosen]
            assigned = dist[branch, chosen]
            dist[branch, chosen] = np.inf
            unclear = np.nonzero(dist.min(axis=1) < 2.0 * assigned)[0]
            flags += [(k, int(j)) for j in unclear]
        paths.flags.writeable = False
        return paths, tuple(flags)


def _grid_with_first_cable(grid: GridConfig, r: float, l: float) -> GridConfig:
    conv0 = replace(grid.converters[0], cable=CableParams(resistance=r, inductance=l))
    return replace(grid, converters=(conv0,) + grid.converters[1:])


def _locus(grid: GridConfig, sweep: ImpedanceSweep, build_loop) -> LocusResult:
    steps = []
    for r in sweep.resistances():
        l = r / sweep.ratio_r_over_l
        loop = build_loop(_grid_with_first_cable(grid, float(r), float(l)))
        closed = tf_feedback(loop, tf_constant(1.0))
        ps = tuple(poles(closed))
        stable = all(p.real < 0 for p in ps)
        steps.append(LocusStep(resistance=float(r), inductance=float(l),
                               poles=ps, stable=stable))
    return LocusResult(steps=tuple(steps))


def sweep_power_loop(grid: GridConfig, gains: PiGains,
                     sweep: ImpedanceSweep) -> LocusResult:
    """Closed power-loop poles of converter 0 as its cable impedance grows."""
    def build(g: GridConfig):
        return tf_series(pi_tf(gains), power_plant_tf(g, 0))
    return _locus(grid, sweep, build)


def sweep_voltage_loop(grid: GridConfig, power_gains: PiGains,
                       voltage_gains: PiGains, sweep: ImpedanceSweep,
                       mode: str = "as-written") -> LocusResult:
    """Closed bus-voltage-loop poles of converter 0 along the same sweep."""
    def build(g: GridConfig):
        plant = voltage_loop_plant_tf(g, 0, power_gains, mode=mode)
        return tf_series(pi_tf(voltage_gains), plant)
    return _locus(grid, sweep, build)


def max_resistance_bound(grid: GridConfig, regulation_ratio: float = 0.05,
                         rated_current: float = 10.0) -> float:
    """Largest sensible cable resistance: allowed end-to-end regulation drop
    divided by the rated current, R_max = ratio * V_nominal / I_rated."""
    if regulation_ratio < 0 or rated_current <= 0:
        raise SweepError("need regulation_ratio >= 0 and rated_current > 0")
    return regulation_ratio * grid.nominal_bus_voltage / rated_current
