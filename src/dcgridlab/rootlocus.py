"""Closed-loop pole trajectories under cable-impedance variation.

The first converter's cable resistance sweeps over a range with a fixed R/L
ratio (so the inductance scales along); controller gains stay at their
nominal design.  Each sweep builds its loop once, through the same ``grid``
and ``lti`` functions as a single grid, on a cable whose resistance and
inductance hold one value per step; ``tf_feedback`` closes it through unity
feedback, and its characteristic polynomial gives one row per step, with each
step's scalar bits.  One ``poles`` call then finds every step's closed-loop
poles in one stacked eigenvalue solve per degree, and stability is
classified.  A sweep stays in arrays from the characteristic polynomial to
the CSV: a :class:`LocusResult` holds each step's cable, its poles and their
count, which varies where the cables' L/R is equal at some steps only, and
builds per-step objects only when a caller asks for ``steps``.  Pole
trajectories are matched step to step by the assignment of least total
distance so they can be plotted as continuous branches: every step's
assignments are scored at once, each step takes the first of least cost in
permutation order, with poles in ``eigvals`` order, and the branch orders are
composed from these step-to-step moves in array passes.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .control import PiGains
from .grid import (CableParams, GridConfig, GridModelError, pi_tf, power_plant_tf,
                   voltage_loop_plant_tf)
from .lti import LtiError, poles, tf, tf_feedback, tf_series


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
        if self.steps * 8 > np.iinfo(np.intp).max:    # numpy indexes arrays in bytes
            raise SweepError(f"steps {self.steps!r}: numpy indexes at most "
                             f"{np.iinfo(np.intp).max // 8} float64 entries")
        # every step's cable lies between these two, the ends resistances() gives
        with np.errstate(over="ignore"):    # an end that overflows is inf, rejected below
            ends = np.power(10.0, [math.log10(self.r_min), math.log10(self.r_max)])
        for name, r in zip(("r_min", "r_max"), ends.tolist()):
            try:
                CableParams(resistance=r, inductance=r / self.ratio_r_over_l)
            except GridModelError as exc:
                raise SweepError(f"the swept cable at r = {r!r} ohm ({name}): {exc}") from exc

    def resistances(self) -> np.ndarray:
        return np.logspace(math.log10(self.r_min), math.log10(self.r_max), self.steps)


# one step of a LocusResult, as its ``steps`` builds it on first use: ohm,
# henry, the step's poles as a tuple of complex and their stability verdict
LocusStep = namedtuple("LocusStep", "resistance inductance poles stable")


@dataclass(frozen=True, eq=False)
class LocusResult:
    """A sweep as per-step arrays: step k's cable, ``resistance[k]`` and
    ``inductance[k]``, and its ``counts[k]`` poles ``poles[k, :counts[k]]`` in
    ``eigvals`` order, then 0j up to the most poles of any step."""

    resistance: np.ndarray    # (steps,) ohm
    inductance: np.ndarray    # (steps,) henry
    poles: np.ndarray         # (steps, most poles) complex
    counts: np.ndarray        # (steps,) int

    @cached_property
    def stable(self) -> np.ndarray:
        """Per step: all its poles in the open left half plane, which the 0j
        padding never is."""
        return (self.poles.real < 0).sum(axis=1) == self.counts

    @cached_property
    def steps(self) -> tuple[LocusStep, ...]:
        """The steps as objects, built on first use."""
        poles = (tuple(ps[:n]) for ps, n in zip(self.poles, self.counts.tolist()))
        return tuple(map(LocusStep, self.resistance.tolist(), self.inductance.tolist(),
                         poles, self.stable.tolist()))

    @property
    def all_stable(self) -> bool:
        return bool(self.stable.all())

    @property
    def terminal_dominant_pole(self) -> complex:
        return max(self.poles[-1, :self.counts[-1]], key=lambda p: p.real)

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
        """Each step's poles matched to the previous step's by the assignment of
        least total distance, every step scored at once: with poles in
        ``eigvals`` order, an assignment's cost does not depend on how the
        branches were ordered before.  Each step takes the first assignment of
        least cost in permutation order, and a step whose costs are all NaN
        (only a hand-built result has NaN poles) keeps each branch's index.
        Each step's branch order is the composition of the moves before it,
        taken in log2(steps) array passes."""
        raw, n = self.poles, self.poles.shape[1]
        if (self.counts != n).any():
            raise SweepError("pole count changes along the sweep; cannot pair")
        # dist[k - 1, i, j]: from pole i of step k - 1 to pole j of step k
        dist = np.abs(raw[:-1, :, None] - raw[1:, None])
        # every assignment is scored: n! is 120 for the largest loop here (5
        # poles).  best holds each step's least cost, pick the first
        # assignment of that cost
        best, pick = np.full(len(dist), np.inf), np.zeros(len(dist), dtype=int)
        assignments = np.array(list(itertools.permutations(range(n))), dtype=int)
        for t, perm in enumerate(assignments.tolist()):
            cost = sum((dist[:, i, j] for i, j in enumerate(perm)), np.zeros(len(dist)))
            pick[cost < best] = t
            np.minimum(best, cost, out=best)
        # order[k][b], the step-k pole on branch b: where the picked moves take
        # step 0's pole b by step k, composed by doubling: after the pass of
        # width w, order[k] composes the moves of steps k - 2w .. k - 1
        # (flat[n k + b] is order[k][b])
        order = np.concatenate([np.arange(n)[None], assignments[pick]])
        flat, firsts, w = order.reshape(-1), np.arange(0, order.size, n)[:, None], 1
        while w < len(order):
            order[w:] = flat[firsts[w:] + order[:-w]]
            w *= 2
        steps = np.arange(len(dist))[:, None]
        rows, cols = order[:-1], order[1:]
        assigned = dist[steps, rows, cols]
        dist[steps, rows, cols] = np.inf
        # the nearest pole of the next step, one np.minimum per pole, as numpy
        # reduces along a short last axis about ten times slower
        nearest = functools.reduce(np.minimum, np.moveaxis(dist, 2, 0))
        unclear = nearest[steps, rows] < 2.0 * assigned
        paths = np.take_along_axis(raw, order, axis=1)
        paths.flags.writeable = False
        return paths, tuple((int(k) + 1, int(b)) for k, b in zip(*np.nonzero(unclear)))


def _characteristic_rows(grid: GridConfig, rs: np.ndarray, ls: np.ndarray,
                         build_loop) -> np.ndarray:
    """Ascending closed-loop characteristic polynomial coefficients, a row
    per step, of the loop ``build_loop`` makes of one grid whose first cable
    holds every step's resistance ``rs`` and inductance ``ls``."""
    # the constructors check every step's cable
    conv = replace(grid.converters[0], cable=CableParams(rs, ls))
    with np.errstate(over="ignore", invalid="ignore"):    # as quiet as Python floats
        loop = build_loop(GridConfig((conv,) + grid.converters[1:], grid.nominal_bus_voltage))
        char = tf_feedback(loop, tf([1.0], [1.0])).den
    return np.stack([np.broadcast_to(c, rs.shape) for c in char.coeffs], axis=1)


def _locus(grid: GridConfig, sweep: ImpedanceSweep, build_loop) -> LocusResult:
    try:    # every statement here allocates per-step arrays
        rs = sweep.resistances()
        ls = rs / sweep.ratio_r_over_l
        chars = _characteristic_rows(grid, rs, ls, build_loop)
        bad = np.flatnonzero(~np.isfinite(chars).all(axis=1))
        if bad.size:    # an overflowed loop; eigvals would reject it without naming a step
            raise LtiError(f"sweep step {bad[0]} at r = {rs[bad[0]]:g} ohm: closed-loop "
                           f"characteristic polynomial {chars[bad[0]].tolist()} is not finite")
        return LocusResult(rs, ls, *poles(chars))
    except MemoryError as exc:
        raise LtiError(f"sweep steps {sweep.steps!r}: the per-step arrays do not "
                       f"fit in memory: {exc}") from exc


def _power_loop(gains: PiGains):
    """Builds converter 0's open power loop on a grid."""
    return lambda g: tf_series(pi_tf(gains), power_plant_tf(g, 0))


def _voltage_loop(power_gains: PiGains, voltage_gains: PiGains, mode: str):
    """Builds converter 0's open bus-voltage loop on a grid."""
    return lambda g: tf_series(pi_tf(voltage_gains),
                               voltage_loop_plant_tf(g, 0, power_gains, mode=mode))


def sweep_power_loop(grid: GridConfig, gains: PiGains,
                     sweep: ImpedanceSweep) -> LocusResult:
    """Closed power-loop poles of converter 0 as its cable impedance grows."""
    return _locus(grid, sweep, _power_loop(gains))


def sweep_voltage_loop(grid: GridConfig, power_gains: PiGains,
                       voltage_gains: PiGains, sweep: ImpedanceSweep,
                       mode: str = "as-written") -> LocusResult:
    """Closed bus-voltage-loop poles of converter 0 along the same sweep."""
    return _locus(grid, sweep, _voltage_loop(power_gains, voltage_gains, mode))


@functools.lru_cache(maxsize=8)
def check_last_step(grid: GridConfig, power_gains: PiGains, voltage_gains: PiGains,
                    sweep: ImpedanceSweep, mode: str) -> None:
    """Raise :class:`SweepError`, naming ``r_max``, where a loop's closed-loop
    characteristic polynomial, as the sweep computes it, is finite at the
    sweep's first step but not at its last.  (A loop that overflows at both
    ends does so for its gains, which the sweep reports with its step.)
    Memoized: building the loops takes about 1 ms, and a caller may load one
    configuration several times."""
    rs = replace(sweep, steps=2).resistances()    # the sweep's first and last steps
    for name, build in (("power", _power_loop(power_gains)),
                        ("voltage", _voltage_loop(power_gains, voltage_gains, mode))):
        first, last = _characteristic_rows(grid, rs, rs / sweep.ratio_r_over_l, build).tolist()
        if all(map(math.isfinite, first)) and not all(map(math.isfinite, last)):
            raise SweepError(
                f"[sweep] r_max {sweep.r_max!r}: at the last step, r = {rs[1]:g} ohm, "
                f"the {name} loop's closed-loop characteristic polynomial {last} "
                f"is not finite")


def max_resistance_bound(grid: GridConfig) -> float:
    """Largest sensible cable resistance: the 5 % end-to-end regulation drop
    allowed on the nominal bus at a 10 A rated current,
    R_max = 0.05 * V_nominal / 10 A (2 ohm on the 400 V bench bus)."""
    return 0.05 * grid.nominal_bus_voltage / 10.0
