"""Frequency-domain PI synthesis.

Given a plant, a target gain-crossover frequency, and a target phase margin,
the unique PI controller satisfying both constraints places the loop response
at exactly 1 angle (margin - 180 deg) at the crossover.  A PI can only add
phase in (-90, 0] degrees, so specs demanding phase lift are rejected rather
than approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .control import PiGains
from .grid import pi_tf
from .lti import (NoCrossoverError, TransferFunction, analytic_phase,
                  gain_crossover, tf_series)


class InfeasibleDesignError(Exception):
    """The requested spec is outside what a PI can deliver on this plant."""


@dataclass(frozen=True)
class TuningSpec:
    crossover_omega: float  # rad/s
    phase_margin: float     # degrees

    def __post_init__(self):
        if self.crossover_omega <= 0:
            raise ValueError(f"crossover {self.crossover_omega!r} rad/s is not positive")
        if not 0 < self.phase_margin < 180:
            raise ValueError(f"phase margin {self.phase_margin!r} deg is outside (0, 180)")


@dataclass(frozen=True)
class DesignReport:
    """A PI design verified against its spec: the gains, the open loop C*G
    they make with the plant, and that loop's crossover and phase margin
    (None, with the reason, when it has no 0 dB crossing)."""

    ok: bool
    gains: PiGains
    loop: TransferFunction
    crossover: Optional[float]
    margin: Optional[float]
    crossover_delta: Optional[float]
    reason: str = ""


def design_pi(plant: TransferFunction, spec: TuningSpec) -> DesignReport:
    """Solve C(jwc)*G(jwc) = 1 at angle (margin - 180 deg) for C = kp + ki/s.

    The required controller phase theta must lie in (-90, 0] degrees; then
    |C| = 1/|G(jwc)|, kp = |C| cos(theta), ki = -wc |C| sin(theta).  The
    design is rejected when a gain overflows, or when the loop's lowest 0 dB
    crossing is not wc (|C*G| may touch 1 at wc from below and cross it lower
    down).  Returns the
    verified loop's report.
    """
    wc = spec.crossover_omega
    g = plant(1j * wc)
    if not (math.isfinite(abs(g)) and abs(g) > 0):
        raise InfeasibleDesignError(
            f"plant response at {wc:g} rad/s is zero or singular")
    g_phase = math.degrees(analytic_phase(plant, wc))
    theta = (-180.0 + spec.phase_margin) - g_phase
    lo, hi = 90.0 + g_phase, 180.0 + g_phase
    if not -90.0 < theta <= 0.0:
        raise InfeasibleDesignError(
            f"requested margin {spec.phase_margin:g} deg needs controller phase "
            f"{theta:.2f} deg, outside the PI range (-90, 0]; achievable margins "
            f"on this plant are ({lo:.2f}, {hi:.2f}] deg")
    mag = 1.0 / abs(g)
    th = math.radians(theta)
    kp, ki = mag * math.cos(th), -wc * mag * math.sin(th)
    if not (math.isfinite(kp) and math.isfinite(ki)):
        raise InfeasibleDesignError(
            f"the PI gains for a {wc:g} rad/s crossover overflow: kp = {kp:g}, ki = {ki:g}")
    gains = PiGains(kp=kp, ki=ki)
    report = verify_design(plant, gains, spec)
    if not report.ok:
        raise InfeasibleDesignError(f"designed loop: {report.reason}")
    if abs(report.crossover_delta) > 1e-6 * wc:
        raise InfeasibleDesignError(
            f"designed loop first crosses 0 dB at {report.crossover:.6g} rad/s, "
            f"not at the requested {wc:g} rad/s")
    return report


def verify_design(plant: TransferFunction, gains: PiGains,
                  spec: TuningSpec) -> DesignReport:
    """Recompute crossover and margin of C*G and report the crossover's delta
    against the spec."""
    loop = tf_series(pi_tf(gains), plant)
    try:
        wc = gain_crossover(loop)
    except NoCrossoverError as exc:
        return DesignReport(ok=False, gains=gains, loop=loop, crossover=None,
                            margin=None, crossover_delta=None, reason=str(exc))
    pm = 180.0 + math.degrees(analytic_phase(loop, wc))   # phase margin
    return DesignReport(ok=True, gains=gains, loop=loop, crossover=wc, margin=pm,
                        crossover_delta=wc - spec.crossover_omega)
