"""Small-signal model of a two-source DC microgrid.

Two converter-interfaced sources feed a common bus through resistive-inductive
cables.  Each converter's closed voltage loop is abstracted to a first-order
lag.  Around an operating point, the bus voltage deviation splits by
superposition into a source-voltage part (an impedance divider) and a
load-change part; power exchanged by each source follows from the cable
impedance.  These relations supply the open-loop plants used for controller
design.  A cable's resistance and inductance may each hold one value per step
of a sweep, as 1-D arrays (see ``lti.Polynomial``); every check and relation
then acts on all steps at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lti import Polynomial, TransferFunction, tf, tf_feedback, tf_series


class GridModelError(Exception):
    """Invalid grid description or unsupported topology."""


def _positive(value) -> bool:
    """value > 0, at every step of a per-step array; NaN is not positive."""
    return bool(np.all(value > 0))


def _check_time_scale(name: str, value) -> None:
    # the models divide by it: the poles -1/tau and -R/L, the plant matrices.
    # A zero or subnormal's reciprocal is inf here, with no numpy warning
    with np.errstate(divide="ignore", over="ignore"):
        ok = (value > 0) & np.isfinite(value) & np.isfinite(np.divide(1.0, value))
    if not np.all(ok):
        bad = value if np.ndim(value) == 0 else value[np.argmin(ok)].item()    # first bad step
        raise GridModelError(f"{name} {bad!r} must be positive, finite "
                             f"and have a finite reciprocal")


@dataclass(frozen=True)
class CableParams:
    """Series cable impedance R + L*s."""

    resistance: float  # ohm
    inductance: float  # henry

    def __post_init__(self):
        if not _positive(self.resistance):
            raise GridModelError("cable resistance must be positive")
        _check_time_scale("cable inductance", self.inductance)

    def impedance(self) -> Polynomial:
        return Polynomial([self.resistance, self.inductance])


@dataclass(frozen=True)
class ConverterParams:
    """One source: power rating, closed voltage-loop lag, and its cable."""

    rated_power: float      # watt
    voltage_loop_tau: float  # second
    cable: CableParams

    def __post_init__(self):
        if not _positive(self.rated_power):
            raise GridModelError("rated power must be positive")
        _check_time_scale("voltage loop time constant", self.voltage_loop_tau)


@dataclass(frozen=True)
class GridConfig:
    """The microgrid: two ordered converters plus nominal bus voltage.

    Every relation in the package (divider, superposition, the simulated
    plant, neighbor exchange) is two-source algebra, so the topology is
    checked here once.
    """

    converters: tuple[ConverterParams, ...]
    nominal_bus_voltage: float    # volt

    def __post_init__(self):
        if not _positive(self.nominal_bus_voltage):
            raise GridModelError("nominal bus voltage must be positive")
        if len(self.converters) != 2:
            raise GridModelError(
                f"exactly 2 converters are required, got {len(self.converters)}")
        # the sharing weights divide each rating by the sum
        total = sum(self.rated_powers)
        if not np.isfinite(total):
            raise GridModelError(f"rated_powers {list(self.rated_powers)} must have a finite sum")
        if not all(p / total > 0.0 for p in self.rated_powers):
            raise GridModelError(f"rated_powers {list(self.rated_powers)} must each be a "
                                 f"positive share of their sum")

    @property
    def rated_powers(self) -> tuple[float, ...]:
        return tuple(c.rated_power for c in self.converters)


# Bench defaults: 400 V bus, 4 kW + 2 kW converters, 0.5 ohm / 3 mH cables,
# 5 ms converter voltage loops.
def default_grid() -> GridConfig:
    cable = CableParams(resistance=0.5, inductance=3e-3)
    return GridConfig(
        converters=(
            ConverterParams(rated_power=4000.0, voltage_loop_tau=0.005, cable=cable),
            ConverterParams(rated_power=2000.0, voltage_loop_tau=0.005, cable=cable),
        ),
        nominal_bus_voltage=400.0,
    )


def check_converter_index(grid: GridConfig, i: int) -> None:
    if not 0 <= i < len(grid.converters):
        raise GridModelError(f"converter index {i} out of range")


def converter_voltage_tf(conv: ConverterParams) -> TransferFunction:
    """Closed voltage loop of one converter, reduced to 1/(1 + tau*s)."""
    return tf([1.0], [1.0, conv.voltage_loop_tau])


def cable_admittance_tf(grid: GridConfig, conv: ConverterParams) -> TransferFunction:
    """Power per volt across a cable at the nominal bus voltage: V/(R + L*s)."""
    return tf([grid.nominal_bus_voltage],
              [conv.cable.resistance, conv.cable.inductance])


def pi_tf(gains) -> TransferFunction:
    """PI controller kp + ki/s as a transfer function (pure gain when ki = 0)."""
    if gains.ki == 0.0:
        return tf([gains.kp], [1.0])
    return tf([gains.ki, gains.kp], [0.0, 1.0])


def power_plant_tf(grid: GridConfig, i: int) -> TransferFunction:
    """Open-loop power plant of converter i against a stiff bus.

    Output power deviation per unit of voltage-reference deviation:
    Gv_i(s) * Vg_nominal / (R_i + L_i*s).
    """
    check_converter_index(grid, i)
    conv = grid.converters[i]
    return tf_series(converter_voltage_tf(conv), cable_admittance_tf(grid, conv))


def _same_time_constant(l1, r2, l2, r1) -> bool:
    """L1/R1 == L2/R2 within 1e-9, as exact products L1*R2 and L2*R1: no ratio
    turns inf for a tiny R, and no product underflows to 0."""
    # each float is an integer ratio n/d; x and y are both products over one
    # common denominator
    (l1, dl1), (r2, dr2), (l2, dl2), (r1, dr1) = (v.as_integer_ratio() for v in (l1, r2, l2, r1))
    x, y = l1 * r2 * dl2 * dr1, l2 * r1 * dl1 * dr2
    tol, tol_den = (1e-9).as_integer_ratio()
    return abs(x - y) * tol_den <= tol * max(x, y)


def _same_time_constants(l1, r2, l2, r1) -> np.ndarray:
    """``_same_time_constant`` at every step, as arrays.  With each float
    written m * 2**e, m in [1/2, 1), L1*R2 and L2*R1 over their common power
    of two are products of mantissas, in [1/4, 1), each rounded once, one of
    them shifted by at most 64 bits (further is far from equal).  The float64
    test of the 1e-9 band then errs by less than 2**-48 of the larger
    product, so only a step within that of the band's edge, or one that is
    not finite, takes the exact rule."""
    l1, r2, l2, r1 = np.broadcast_arrays(l1, r2, l2, r1)    # 0-d for one cable
    (a, ea), (b, eb), (c, ec), (d, ed) = (np.frexp(v) for v in (l1, r2, l2, r1))
    x, y = np.ldexp(a * b, np.clip(ea + eb - ec - ed, -64, 64)), c * d
    gap, edge = np.abs(x - y) - 1e-9 * np.maximum(x, y), 2.0 ** -48 * np.maximum(x, y)
    equal = np.array(gap < 0.0)
    for k in np.flatnonzero(~(np.abs(gap) > edge)):
        equal.flat[k] = _same_time_constant(*(float(v.flat[k]) for v in (l1, r2, l2, r1)))
    return equal


def bus_voltage_source_weights(grid: GridConfig) -> tuple[TransferFunction, TransferFunction]:
    """Impedance-divider weights mapping source-voltage deviations to the bus.

    dVg = W1(s)*dV1 + W2(s)*dV2 with W1 = Z2/(Z1+Z2) and W2 = Z1/(Z1+Z2);
    the weights sum to one at every frequency.  When both cables have the
    same time constant L/R, numerator and denominator share the factor
    (1 + s*L/R), cancelled here, and the weights are the constants
    R2/(R1+R2) and R1/(R1+R2).  Per-step cables are decided at every step
    at once (``_same_time_constants``): each step with equal L/R gets its
    constant weight w in the divider's form, as w/1 padded with s-terms 0.0,
    which ``Polynomial`` trims when every step (or the one scalar cable) has
    equal L/R.
    """
    c1, c2 = (c.cable for c in grid.converters)
    equal = _same_time_constants(c1.inductance, c2.resistance, c2.inductance, c1.resistance)
    rsum = c1.resistance + c2.resistance
    w1, w2 = c2.resistance / rsum, c1.resistance / rsum
    z1, z2 = c1.impedance(), c2.impedance()

    def padded(const, poly):
        return Polynomial([np.where(equal, k, c) for k, c in zip(const, poly.coeffs)])
    z2, z1, zsum = padded((w1, 0.0), z2), padded((w2, 0.0), z1), padded((1.0, 0.0), z1 + z2)
    return (TransferFunction(z2, zsum), TransferFunction(z1, zsum))


def bus_voltage_load_response(grid: GridConfig) -> TransferFunction:
    """Bus-voltage deviation per watt of load-power increase (negative at DC).

    dVg/dP = -(1/Vg_nominal) * Z1*Z2 / (Z1 + Z2).
    """
    z1 = grid.converters[0].cable.impedance()
    z2 = grid.converters[1].cable.impedance()
    num = (z1 * z2).scaled(-1.0 / grid.nominal_bus_voltage)
    return TransferFunction(num, z1 + z2)


@dataclass(frozen=True)
class BusVoltageModel:
    """Three-input linear block for the bus voltage deviation.

    dVg = source_weights[0]*dV1 + source_weights[1]*dV2 + load_response*dP.
    """

    source_weights: tuple[TransferFunction, TransferFunction]
    load_response: TransferFunction

    def response(self, s: complex, dv1: complex, dv2: complex, dp: complex) -> complex:
        w1, w2 = self.source_weights
        return w1(s) * dv1 + w2(s) * dv2 + self.load_response(s) * dp


def total_bus_voltage(grid: GridConfig) -> BusVoltageModel:
    """Superposition of the source-divider and load-change contributions."""
    return BusVoltageModel(bus_voltage_source_weights(grid),
                           bus_voltage_load_response(grid))


OUTER_PLANT_MODES = ("as-written", "closed-inner")


def voltage_loop_plant_tf(grid: GridConfig, i: int, power_pi,
                          mode: str = "as-written") -> TransferFunction:
    """Open-loop plant of the bus-voltage (outer) loop for converter i.

    The outer loop commands a power-reference change; acting alone, converter
    i moves the bus through its power PI, its voltage loop, and the impedance
    divider against the other cable:

    - ``as-written``: C_P(s) * Gv_i(s) * Z_j/(Z_i+Z_j), the decentralized
      view with the inner power feedback left open.  This mode is the default
      and the one the shipped gains are designed against.
    - ``closed-inner``: the same path with the inner power loop closed before
      the divider, C_P*Gv_i/(1 + C_P*G_power,i) * Z_j/(Z_i+Z_j).

    The divider is ``bus_voltage_source_weights(grid)[i]``: the constant
    R_j/(R_i+R_j) when both cables have the same L/R, so the plant then has
    no cable pole in the as-written mode and one (from the inner loop) in
    the closed-inner mode.
    """
    check_converter_index(grid, i)
    if mode not in OUTER_PLANT_MODES:
        raise GridModelError(f"unknown outer-plant mode {mode!r}; pick one of {OUTER_PLANT_MODES}")
    conv = grid.converters[i]
    divider = bus_voltage_source_weights(grid)[i]
    forward = tf_series(pi_tf(power_pi), converter_voltage_tf(conv))
    if mode == "as-written":
        return tf_series(forward, divider)
    # closed-inner: wrap the power feedback around C_P*Gv before the divider
    inner = tf_feedback(forward, cable_admittance_tf(grid, conv))
    return tf_series(inner, divider)
