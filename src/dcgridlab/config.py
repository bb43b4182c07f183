"""Run configuration: a single INI-style file with strict key checking.

Sections: [grid], [scheme], [tuning], [scenario], [sweep].  Every key has a
default matching the bench setup, so an empty file reproduces the reference
study.  Unknown sections or keys are errors; a silent typo in a gain name
would otherwise corrupt a comparison.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from typing import Optional

from .control import CascadeScheme, ConventionalScheme, PiGains, weights_from_ratings
from .grid import (OUTER_PLANT_MODES, CableParams, ConverterParams, GridConfig,
                   default_grid)
from .rootlocus import ImpedanceSweep
from .sim import DEFAULT_ITAE_WINDOW, LoadProfile, Scenario


class ConfigError(Exception):
    pass


# Canonical gains for the three comparison cases.
POWER_PI = PiGains(kp=0.001, ki=0.130)
VOLTAGE_PI = PiGains(kp=142.9, ki=563.8)
CONVENTIONAL_LOW_PI = PiGains(kp=0.2, ki=1.0)
CONVENTIONAL_HIGH_PI = PiGains(kp=1.0, ki=20.0)
CONVENTIONAL_CURRENT_PI = PiGains(kp=1.0, ki=6.0)
DEFAULT_DROOP = 0.5
_GRID = default_grid()


def _per_converter(value) -> str:
    return ", ".join(str(value(c)) for c in _GRID.converters)


_DEFAULTS: dict[str, dict[str, str]] = {
    "grid": {
        "nominal_bus_voltage": str(_GRID.nominal_bus_voltage),
        "rated_powers": _per_converter(lambda c: c.rated_power),
        "cable_resistances": _per_converter(lambda c: c.cable.resistance),
        "cable_inductances": _per_converter(lambda c: c.cable.inductance),
        "voltage_loop_taus": _per_converter(lambda c: c.voltage_loop_tau),
    },
    "scheme": {
        "kind": "cascade",                  # cascade | conventional
        "power_kp": str(POWER_PI.kp),
        "power_ki": str(POWER_PI.ki),
        "voltage_kp": str(VOLTAGE_PI.kp),
        "voltage_ki": str(VOLTAGE_PI.ki),
        "current_kp": str(CONVENTIONAL_CURRENT_PI.kp),
        "current_ki": str(CONVENTIONAL_CURRENT_PI.ki),
        "droop_ohm": str(DEFAULT_DROOP),
    },
    "tuning": {
        "power_crossover": "100.0",
        "power_margin": "70.0",
        "voltage_crossover": "10.0",
        "voltage_margin": "70.0",
        "outer_plant_mode": "as-written",   # one of grid.OUTER_PLANT_MODES
    },
    "scenario": {
        "activation_time": "5.0",
        "duration": "25.0",
        "plant_dt": "0.0001",
        "control_dt": "0.001",
        "secondary_dt": "0.02",
        "load_steps": "1.0:2000.0, 20.0:6000.0",
    },
    "sweep": {
        "r_min": "0.1",
        "r_max": "2.0",
        "ratio_r_over_l": "166.66666666666666",
        "steps": "50",
    },
}


def _floats(raw: str, name: str) -> list[float]:
    try:
        return [float(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{name}: expected comma-separated numbers, got {raw!r}") from exc


def _float(raw: str, name: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected a number, got {raw!r}") from exc


def _int(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected an integer, got {raw!r}") from exc


def _load_steps(raw: str, name: str) -> tuple[tuple[float, float], ...]:
    steps = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"{name}: expected time:power pairs, got {part!r}")
        t, p = part.split(":", 1)
        steps.append((_float(t, name), _float(p, name)))
    return tuple(steps)


@dataclass(frozen=True)
class TuningSection:
    power_crossover: float
    power_margin: float
    voltage_crossover: float
    voltage_margin: float
    outer_plant_mode: str


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; every field carries its default if unset."""

    grid: GridConfig
    scheme_kind: str
    power_pi: PiGains
    voltage_pi: PiGains
    current_pi: PiGains
    droop_ohm: float
    tuning: TuningSection
    activation_time: float
    duration: float
    plant_dt: float
    control_dt: float
    secondary_dt: float
    load_steps: tuple[tuple[float, float], ...]
    sweep: ImpedanceSweep
    raw: dict[str, dict[str, str]] = field(repr=False, default_factory=dict)

    def scheme(self) -> CascadeScheme | ConventionalScheme:
        if self.scheme_kind == "cascade":
            return CascadeScheme(power_pi=self.power_pi,
                                 bus_voltage_pi=self.voltage_pi,
                                 weights=weights_from_ratings(self.grid.rated_powers))
        return ConventionalScheme(droop_resistance=self.droop_ohm,
                                  voltage_pi=self.voltage_pi,
                                  current_pi=self.current_pi)

    def scenario(self, scheme=None) -> Scenario:
        return Scenario(
            grid=self.grid,
            scheme=self.scheme() if scheme is None else scheme,
            load=LoadProfile(self.load_steps),
            activation_time=self.activation_time,
            duration=self.duration,
            plant_dt=self.plant_dt,
            control_dt=self.control_dt,
            secondary_dt=self.secondary_dt,
        )

    def scored_events(self) -> list[float]:
        """Activation and every later load step: the events a run is scored on."""
        return [self.activation_time] + [t for t, _ in self.load_steps
                                         if t > self.activation_time]


def _merged(path: Optional[str]) -> dict[str, dict[str, str]]:
    merged = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    if path is None:
        return merged
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    for section in parser.sections():
        if section not in merged:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in merged[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            merged[section][key] = value
    return merged


def load_config(path: Optional[str] = None) -> RunConfig:
    """Parse and validate a config file; ``None`` yields the built-in defaults."""
    raw = _merged(path)

    g = raw["grid"]
    ratings = _floats(g["rated_powers"], "grid.rated_powers")
    resistances = _floats(g["cable_resistances"], "grid.cable_resistances")
    inductances = _floats(g["cable_inductances"], "grid.cable_inductances")
    taus = _floats(g["voltage_loop_taus"], "grid.voltage_loop_taus")
    if not (len(ratings) == len(resistances) == len(inductances) == len(taus)):
        raise ConfigError("grid: rated_powers, cable_resistances, cable_inductances "
                          "and voltage_loop_taus must have the same length")
    try:
        converters = tuple(
            ConverterParams(rated_power=p, voltage_loop_tau=tau,
                            cable=CableParams(resistance=r, inductance=l))
            for p, r, l, tau in zip(ratings, resistances, inductances, taus))
        grid = GridConfig(
            converters=converters,
            nominal_bus_voltage=_float(g["nominal_bus_voltage"], "grid.nominal_bus_voltage"),
        )
    except Exception as exc:
        raise ConfigError(f"grid: {exc}") from exc

    s = raw["scheme"]
    kind = s["kind"].strip().lower()
    if kind not in ("cascade", "conventional"):
        raise ConfigError(f"scheme.kind: expected cascade or conventional, got {kind!r}")

    t = raw["tuning"]
    mode = t["outer_plant_mode"].strip()
    if mode not in OUTER_PLANT_MODES:
        raise ConfigError(f"tuning.outer_plant_mode: expected "
                          f"{' or '.join(OUTER_PLANT_MODES)}, got {mode!r}")
    tuning = TuningSection(
        power_crossover=_float(t["power_crossover"], "tuning.power_crossover"),
        power_margin=_float(t["power_margin"], "tuning.power_margin"),
        voltage_crossover=_float(t["voltage_crossover"], "tuning.voltage_crossover"),
        voltage_margin=_float(t["voltage_margin"], "tuning.voltage_margin"),
        outer_plant_mode=mode,
    )

    sc = raw["scenario"]
    sw = raw["sweep"]
    try:
        sweep = ImpedanceSweep(
            r_min=_float(sw["r_min"], "sweep.r_min"),
            r_max=_float(sw["r_max"], "sweep.r_max"),
            ratio_r_over_l=_float(sw["ratio_r_over_l"], "sweep.ratio_r_over_l"),
            steps=_int(sw["steps"], "sweep.steps"),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"sweep: {exc}") from exc

    try:
        cfg = RunConfig(
            grid=grid,
            scheme_kind=kind,
            power_pi=PiGains(_float(s["power_kp"], "scheme.power_kp"),
                             _float(s["power_ki"], "scheme.power_ki")),
            voltage_pi=PiGains(_float(s["voltage_kp"], "scheme.voltage_kp"),
                               _float(s["voltage_ki"], "scheme.voltage_ki")),
            current_pi=PiGains(_float(s["current_kp"], "scheme.current_kp"),
                               _float(s["current_ki"], "scheme.current_ki")),
            droop_ohm=_float(s["droop_ohm"], "scheme.droop_ohm"),
            tuning=tuning,
            activation_time=_float(sc["activation_time"], "scenario.activation_time"),
            duration=_float(sc["duration"], "scenario.duration"),
            plant_dt=_float(sc["plant_dt"], "scenario.plant_dt"),
            control_dt=_float(sc["control_dt"], "scenario.control_dt"),
            secondary_dt=_float(sc["secondary_dt"], "scenario.secondary_dt"),
            load_steps=_load_steps(sc["load_steps"], "scenario.load_steps"),
            sweep=sweep,
            raw=raw,
        )
        end = cfg.scenario().end_time  # validates the timing relations eagerly
        # the scoring's own bound (sim._window_slice), checked before any output
        for i, t0 in enumerate(cfg.scored_events()):
            if t0 + DEFAULT_ITAE_WINDOW > end + 1e-12:
                event = "scenario.activation_time" if i == 0 else "load step at"
                raise ConfigError(
                    f"{event} {t0!r} s: its ITAE window [{t0:g}, "
                    f"{t0 + DEFAULT_ITAE_WINDOW:g}] s ends after "
                    f"scenario.duration {cfg.duration!r} s")
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Echo the effective configuration as INI text; reloading it reproduces the run."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, kv in cfg.raw.items():
        parser[section] = dict(kv)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
