"""Run configuration: a single INI-style file with strict key checking.

Sections: [grid], [scheme], [tuning], [scenario], [sweep].  One table,
``_SCHEMA``, states every key once with its default and its parser; the
defaults match the bench setup, so an empty file reproduces the reference
study.  Unknown sections or keys are errors; a silent typo in a gain name
would otherwise corrupt a comparison.  Every number must be finite.  Every
object the file describes (grid, gains, tuning specs, scenario, sweep) is
built and checked at load, so a bad file exits before any output is written:
crossovers must be > 0 and margins lie in (0, 180) degrees, each scored
event needs its ITAE window inside the run and at least two plant steps
before the next scored event, and each swept loop needs a finite
characteristic polynomial at the sweep's last step where it has one at the
first.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .control import CascadeScheme, ConventionalScheme, PiGains, weights_from_ratings
from .grid import (OUTER_PLANT_MODES, CableParams, ConverterParams, GridConfig,
                   default_grid)
from .rootlocus import ImpedanceSweep, check_last_step
from .sim import LoadProfile, Scenario
from .tuning import TuningSpec


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


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _numbers(text: str) -> list[float]:
    return [_number(x) for x in text.split(",") if x.strip() != ""]


def _load_steps(text: str) -> tuple[tuple[float, float], ...]:
    pairs = [part.split(":") for part in text.split(",") if part.strip() != ""]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"expected time:power pairs, got {text.strip()!r}")
    return tuple((_number(t), _number(p)) for t, p in pairs)


def _choice(*options, fold=str.strip):
    def parse(text: str) -> str:
        value = fold(text)
        if value not in options:
            raise ValueError(f"expected {' or '.join(options)}, got {value!r}")
        return value
    return parse


# section -> key -> (default text, parser); a parser raises ValueError on bad text
_SCHEMA = {
    "grid": {
        "nominal_bus_voltage": (str(_GRID.nominal_bus_voltage), _number),
        "rated_powers": (_per_converter(lambda c: c.rated_power), _numbers),
        "cable_resistances": (_per_converter(lambda c: c.cable.resistance), _numbers),
        "cable_inductances": (_per_converter(lambda c: c.cable.inductance), _numbers),
        "voltage_loop_taus": (_per_converter(lambda c: c.voltage_loop_tau), _numbers),
    },
    "scheme": {
        "kind": ("cascade", _choice("cascade", "conventional",
                                    fold=lambda text: text.strip().lower())),
        "power_kp": (str(POWER_PI.kp), _number),
        "power_ki": (str(POWER_PI.ki), _number),
        "voltage_kp": (str(VOLTAGE_PI.kp), _number),
        "voltage_ki": (str(VOLTAGE_PI.ki), _number),
        "current_kp": (str(CONVENTIONAL_CURRENT_PI.kp), _number),
        "current_ki": (str(CONVENTIONAL_CURRENT_PI.ki), _number),
        "droop_ohm": (str(DEFAULT_DROOP), _number),
    },
    "tuning": {
        "power_crossover": ("100.0", _number),
        "power_margin": ("70.0", _number),
        "voltage_crossover": ("10.0", _number),
        "voltage_margin": ("70.0", _number),
        "outer_plant_mode": ("as-written", _choice(*OUTER_PLANT_MODES)),
    },
    "scenario": {
        "activation_time": ("5.0", _number),
        "duration": ("25.0", _number),
        "plant_dt": ("0.0001", _number),
        "control_dt": ("0.001", _number),
        "secondary_dt": ("0.02", _number),
        "load_steps": ("1.0:2000.0, 20.0:6000.0", _load_steps),
    },
    "sweep": {
        "r_min": ("0.1", _number),
        "r_max": ("2.0", _number),
        "ratio_r_over_l": ("166.66666666666666", _number),
        "steps": ("50", int),
    },
}


@dataclass(frozen=True)
class TuningSection:
    power: TuningSpec
    voltage: TuningSpec
    outer_plant_mode: str


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; every field carries its default if unset.

    The [scenario] section is the one :class:`Scenario` that
    :func:`load_config` builds and validates with the configured scheme, so
    every event time is on the control grid (within 1e-9 of a tick) and acts
    at that tick.
    """

    grid: GridConfig
    scheme_kind: str
    power_pi: PiGains
    voltage_pi: PiGains
    current_pi: PiGains
    droop_ohm: float
    tuning: TuningSection
    _scenario: Scenario
    sweep: ImpedanceSweep
    raw: dict[str, dict[str, str]] = field(repr=False, default_factory=dict)

    def scheme(self) -> CascadeScheme | ConventionalScheme:
        return self._scenario.scheme

    def scenario(self, scheme=None) -> Scenario:
        if scheme is None:
            return self._scenario
        return replace(self._scenario, scheme=scheme)


def build_scheme(kind: str, grid: GridConfig, power_pi: PiGains, voltage_pi: PiGains,
                 current_pi: PiGains, droop_ohm: float) -> CascadeScheme | ConventionalScheme:
    """The ``cascade`` scheme, weighted by the grid's ratings, or the conventional one."""
    if kind == "cascade":
        return CascadeScheme(power_pi=power_pi, bus_voltage_pi=voltage_pi,
                             weights=weights_from_ratings(grid.rated_powers))
    return ConventionalScheme(droop_resistance=droop_ohm, voltage_pi=voltage_pi,
                              current_pi=current_pi)


def _merged(path: Optional[str]) -> dict[str, dict[str, str]]:
    merged = {section: {key: default for key, (default, _) in keys.items()}
              for section, keys in _SCHEMA.items()}
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
    parsed = {}
    for section, keys in _SCHEMA.items():
        parsed[section] = {}
        for key, (_, parse) in keys.items():
            try:
                parsed[section][key] = parse(raw[section][key])
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
    g, s, t, sc, sw = parsed.values()
    per_converter = (g["rated_powers"], g["cable_resistances"],
                     g["cable_inductances"], g["voltage_loop_taus"])
    if len({len(values) for values in per_converter}) != 1:
        raise ConfigError("grid: rated_powers, cable_resistances, cable_inductances "
                          "and voltage_loop_taus must have the same length")
    # any failure here is a config error, an overflowing end_time included
    try:
        grid = GridConfig(
            converters=tuple(
                ConverterParams(rated_power=p, voltage_loop_tau=tau,
                                cable=CableParams(resistance=r, inductance=l))
                for p, r, l, tau in zip(*per_converter)),
            nominal_bus_voltage=g["nominal_bus_voltage"])
        power_pi = PiGains(s["power_kp"], s["power_ki"])
        voltage_pi = PiGains(s["voltage_kp"], s["voltage_ki"])
        current_pi = PiGains(s["current_kp"], s["current_ki"])
        scheme = build_scheme(s["kind"], grid, power_pi, voltage_pi, current_pi,
                              s["droop_ohm"])
        scenario = Scenario(grid=grid, scheme=scheme,
                            load=LoadProfile(sc.pop("load_steps")), **sc)
        cfg = RunConfig(
            grid=grid,
            scheme_kind=s["kind"],
            power_pi=power_pi,
            voltage_pi=voltage_pi,
            current_pi=current_pi,
            droop_ohm=s["droop_ohm"],
            tuning=TuningSection(
                power=TuningSpec(t["power_crossover"], t["power_margin"]),
                voltage=TuningSpec(t["voltage_crossover"], t["voltage_margin"]),
                outer_plant_mode=t["outer_plant_mode"]),
            _scenario=scenario,
            sweep=ImpedanceSweep(**sw),
            raw=raw,
        )
        scenario.scored_events()    # the scoring's bounds, checked before any output
        check_last_step(grid, power_pi, voltage_pi, cfg.sweep, t["outer_plant_mode"])
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
