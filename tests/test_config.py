"""Config parsing: defaults, strict keys, typing, echo round-trip."""

import dataclasses
import hashlib

import pytest

from dcgridlab.config import ConfigError, load_config, render_config


def write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestDefaults:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg.grid.nominal_bus_voltage == 400.0
        assert cfg.grid.rated_powers == (4000.0, 2000.0)
        assert cfg.scheme_kind == "cascade"
        assert cfg.power_pi.kp == pytest.approx(0.001)
        assert cfg.voltage_pi.ki == pytest.approx(563.8)
        assert cfg.scenario().load.steps == ((1.0, 2000.0), (20.0, 6000.0))
        assert cfg.sweep.steps == 50

    def test_empty_file_equals_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert render_config(cfg) == render_config(load_config(None))

    def test_rendered_defaults_pinned(self):
        # the [grid] strings are derived from grid.default_grid(); this is
        # the hash every bench-default output's manifest carries
        text = render_config(load_config(None)).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == (
            "23eed1add6b92e89ef95d3c53ef162bdea3b7d3929ecb91827853ba03b80b4e1")


class TestStrictness:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[plotting\]"):
            load_config(write(tmp_path, "[plotting]\nx = 1\n"))

    def test_unknown_key_has_field_path(self, tmp_path):
        with pytest.raises(ConfigError, match="scheme.volt_kp"):
            load_config(write(tmp_path, "[scheme]\nvolt_kp = 1\n"))

    def test_removed_demand_key(self, tmp_path):
        # an echoed config_effective.ini from before the key was removed
        with pytest.raises(ConfigError, match="unknown key scenario.demand"):
            load_config(write(tmp_path, "[scenario]\ndemand = 0.0\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.nominal_bus_voltage"):
            load_config(write(tmp_path, "[grid]\nnominal_bus_voltage = lots\n"))

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="scheme.kind"):
            load_config(write(tmp_path, "[scheme]\nkind = tertiary\n"))

    def test_bad_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="outer_plant_mode"):
            load_config(write(tmp_path, "[tuning]\nouter_plant_mode = open\n"))

    def test_mismatched_grid_lists(self, tmp_path):
        with pytest.raises(ConfigError, match="same length"):
            load_config(write(tmp_path, "[grid]\nrated_powers = 1000.0\n"))

    def test_bad_load_steps(self, tmp_path):
        with pytest.raises(ConfigError, match="load_steps"):
            load_config(write(tmp_path, "[scenario]\nload_steps = 1.0;2000\n"))

    def test_scenario_timing_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="duration"):
            load_config(write(tmp_path, "[scenario]\nduration = 10.0\n"))

    @pytest.mark.parametrize("section,key,text", [
        ("grid", "nominal_bus_voltage", "nan"),
        ("grid", "cable_resistances", "nan, 0.5"),
        ("scenario", "load_steps", "1.0:inf"),
        ("sweep", "steps", "-inf"),
    ])
    def test_non_finite_number_names_its_key(self, tmp_path, section, key, text):
        # every parser path: scalar, list, time:power pair, integer
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
            load_config(write(tmp_path, f"[{section}]\n{key} = {text}\n"))

    @pytest.mark.parametrize("text,match", [
        ("power_margin = 200", "phase margin 200.0 deg"),
        ("voltage_margin = 0", "phase margin 0.0 deg"),
        ("power_crossover = -1", "crossover -1.0 rad/s"),
        ("voltage_crossover = 0", "crossover 0.0 rad/s"),
    ])
    def test_tuning_spec_checked_at_load(self, tmp_path, text, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write(tmp_path, f"[tuning]\n{text}\n"))

    def test_overflowing_duration_rejected(self, tmp_path):
        # duration / control_dt overflows to inf: named, not a bare overflow
        with pytest.raises(ConfigError, match="duration 1e[+]308 s"):
            load_config(write(tmp_path, "[scenario]\nduration = 1e308\n"))

    def test_scored_events_two_plant_steps_apart(self, tmp_path):
        base = "[scenario]\nplant_dt = 0.001\nload_steps = 1.0:2000.0, {}:4000.0\n"
        with pytest.raises(ConfigError, match="under two plant steps"):
            load_config(write(tmp_path, base.format("5.001")))
        cfg = load_config(write(tmp_path, base.format("5.002")))
        assert [t for t, _ in cfg.scenario().scored_events()] == [5.0, 5.002]


class TestValues:
    def test_overrides_apply(self, tmp_path):
        cfg = load_config(write(tmp_path, """
[scheme]
kind = conventional
voltage_kp = 0.2
voltage_ki = 1.0
[scenario]
duration = 30.0
"""))
        assert cfg.scheme_kind == "conventional"
        scheme = cfg.scheme()
        assert scheme.voltage_pi.kp == pytest.approx(0.2)
        assert cfg.scenario().duration == 30.0

    def test_scored_events_carry_their_settling_span(self):
        assert load_config(None).scenario().scored_events() == [(5.0, 15.0),
                                                                (20.0, 5.0)]

    def test_tuning_specs_built_at_load(self):
        tuning = load_config(None).tuning
        assert (tuning.power.crossover_omega, tuning.power.phase_margin) == (100.0, 70.0)
        assert (tuning.voltage.crossover_omega, tuning.voltage.phase_margin) == (10.0, 70.0)

    def test_scenario_builds(self):
        cfg = load_config(None)
        scenario = cfg.scenario()
        assert scenario.secondary_dt == pytest.approx(0.02)
        # the one Scenario built at load, carrying the configured scheme
        assert cfg.scenario() is scenario
        assert cfg.scheme() is scenario.scheme
        other = dataclasses.replace(scenario.scheme, weights=(0.5, 0.5))
        assert cfg.scenario(scheme=other) == dataclasses.replace(scenario,
                                                                 scheme=other)

    def test_echo_round_trip(self, tmp_path):
        cfg = load_config(write(tmp_path, "[scenario]\nduration = 30.0\n"))
        echoed = tmp_path / "echo.ini"
        echoed.write_text(render_config(cfg), encoding="utf-8")
        cfg2 = load_config(str(echoed))
        assert render_config(cfg2) == render_config(cfg)
        assert cfg2.scenario().duration == 30.0
