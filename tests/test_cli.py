"""End-to-end CLI runs: files, exit codes, manifests, reproducibility."""

import json
import math

import numpy as np
import pytest

from dcgridlab.cli import RunManifest, main, write_csv
from dcgridlab.config import load_config
from dcgridlab.sim import run

FAST_SCENARIO = """
[scenario]
activation_time = 0.5
duration = 3.0
load_steps = 0.2:2000.0, 1.0:4000.0
"""


THREE_CONVERTERS = """
[grid]
rated_powers = 4000.0, 2000.0, 2000.0
cable_resistances = 0.5, 0.5, 0.5
cable_inductances = 0.003, 0.003, 0.003
voltage_loop_taus = 0.005, 0.005, 0.005
"""


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestTune:
    def test_default_gains_written(self, tmp_path):
        out = tmp_path / "out"
        assert main(["tune", "--out", str(out)]) == 0
        doc = read_json(out / "gains.json")
        assert doc["manifest"]["tool"] == "dcgrid-lab"
        assert doc["power_loop"]["kp"] == pytest.approx(0.001, rel=0.10)
        assert doc["power_loop"]["ki"] == pytest.approx(0.130, rel=0.10)
        assert doc["voltage_loop[as-written]"]["kp"] == pytest.approx(142.9, rel=0.10)
        assert (out / "bode_power_loop.csv").exists()
        assert (out / "config_effective.ini").exists()

    def test_infeasible_margin_nonzero_exit(self, tmp_path):
        cfgp = write(tmp_path, "[tuning]\npower_margin = 170.0\n")
        assert main(["tune", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2

    def test_both_modes_recorded(self, tmp_path):
        out = tmp_path / "out"
        main(["tune", "--out", str(out)])
        doc = read_json(out / "gains.json")
        assert "voltage_loop[as-written]" in doc
        assert "voltage_loop[closed-inner]" in doc


class TestValidationErrors:
    def test_unknown_key_exit_code(self, tmp_path):
        cfgp = write(tmp_path, "[scheme]\nmystery = 1\n")
        assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1

    def test_single_step_sweep_rejected(self, tmp_path):
        cfgp = write(tmp_path, "[sweep]\nsteps = 1\n")
        assert main(["rootlocus", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("argv", [
        ["tune"], ["simulate"], ["rootlocus"], ["bode", "--plant", "voltage"]])
    def test_three_converter_grid_rejected(self, tmp_path, caplog, argv):
        cfgp = write(tmp_path, THREE_CONVERTERS)
        assert main(argv + ["--config", cfgp, "--out", str(tmp_path / "o")]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "exactly 2" in errors[0].getMessage()

    @pytest.mark.parametrize("plant", ["power", "voltage", "unity"])
    @pytest.mark.parametrize("converter", ["2", "-1"])
    def test_converter_index_out_of_range(self, tmp_path, caplog, plant, converter):
        out = tmp_path / "o"
        assert main(["bode", "--plant", plant, "--converter", converter,
                     "--out", str(out)]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "out of range" in errors[0].getMessage()
        assert not out.exists()   # a rejected request writes nothing

    def test_off_grid_event_time_rejected(self, tmp_path):
        cfgp = write(tmp_path, "[scenario]\nload_steps = 1.0004:2000.0\n")
        assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1

    def test_negative_event_time_rejected(self, tmp_path, caplog):
        # a step at -1 s used to act at t = 0 and exit 0
        cfgp = write(tmp_path, "[scenario]\nload_steps = -1.0:2000.0\n")
        assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "is negative" in errors[0].getMessage()

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    @pytest.mark.parametrize("activation", ["25.0", "30.0"])
    def test_activation_at_or_after_horizon_rejected(self, tmp_path, caplog,
                                                     subcommand, activation):
        # used to die with a ValueError traceback while scoring the events
        cfgp = write(tmp_path, f"[scenario]\nactivation_time = {activation}\n")
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfgp, "--out", str(out)]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        message = errors[0].getMessage()
        assert f"activation_time {activation}" in message
        assert "duration 25.0" in message
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    def test_itae_window_past_horizon_rejected(self, tmp_path, caplog,
                                               subcommand):
        # used to write timeseries.csv, then exit 2 while scoring the event
        cfgp = write(tmp_path, "[scenario]\nactivation_time = 2.0\n"
                               "duration = 3.0\nload_steps = 0.2:2000.0\n")
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfgp, "--out", str(out)]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        message = errors[0].getMessage()
        assert "activation_time 2.0" in message
        assert "[2, 4]" in message and "duration 3.0" in message
        assert not out.exists()


def _non_finite_cases():
    """A nan, inf or -inf in every numeric key of the bench defaults."""
    for section, keys in load_config(None).raw.items():
        for key, default in keys.items():
            if ":" in default:
                yield from ((section, key, f"1.0:{bad}") for bad in ("nan", "inf", "-inf"))
            elif "," in default:
                yield from ((section, key, f"{bad}, 0.5") for bad in ("nan", "inf", "-inf"))
            elif default[0].isdigit():
                yield from ((section, key, bad) for bad in ("nan", "inf", "-inf"))


class TestRejectedAtLoad:
    """Each config here used to load; now it exits 1 with one ERROR line and
    nothing written."""

    def _rejected(self, tmp_path, caplog, argv, text):
        out = tmp_path / "o"
        cfgp = write(tmp_path, text)
        assert main(argv + ["--config", cfgp, "--out", str(out)]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert not out.exists()
        return errors[0].getMessage()

    def test_every_numeric_key_is_covered(self):
        assert len({(s, k) for s, k, _ in _non_finite_cases()}) == 26

    @pytest.mark.parametrize("section,key,text", list(_non_finite_cases()))
    def test_non_finite_number(self, tmp_path, caplog, section, key, text):
        message = self._rejected(tmp_path, caplog, ["simulate"],
                                 f"[{section}]\n{key} = {text}\n")
        assert f"{section}.{key}: " in message

    @pytest.mark.parametrize("argv", [["tune"], ["bode", "--plant", "power-loop"]])
    @pytest.mark.parametrize("text,match", [
        ("power_margin = 200", "phase margin 200.0 deg is outside (0, 180)"),
        ("voltage_crossover = 0", "crossover 0.0 rad/s is not positive")])
    def test_tuning_spec_out_of_range(self, tmp_path, caplog, argv, text, match):
        # used to die with a ValueError traceback after creating --out
        assert match in self._rejected(tmp_path, caplog, argv, f"[tuning]\n{text}\n")

    def test_overflowing_duration(self, tmp_path, caplog):
        self._rejected(tmp_path, caplog, ["simulate"], "[scenario]\nduration = 1e308\n")

    @pytest.mark.parametrize("text,rows", [
        ("duration = 1e300", "1.000e+304"),
        ("duration = 1e300\ncontrol_dt = 1e-8\nplant_dt = 1e-10", "1.000e+310")])
    def test_duration_beyond_numpy_indexing(self, tmp_path, caplog, text, rows):
        # the first died in np.arange after writing config_effective.ini, the
        # second as "int too large to convert to float", naming no key
        message = self._rejected(tmp_path, caplog, ["simulate"], f"[scenario]\n{text}\n")
        assert f"duration 1e+300 s needs {rows} plant rows" in message

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    def test_settling_span_under_two_plant_steps(self, tmp_path, caplog, subcommand):
        # used to write timeseries.csv, then exit 2 while scoring settling
        message = self._rejected(
            tmp_path, caplog, [subcommand],
            "[scenario]\nplant_dt = 0.001\nload_steps = 1.0:2000.0, 5.001:4000.0\n")
        assert "activation_time 5.0" in message and "plant_dt 0.001" in message


def g12(v) -> str:
    return format(v, ".12g") if isinstance(v, float) else str(v)


class TestRunBeyondMemory:
    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    def test_one_error_line_naming_duration_and_rows(self, tmp_path, caplog,
                                                     monkeypatch, subcommand):
        # 1e11 plant rows: np.arange's 745 GiB time grid used to raise an
        # uncaught _ArrayMemoryError; the allocation fails here without trying
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(np, "arange", no_memory)
        cfgp = write(tmp_path, "[scenario]\nduration = 1e7\n")
        assert main([subcommand, "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "duration 10000000.0 s needs 1.000e+11 plant rows" in errors[0]
        assert "Unable to allocate 745. GiB" in errors[0]


class TestWriteCsv:
    MANIFEST = RunManifest(version="0", subcommand="test",
                           config_sha256="0" * 64)

    def test_cells_follow_the_12g_rule(self, tmp_path):
        rows = [(-0.0, 5e-324, 1e22, 123456789012.5, math.inf, -math.inf,
                 math.nan, 7, "proposed"),
                (0.1, -2.5e-7, 1.0, 3.0, -1e300, 2.0 / 3.0, 1e-320, -3, "t=1s")]
        header = tuple(f"c{j}" for j in range(len(rows[0])))
        path = tmp_path / "t.csv"
        write_csv(path, self.MANIFEST, header, zip(*rows), note="n")
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        lines = data.decode("utf-8").split("\n")[:-1]
        assert lines[:3] == [self.MANIFEST.comment_line(), "# n", ",".join(header)]
        assert lines[3:] == [",".join(g12(v) for v in row) for row in rows]
        assert lines[3].startswith("-0,4.94065645841e-324,1e+22,123456789012,")
        assert ",inf,-inf,nan,7,proposed" in lines[3]

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", self.MANIFEST, ("a", "b"),
                      ([1.0, 2.0], [1.0]))


class TestRootlocus:
    def test_outputs_and_verdict(self, tmp_path):
        out = tmp_path / "out"
        assert main(["rootlocus", "--out", str(out)]) == 0
        doc = read_json(out / "rootlocus_summary.json")
        assert doc["power"]["all_stable"] is True
        assert doc["voltage"]["all_stable"] is True
        header = (out / "rootlocus_power.csv").read_text().splitlines()
        assert header[0].startswith("# dcgrid-lab")
        assert header[1] == "r1_ohm,l1_h,pole_re,pole_im,stable"


class TestBode:
    def test_unity_selector_flat(self, tmp_path):
        out = tmp_path / "out"
        assert main(["bode", "--plant", "unity", "--out", str(out)]) == 0
        lines = (out / "bode_unity.csv").read_text().splitlines()
        row = lines[2].split(",")
        assert float(row[1]) == pytest.approx(0.0, abs=1e-9)
        assert float(row[2]) == pytest.approx(0.0, abs=1e-9)

    def test_power_plant_export(self, tmp_path):
        out = tmp_path / "out"
        assert main(["bode", "--plant", "power", "--out", str(out)]) == 0
        assert (out / "bode_power.csv").exists()

    def test_tuned_loop_annotation_matches_verify(self, tmp_path):
        out = tmp_path / "out"
        assert main(["bode", "--plant", "power-loop", "--out", str(out)]) == 0
        lines = (out / "bode_power-loop.csv").read_text().splitlines()
        assert lines[1].startswith("# crossover_rad_s=")
        from dcgridlab.grid import power_plant_tf
        from dcgridlab.tuning import verify_design
        cfg = load_config(None)
        report = verify_design(power_plant_tf(cfg.grid, 0), cfg.power_pi,
                               cfg.tuning.power)
        fields = dict(part.split("=") for part in lines[1][2:].split())
        assert float(fields["crossover_rad_s"]) == pytest.approx(report.crossover)
        assert float(fields["margin_deg"]) == pytest.approx(report.margin)


class TestSimulate:
    def test_outputs(self, tmp_path):
        cfgp = write(tmp_path, FAST_SCENARIO)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        doc = read_json(out / "itae.json")
        assert doc["scheme"] == "cascade"
        assert len(doc["events"]) == 2
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "t_s"
        assert len(lines) == 2 + 30000  # manifest + header + rows

    def test_lines_are_the_12g_rows_of_the_result(self, tmp_path):
        cfgp = write(tmp_path, FAST_SCENARIO)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        result = run(load_config(cfgp).scenario())
        series = {"t_s": result.time, "dVg_bus_v": result.bus_voltage,
                  "Vreg_v": result.regulated_voltage}
        for j in range(2):
            series[f"dP{j + 1}_w"] = result.power[:, j]
            series[f"I{j + 1}_a"] = result.current[:, j]
            series[f"Vterm{j + 1}_v"] = result.terminal_voltage[:, j]
            series[f"ref{j + 1}_v"] = result.voltage_reference[:, j]
        lines = (out / "timeseries.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert sorted(header) == sorted(series)
        table = np.column_stack([series[name] for name in header]).tolist()
        assert len(lines) == 2 + len(table)
        for got, row in zip(lines[2:], table):
            assert got == ",".join(g12(v) for v in row)

    def test_activation_acts_at_its_control_tick(self, tmp_path):
        # 5.000000000009 s is on the 0.01 s control grid (9e-10 ticks past
        # 500) and acts at 5.00 s, the time itae.json scores it from
        cfgp = write(tmp_path, "[scenario]\nactivation_time = 5.000000000009\n"
                               "duration = 8.0\nplant_dt = 0.001\n"
                               "control_dt = 0.01\nload_steps = 1.0:2000.0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        lines = (out / "timeseries.csv").read_text().splitlines()
        column = lines[1].split(",").index("ref1_v")
        rows = [line.split(",") for line in lines[2:]]
        first = next(row for row in rows if float(row[column]) != 0.0)
        assert float(first[0]) == pytest.approx(5.001, abs=1e-9)

    def test_reruns_identical_bytes(self, tmp_path):
        cfgp = write(tmp_path, FAST_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfgp, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfgp, "--out", str(out2)]) == 0
        for name in ("timeseries.csv", "itae.json", "config_effective.ini"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_config_echo_reproduces_run(self, tmp_path):
        # re-loading the echoed effective config reproduces the run exactly
        cfgp = write(tmp_path, FAST_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfgp, "--out", str(out1)]) == 0
        echo = str(out1 / "config_effective.ini")
        assert main(["simulate", "--config", echo, "--out", str(out2)]) == 0
        assert (out1 / "timeseries.csv").read_bytes() == \
            (out2 / "timeseries.csv").read_bytes()


class TestCompare:
    def test_three_cases_and_orderings(self, tmp_path):
        cfgp = write(tmp_path, FAST_SCENARIO)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfgp, "--out", str(out)]) == 0
        doc = read_json(out / "comparison.json")
        assert set(doc["cases"]) == {"conventional-low", "conventional-high",
                                     "proposed"}
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 2 + 6  # manifest + header + 3 cases x 2 events
        assert doc["orderings"]  # verdicts reported per event

    def test_identical_case_rows_are_deterministic(self, tmp_path):
        cfgp = write(tmp_path, FAST_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["compare", "--config", cfgp, "--out", str(out1)])
        main(["compare", "--config", cfgp, "--out", str(out2)])
        assert (out1 / "comparison.csv").read_bytes() == \
            (out2 / "comparison.csv").read_bytes()

    def test_failed_case_yields_partial_table_and_nonzero_exit(self, tmp_path,
                                                               monkeypatch):
        from dcgridlab import cli as climod
        from dcgridlab.control import CascadeScheme
        from dcgridlab.sim import SimulationDiverged

        real_run = climod.run

        def failing_run(scenario):
            if isinstance(scenario.scheme, CascadeScheme):
                raise SimulationDiverged(1.25, [math.nan] * 4, [0.0, 0.0])
            return real_run(scenario)

        monkeypatch.setattr(climod, "run", failing_run)
        cfgp = write(tmp_path, FAST_SCENARIO)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfgp, "--out", str(out)]) == 2
        lines = (out / "comparison.csv").read_text().splitlines()
        failed_rows = [l for l in lines if l.startswith("proposed,FAILED")]
        assert len(failed_rows) == 1
        doc = read_json(out / "comparison.json")
        assert doc["cases"]["proposed"] is None
        assert doc["cases"]["conventional-low"] is not None
