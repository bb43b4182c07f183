"""End-to-end CLI runs: files, exit codes, manifests, reproducibility."""

import hashlib
import json
import logging
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dcgridlab
from dcgridlab import cli, sim
from dcgridlab.cli import (_CSV_CHUNK_ROWS, _CSV_HELPER_MIN_CHUNKS, COMPARE_CASES,
                           RunManifest, main, write_csv)
from dcgridlab.config import load_config, render_config
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

# closed-inner is feasible at a 100 deg voltage margin (as-written is not)
CLOSED_INNER = """
[tuning]
outer_plant_mode = closed-inner
voltage_margin = 100.0
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


class TestManifest:
    @pytest.mark.parametrize("text", [
        "", "[grid]\ncable_inductances = 2e-3, 4e-3\n", CLOSED_INNER],
        ids=["bench-defaults", "cables", "closed-inner"])
    def test_digest_is_the_rendered_configs_sha256(self, tmp_path, text):
        cfgp = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["tune", "--config", cfgp, "--out", str(out)]) == 0
        want = hashlib.sha256(render_config(load_config(cfgp)).encode("utf-8")).hexdigest()
        assert read_json(out / "gains.json")["manifest"]["config_sha256"] == want
        with open(out / "bode_power_loop.csv", encoding="utf-8") as fh:
            assert fh.readline().endswith(f" tune config={want[:12]}\n")


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

    @pytest.mark.parametrize("argv", [["tune"], ["rootlocus"], ["bode", "--plant", "voltage"]])
    def test_mode_option_removed(self, tmp_path, capsys, argv):
        # [tuning] outer_plant_mode is the one source; an unrecorded --mode
        # wrote outputs its echoed config did not reproduce
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--mode", "closed-inner", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err
        assert not out.exists()

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

    def test_sweep_steps_beyond_numpy_indexing(self, tmp_path, caplog):
        # died in np.logspace ("Maximum allowed size exceeded") after writing
        # config_effective.ini
        message = self._rejected(tmp_path, caplog, ["rootlocus"],
                                 f"[sweep]\nsteps = {10**20}\n")
        assert f"steps {10**20}: numpy indexes at most " in message

    @pytest.mark.parametrize("subcommand", ["simulate", "tune", "rootlocus"])
    @pytest.mark.parametrize("text,match", [
        ("[grid]\nvoltage_loop_taus = 1e-320, 0.005", "voltage loop time constant 1e-320"),
        ("[grid]\ncable_inductances = 1e-320, 0.003", "cable inductance 1e-320"),
        ("[sweep]\nratio_r_over_l = 1e-320", "swept cable at r = 0.1 ohm")])
    def test_time_scale_with_overflowing_reciprocal(self, tmp_path, caplog,
                                                    subcommand, text, match):
        # simulate exited 2 as "diverged"; tune and rootlocus died with a
        # LinAlgError traceback
        message = self._rejected(tmp_path, caplog, [subcommand], text + "\n")
        # run as its own process, stderr is that one line: the checks of the
        # 1e-320 and its overflowing reciprocal print no numpy RuntimeWarning
        src = str(Path(dcgridlab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-c",
             "import sys; from dcgridlab.cli import main; sys.exit(main())",
             subcommand, "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "p")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=""))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"ERROR dcgridlab: {message}"]
        assert match in message and "finite reciprocal" in message

    @pytest.mark.parametrize("subcommand", ["rootlocus", "simulate"])
    def test_sweep_end_that_overflows(self, tmp_path, caplog, subcommand):
        # 10**log10(r_max) overflows to inf, the end resistances() gives:
        # rootlocus printed numpy's RuntimeWarning, wrote config_effective.ini
        # and exited 1 as "cable inductance inf", naming no sweep key
        text = "[sweep]\nr_max = 1.7976931348623157e308\n"
        message = self._rejected(tmp_path, caplog, [subcommand], text)
        assert "swept cable at r = inf ohm (r_max): cable inductance inf" in message
        src = str(Path(dcgridlab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-c",
             "import sys; from dcgridlab.cli import main; sys.exit(main())",
             subcommand, "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "p")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=""))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"ERROR dcgridlab: {message}"]
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("subcommand", ["rootlocus", "simulate"])
    def test_sweep_whose_loop_overflows_at_its_last_step(self, tmp_path, caplog,
                                                         subcommand):
        # the closed-inner loop squares the inductance, which overflows from
        # r = 1e154 ohm on: rootlocus exited 2 naming sweep step 26 after
        # writing config_effective.ini, and simulate ran
        text = ("[sweep]\nr_max = 1e300\nratio_r_over_l = 1.0\n\n"
                "[tuning]\nouter_plant_mode = closed-inner\n")
        message = self._rejected(tmp_path, caplog, [subcommand], text)
        assert message.startswith("config error: [sweep] r_max 1e+300: at the last "
                                  "step, r = 1e+300 ohm, the voltage loop's closed-loop "
                                  "characteristic polynomial [")
        assert message.endswith("] is not finite")
        src = str(Path(dcgridlab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-c",
             "import sys; from dcgridlab.cli import main; sys.exit(main())",
             subcommand, "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "p")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=""))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"ERROR dcgridlab: {message}"]
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("argv", [
        ["tune"], ["simulate"], ["compare"], ["rootlocus"], ["bode", "--plant", "unity"]])
    @pytest.mark.parametrize("kind", ["conventional", "cascade"])
    def test_rated_powers_with_overflowing_sum(self, tmp_path, caplog, argv, kind):
        # the sum overflowed and both sharing weights became 0: simulate scored
        # against them and exited 0, compare died with a ControlError traceback
        # after writing config_effective.ini, and the cascade's error named the
        # weights, not the ratings
        message = self._rejected(tmp_path, caplog, argv,
                                 "[grid]\nrated_powers = 1e308, 1e308\n"
                                 f"[scheme]\nkind = {kind}\n")
        assert "rated_powers [1e+308, 1e+308] must have a finite sum" in message

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    @pytest.mark.parametrize("kind", ["conventional", "cascade"])
    def test_rated_power_with_a_vanishing_share(self, tmp_path, caplog, subcommand, kind):
        # 1e-300 / 1e300 underflows to a weight of 0: the conventional scheme
        # scored against weights (0.0, 1.0) and exited 0, and the cascade's
        # error named the weights, not the ratings
        message = self._rejected(tmp_path, caplog, [subcommand],
                                 "[grid]\nrated_powers = 1e-300, 1e300\n"
                                 f"[scheme]\nkind = {kind}\n")
        assert ("rated_powers [1e-300, 1e+300] must each be a positive share "
                "of their sum") in message

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    def test_settling_span_under_two_plant_steps(self, tmp_path, caplog, subcommand):
        # used to write timeseries.csv, then exit 2 while scoring settling
        message = self._rejected(
            tmp_path, caplog, [subcommand],
            "[scenario]\nplant_dt = 0.001\nload_steps = 1.0:2000.0, 5.001:4000.0\n")
        assert "activation_time 5.0" in message and "plant_dt 0.001" in message


@pytest.mark.parametrize("argv,text", [
    (["simulate"], FAST_SCENARIO + "[scheme]\nvoltage_kp = 1e200\nvoltage_ki = 1e200\n"),
    (["simulate"], FAST_SCENARIO + "[grid]\nnominal_bus_voltage = 1e150\n"),
    (["rootlocus"], "[sweep]\nratio_r_over_l = 1e300\n"),
    (["tune"], "[grid]\nvoltage_loop_taus = 1e-300, 0.005\n"),
    (["rootlocus"], "[grid]\nvoltage_loop_taus = 1e-300, 0.005\n"),
    (["bode", "--plant", "voltage-loop"], "[grid]\nvoltage_loop_taus = 1e-300, 0.005\n"),
    (["tune"], "[grid]\ncable_inductances = 1e-300, 3e-3\n")],
    ids=["voltage-gains", "bus-voltage", "sweep-ratio", "tune-taus", "rootlocus-taus",
         "bode-taus", "tune-inductance"])
def test_overflow_the_code_checks_prints_no_warning(tmp_path, argv, text):
    # these runs succeed, yet printed numpy's overflow and invalid-value
    # warnings: from sim's period-map composition and block product, whose
    # results the block's finiteness check tests, and from lti._newton's
    # Horner sums, whose steps it keeps only where finite
    proc = run_with_warnings(tmp_path, argv, text)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == []


@pytest.mark.parametrize("argv,text,error", [
    (["tune"], "[tuning]\npower_crossover = 1e150\npower_margin = 1e-300\n",
     "ERROR dcgridlab: power loop design infeasible: the PI gains for a 1e+150 rad/s "
     "crossover overflow: kp = 3.75e+292, ki = nan"),
    (["simulate"], FAST_SCENARIO + "[scheme]\nkind = conventional\ndroop_ohm = 1e150\n",
     "ERROR dcgridlab: numerical failure: simulation diverged (non-finite state) at "
     "t = 0.203000 s: [V1, V2, I1, I2] = [nan, nan, inf, -inf], held references "
     "u = [inf, -inf]; no PI at its clamp")],
    ids=["tune-gains", "droop"])
def test_failure_is_one_error_line(tmp_path, argv, text, error):
    # boundary configs from the exit-code property test: tune's design used
    # to raise ControlError out of main, and a ticked period's product
    # printed numpy's invalid-value warning before the divergence it reports
    proc = run_with_warnings(tmp_path, argv, text)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [error]


def run_with_warnings(tmp_path, argv, text):
    """``dcgrid-lab argv`` on the config ``text`` in a fresh process that
    prints every warning; writes to tmp_path / "out"."""
    cfgp = write(tmp_path, text)
    src = str(Path(dcgridlab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-W", "default", "-c",
         "import sys; from dcgridlab.cli import main; sys.exit(main())",
         *argv, "--config", cfgp, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=""))


class TestStiffCable:
    """Cables or voltage loops far faster than plant_dt: a stable plant whose
    ZOH, from lti.zoh's scaling and squaring, reads a spectral radius above
    1 + 1e-7 from about 1e-13 H on the default 0.5 ohm (1e-14 H: 1 + 1.9e-6),
    and leaves the float range from about 1e-23 H.  Both exit 2 before the
    first tick; 1e-10 H (1 + 5.1e-11) runs."""

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    def test_non_finite_zoh_named(self, tmp_path, subcommand):
        # used to print numpy's overflow warnings from lti._expm, then exit 2
        # with "simulation diverged (non-finite state) at t = 0.001000 s"
        proc = run_with_warnings(tmp_path, [subcommand], FAST_SCENARIO
                                 + "[grid]\ncable_inductances = 1e-30, 1e-30\n")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "ERROR dcgridlab: numerical failure: the plant's zero-order hold (ZOH) "
            "over plant_dt 0.0001 s is not finite: the cables' L/R time constants "
            "[2e-30, 2e-30] s are too short against plant_dt"]
        assert os.listdir(tmp_path / "out") == ["config_effective.ini"]

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    @pytest.mark.parametrize("grid,taus", [
        ("cable_inductances = 1e-20, 1e-20",
         "[2e-20, 2e-20] s or the voltage loops' time constants [0.005, 0.005]"),
        ("voltage_loop_taus = 1e-200, 1e-200",
         "[0.006, 0.006] s or the voltage loops' time constants [1e-200, 1e-200]")],
        ids=["cables-1e-20", "taus-1e-200"])
    def test_inaccurate_zoh_named(self, tmp_path, subcommand, grid, taus):
        # both used to exit 0: ITAE_V 107.8 V*s^2 at t = 0.5 s for 1e-20 H
        # (0.0086 at 1e-6 H), ITAE_I 5.1e71 A*s^2 for tau = 1e-200.  The
        # radius (1 + 53.6 and 1 + 0.0869 on x86-64 with numpy 2.4) is
        # rounding amplified, so its digits are not pinned
        proc = run_with_warnings(tmp_path, [subcommand], FAST_SCENARIO
                                 + f"[grid]\n{grid}\n")
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        head, excess, tail = re.fullmatch(r"(.*radius reads 1 \+ )(\S+)(, .*)", line).groups()
        assert head == ("ERROR dcgridlab: numerical failure: the plant's zero-order hold "
                        "(ZOH) over plant_dt 0.0001 s is inaccurate: its spectral radius "
                        "reads 1 + ")
        assert float(excess) > 1e-7
        assert tail == (f", where the stable plant's is at most 1 (tolerance 1e-07): the "
                        f"cables' L/R time constants {taus} s are too short against plant_dt")
        assert os.listdir(tmp_path / "out") == ["config_effective.ini"]

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    def test_finite_zoh_runs(self, tmp_path, subcommand):
        # a radius of 1 + 5.1e-11: ITAE_I at t = 0.5 s within 2.3e-6 of 1e-6 H's
        proc = run_with_warnings(tmp_path, [subcommand], FAST_SCENARIO
                                 + "[grid]\ncable_inductances = 1e-10, 1e-10\n")
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == []


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
        assert len(errors) == 1 and errors[0].startswith("numerical failure: ")
        assert "duration 10000000.0 s needs 1.000e+11 plant rows" in errors[0]
        assert "Unable to allocate 745. GiB" in errors[0]

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    def test_rows_checked_before_the_zoh(self, tmp_path, caplog, monkeypatch, subcommand):
        # plant_dt = 1e-12 asks for 3e12 rows and a ZOH stack of 1e9 blocks,
        # one matrix exponential each: the run used to build the stack first,
        # for hours, and only then fail to allocate the rows
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 21.8 TiB")

        monkeypatch.setattr(np, "arange", no_memory)
        monkeypatch.setattr(sim, "zoh", lambda *args: pytest.fail("ZOH built"))
        cfgp = write(tmp_path, FAST_SCENARIO + "plant_dt = 1e-12\n")
        assert main([subcommand, "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["numerical failure: duration 3.0 s needs 3.000e+12 plant rows, "
                          "which do not fit in memory: Unable to allocate 21.8 TiB"]

    def test_sweep_steps_beyond_memory(self, tmp_path, caplog):
        # 2**50 steps ask for 8 PiB per array, more than a process can address,
        # so the allocation fails at once; its _ArrayMemoryError went uncaught
        cfgp = write(tmp_path, f"[sweep]\nsteps = {2**50}\n")
        assert main(["rootlocus", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert f"sweep steps {2**50}: the per-step arrays do not fit in memory" in errors[0]


# the boundary values of the exit-code contract's draws, and off-grid values
# of the time keys (each 0.5 ms off its grid); the base is FAST_SCENARIO with
# the 50-step default sweep
BOUNDARY_VALUES = ("0", "-1", "1e-300", "1e-12", "1e150", "1e300")
OFF_GRID = {"activation_time": ("0.5005",), "duration": ("3.0005",),
            "plant_dt": ("0.00015",), "control_dt": ("0.0015",), "secondary_dt": ("0.0205",),
            "load_steps": ("0.2005",)}
CHOICES = {"kind": ("cascade", "conventional"),
           "outer_plant_mode": ("as-written", "closed-inner")}
BASE = {section: dict(keys) for section, keys in load_config(None).raw.items()}
BASE["scenario"].update(activation_time="0.5", duration="3.0",
                        load_steps="0.2:2000.0, 1.0:4000.0")


@st.composite
def boundary_config(draw):
    """INI text with 1-3 keys of the 3 s scenario set to boundary values: a
    number for each number, one or both converters' entry of a per-converter
    key, or one number of a load step; a choice key takes one of its options."""
    keys = [(section, key) for section, kv in BASE.items() for key in kv]
    raw = {section: dict(kv) for section, kv in BASE.items()}
    for section, key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                                      unique=True)):
        default = raw[section][key]
        if key in CHOICES:
            raw[section][key] = draw(st.sampled_from(CHOICES[key]))
            continue
        value = draw(st.sampled_from(BOUNDARY_VALUES + OFF_GRID.get(key, ())))
        if key == "load_steps":
            numbers = default.replace(":", ",").split(",")
            numbers[draw(st.integers(0, 3))] = value
            value = "{}:{}, {}:{}".format(*numbers)
        elif "," in default:
            first, second = default.split(", ")
            value = draw(st.sampled_from([f"{value}, {value}", f"{value}, {second}",
                                          f"{first}, {value}", value]))
        raw[section][key] = value
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for section, kv in raw.items())


class TestExitCodeContract:
    """A config runs (exit 0), is rejected at load with one ERROR line and no
    --out (exit 1), or fails numerically with an ERROR line that names the
    failure (exit 2), for every subcommand, with numpy's RuntimeWarnings made
    errors as in CI."""

    FAILURE = re.compile(r"numerical failure: |case \S+ failed: "
                         r"|power loop design infeasible: |voltage loop design infeasible in mode ")

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(boundary_config(), st.sampled_from(["tune", "simulate", "compare", "rootlocus",
                                               "bode"]), st.data())
    def test_property_exit_codes(self, tmp_path, caplog, text, subcommand, data):
        argv = [subcommand]
        if subcommand == "bode":
            argv += ["--plant", data.draw(st.sampled_from(
                ["power", "voltage", "power-loop", "voltage-loop", "unity"])),
                     "--converter", data.draw(st.sampled_from("01"))]
        caplog.clear()
        with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
            cfgp, out = write(Path(scratch), text), Path(scratch) / "out"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv + ["--config", cfgp, "--out", str(out)])
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert code in (0, 1, 2)
            if code == 0:
                assert errors == []
            elif code == 1:
                assert not out.exists()
                assert len(errors) == 1
                assert errors[0].startswith(("config error: ", "invalid grid request: "))
            else:
                assert errors and all(self.FAILURE.match(e) for e in errors), errors


# cell values that one %.12g per distinct bit pattern must keep apart or
# share: both zeros, NaNs of either sign and with a payload, the extremes
CELL_POOL = np.array([0.0, -0.0, math.nan, -math.nan,
                      np.array(0x7FF8_0000_0000_0123).view(np.float64),
                      math.inf, -math.inf, 5e-324, 0.1, 1e22, 2.0 / 3.0])
CELL_KINDS = {"float64": lambda idx: CELL_POOL[idx],
              "float32": lambda idx: CELL_POOL.astype(np.float32)[idx],
              "int": lambda idx: (idx - 5) * 10**12,
              "str": lambda idx: np.array(["proposed", "t=1s", "", "nan", "-0"])[idx % 5],
              "bool": lambda idx: idx % 2 == 0}


# the fewest rows that write_csv formats with a forked helper
HELPER_ROWS = _CSV_HELPER_MIN_CHUNKS * _CSV_CHUNK_ROWS


# row counts at the chunk edges, and either side of the helper's cutoff: odd and
# even chunk counts, full and partial last chunks
EDGE_ROWS = st.sampled_from((0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS,
                             _CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 1,
                             HELPER_ROWS - _CSV_CHUNK_ROWS, HELPER_ROWS - 1,
                             HELPER_ROWS, HELPER_ROWS + 1))


@st.composite
def csv_columns(draw, rows=EDGE_ROWS):
    """Columns of a few kinds drawn from CELL_POOL in repeating runs, so
    equal cells recur down a column, across columns and across chunks."""
    n_rows = draw(rows)
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(CELL_KINDS)), min_size=1, max_size=6)):
        pattern = draw(st.lists(st.integers(0, len(CELL_POOL) - 1), min_size=1, max_size=6))
        run_length = draw(st.integers(1, 300))
        columns.append(CELL_KINDS[kind](np.resize(np.repeat(pattern, run_length), n_rows)))
    return columns


class TestWriteCsv:
    MANIFEST = RunManifest(version="0", subcommand="test",
                           config_sha256="0" * 64)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_columns())
    def test_lines_follow_the_per_cell_rule(self, tmp_path, columns):
        path = tmp_path / "p.csv"
        write_csv(path, self.MANIFEST, [f"c{j}" for j in range(len(columns))], columns)
        lines = path.read_text(encoding="utf-8").split("\n")
        want = [",".join(format(float(x), ".12g") if c.dtype.kind == "f" else str(x)
                         for c, x in zip(columns, row))
                for row in zip(*(c.tolist() for c in columns))]
        assert lines[2:] == want + [""]

    # a draw writes both tables in 0.02-0.06 s on a 2-vCPU x86-64 VM
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_columns(st.integers(HELPER_ROWS + 1, 3 * HELPER_ROWS)))
    def test_property_one_and_two_processes_write_the_same_bytes(
            self, tmp_path, monkeypatch, caplog, columns):
        caplog.set_level(logging.DEBUG, logger="dcgridlab")
        header = [f"c{j}" for j in range(len(columns))]
        written = []
        for cpus, how in (({0}, "all in-process"),
                          ({0, 1}, "odd chunks formatted by a helper process")):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            caplog.clear()
            write_csv(tmp_path / "t.csv", self.MANIFEST, header, columns)
            assert caplog.records[-1].getMessage().endswith(how)
            written.append((tmp_path / "t.csv").read_bytes())
        assert written[0] == written[1]

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

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("one_process", ["one CPU", "no fork", "fork fails"])
    def test_both_paths_write_the_same_bytes(self, tmp_path, monkeypatch, caplog,
                                             one_process):
        # a 30k-row timeseries; the helper path is forced by a 2-CPU affinity
        cfgp = write(tmp_path, FAST_SCENARIO)
        caplog.set_level(logging.DEBUG, logger="dcgridlab")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "two")]) == 0
        if one_process == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        elif one_process == "no fork":
            monkeypatch.delattr(os, "fork")
        else:   # as when the process limit is reached
            def fork():
                raise BlockingIOError("fork: resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", fork)
        assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "one")]) == 0
        assert ((tmp_path / "one" / "timeseries.csv").read_bytes()
                == (tmp_path / "two" / "timeseries.csv").read_bytes())
        assert [r.getMessage() for r in caplog.records if r.name == "dcgridlab"] == [
            "wrote timeseries.csv: 30000 rows in 30 chunks, "
            "odd chunks formatted by a helper process",
            "wrote timeseries.csv: 30000 rows in 30 chunks, all in-process"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("failure, status", [
        (lambda: math.log(0.0), 1),                       # an exception
        (lambda: os._exit(3), 3),                         # an exit mid-table
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL)])
    def test_failing_helper_raises_and_is_reaped(self, tmp_path, monkeypatch,
                                                 failure, status):
        # the helper formats chunks 1, 3, 5, ... and fails on chunk 5
        parent, format_chunk = os.getpid(), cli._format_chunk

        def fail_in_helper(columns, floats, start):
            if os.getpid() != parent and start == 5 * _CSV_CHUNK_ROWS:
                failure()
            return format_chunk(columns, floats, start)

        monkeypatch.setattr(cli, "_format_chunk", fail_in_helper)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        chunks = _CSV_HELPER_MIN_CHUNKS + 1
        with pytest.raises(OSError, match=f"t.csv: the CSV helper process exited with "
                                          f"status {status} after sending 2 of "
                                          f"{chunks // 2} chunks"):
            write_csv(tmp_path / "t.csv", self.MANIFEST, ("a",),
                      [np.arange(chunks * _CSV_CHUNK_ROWS) / 7.0])
        with pytest.raises(ChildProcessError):   # no child left, not even a zombie
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_warning_raised_as_error_keeps_the_helper(self, tmp_path, monkeypatch):
        # Python >= 3.12 warns in the parent, after forking, when threads are alive
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("use of fork() may lead to deadlocks", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        column = np.arange(HELPER_ROWS) / 7.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_csv(tmp_path / "t.csv", self.MANIFEST, ("a",), [column])
        lines = (tmp_path / "t.csv").read_text(encoding="utf-8").split("\n")
        assert lines[2:] == [format(v, ".12g") for v in column.tolist()] + [""]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("where", ["open", "chunk 4"])
    def test_failing_parent_reaps_helper(self, tmp_path, monkeypatch, where):
        parent, format_chunk = os.getpid(), cli._format_chunk

        def fail_in_parent(columns, floats, start):
            if os.getpid() == parent and start == 4 * _CSV_CHUNK_ROWS:
                raise ZeroDivisionError("chunk 4")
            return format_chunk(columns, floats, start)

        monkeypatch.setattr(cli, "_format_chunk", fail_in_parent)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # a directory cannot be opened for writing
        path, error = ((tmp_path, IsADirectoryError) if where == "open"
                       else (tmp_path / "t.csv", ZeroDivisionError))
        with pytest.raises(error):
            write_csv(path, self.MANIFEST, ("a",), [np.arange(HELPER_ROWS) / 7.0])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unequal_columns_rejected(self, tmp_path):
        # a 2-D column has the right length but no single cell per row
        for second in ([1.0], [[1.0, 3.0], [2.0, 4.0]]):
            with pytest.raises(ValueError):
                write_csv(tmp_path / "t.csv", self.MANIFEST, ("a", "b"),
                          ([1.0, 2.0], second))


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

    def test_overflowing_loop_exits_numerical(self, tmp_path):
        # the PI's 1.2e308 gains overflow the power loop at every step of the
        # sweep, its first included; numpy's eigvals once died on such an inf
        # with a LinAlgError traceback
        cfgp = write(tmp_path, "[scheme]\npower_kp = 1.2e308\npower_ki = 1.2e308\n")
        src = str(Path(dcgridlab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from dcgridlab.cli import main; sys.exit(main())",
             "rootlocus", "--config", cfgp, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("ERROR dcgridlab: numerical failure: sweep step 0 "
                               "at r = 0.1 ohm: ")
        assert line.endswith(" is not finite")


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

    def test_vanishing_loop_gain_exits_cleanly(self, tmp_path):
        # a 1e300 H cable: |g(jw)| underflows to 0 in the crossover search
        # (a log10 domain error) and |den(jw)| overflows in the response.
        # The magnitude turns NaN at high frequency, and a NaN next to a
        # finite dB once read as a 0 dB crossing the loop never reaches.
        cfgp = write(tmp_path, "[grid]\ncable_inductances = 1e300, 0.003\n")
        out = tmp_path / "out"
        assert main(["bode", "--plant", "voltage-loop", "--config", cfgp,
                     "--out", str(out)]) == 0
        lines = (out / "bode_voltage-loop.csv").read_text().splitlines()
        assert lines[-1].endswith("nan,nan")
        assert lines[1].startswith("omega_rad_s,")   # no crossover note

    @pytest.mark.parametrize("plant", ["power-loop", "voltage-loop"])
    def test_overflowing_loop_exits_numerical(self, tmp_path, plant):
        # the PI's 1.2e308 gains overflow the loop's coefficients to inf;
        # numpy's eigvals died on them with a LinAlgError traceback
        cfgp = write(tmp_path, "[scheme]\npower_kp = 1.2e308\npower_ki = 1.2e308\n")
        src = str(Path(dcgridlab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from dcgridlab.cli import main; sys.exit(main())",
             "bode", "--plant", plant, "--config", cfgp, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("ERROR dcgridlab: numerical failure: cannot find the "
                               "roots of the polynomial [inf, inf")
        assert line.endswith("a coefficient or a ratio of two is not finite")

    def test_reused_parser_leaks_no_option(self, tmp_path, capsys):
        # main builds its parser once per process: an option one call gives
        # does not carry over to the next, nor does a rejected call spoil it.
        # Unequal cables, so the two converters' plants differ
        cfgp = write(tmp_path, "[grid]\ncable_resistances = 0.5, 1.0\n")
        out = [tmp_path / f"out{i}" for i in range(3)]
        assert main(["bode", "--plant", "power", "--converter", "1", "--config", cfgp,
                     "--out", str(out[0])]) == 0
        assert main(["bode", "--plant", "power", "--config", cfgp, "--out", str(out[1])]) == 0
        rows = [(o / "bode_power.csv").read_text().splitlines()[2:] for o in out[:2]]
        plant = cli.power_plant_tf(load_config(cfgp).grid, 0)
        want = [f"{w:.12g},{m:.12g},{p:.12g}" for w, m, p in
                zip(cli.FREQUENCY_GRID, *cli.freq_response(plant))]
        assert rows[1] == want != rows[0]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["bode", "--plant", "bogus", "--out", str(out[2])])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert main(["bode", "--plant", "power", "--config", cfgp, "--out", str(out[2])]) == 0
        assert ((out[2] / "bode_power.csv").read_bytes()
                == (out[1] / "bode_power.csv").read_bytes())

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

    @pytest.mark.parametrize("verbose", ["", "0", "1"])
    def test_verbose_logs_events_and_the_csv(self, tmp_path, verbose):
        # only a set value other than "0" turns DEBUG on
        cfgp = write(tmp_path, FAST_SCENARIO)
        src = str(Path(dcgridlab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from dcgridlab.cli import main; sys.exit(main())",
             "simulate", "--config", cfgp, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, DCGRIDLAB_VERBOSE=verbose))
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        if verbose != "1":
            assert lines == []
            return
        # the two load steps and the activation, the run's periods, then the CSV
        assert [line.split(":")[0] for line in lines] == ["DEBUG dcgridlab.sim"] * 4 + [
            "DEBUG dcgridlab"]
        assert lines[3] == ("DEBUG dcgridlab.sim: run: 147 secondary periods advanced "
                            "by period maps, 3 ticked; blocks cut short by a test: 0")
        assert lines[4] in (
            "DEBUG dcgridlab: wrote timeseries.csv: 30000 rows in 30 chunks, "
            "odd chunks formatted by a helper process",
            "DEBUG dcgridlab: wrote timeseries.csv: 30000 rows in 30 chunks, all in-process")

    def test_reruns_identical_bytes(self, tmp_path):
        cfgp = write(tmp_path, FAST_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfgp, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfgp, "--out", str(out2)]) == 0
        for name in ("timeseries.csv", "itae.json", "config_effective.ini"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("argv, text", [
        (["simulate"], FAST_SCENARIO),
        (["tune"], CLOSED_INNER),
        (["rootlocus"], CLOSED_INNER),
        (["bode", "--plant", "voltage-loop"], CLOSED_INNER)])
    def test_config_echo_reproduces_run(self, tmp_path, argv, text):
        # re-loading the echoed effective config reproduces every output file
        cfgp = write(tmp_path, text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--config", cfgp, "--out", str(out1)]) == 0
        echo = str(out1 / "config_effective.ini")
        assert main(argv + ["--config", echo, "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert len(names) > 1
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        if argv == ["tune"]:
            assert read_json(out1 / "gains.json")["voltage_loop_mode"] == "closed-inner"


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

    def test_events_equal_to_six_digits_keep_their_rows(self, tmp_path, monkeypatch):
        # scoring two events 0.04 s apart at t = 10000 s takes a million-row
        # run per case; FAST_SCENARIO's two scored events are moved there
        from dcgridlab import cli as climod

        real_score = climod._score_events

        def moved_score(cfg, result):
            entries = real_score(cfg, result)
            for entry, t in zip(entries, (10000.0, 10000.04)):
                entry["event_time_s"] = t
            return entries

        monkeypatch.setattr(climod, "_score_events", moved_score)
        cfgp = write(tmp_path, FAST_SCENARIO)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfgp, "--out", str(out)]) == 0
        rows = [line.split(",")
                for line in (out / "comparison.csv").read_text().splitlines()[2:]]
        for case in COMPARE_CASES:
            assert [row[1] for row in rows if row[0] == case] == ["t=10000s",
                                                                  "t=10000.04s"]
        assert set(read_json(out / "comparison.json")["orderings"]) == {
            "t=10000s", "t=10000.04s"}

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
