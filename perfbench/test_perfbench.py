"""Tests of the benchmark itself: inputs, output checks, failure counting,
tracing and the BENCHMARK.json it is driven by.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from worker import Session, library_summary, run_iteration  # noqa: E402

from dcgridlab import config as config_mod  # noqa: E402

with open(HERE / "reference_seed0.json", encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


def _write_ini(tmp_path: Path, workload: str, seed: int) -> Path:
    path = tmp_path / f"{workload}-{seed}.ini"
    path.write_text(wl.render_ini(workload, wl.inputs_for_seed(seed)), encoding="utf-8")
    return path


def _outputs(tmp_path: Path, workload: str, seed: int = 0) -> Path:
    outdir = tmp_path / f"out-{workload}-{seed}"
    outdir.mkdir()
    errors, loci = run_iteration(workload, str(_write_ini(tmp_path, workload, seed)),
                                 outdir)
    assert errors == []
    if loci is not None:
        (outdir / "library.json").write_text(json.dumps(library_summary(loci)),
                                             encoding="utf-8")
    return outdir


def _check(workload: str, outdir: Path, seed: int = 0) -> list[str]:
    ref = REFERENCE[workload] if seed == 0 else None
    return checks.check_iteration(workload, outdir, wl.inputs_for_seed(seed), ref)


@pytest.fixture(scope="module")
def simulate_outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("simulate"), "simulate-cascade")


@pytest.fixture(scope="module")
def design_outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("design"), "design-sweep")


def _copy(outdir: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(outdir, tmp_path / "copy"))


# -- inputs ----------------------------------------------------------------


def test_seed0_reproduces_the_bench_default_ini(tmp_path):
    cfg = config_mod.load_config(str(_write_ini(tmp_path, "simulate-cascade", 0)))
    assert cfg.raw == config_mod.load_config(None).raw
    assert config_mod.render_config(cfg) == config_mod.render_config(
        config_mod.load_config(None))


def test_seed0_design_sweep_differs_from_defaults_only_in_sweep_density(tmp_path):
    raw = config_mod.load_config(str(_write_ini(tmp_path, "design-sweep", 0))).raw
    defaults = config_mod.load_config(None).raw
    assert raw["sweep"].pop("steps") == str(wl.SWEEP_STEPS)
    defaults["sweep"].pop("steps")
    assert raw == defaults


def test_other_seeds_stay_within_the_stated_ranges(tmp_path):
    for seed in range(1, 200):
        inputs = wl.inputs_for_seed(seed)
        (t1, p1), (t2, p2) = inputs.load_steps
        assert 0.5 <= t1 <= 4.0 < wl.ACTIVATION_TIME < 8.0 <= t2 <= 20.0
        for t in (t1, t2):
            assert abs(t / wl.SECONDARY_DT - round(t / wl.SECONDARY_DT)) < 1e-9
        assert 500.0 <= min(p1, p2) and max(p1, p2) <= wl.MAX_TOTAL_LOAD
        assert abs(p2 - p1) >= 500.0
        assert 2.0 <= inputs.r_max <= 4.0
        assert inputs == wl.inputs_for_seed(seed)
    config_mod.load_config(str(_write_ini(tmp_path, "design-sweep", 5)))


# -- output checks ---------------------------------------------------------


def test_seed0_simulate_outputs_pass(simulate_outputs):
    assert _check("simulate-cascade", simulate_outputs) == []


def test_last_digit_flip_passes(simulate_outputs, tmp_path):
    outdir = _copy(simulate_outputs, tmp_path)
    path = outdir / "itae.json"
    doc = json.loads(path.read_text())
    doc["events"][1]["itae_v"] *= 1 + 1e-11
    path.write_text(json.dumps(doc))
    assert _check("simulate-cascade", outdir) == []


def test_corrupted_json_value_fails(simulate_outputs, tmp_path):
    outdir = _copy(simulate_outputs, tmp_path)
    path = outdir / "itae.json"
    doc = json.loads(path.read_text())
    doc["events"][1]["itae_v"] *= 1 + 1e-6
    path.write_text(json.dumps(doc))
    assert any("itae_v" in p for p in _check("simulate-cascade", outdir))


def test_corrupted_timeseries_row_fails(simulate_outputs, tmp_path):
    outdir = _copy(simulate_outputs, tmp_path)
    path = outdir / "timeseries.csv"
    lines = path.read_text().split("\n")
    fields = lines[200_002].split(",")          # t = 20.0001 s, off the sample grid
    fields[3] = repr(float(fields[3]) + 0.1)    # bus voltage, in no identity
    lines[200_002] = ",".join(fields)
    path.write_text("\n".join(lines))
    assert _check("simulate-cascade", outdir) != []


def test_truncated_timeseries_fails(simulate_outputs, tmp_path):
    outdir = _copy(simulate_outputs, tmp_path)
    path = outdir / "timeseries.csv"
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:-1000]))
    assert any("shape" in p for p in _check("simulate-cascade", outdir))


def test_other_seed_simulate_outputs_pass_the_invariants(tmp_path):
    assert _check("simulate-cascade", _outputs(tmp_path, "simulate-cascade", 11), 11) == []


def test_design_outputs_pass_and_an_unstable_step_fails(design_outputs, tmp_path):
    assert _check("design-sweep", design_outputs) == []
    outdir = _copy(design_outputs, tmp_path)
    path = outdir / "rootlocus_voltage.csv"
    lines = path.read_text().split("\n")
    lines[500] = lines[500][:-1] + "0"
    path.write_text("\n".join(lines))
    assert any("unstable" in p for p in _check("design-sweep", outdir))


# -- failure counting ------------------------------------------------------


def test_nonzero_exit_code_counts_as_a_failure(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nno_such_key = 1\n", encoding="utf-8")
    session = Session("simulate-cascade", bad, tmp_path, check=lambda d: [])
    session.iterate()
    assert (session.attempted, session.failed) == (1, 1)
    assert "exited with code 1" in session.problems[0]
    assert list(tmp_path.glob("iter-*")) == []


def test_failed_check_counts_as_a_failure(tmp_path):
    config = _write_ini(tmp_path, "design-sweep", 0)
    seen = []

    def corrupt_then_check(outdir: Path) -> list[str]:
        path = outdir / "gains.json"
        doc = json.loads(path.read_text())
        doc["power_loop"]["kp"] *= 1.001
        path.write_text(json.dumps(doc))
        seen.append(outdir)
        return _check("design-sweep", outdir)

    session = Session("design-sweep", config, tmp_path, corrupt_then_check)
    session.iterate()
    assert (session.attempted, session.failed) == (1, 1)
    assert not seen[0].exists()


# -- tracing ---------------------------------------------------------------


def _package_names() -> dict:
    import dcgridlab
    from dcgridlab import cli, config, control, grid, lti, rootlocus, sim, tuning
    snapshot = {}
    for module in (dcgridlab, cli, config, control, grid, lti, rootlocus, sim, tuning):
        for name, value in vars(module).items():
            snapshot[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    snapshot[(module.__name__, f"{name}.{attr}")] = member
    return snapshot


def _unpatched(before: dict) -> bool:
    after = _package_names()
    return after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


def test_traced_run_leaves_dcgridlab_unpatched(tmp_path):
    before = _package_names()
    from dcgridlab import cli
    tracer = tracing.Tracer()
    with tracer:
        assert cli.run is not before[("dcgridlab.cli", "run")]
        assert cli.main(["tune", "--out", str(tmp_path)]) == 0
    assert _unpatched(before)

    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert _unpatched(before)
    metrics = tracer.iteration_metrics()[-1]
    assert metrics["tuning.design_pi_calls"] == 3
    assert metrics["tuning.errors"] == 1        # closed-inner design is infeasible


def test_traced_simulate_counts_are_exact(tmp_path):
    config = _write_ini(tmp_path, "simulate-cascade", 0)
    session = Session("simulate-cascade", config, tmp_path, check=lambda d: [])
    with tracing.Tracer() as tracer:
        tracer.iteration_id = 0
        session.iterate()
    m = tracer.iteration_metrics()[0]
    assert (m["sim.run_calls"], m["sim.rows"]) == (1, 250_000)
    assert (m["control.step_calls"], m["control.pi_step_calls"]) == (50_000, 42_000)
    assert m["sim.score_calls"] == 6
    assert 30e6 < m["cli.write_csv_bytes"] < 33e6
    assert m["sim.run_self_s"] < m["sim.run_s"]
    assert m["sim.run_s"] + m["cli.write_csv_s"] < m["cli.main_s"]
    assert session.failed == 0


# -- contract --------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == wl.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_docs_record_every_workload_and_layer_metric():
    readme = (HERE / "README.md").read_text()
    for name in list(wl.WORKLOADS) + list(tracing.LAYER_METRICS) + list(run.END_TO_END):
        if not name.endswith(".errors"):
            assert f"`{name}`" in readme or name in readme, name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "design-sweep", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
