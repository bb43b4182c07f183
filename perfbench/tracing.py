"""Span tracing of dcgridlab's layers, installed from outside the package.

A :class:`Tracer` replaces each traced public function at the name its caller
looks it up by (``cli.run`` for the CLI's call into ``sim.run``,
``rootlocus.poles`` for the sweep's pole extraction, ``step`` on the
controller classes) with a wrapper that records one span: name, start, end,
parent span and iteration id.  Spans live in flat in-memory arrays until the
run ends.  ``uninstall`` puts every original object back, so no wrapper leaks
into an untimed or timed run that follows.

dcgridlab is single-threaded: every layer runs on the caller's thread and no
layer ever waits on another, so spans carry busy time only and there are no
wait metrics to report.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) -> span name.  "Class.method" attributes are patched on
# the class.  The span name's prefix is the layer its errors are counted in.
TRACE_POINTS = (
    ("dcgridlab.cli", "main", "cli.main"),
    ("dcgridlab.cli", "load_config", "config.load"),
    ("dcgridlab.config", "load_config", "config.load"),
    ("dcgridlab.cli", "run", "sim.run"),
    ("dcgridlab.control", "CascadeController.step", "control.step"),
    ("dcgridlab.control", "ConventionalController.step", "control.step"),
    ("dcgridlab.control", "pi_step", "control.pi_step"),
    ("dcgridlab.cli", "itae_voltage", "sim.score"),
    ("dcgridlab.cli", "itae_current", "sim.score"),
    ("dcgridlab.cli", "voltage_settling", "sim.score"),
    ("dcgridlab.cli", "write_csv", "cli.write_csv"),
    ("dcgridlab.cli", "write_json", "cli.write_json"),
    ("dcgridlab.cli", "design_pi", "tuning.design_pi"),
    ("dcgridlab.cli", "verify_design", "tuning.verify_design"),
    ("dcgridlab.tuning", "verify_design", "tuning.verify_design"),
    ("dcgridlab.cli", "freq_response", "lti.freq_response"),
    ("dcgridlab.rootlocus", "poles", "lti.poles"),
    ("dcgridlab.cli", "power_plant_tf", "grid.plant_tf"),
    ("dcgridlab.cli", "voltage_loop_plant_tf", "grid.plant_tf"),
    ("dcgridlab.rootlocus", "power_plant_tf", "grid.plant_tf"),
    ("dcgridlab.rootlocus", "voltage_loop_plant_tf", "grid.plant_tf"),
    ("dcgridlab.cli", "sweep_power_loop", "rootlocus.sweep"),
    ("dcgridlab.cli", "sweep_voltage_loop", "rootlocus.sweep"),
    ("dcgridlab.rootlocus", "sweep_power_loop", "rootlocus.sweep"),
    ("dcgridlab.rootlocus", "sweep_voltage_loop", "rootlocus.sweep"),
    ("dcgridlab.rootlocus", "LocusResult.trajectories", "rootlocus.pair"),
    ("dcgridlab.rootlocus", "LocusResult.pairing_ambiguities", "rootlocus.pair"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACE_POINTS))
LAYERS = ("cli", "config", "sim", "control", "tuning", "lti", "grid", "rootlocus")

# Per-layer metric of one traced iteration -> key of Tracer.iteration_metrics.
# Self times: ``sim.plant_s`` is sim.run minus its control.* children (plant
# stepping and recording), ``rootlocus.assembly_s`` is the sweep minus plant
# building and pole extraction (loop assembly), and ``cli.main_self_s`` is CLI
# time outside every traced layer (argument parsing, manifests, bode's writer).
LAYER_METRICS = {
    "config.load_s": "config.load_s",
    "sim.run_s": "sim.run_s",
    "sim.run_calls": "sim.run_calls",
    "sim.rows": "sim.rows",
    "sim.plant_s": "sim.run_self_s",
    "sim.score_s": "sim.score_s",
    "sim.score_calls": "sim.score_calls",
    "control.step_s": "control.step_s",
    "control.step_calls": "control.step_calls",
    "control.pi_step_s": "control.pi_step_s",
    "control.pi_step_calls": "control.pi_step_calls",
    "cli.main_self_s": "cli.main_self_s",
    "cli.write_csv_s": "cli.write_csv_s",
    "cli.write_csv_bytes": "cli.write_csv_bytes",
    "cli.write_json_s": "cli.write_json_s",
    "tuning.design_pi_s": "tuning.design_pi_s",
    "tuning.design_pi_calls": "tuning.design_pi_calls",
    "tuning.verify_design_s": "tuning.verify_design_s",
    "lti.freq_response_s": "lti.freq_response_s",
    "lti.poles_s": "lti.poles_s",
    "lti.poles_calls": "lti.poles_calls",
    "grid.plant_tf_s": "grid.plant_tf_s",
    "rootlocus.sweep_s": "rootlocus.sweep_s",
    "rootlocus.sweep_steps": "rootlocus.sweep_steps",
    "rootlocus.assembly_s": "rootlocus.sweep_self_s",
    "rootlocus.pair_s": "rootlocus.pair_s",
    "rootlocus.ambiguous_pairings": "rootlocus.ambiguous_pairings",
    "trace.spans": "spans",
}
LAYER_METRICS.update({f"{layer}.errors": f"{layer}.errors" for layer in LAYERS})


# Reported per traced run: the medians of LAYER_METRICS over the traced
# iterations, and the traced and untraced wall times of one iteration.
PER_LAYER = tuple(LAYER_METRICS) + ("trace.wall_s", "trace.untraced_wall_s",
                                    "trace.overhead_s")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def _count_rows(args, result) -> tuple[str, int]:
    return "sim.rows", len(result.time)


def _count_csv_bytes(args, result) -> tuple[str, int]:
    return "cli.write_csv_bytes", os.path.getsize(args[0])


def _count_sweep_steps(args, result) -> tuple[str, int]:
    return "rootlocus.sweep_steps", len(result.steps)


def _count_ambiguities(args, result) -> tuple[str, int]:
    return "rootlocus.ambiguous_pairings", len(result)


# Work counts read off a traced call's arguments or result, keyed like
# TRACE_POINTS by (module, attribute).
COUNTERS = {
    ("dcgridlab.cli", "run"): _count_rows,
    ("dcgridlab.cli", "write_csv"): _count_csv_bytes,
    ("dcgridlab.cli", "sweep_power_loop"): _count_sweep_steps,
    ("dcgridlab.cli", "sweep_voltage_loop"): _count_sweep_steps,
    ("dcgridlab.rootlocus", "sweep_power_loop"): _count_sweep_steps,
    ("dcgridlab.rootlocus", "sweep_voltage_loop"): _count_sweep_steps,
    ("dcgridlab.rootlocus", "LocusResult.pairing_ambiguities"): _count_ambiguities,
}


def _owner(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span store plus the wrappers that fill it; one per traced run."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("i")
        self.iteration = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str], int] = {}
        self.iteration_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str, counter):
        name_id = SPAN_NAMES.index(span_name)
        error_key = span_name.split(".", 1)[0] + ".errors"
        counts = self.counts
        names, parents, iters = self.name, self.parent, self.iteration
        starts, ends, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            iters.append(self.iteration_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                slot = (self.iteration_id, error_key)
                counts[slot] = counts.get(slot, 0) + 1
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if counter is not None:
                key, n = counter(args, result)
                slot = (self.iteration_id, key)
                counts[slot] = counts.get(slot, 0) + n
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, attr, span_name in TRACE_POINTS:
                owner, name = _owner(module_name, attr)
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(
                    original, span_name, COUNTERS.get((module_name, attr))))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.uint16).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "iteration": np.frombuffer(self.iteration, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path) -> None:
        """Write every span as arrays, with the span-name table, to an .npz file."""
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())

    def iteration_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer times (s) and counts of every traced iteration.

        ``<span>_s`` is the time inside calls of that span name, children
        included; ``<span>_self_s`` leaves out the part of each call that its
        child spans cover.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(len(dur))
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child

        out: dict[int, dict[str, float]] = {}
        for it in np.unique(a["iteration"]):
            mine = a["iteration"] == it
            m: dict[str, float] = {"spans": int(mine.sum())}
            for i, span in enumerate(SPAN_NAMES):
                sel = mine & (a["name"] == i)
                m[f"{span}_s"] = float(dur[sel].sum())
                m[f"{span}_self_s"] = float(self_time[sel].sum())
                m[f"{span}_calls"] = int(sel.sum())
            out[int(it)] = m
        for (it, key), n in self.counts.items():
            out.setdefault(it, {})[key] = n
        return out

    def layer_metrics(self, iterations: int) -> list[dict[str, float]]:
        """LAYER_METRICS of iterations 0 .. iterations-1; absent layers read 0."""
        per_iteration = self.iteration_metrics()
        return [{metric: per_iteration.get(it, {}).get(key, 0)
                 for metric, key in LAYER_METRICS.items()}
                for it in range(iterations)]
