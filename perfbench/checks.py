"""Output checks run after every benchmark iteration.

Every seed is checked against invariants the paper states: the row count of
the time series, 2:1 power sharing and a regulated bus once the cascade has
settled, tuned gains near the paper's, and a stable root locus at every sweep
step.  Seed 0 is also compared, number by number, with values captured from
the package before any optimisation (``reference_seed0.json``).

The comparison tolerance is relative to the peak magnitude of the quantity
(a column of the time series, or one field across a JSON file).  At 1e-9 it
passes a last-digit flip of the 12 significant digits the CLI prints, as an
exact but reordered ZOH or sum would cause, and fails any simulation that is
actually different.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

REL_TOL = 1e-9
SHARING_TOL = 0.005          # 2:1 power sharing within 0.5 %
SETTLED_VREG_V = 0.05        # |Vreg| below 0.05 V once settled
GAIN_TOL = 0.02              # tuned gains within 2 % of the paper's
PAPER_POWER_PI = (0.001, 0.130)
PAPER_VOLTAGE_PI = (142.9, 563.8)

TIMESERIES_HEADER = ("t_s", "dP1_w", "dP2_w", "dVg_bus_v", "I1_a", "I2_a",
                     "Vterm1_v", "Vterm2_v", "Vreg_v", "ref1_v", "ref2_v")
SAMPLE_STRIDE = 997          # reference rows: every 997th, so all sub-step phases


def load_timeseries(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        header = tuple(fh.readline().strip().split(","))
    if header != TIMESERIES_HEADER:
        raise ValueError(f"unexpected timeseries header {header}")
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def timeseries_summary(data: np.ndarray) -> dict:
    """What the seed-0 reference keeps of the 250k-row series."""
    return {"rows": int(data.shape[0]),
            "peak": np.abs(data).max(axis=0).tolist(),
            "sum": data.sum(axis=0).tolist(),
            "abs_sum": np.abs(data).sum(axis=0).tolist(),
            "samples": data[::SAMPLE_STRIDE].tolist()}


def _leaves(doc, prefix=""):
    """Flatten a JSON document to {path: scalar}; the manifest is left out."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            if prefix == "" and k == "manifest":
                continue
            yield from _leaves(v, f"{prefix}/{k}")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, f"{prefix}/{i}")
    else:
        yield prefix, doc


def compare_json(name: str, got: dict, ref: dict) -> list[str]:
    """Numbers within REL_TOL of the peak of the same field; all else equal."""
    got_leaves, ref_leaves = dict(_leaves(got)), dict(_leaves(ref))
    if got_leaves.keys() != ref_leaves.keys():
        return [f"{name}: fields differ from the reference: "
                f"{sorted(got_leaves.keys() ^ ref_leaves.keys())}"]
    peak: dict[str, float] = {}
    for path, v in ref_leaves.items():
        if isinstance(v, float):
            field = path.rsplit("/", 1)[-1]
            peak[field] = max(peak.get(field, 0.0), abs(v))
    problems = []
    for path, want in ref_leaves.items():
        have = got_leaves[path]
        if isinstance(want, float) and isinstance(have, (int, float)) \
                and not isinstance(have, bool):
            tol = REL_TOL * peak[path.rsplit("/", 1)[-1]]
            if not abs(have - want) <= tol:
                problems.append(f"{name}{path}: {have!r} != reference {want!r}")
        elif have != want:
            problems.append(f"{name}{path}: {have!r} != reference {want!r}")
    return problems


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _row(time_s: float) -> int:
    """Index of the row stamped ``time_s``: the state before any jump at it."""
    return int(round(time_s / wl.PLANT_DT)) - 1


def _check_events(name: str, events: list, inputs: wl.Inputs) -> list[str]:
    problems = []
    times = [e["event_time_s"] for e in events]
    if times != inputs.events():
        problems.append(f"{name}: scored events {times} != {inputs.events()}")
    for e in events:
        if not (math.isfinite(e["itae_v"]) and e["itae_v"] > 0
                and math.isfinite(e["itae_i"]) and e["itae_i"] >= 0):
            problems.append(f"{name}: bad ITAE scores {e}")
        if e["settling_v_s"] is not None and not e["settling_v_s"] >= 0:
            problems.append(f"{name}: bad settling time {e}")
    return problems


def check_simulate(outdir: Path, inputs: wl.Inputs, ref) -> list[str]:
    problems = []
    data = load_timeseries(outdir / "timeseries.csv")
    n = int(round(wl.DURATION / wl.PLANT_DT))
    if data.shape != (n, len(TIMESERIES_HEADER)):
        return [f"timeseries: shape {data.shape}, expected ({n}, "
                f"{len(TIMESERIES_HEADER)})"]
    t, p1, p2, _, i1, i2, v1, v2, vreg = data[:, :9].T
    peak = np.abs(data).max(axis=0)
    if not np.allclose(t, np.arange(1, n + 1) * wl.PLANT_DT, rtol=0, atol=1e-9):
        problems.append("timeseries: time column is off the plant grid")
    for name, got, want, scale in (
            ("dP1 = Vnom*I1", p1, wl.NOMINAL_BUS_VOLTAGE * i1, peak[1]),
            ("dP2 = Vnom*I2", p2, wl.NOMINAL_BUS_VOLTAGE * i2, peak[2]),
            ("Vreg = (Vterm1+Vterm2)/2", vreg, (v1 + v2) / 2, max(peak[6], peak[7]))):
        if np.abs(got - want).max() > REL_TOL * scale:
            problems.append(f"timeseries: {name} violated")

    share = wl.RATED_POWERS[0] / wl.RATED_POWERS[1]
    events = inputs.events()
    for start, stop in zip(events, events[1:] + [wl.DURATION]):
        r = _row(stop)
        ratio = p1[r] / p2[r]
        if not abs(ratio / share - 1) <= SHARING_TOL:
            problems.append(f"timeseries: sharing {ratio:.5g}:1 at t={t[r]:g} s, "
                            f"settled after the event at {start:g} s")
        if not abs(vreg[r]) < SETTLED_VREG_V:
            problems.append(f"timeseries: |Vreg|={abs(vreg[r]):.3g} V at "
                            f"t={t[r]:g} s once settled")

    itae = _read_json(outdir / "itae.json")
    if itae.get("scheme") != "cascade":
        problems.append(f"itae.json: scheme {itae.get('scheme')!r}")
    problems += _check_events("itae.json", itae["events"], inputs)

    if ref is not None:
        want = ref["timeseries"]
        got = timeseries_summary(data)
        scale = np.asarray(want["peak"])
        for key, tol in (("peak", REL_TOL * scale), ("sum", REL_TOL * n * scale),
                         ("abs_sum", REL_TOL * n * scale)):
            bad = np.abs(np.asarray(got[key]) - want[key]) > tol
            if bad.any():
                problems.append(f"timeseries: column {key} differs from the "
                                f"reference in {np.asarray(TIMESERIES_HEADER)[bad].tolist()}")
        diff = np.abs(np.asarray(got["samples"]) - want["samples"]) > REL_TOL * scale
        if diff.any():
            problems.append(f"timeseries: {int(diff.any(axis=1).sum())} sampled "
                            "rows differ from the reference")
        problems += compare_json("itae.json", itae, ref["itae"])
    return problems


def _near(name: str, got: tuple[float, float], paper: tuple[float, float]) -> list[str]:
    if all(abs(g / p - 1) <= GAIN_TOL for g, p in zip(got, paper)):
        return []
    return [f"gains.json: {name} (kp, ki) = {got} not within "
            f"{GAIN_TOL:.0%} of the paper's {paper}"]


def bode_rows(path: Path) -> tuple[list[str], np.ndarray]:
    """Comment lines and the numbers of a bode CSV (comments, then a header)."""
    with open(path, encoding="utf-8") as fh:
        comments = [line for line in fh if line.startswith("#")]
    return comments, np.loadtxt(path, delimiter=",", skiprows=len(comments) + 1,
                                ndmin=2)


def bode_annotation(comments: list[str]) -> dict[str, float]:
    """The ``# crossover_rad_s=.. margin_deg=..`` line under the manifest."""
    if len(comments) != 2:
        return {}
    return {k: float(v) for k, v in (kv.split("=") for kv in comments[1][1:].split())}


def check_design(outdir: Path, inputs: wl.Inputs, ref) -> list[str]:
    problems = []
    gains = _read_json(outdir / "gains.json")
    power, voltage = gains["power_loop"], gains["voltage_loop[as-written]"]
    problems += _near("power loop", (power["kp"], power["ki"]), PAPER_POWER_PI)
    problems += _near("voltage loop", (voltage["kp"], voltage["ki"]), PAPER_VOLTAGE_PI)
    for name in ("bode_power_loop.csv", "bode_voltage_loop.csv"):
        _, rows = bode_rows(outdir / name)
        if rows.shape != (400, 3) or not np.isfinite(rows).all():
            problems.append(f"{name}: shape {rows.shape} or non-finite values")

    summary = _read_json(outdir / "rootlocus_summary.json")
    library = _read_json(outdir / "library.json")
    for loop in ("power", "voltage"):
        if not summary[loop]["all_stable"]:
            problems.append(f"rootlocus_summary.json: {loop} loop not all stable")
        locus = np.loadtxt(outdir / f"rootlocus_{loop}.csv", delimiter=",",
                           skiprows=2, ndmin=2)
        r, stable, pole_re = locus[:, 0], locus[:, 4], locus[:, 2]
        steps = np.unique(r)
        if len(steps) != wl.SWEEP_STEPS or len(locus) % wl.SWEEP_STEPS:
            problems.append(f"rootlocus_{loop}.csv: {len(steps)} steps, "
                            f"{len(locus)} rows")
            continue
        if not abs(steps[-1] / inputs.r_max - 1) <= REL_TOL:
            problems.append(f"rootlocus_{loop}.csv: sweep ends at {steps[-1]} ohm")
        if not ((stable == 1).all() and (pole_re < 0).all()):
            problems.append(f"rootlocus_{loop}.csv: an unstable step")
        lib = library[loop]
        if lib["shape"] != [wl.SWEEP_STEPS, len(locus) // wl.SWEEP_STEPS] \
                or not lib["finite"]:
            problems.append(f"library {loop} trajectories: {lib}")

    comments, rows = bode_rows(outdir / "bode_voltage-loop.csv")
    annotation = bode_annotation(comments)
    if set(annotation) != {"crossover_rad_s", "margin_deg"} or rows.shape != (400, 3):
        problems.append("bode_voltage-loop.csv: missing design annotation or rows")

    if ref is not None:
        problems += compare_json("gains.json", gains, ref["gains"])
        problems += compare_json("rootlocus_summary.json", summary,
                                 ref["rootlocus_summary"])
        problems += compare_json("bode_voltage-loop.csv", annotation,
                                 ref["bode_annotation"])
        got = {loop: library[loop]["ambiguities"] for loop in ("power", "voltage")}
        if got != ref["ambiguous_pairings"]:
            problems.append(f"pairing ambiguities {got} != reference "
                            f"{ref['ambiguous_pairings']}")
    return problems


CHECKS = {"simulate-cascade": check_simulate, "design-sweep": check_design}


def check_iteration(workload: str, outdir: Path, inputs: wl.Inputs, ref) -> list[str]:
    """Problems with one iteration's outputs; empty when they are correct.

    ``ref`` is the workload's entry of the seed-0 reference, or None.
    """
    try:
        return CHECKS[workload](outdir, inputs, ref)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
