"""Command-line entry point: tune, simulate, compare, rootlocus, bode.

Every output file embeds a manifest line (tool version plus a hash of the
effective configuration), and the effective configuration itself is echoed to
the output directory, so a run can be reproduced exactly from its outputs.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .config import (CONVENTIONAL_HIGH_PI, CONVENTIONAL_LOW_PI, ConfigError,
                     RunConfig, load_config, render_config)
from .control import CascadeScheme, ConventionalScheme, weights_from_ratings
from .grid import (OUTER_PLANT_MODES, GridModelError, check_converter_index,
                   pi_tf, power_plant_tf, voltage_loop_plant_tf)
from .lti import (NoCrossoverError, TransferFunction, freq_response, tf_constant,
                  tf_series)
from .rootlocus import LocusResult, sweep_power_loop, sweep_voltage_loop
from .sim import (DEFAULT_ITAE_WINDOW, SimResult, SimulationDiverged,
                  SimulationError, itae_current, itae_voltage, run, voltage_settling)
from .tuning import InfeasibleDesignError, TunedController, design_pi, verify_design

log = logging.getLogger("dcgridlab")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

COMPARE_CASES = ("conventional-low", "conventional-high", "proposed")


@dataclass(frozen=True)
class RunManifest:
    """Provenance stamp carried by every output file."""

    version: str
    subcommand: str
    config_sha256: str

    def as_dict(self) -> dict:
        return {"tool": "dcgrid-lab", "version": self.version,
                "subcommand": self.subcommand,
                "config_sha256": self.config_sha256,
                "deterministic": True}

    def comment_line(self) -> str:
        return (f"# dcgrid-lab {self.version} {self.subcommand} "
                f"config={self.config_sha256[:12]}")


def _manifest(cfg: RunConfig, subcommand: str) -> RunManifest:
    digest = hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()
    return RunManifest(version=__version__, subcommand=subcommand,
                       config_sha256=digest)


def _fmt(x) -> str:
    return format(x, ".12g") if isinstance(x, float) else str(x)


# rows per formatted chunk: on a 250k-row timeseries, chunks of 128-512 rows
# raised peak RSS by 1-3 MB (their multi-kilobyte strings fragment the heap)
# and were no faster than 32
_CSV_CHUNK_ROWS = 32


def write_csv(path: Path, manifest: RunManifest, header: Sequence[str],
              columns: Iterable, note: Optional[str] = None) -> None:
    """Manifest line, optional ``# note`` line, header, then one line per row.

    ``columns`` holds one equal-length sequence (array or list) per header
    field.  Float columns are written ``%.12g``, which is :func:`_fmt`'s rule
    (``inf``, ``-inf`` and ``nan`` come out as such), every other column with
    ``str``.  Rows are formatted ``_CSV_CHUNK_ROWS`` at a time by one ``%`` on
    the line template repeated per row, so no full-size copy of the table is
    made.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0   # zip(*rows) of no rows is empty
    if columns and (len(columns) != len(header)
                    or any(len(c) != n_rows for c in columns)):
        raise ValueError(f"write_csv: {len(header)} header fields need as many "
                         f"equal-length columns")
    line = ",".join("%.12g" if c.dtype.kind == "f" else "%s"
                    for c in columns) + "\n"
    # comma-separated, '.' decimal, LF endings: byte-stable for golden files
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(manifest.comment_line() + "\n")
        if note is not None:
            fh.write(f"# {note}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            chunk = [c[start:start + _CSV_CHUNK_ROWS].tolist() for c in columns]
            cells = tuple(itertools.chain.from_iterable(zip(*chunk)))
            fh.write(line * len(chunk[0]) % cells)


def _write_bode(path: Path, manifest: RunManifest, g: TransferFunction,
                note: Optional[str] = None) -> None:
    omegas = np.logspace(-2, 5, 400)
    write_csv(path, manifest, ("omega_rad_s", "magnitude_db", "phase_deg"),
              (omegas, *freq_response(g, omegas)), note=note)


def _json_safe(value):
    # keep the files standard JSON: non-finite numbers become null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_json(path: Path, manifest: RunManifest, payload: dict) -> None:
    doc = _json_safe({"manifest": manifest.as_dict(), **payload})
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _prepare_outdir(cfg: RunConfig, out: str) -> Path:
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config_effective.ini", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(f"# dcgrid-lab {__version__} effective configuration\n")
        fh.write(render_config(cfg))
    return outdir


# ---------------------------------------------------------------------------
# subcommands


def _tuned_entry(tuned: TunedController) -> dict:
    return {"kp": tuned.gains.kp, "ki": tuned.gains.ki,
            "achieved_crossover_rad_s": tuned.achieved_crossover,
            "achieved_margin_deg": tuned.achieved_margin}


def cmd_tune(cfg: RunConfig, outdir: Path, mode: str) -> int:
    manifest = _manifest(cfg, "tune")
    power_plant = power_plant_tf(cfg.grid, 0)
    try:
        power = design_pi(power_plant, cfg.tuning.power)
    except InfeasibleDesignError as exc:
        log.error("power loop design infeasible: %s", exc)
        return EXIT_NUMERICAL

    results = {"power_loop": _tuned_entry(power), "voltage_loop_mode": mode}
    chosen = None
    for m in OUTER_PLANT_MODES:
        plant = voltage_loop_plant_tf(cfg.grid, 0, power.gains, mode=m)
        try:
            tuned = design_pi(plant, cfg.tuning.voltage)
        except InfeasibleDesignError as exc:
            results[f"voltage_loop[{m}]"] = {"infeasible": str(exc)}
            continue
        results[f"voltage_loop[{m}]"] = _tuned_entry(tuned)
        if m == mode:
            chosen, voltage_plant = tuned, plant
    write_json(outdir / "gains.json", manifest, results)
    if chosen is None:
        log.error("voltage loop design infeasible in mode %s", mode)
        return EXIT_NUMERICAL

    for name, label, tuned, plant in (
            ("power", "power loop", power, power_plant),
            ("voltage", f"voltage loop [{mode}]", chosen, voltage_plant)):
        _write_bode(outdir / f"bode_{name}_loop.csv", manifest,
                    tf_series(pi_tf(tuned.gains), plant))
        print(f"{label}: kp={tuned.gains.kp:.6g} ki={tuned.gains.ki:.6g} "
              f"(crossover {tuned.achieved_crossover:.4g} rad/s, "
              f"margin {tuned.achieved_margin:.4g} deg)")
    return EXIT_OK


def _score_events(cfg: RunConfig, result: SimResult) -> list[dict]:
    return [{"event_time_s": t0,
             "itae_v": itae_voltage(result, t0, DEFAULT_ITAE_WINDOW),
             "itae_i": itae_current(result, t0, DEFAULT_ITAE_WINDOW),
             "itae_window_s": DEFAULT_ITAE_WINDOW,
             "settling_v_s": voltage_settling(result, t0, span)}
            for t0, span in cfg.scenario().scored_events()]


def cmd_simulate(cfg: RunConfig, outdir: Path) -> int:
    manifest = _manifest(cfg, "simulate")
    try:
        result = run(cfg.scenario())
        scored = _score_events(cfg, result)
    except SimulationError as exc:
        log.error("simulation failed: %s", exc)
        return EXIT_NUMERICAL
    columns = (result.time,
               result.power[:, 0], result.power[:, 1],
               result.bus_voltage,
               result.current[:, 0], result.current[:, 1],
               result.terminal_voltage[:, 0], result.terminal_voltage[:, 1],
               result.regulated_voltage,
               result.voltage_reference[:, 0], result.voltage_reference[:, 1])
    write_csv(outdir / "timeseries.csv", manifest,
              ("t_s", "dP1_w", "dP2_w", "dVg_bus_v", "I1_a", "I2_a",
               "Vterm1_v", "Vterm2_v", "Vreg_v", "ref1_v", "ref2_v"), columns)
    write_json(outdir / "itae.json", manifest,
               {"scheme": cfg.scheme_kind, "events": scored})
    for entry in scored:
        print(f"event t={entry['event_time_s']:g}s: "
              f"ITAE_V={entry['itae_v']:.6g} V*s^2  "
              f"ITAE_I={entry['itae_i']:.6g} A*s^2  "
              f"settling={entry['settling_v_s']:.4g} s")
    return EXIT_OK


def _case_scheme(cfg: RunConfig, case: str):
    if case == "proposed":
        return CascadeScheme(power_pi=cfg.power_pi, bus_voltage_pi=cfg.voltage_pi,
                             weights=weights_from_ratings(cfg.grid.rated_powers))
    gains = CONVENTIONAL_LOW_PI if case == "conventional-low" else CONVENTIONAL_HIGH_PI
    return ConventionalScheme(droop_resistance=cfg.droop_ohm,
                              voltage_pi=gains, current_pi=cfg.current_pi)


def cmd_compare(cfg: RunConfig, outdir: Path) -> int:
    manifest = _manifest(cfg, "compare")
    # (case, event) -> (itae_v, itae_i, settling_v); a diverged case has one
    # ("FAILED") entry of NaNs.  Any other SimulationError (a run too large
    # for memory) fails every case alike and ends the command in main.
    table: dict[tuple[str, str], tuple[float, float, float]] = {}
    per_case: dict[str, Optional[list[dict]]] = {}
    failed = False
    for case in COMPARE_CASES:
        scenario = cfg.scenario(scheme=_case_scheme(cfg, case))
        try:
            result = run(scenario)
            scored = _score_events(cfg, result)
        except SimulationDiverged as exc:
            log.error("case %s failed: %s", case, exc)
            per_case[case] = None
            table[case, "FAILED"] = (math.nan, math.nan, math.nan)
            failed = True
            continue
        per_case[case] = scored
        for entry in scored:
            table[case, f"t={entry['event_time_s']:g}s"] = (
                entry["itae_v"], entry["itae_i"], entry["settling_v_s"])

    orderings = {}
    if not failed:
        events = [f"t={e['event_time_s']:g}s" for e in per_case["proposed"]]
        for event in events:
            p = table["proposed", event]
            hi = table["conventional-high", event]
            lo = table["conventional-low", event]
            orderings[event] = {
                "itae_v: proposed < conventional-high < conventional-low":
                    p[0] < hi[0] < lo[0],
                "itae_i: proposed < conventional-low < conventional-high":
                    p[1] < lo[1] < hi[1],
                "settling: proposed < conventional-high < conventional-low":
                    p[2] < hi[2] < lo[2],
            }

    write_csv(outdir / "comparison.csv", manifest,
              ("case", "event", "itae_v", "itae_i", "settling_v_s"),
              zip(*(key + scores for key, scores in table.items())))
    write_json(outdir / "comparison.json", manifest,
               {"cases": per_case, "orderings": orderings})

    for (case, event), (itae_v, itae_i, settling_v) in table.items():
        print(f"{case:18s} {event:10s} itae_v={_fmt(itae_v):>14s} "
              f"itae_i={_fmt(itae_i):>14s} settling={_fmt(settling_v)}")
    for event, checks in orderings.items():
        for name, ok in checks.items():
            print(f"{event}: {name}: {'PASS' if ok else 'FAIL'}")
    return EXIT_NUMERICAL if failed else EXIT_OK


def _locus_columns(result: LocusResult):
    """One row per pole: the step's impedance, the pole and the step's verdict."""
    per_step = [len(step.poles) for step in result.steps]
    poles = np.array([p for step in result.steps for p in step.poles],
                     dtype=complex)
    return (np.repeat([step.resistance for step in result.steps], per_step),
            np.repeat([step.inductance for step in result.steps], per_step),
            poles.real, poles.imag,
            np.repeat([int(step.stable) for step in result.steps], per_step))


def cmd_rootlocus(cfg: RunConfig, outdir: Path, mode: str) -> int:
    manifest = _manifest(cfg, "rootlocus")
    power = sweep_power_loop(cfg.grid, cfg.power_pi, cfg.sweep)
    voltage = sweep_voltage_loop(cfg.grid, cfg.power_pi, cfg.voltage_pi,
                                 cfg.sweep, mode=mode)
    write_csv(outdir / "rootlocus_power.csv", manifest,
              ("r1_ohm", "l1_h", "pole_re", "pole_im", "stable"),
              _locus_columns(power))
    write_csv(outdir / "rootlocus_voltage.csv", manifest,
              ("r1_ohm", "l1_h", "pole_re", "pole_im", "stable"),
              _locus_columns(voltage))
    summary = {}
    for name, locus in (("power", power), ("voltage", voltage)):
        dom = locus.terminal_dominant_pole
        summary[name] = {"all_stable": locus.all_stable,
                         "terminal_dominant_pole_re": dom.real,
                         "terminal_dominant_pole_im": dom.imag}
        print(f"{name} loop: all stable = {locus.all_stable}, "
              f"terminal dominant pole = {dom.real:.6g}{dom.imag:+.6g}j")
    write_json(outdir / "rootlocus_summary.json", manifest, summary)
    return EXIT_OK


def cmd_bode(cfg: RunConfig, outdir: Path, plant_name: str, converter: int,
             mode: str) -> int:
    manifest = _manifest(cfg, "bode")
    annotation = None
    if plant_name == "unity":
        g = tf_constant(1.0)
    elif plant_name in ("power", "power-loop"):
        g = power_plant_tf(cfg.grid, converter)
        gains, spec = cfg.power_pi, cfg.tuning.power
    else:   # voltage or voltage-loop; argparse rejects any other --plant
        g = voltage_loop_plant_tf(cfg.grid, converter, cfg.power_pi, mode=mode)
        gains, spec = cfg.voltage_pi, cfg.tuning.voltage
    if plant_name.endswith("-loop"):   # the open loop: PI in series with the plant
        annotation = verify_design(g, gains, spec)
        g = tf_series(pi_tf(gains), g)

    note = None
    if annotation is not None and annotation.ok:
        note = (f"crossover_rad_s={_fmt(annotation.crossover)} "
                f"margin_deg={_fmt(annotation.margin)}")
    path = outdir / f"bode_{plant_name}.csv"
    _write_bode(path, manifest, g, note)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcgrid-lab",
        description="DC microgrid control laboratory: loop tuning, impedance "
                    "sweeps, transient simulation and scheme comparison.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file; "
                       "omit for built-in bench defaults")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("tune", help="design power and bus-voltage PI gains")
    common(p)
    p.add_argument("--mode", choices=OUTER_PLANT_MODES, default=None,
                   help="outer-loop plant composition")

    p = sub.add_parser("simulate", help="run one scenario and score its transients")
    common(p)

    p = sub.add_parser("compare", help="run the three-scheme comparison")
    common(p)

    p = sub.add_parser("rootlocus", help="cable-impedance pole sweep of both loops")
    common(p)
    p.add_argument("--mode", choices=OUTER_PLANT_MODES, default=None)

    p = sub.add_parser("bode", help="export a frequency response as CSV")
    common(p)
    p.add_argument("--plant", default="power",
                   choices=("power", "voltage", "power-loop", "voltage-loop", "unity"))
    p.add_argument("--converter", type=int, default=0)
    p.add_argument("--mode", choices=OUTER_PLANT_MODES, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=logging.DEBUG if os.environ.get("DCGRIDLAB_VERBOSE") else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_VALIDATION
    mode = getattr(args, "mode", None) or cfg.tuning.outer_plant_mode
    try:
        if args.subcommand == "bode":
            # before _prepare_outdir, so a rejected request writes nothing;
            # checked for every plant, unity included
            check_converter_index(cfg.grid, args.converter)
        outdir = _prepare_outdir(cfg, args.out)
        if args.subcommand == "tune":
            return cmd_tune(cfg, outdir, mode)
        if args.subcommand == "simulate":
            return cmd_simulate(cfg, outdir)
        if args.subcommand == "compare":
            return cmd_compare(cfg, outdir)
        if args.subcommand == "rootlocus":
            return cmd_rootlocus(cfg, outdir, mode)
        if args.subcommand == "bode":
            return cmd_bode(cfg, outdir, args.plant, args.converter, mode)
    except GridModelError as exc:
        log.error("invalid grid request: %s", exc)
        return EXIT_VALIDATION
    except (SimulationError, NoCrossoverError) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except OSError as exc:
        log.error("i/o failure: %s", exc)
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
