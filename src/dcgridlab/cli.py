"""Command-line entry point: tune, simulate, compare, rootlocus, bode.

Every setting of a run comes from the loaded configuration; the options name
only the files and, for bode, the response to write.  Every output file embeds
a manifest line (tool version plus a hash of the effective configuration), and
the effective configuration itself is echoed to the output directory, so a run
can be reproduced exactly from its outputs.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .config import (CONVENTIONAL_HIGH_PI, CONVENTIONAL_LOW_PI, ConfigError,
                     RunConfig, build_scheme, load_config, render_config)
from .grid import (OUTER_PLANT_MODES, GridModelError, check_converter_index,
                   power_plant_tf, voltage_loop_plant_tf)
from .lti import FREQUENCY_GRID, LtiError, TransferFunction, freq_response, tf
from .rootlocus import LocusResult, sweep_power_loop, sweep_voltage_loop
from .sim import (DEFAULT_ITAE_WINDOW, SimResult, SimulationDiverged,
                  SimulationError, itae_current, itae_voltage, run, voltage_settling)
from .tuning import DesignReport, InfeasibleDesignError, design_pi, verify_design

# CPython's builtin SHA-256, the one hashlib falls back to: importing hashlib
# loads OpenSSL, about 3.8 MB of peak RSS per process for one ~1 KB digest
try:
    from _sha2 import sha256           # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256     # Python 3.10 and 3.11
    except ImportError:                # a build without builtin hashes (FIPS)
        from hashlib import sha256

log = logging.getLogger("dcgridlab")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# compare's cases: scheme kind and bus-voltage PI (None: the configured one)
COMPARE_CASES = {"conventional-low": ("conventional", CONVENTIONAL_LOW_PI),
                 "conventional-high": ("conventional", CONVENTIONAL_HIGH_PI),
                 "proposed": ("cascade", None)}


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


def _fmt(x) -> str:
    return format(x, ".12g") if isinstance(x, float) else str(x)


# rows per formatted chunk: within a chunk each distinct float is formatted
# once.  On the bench-default 250k-row timeseries, 1000-row chunks hold 1.00M
# distinct cells of 2.75M, against 0.99M for whole columns, while memory
# stays chunk-sized (a whole-column np.unique raised peak RSS 56 -> 222 MB)
_CSV_CHUNK_ROWS = 1000
# a table of at least this many chunks is formatted by two processes.  With
# the second CPU free the helper costs ~3 ms (fork, pipe, reaping) and halves
# each chunk's 1.5-3 ms: break-even near 8 chunks of the bench-default
# timeseries (12: 21 -> 16 ms, 16: 28 -> 20 ms, medians of 40 alternating
# runs).  Twice that, as a busy second CPU makes the helper a loss
_CSV_HELPER_MIN_CHUNKS = 16


def _format_chunk(columns: list, floats: list, start: int) -> bytes:
    """Rows ``start`` to ``start + _CSV_CHUNK_ROWS`` as UTF-8 CSV lines."""
    chunk = [c[start:start + _CSV_CHUNK_ROWS] for c in columns]
    # one row per float column, as its runs sort faster than rows do
    # (shape (0, rows) when there is none)
    block = np.array([c for c, f in zip(chunk, floats) if f],
                     np.float64).reshape(-1, len(chunk[0]))
    # the distinct bit patterns, ascending, as np.unique finds them, from one
    # stable sort (its runs follow the columns' runs) and a hand-built inverse
    keys = block.view(np.int64).ravel()
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    first = np.ones(len(keys), bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inv = np.empty(len(keys), np.intp)
    inv[order] = np.cumsum(first) - 1
    uniq = ordered[first]
    text = "%.12g\n" * len(uniq) % tuple(uniq.view(np.float64).tolist())
    strings = np.array(text.split("\n"), object)[inv.reshape(block.shape)]
    formatted = iter(strings.tolist())
    cells = [next(formatted) if f else [str(v) for v in c.tolist()]
             for c, f in zip(chunk, floats)]
    return ("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8")


def _fork_helper(columns: list, floats: list,
                 starts: range) -> Optional[tuple[int, BinaryIO]]:
    """Fork a process that formats the chunks at ``starts`` and sends each
    down a pipe as its length (8 bytes, little-endian) and its bytes.

    Returns the helper's pid and the pipe's read end, or None where this
    process may run on one CPU only or cannot fork.  The helper leaves only
    through ``os._exit``: 0 once every chunk is sent, 1 on any exception.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2:
        return None
    read_fd, write_fd = os.pipe()
    # room for 8 chunks, so neither process stalls on the other's jitter
    # (250 chunks: 464 -> 428 ms against the 64 KiB default)
    with contextlib.suppress(AttributeError, OSError):   # Linux only, quota
        import fcntl
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns of forking while BLAS threads are alive.
            # The helper only slices, sorts and formats, never calls BLAS, so
            # it needs no lock those threads may hold; and a warning raised as
            # an error would come after the fork, losing the helper's pid
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:   # no process or memory to spare: format in-process
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for start in starts:
                    data = _format_chunk(columns, floats, start)
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(pipe: BinaryIO) -> Optional[bytes]:
    """The helper's next chunk, or None if the pipe ends before all of it."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size) if len(head) == 8 else b""
    return data if len(head) == 8 and len(data) == size else None


def write_csv(path: Path, manifest: RunManifest, header: Sequence[str],
              columns: Iterable, note: Optional[str] = None) -> None:
    """Manifest line, optional ``# note`` line, header, then one line per row.

    ``columns`` holds one equal-length sequence (array or list) per header
    field.  Float columns are written ``%.12g``, which is :func:`_fmt`'s rule
    (``inf``, ``-inf`` and ``nan`` come out as such), every other column with
    ``str``.  Rows are formatted ``_CSV_CHUNK_ROWS`` at a time, so no
    full-size copy of the table is made; within a chunk, ``%.12g`` runs once
    per distinct float64 bit pattern (so ``-0.0`` stays apart from ``0.0``)
    and its string fills every cell that holds it.

    A table of at least ``_CSV_HELPER_MIN_CHUNKS`` chunks, on a process
    allowed 2 or more CPUs, is formatted by two processes with the same
    chunk code: a forked helper formats the odd chunks and pipes them back,
    while this process formats the even ones and writes every chunk in
    order, so the bytes do not depend on which path ran.  The helper is
    reaped before this returns or raises; it is killed first if this
    process fails, and a helper that fails or sends a short chunk raises
    ``OSError`` with its exit status.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0   # zip(*rows) of no rows is empty
    if columns and (len(columns) != len(header)
                    or any(c.shape != (n_rows,) for c in columns)):
        raise ValueError(f"write_csv: {len(header)} header fields need as many "
                         f"equal-length columns")
    floats = [c.dtype.kind == "f" for c in columns]
    starts = range(0, n_rows, _CSV_CHUNK_ROWS)
    helper = (_fork_helper(columns, floats, starts[1::2])
              if len(starts) >= _CSV_HELPER_MIN_CHUNKS else None)
    received = 0
    try:
        # comma-separated, '.' decimal, LF endings: byte-stable for golden files
        with open(path, "wb") as fh:
            fh.write(f"{manifest.comment_line()}\n".encode("utf-8"))
            if note is not None:
                fh.write(f"# {note}\n".encode("utf-8"))
            fh.write(f"{','.join(header)}\n".encode("utf-8"))
            for i, start in enumerate(starts):
                if helper is None or i % 2 == 0:
                    fh.write(_format_chunk(columns, floats, start))
                elif (data := _receive(helper[1])) is not None:
                    fh.write(data)
                    received += 1
                else:
                    break
    except BaseException:
        if helper is not None:
            import signal   # this path only: kept off the import path
            os.kill(helper[0], signal.SIGKILL)
        raise
    finally:
        if helper is not None:
            helper[1].close()
            status = os.waitstatus_to_exitcode(os.waitpid(helper[0], 0)[1])
    if helper is not None and (status or received < len(starts) // 2):
        raise OSError(f"{path.name}: the CSV helper process exited with status "
                      f"{status} after sending {received} of {len(starts) // 2} chunks")
    log.debug("wrote %s: %d rows in %d chunks, %s", path.name, n_rows, len(starts),
              "odd chunks formatted by a helper process" if helper else "all in-process")


def _write_bode(path: Path, manifest: RunManifest, g: TransferFunction,
                note: Optional[str] = None) -> None:
    write_csv(path, manifest, ("omega_rad_s", "magnitude_db", "phase_deg"),
              (FREQUENCY_GRID, *freq_response(g)), note=note)


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


def _prepare_outdir(config_text: str, out: str) -> Path:
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config_effective.ini", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(f"# dcgrid-lab {__version__} effective configuration\n")
        fh.write(config_text)
    return outdir


# ---------------------------------------------------------------------------
# subcommands


def _tuned_entry(tuned: DesignReport) -> dict:
    return {"kp": tuned.gains.kp, "ki": tuned.gains.ki,
            "achieved_crossover_rad_s": tuned.crossover,
            "achieved_margin_deg": tuned.margin}


def cmd_tune(cfg: RunConfig, outdir: Path, manifest: RunManifest,
             args: argparse.Namespace) -> int:
    """Design the power and bus-voltage PI gains."""
    mode = cfg.tuning.outer_plant_mode
    try:
        power = design_pi(power_plant_tf(cfg.grid, 0), cfg.tuning.power)
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
            chosen = tuned
    write_json(outdir / "gains.json", manifest, results)
    if chosen is None:
        log.error("voltage loop design infeasible in mode %s", mode)
        return EXIT_NUMERICAL

    for name, label, tuned in (("power", "power loop", power),
                               ("voltage", f"voltage loop [{mode}]", chosen)):
        _write_bode(outdir / f"bode_{name}_loop.csv", manifest, tuned.loop)
        print(f"{label}: kp={tuned.gains.kp:.6g} ki={tuned.gains.ki:.6g} "
              f"(crossover {tuned.crossover:.4g} rad/s, "
              f"margin {tuned.margin:.4g} deg)")
    return EXIT_OK


def _event_label(t: float) -> str:
    # the shortest positional form that reads back as t, so distinct event
    # times never share a label ("%g" keeps only 6 digits)
    return f"t={np.format_float_positional(t, trim='-')}s"


def _score_events(cfg: RunConfig, result: SimResult) -> list[dict]:
    return [{"event_time_s": t0,
             "itae_v": itae_voltage(result, t0),
             "itae_i": itae_current(result, t0),
             "itae_window_s": DEFAULT_ITAE_WINDOW,
             "settling_v_s": voltage_settling(result, t0, span)}
            for t0, span in cfg.scenario().scored_events()]


def cmd_simulate(cfg: RunConfig, outdir: Path, manifest: RunManifest,
                 args: argparse.Namespace) -> int:
    """Run one scenario and score its transients."""
    result = run(cfg.scenario())
    scored = _score_events(cfg, result)
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
        print(f"event {_event_label(entry['event_time_s'])}: "
              f"ITAE_V={entry['itae_v']:.6g} V*s^2  "
              f"ITAE_I={entry['itae_i']:.6g} A*s^2  "
              f"settling={entry['settling_v_s']:.4g} s")
    return EXIT_OK


def cmd_compare(cfg: RunConfig, outdir: Path, manifest: RunManifest,
                args: argparse.Namespace) -> int:
    """Run the three-scheme comparison."""
    # case -> its scored events, or None if it diverged; any other SimulationError
    # (a run too large for memory) fails every case alike and ends in main
    per_case: dict[str, Optional[list[dict]]] = {}
    for case, (kind, voltage_pi) in COMPARE_CASES.items():
        scheme = build_scheme(kind, cfg.grid, cfg.power_pi, voltage_pi or cfg.voltage_pi,
                              cfg.current_pi, cfg.droop_ohm)
        try:
            per_case[case] = _score_events(cfg, run(cfg.scenario(scheme=scheme)))
        except SimulationDiverged as exc:
            log.error("case %s failed: %s", case, exc)
            per_case[case] = None
    failed = None in per_case.values()

    # one row per (case, event); a diverged case has one ("FAILED") row of NaNs
    rows = [(case, "FAILED", math.nan, math.nan, math.nan) if e is None else
            (case, _event_label(e["event_time_s"]), e["itae_v"], e["itae_i"], e["settling_v_s"])
            for case, scored in per_case.items() for e in scored or [None]]
    orderings = {}
    if not failed:
        # every case scores the same events, so they pair by index
        for p, hi, lo in zip(per_case["proposed"], per_case["conventional-high"],
                             per_case["conventional-low"]):
            orderings[_event_label(p["event_time_s"])] = {
                "itae_v: proposed < conventional-high < conventional-low":
                    p["itae_v"] < hi["itae_v"] < lo["itae_v"],
                "itae_i: proposed < conventional-low < conventional-high":
                    p["itae_i"] < lo["itae_i"] < hi["itae_i"],
                "settling: proposed < conventional-high < conventional-low":
                    p["settling_v_s"] < hi["settling_v_s"] < lo["settling_v_s"],
            }

    write_csv(outdir / "comparison.csv", manifest,
              ("case", "event", "itae_v", "itae_i", "settling_v_s"), zip(*rows))
    write_json(outdir / "comparison.json", manifest,
               {"cases": per_case, "orderings": orderings})

    for case, event, itae_v, itae_i, settling_v in rows:
        print(f"{case:18s} {event:10s} itae_v={_fmt(itae_v):>14s} "
              f"itae_i={_fmt(itae_i):>14s} settling={_fmt(settling_v)}")
    for event, checks in orderings.items():
        for name, ok in checks.items():
            print(f"{event}: {name}: {'PASS' if ok else 'FAIL'}")
    return EXIT_NUMERICAL if failed else EXIT_OK


def _locus_columns(result: LocusResult):
    """One row per pole: the step's impedance, the pole and the step's verdict."""
    counts = result.counts
    poles = result.poles[np.arange(result.poles.shape[1]) < counts[:, None]]
    return (np.repeat(result.resistance, counts), np.repeat(result.inductance, counts),
            poles.real, poles.imag, np.repeat(result.stable.astype(int), counts))


def cmd_rootlocus(cfg: RunConfig, outdir: Path, manifest: RunManifest,
                  args: argparse.Namespace) -> int:
    """Sweep the cable impedance: the poles of both loops."""
    power = sweep_power_loop(cfg.grid, cfg.power_pi, cfg.sweep)
    voltage = sweep_voltage_loop(cfg.grid, cfg.power_pi, cfg.voltage_pi,
                                 cfg.sweep, mode=cfg.tuning.outer_plant_mode)
    summary = {}
    for name, locus in (("power", power), ("voltage", voltage)):
        write_csv(outdir / f"rootlocus_{name}.csv", manifest,
                  ("r1_ohm", "l1_h", "pole_re", "pole_im", "stable"),
                  _locus_columns(locus))
        dom = locus.terminal_dominant_pole
        summary[name] = {"all_stable": locus.all_stable,
                         "terminal_dominant_pole_re": dom.real,
                         "terminal_dominant_pole_im": dom.imag}
        print(f"{name} loop: all stable = {locus.all_stable}, "
              f"terminal dominant pole = {dom.real:.6g}{dom.imag:+.6g}j")
    write_json(outdir / "rootlocus_summary.json", manifest, summary)
    return EXIT_OK


def cmd_bode(cfg: RunConfig, outdir: Path, manifest: RunManifest,
             args: argparse.Namespace) -> int:
    """Export a frequency response as CSV."""
    plant_name = args.plant
    note = None
    if plant_name == "unity":
        g = tf([1.0], [1.0])
    elif plant_name in ("power", "power-loop"):
        g = power_plant_tf(cfg.grid, args.converter)
        gains, spec = cfg.power_pi, cfg.tuning.power
    else:   # voltage or voltage-loop; argparse rejects any other --plant
        g = voltage_loop_plant_tf(cfg.grid, args.converter, cfg.power_pi,
                                  mode=cfg.tuning.outer_plant_mode)
        gains, spec = cfg.voltage_pi, cfg.tuning.voltage
    if plant_name.endswith("-loop"):   # the open loop: PI in series with the plant
        report = verify_design(g, gains, spec)
        if report.ok:
            note = (f"crossover_rad_s={_fmt(report.crossover)} "
                    f"margin_deg={_fmt(report.margin)}")
        g = report.loop
    path = outdir / f"bode_{plant_name}.csv"
    _write_bode(path, manifest, g, note)
    print(f"wrote {path}")
    return EXIT_OK


COMMANDS = {"tune": cmd_tune, "simulate": cmd_simulate, "compare": cmd_compare,
            "rootlocus": cmd_rootlocus, "bode": cmd_bode}


# ---------------------------------------------------------------------------


# built once per process: each parse_args call fills a fresh Namespace from
# the defaults, so no option carries over from one main call to the next
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcgrid-lab",
        description="DC microgrid control laboratory: loop tuning, impedance "
                    "sweeps, transient simulation and scheme comparison.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.__doc__)
        p.add_argument("--config", default=None, help="INI config file; "
                       "omit for built-in bench defaults")
        p.add_argument("--out", default="out", help="output directory")
        if name == "bode":
            p.add_argument("--plant", default="power", choices=(
                "power", "voltage", "power-loop", "voltage-loop", "unity"))
            p.add_argument("--converter", type=int, default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=(logging.DEBUG if os.environ.get("DCGRIDLAB_VERBOSE", "") not in ("", "0")
               else logging.INFO),
        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_VALIDATION
    config_text = render_config(cfg)
    manifest = RunManifest(
        version=__version__, subcommand=args.subcommand,
        config_sha256=sha256(config_text.encode("utf-8")).hexdigest())
    try:
        if args.subcommand == "bode":
            # before _prepare_outdir, so a rejected request writes nothing;
            # checked for every plant, unity included
            check_converter_index(cfg.grid, args.converter)
        outdir = _prepare_outdir(config_text, args.out)
        return COMMANDS[args.subcommand](cfg, outdir, manifest, args)
    except GridModelError as exc:
        log.error("invalid grid request: %s", exc)
        return EXIT_VALIDATION
    except (SimulationError, LtiError) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except OSError as exc:
        log.error("i/o failure: %s", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
