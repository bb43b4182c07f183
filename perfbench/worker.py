"""One benchmark process: set up, then run one workload closed-loop.

Started by ``run.py``, never by hand.  The process imports dcgridlab from the
checkout's ``src/``, runs one untimed warm-up iteration, then runs iterations
back to back until its time is up: one caller, each iteration starting when
the previous one returned.  Each iteration writes into a fresh directory; the
worker asks the parent to check it (the parent replies with the problems it
found) and then deletes it.  Checking in the parent keeps the check's memory
out of this process's peak RSS.

Modes:
  probe   import dcgridlab and run the warm-up iteration only (set-up time)
  timed   warm-up, then timed iterations with tracing off
  traced  warm-up, untraced iterations for half the time, then traced
          iterations for the other half (per-layer metrics)

Messages to the parent are single lines on stdout starting with MARK; the
CLI's own stdout goes to an in-memory buffer and is dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import dcgridlab
from dcgridlab import cli, config as config_mod, rootlocus

import workloads
from tracing import Tracer

MARK = "@@perfbench "


def send(**msg) -> None:
    """One message line to the parent."""
    sys.stdout.write(MARK + json.dumps(msg) + "\n")
    sys.stdout.flush()


def ask_parent(outdir: Path) -> list[str]:
    """Have the parent check an iteration's outputs; returns its problems."""
    send(check=str(outdir))
    return json.loads(sys.stdin.readline())["problems"]


class Session:
    """Runs one workload's iterations and counts the ones that fail.

    ``check`` maps an iteration's output directory to a list of problems.
    """

    def __init__(self, workload: str, config: Path, workdir: Path, check):
        self.workload = workload
        self.config = str(config)
        self.workdir = workdir
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def iterate(self) -> float:
        """Run, check and clean up one iteration; return its wall time."""
        outdir = Path(tempfile.mkdtemp(prefix="iter-", dir=self.workdir))
        try:
            t0 = time.perf_counter()
            try:
                errors, loci = run_iteration(self.workload, self.config, outdir)
            except Exception:
                errors, loci = [traceback.format_exc(limit=3)], None
            wall = time.perf_counter() - t0
            if not errors:
                if loci is not None:
                    with open(outdir / "library.json", "w", encoding="utf-8") as fh:
                        json.dump(library_summary(loci), fh)
                errors = self.check(outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        self.attempted += 1
        if errors:
            self.failed += 1
            self.problems.extend(errors[:3])
        return wall

    def loop(self, seconds: float, walls: list[float], tracer=None) -> None:
        """Closed loop: iterate until ``seconds`` have passed, at least once.

        With a tracer, each iteration's spans carry its index in ``walls``.
        """
        deadline = time.monotonic() + seconds
        while True:
            if tracer is not None:
                tracer.iteration_id = len(walls)
            walls.append(self.iterate())
            if time.monotonic() >= deadline:
                return


def run_iteration(workload: str, config: str, outdir: Path):
    """The workload's commands, in order; returns (errors, paired loci).

    The paired loci, ``{loop: (trajectories, ambiguities)}``, come from the
    design-sweep's library calls; other workloads return None.
    """
    for argv in workloads.cli_commands(workload):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--config", config, "--out", str(outdir)])
        if rc != 0:
            return [f"dcgrid-lab {argv[0]} exited with code {rc}"], None
    if workload != "design-sweep":
        return [], None

    cfg = config_mod.load_config(config)
    loci = {"power": rootlocus.sweep_power_loop(cfg.grid, cfg.power_pi, cfg.sweep),
            "voltage": rootlocus.sweep_voltage_loop(
                cfg.grid, cfg.power_pi, cfg.voltage_pi, cfg.sweep,
                mode=cfg.tuning.outer_plant_mode)}
    return [], {name: (locus.trajectories(), locus.pairing_ambiguities())
                for name, locus in loci.items()}


def library_summary(loci: dict) -> dict:
    """What the output checks need of the library calls' results."""
    return {name: {"shape": list(paths.shape),
                   "finite": bool(np.isfinite(paths).all()),
                   "ambiguities": len(ambiguities)}
            for name, (paths, ambiguities) in loci.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--workload")
    parser.add_argument("--config", type=Path)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import_s = time.monotonic() - args.t0
    checkout_pkg = Path(__file__).resolve().parents[1] / "src" / "dcgridlab"
    if Path(dcgridlab.__file__).resolve().parent != checkout_pkg:
        print(f"dcgridlab imported from {dcgridlab.__file__}, not the checkout",
              file=sys.stderr)
        return 1
    session = Session(args.workload, args.config, args.workdir, ask_parent)

    versions = {"numpy": np.__version__, "scipy": scipy.__version__,
                "dcgridlab": dcgridlab.__version__}
    result = {"import_s": import_s, "warmup_s": session.iterate(),
              "versions": versions}

    walls: list[float] = []
    if args.mode == "timed":
        session.loop(args.seconds, walls)
    elif args.mode == "traced":
        session.loop(args.seconds / 2, walls)
        traced: list[float] = []
        with Tracer() as tracer:
            session.loop(args.seconds / 2, traced, tracer)
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(args.spans)
        result["traced_walls"] = traced
        result["layers"] = tracer.layer_metrics(len(traced))
        result["overhead_s"] = statistics.median(traced) - statistics.median(walls)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(walls=walls, attempted=session.attempted, failed=session.failed,
                  problems=session.problems[:10], peak_rss_kb=usage.ru_maxrss)
    send(result=result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
