"""Capture the seed-0 reference outputs that ``checks.py`` compares against.

    python3 perfbench/capture_reference.py

Runs one iteration of every workload at seed 0 with the package in ``src/``
and writes ``perfbench/reference_seed0.json``.  Run it only on a commit whose
numerics are trusted: the reference defines what a correct run prints.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from worker import run_iteration  # noqa: E402


def _payload(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("manifest")
    return doc


def capture(workload: str, outdir: Path) -> dict:
    config = outdir / "workload.ini"
    config.write_text(wl.render_ini(workload, wl.inputs_for_seed(0)), encoding="utf-8")
    errors, loci = run_iteration(workload, str(config), outdir)
    if errors:
        raise SystemExit(f"{workload}: {errors}")
    if workload == "simulate-cascade":
        data = checks.load_timeseries(outdir / "timeseries.csv")
        return {"timeseries": checks.timeseries_summary(data),
                "itae": _payload(outdir / "itae.json")}
    comments, _ = checks.bode_rows(outdir / "bode_voltage-loop.csv")
    return {"gains": _payload(outdir / "gains.json"),
            "rootlocus_summary": _payload(outdir / "rootlocus_summary.json"),
            "bode_annotation": checks.bode_annotation(comments),
            "ambiguous_pairings": {k: len(amb) for k, (_, amb) in loci.items()}}


def main() -> int:
    reference = {}
    for workload in wl.WORKLOADS:
        outdir = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir=HERE.parent))
        try:
            reference[workload] = capture(workload, outdir)
        finally:
            shutil.rmtree(outdir)
    with open(HERE / "reference_seed0.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
