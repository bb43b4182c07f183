"""Benchmark of the dcgrid-lab CLI, timed end to end and traced layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate-cascade --seed 0 --seconds 40 --trace 0

The workload's inputs are an INI file generated from the seed (seed 0 is the
paper's reference study).  With ``--trace 0`` the run reports the end-to-end
metrics: median iteration wall time, set-up time and peak RSS of the worker
process.  With ``--trace 1`` it reports per-layer times and counts from a run
whose layer functions are wrapped from outside the package.  Every
iteration's outputs are checked.  The last stdout line is one JSON object;
the lines before it are a readable summary, and the full record (environment
included) is written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads as wl
from tracing import PER_LAYER, unit

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
REFERENCE = Path(__file__).resolve().parent / "reference_seed0.json"
MARK = "@@perfbench "

# The package is single-threaded; keep numpy/scipy's native pools to one
# thread too, so a run loads one core of the machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Fresh processes per --trace 0 run that each import dcgridlab and run the
# warm-up iteration; setup_s is the median of their set-up times.
SETUPS = 3
RUN_LIMIT_S = 170.0        # kill the current child past this, and fail

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def _drive(argv: list[str], deadline: float, on_check) -> dict:
    """Run one worker to completion, answering its check requests."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), "--t0", repr(t0)] + argv,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, bufsize=1)
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith(MARK):
                sys.stderr.write(line)
                continue
            msg = json.loads(line[len(MARK):])
            if "check" in msg:
                problems = on_check(Path(msg["check"]))
                proc.stdin.write(json.dumps({"problems": problems}) + "\n")
                proc.stdin.flush()
            else:
                result = msg["result"]
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or result is None:
        raise WorkerError(f"worker {argv[:2]} ended with code {proc.returncode}")
    return result


def tail(walls: list[float]):
    """Highest percentile with at least ten iterations beyond it, or None."""
    n = len(walls)
    if n < 11:
        return None, None
    return sorted(walls)[n - 11], 100.0 * (n - 10) / n


def environment(versions: dict) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "src_lines": src_lines}


def _median_layers(layers: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in layers) for k in layers[0]}


def measure(args, config: Path, workdir: Path, inputs: wl.Inputs) -> dict:
    """Run the workers of one benchmark run and fold their reports."""
    reference = None
    if args.seed == 0:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S

    def on_check(outdir: Path) -> list[str]:
        return checks.check_iteration(args.workload, outdir, inputs, reference)

    common = ["--workload", args.workload, "--config", str(config),
              "--workdir", str(workdir), "--seconds", repr(args.seconds)]
    record: dict = {}
    if args.trace == 0:
        probes = [_drive(["--mode", "probe"] + common, deadline, on_check)
                  for _ in range(SETUPS - 1)]
        w = _drive(["--mode", "timed"] + common, deadline, on_check)
        workers = probes + [w]
        setups = [p["import_s"] + p["warmup_s"] for p in workers]
        value, pct = tail(w["walls"])
        metrics = {"wall_s": statistics.median(w["walls"]),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": w["peak_rss_kb"] / 1024.0}
        record.update(import_s=[p["import_s"] for p in workers],
                      warmup_s=[p["warmup_s"] for p in workers],
                      wall_s_tail={"value": value, "percentile": pct,
                                   "samples": len(w["walls"])})
    else:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}.npz"
        w = _drive(["--mode", "traced", "--spans", str(spans)] + common,
                   deadline, on_check)
        metrics = _median_layers(w["layers"])
        metrics.update({"trace.wall_s": statistics.median(w["traced_walls"]),
                        "trace.untraced_wall_s": statistics.median(w["walls"]),
                        "trace.overhead_s": w["overhead_s"]})
        workers = [w]
        record.update(spans=str(spans.relative_to(ROOT)),
                      traced_walls=w["traced_walls"], layers=w["layers"])
    record.update(walls=w["walls"], attempted=sum(p["attempted"] for p in workers),
                  failed=sum(p["failed"] for p in workers),
                  problems=[x for p in workers for x in p["problems"]][:10],
                  env=environment(w["versions"]), metrics=metrics)
    return record


def report(args, record: dict) -> dict:
    names = END_TO_END if args.trace == 0 else {m: unit(m) for m in PER_LAYER}
    metrics = {m: {"value": record["metrics"][m], "unit": u} for m, u in names.items()}
    attempted, failed = record["attempted"], record["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    for m, v in metrics.items():
        print(f"  {m:30s} {v['value']:.6g} {v['unit']}")
    if args.trace == 0:
        t = record["wall_s_tail"]
        print(f"  {'wall_s samples':30s} {t['samples']}")
        if t["value"] is None:
            print(f"  {'wall_s_tail':30s} n/a s (needs >= 11 iterations)")
        else:
            print(f"  {'wall_s_tail':30s} {t['value']:.6g} s "
                  f"(p{t['percentile']:.1f})")
    print(f"  {'error_rate':30s} {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted iterations)")
    for problem in record["problems"]:
        print(f"  problem: {problem.strip()}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dcgridlab" / "__init__.py").is_file():
        print(f"no dcgridlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    inputs = wl.inputs_for_seed(args.seed)
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        config = workdir / "workload.ini"
        config.write_text(wl.render_ini(args.workload, inputs), encoding="utf-8")
        record = measure(args, config, workdir, inputs)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    result = report(args, record)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "inputs": inputs.load_steps,
                   "r_max": inputs.r_max, **record, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
