"""Workload definitions and seeded inputs for the dcgridlab benchmark.

Each workload is a fixed sequence of ``dcgrid-lab`` commands (plus, for
``design-sweep``, two library calls) run against one generated INI file.  The
seed only moves the inputs a real study would vary; the package never sees the
seed, only the INI.  Seed 0 writes the bench defaults, i.e. the paper's
reference study.  This module uses the standard library only, so the
orchestrating process can build inputs without importing numpy or dcgridlab.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Bench defaults of [scenario] load_steps and [sweep] r_max (see
# dcgridlab.config._DEFAULTS); seed 0 reproduces them exactly.
DEFAULT_LOAD_STEPS = ((1.0, 2000.0), (20.0, 6000.0))
DEFAULT_R_MAX = 2.0

# Fixed by the bench defaults and never varied by a seed.
ACTIVATION_TIME = 5.0
DURATION = 25.0
PLANT_DT = 1e-4
SECONDARY_DT = 0.02
NOMINAL_BUS_VOLTAGE = 400.0
RATED_POWERS = (4000.0, 2000.0)
MAX_TOTAL_LOAD = 6000.0

# Dense root-locus sweep of the design-sweep workload (bench default: 50).
SWEEP_STEPS = 1000

WORKLOADS = {
    "simulate-cascade": (
        "dcgrid-lab simulate: 25 s cascade scenario, 250k plant rows and a 31 MB "
        "CSV; sim.run and cli.write_csv each take about half"),
    "design-sweep": (
        "tune, a 1000-step rootlocus and bode, then pole pairing on both loci: "
        "lti/tuning/rootlocus/grid only, zero sim time"),
}


@dataclass(frozen=True)
class Inputs:
    """What a seed chooses: absolute load levels over time, and the sweep end."""

    load_steps: tuple[tuple[float, float], ...]
    r_max: float

    def events(self) -> list[float]:
        """Scored event times: activation plus every load step after it."""
        return [ACTIVATION_TIME] + [t for t, _ in self.load_steps
                                    if t > ACTIVATION_TIME]


def inputs_for_seed(seed: int) -> Inputs:
    """Seed 0 is the reference study; other seeds draw nearby studies.

    Load steps stay on the 20 ms secondary grid: one before activation in
    [0.5, 4] s, one in [8, 20] s so both the activation transient and the step
    settle before the next boundary.  Load levels lie in [500, 6000] W, at most
    the 6 kW the converters are rated for together, and differ by at least
    500 W.  The sweep end r_max lies in [2, 4] ohm.
    """
    if seed == 0:
        return Inputs(DEFAULT_LOAD_STEPS, DEFAULT_R_MAX)
    rng = random.Random(seed)
    t1 = rng.randint(25, 200) / 50.0
    t2 = rng.randint(400, 1000) / 50.0
    p1 = rng.randint(10, 60) * 50.0
    p2 = rng.choice([p * 50.0 for p in range(10, 121)
                     if abs(p * 50.0 - p1) >= 500.0])
    r_max = round(rng.uniform(2.0, 4.0), 3)
    return Inputs(((t1, p1), (t2, p2)), r_max)


def render_ini(workload: str, inputs: Inputs) -> str:
    """INI text for one workload; float keys use repr so seed 0 is byte-equal
    to the bench-default strings."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    steps = ", ".join(f"{t!r}:{p!r}" for t, p in inputs.load_steps)
    lines = ["[scenario]", f"load_steps = {steps}", "",
             "[sweep]", f"r_max = {inputs.r_max!r}"]
    if workload == "design-sweep":
        lines.append(f"steps = {SWEEP_STEPS}")
    return "\n".join(lines) + "\n"


def cli_commands(workload: str) -> list[list[str]]:
    """The dcgrid-lab argument lists of one iteration, without --config/--out."""
    if workload == "simulate-cascade":
        return [["simulate"]]
    if workload == "design-sweep":
        return [["tune"], ["rootlocus"], ["bode", "--plant", "voltage-loop"]]
    raise ValueError(f"unknown workload {workload!r}")
