"""The package's public surface and its runtime dependencies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dcgridlab

# every subcommand, bode for each of its plants, on a 3 s scenario; prints
# the exit codes and every scipy module the process loaded
EVERY_SUBCOMMAND = """
import json, sys
from dcgridlab.cli import main
config, out = sys.argv[1:]
runs = [["tune"], ["simulate"], ["compare"], ["rootlocus"]]
runs += [["bode", "--plant", plant] for plant in
         ("power", "voltage", "power-loop", "voltage-loop", "unity")]
codes = [main(argv + ["--config", config, "--out", out]) for argv in runs]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_every_public_name_resolves():
    missing = [name for name in dcgridlab.__all__ if not hasattr(dcgridlab, name)]
    assert missing == []
    assert len(set(dcgridlab.__all__)) == len(dcgridlab.__all__)


def test_no_subcommand_imports_scipy(tmp_path):
    # scipy serves the tests as an oracle only; the runtime needs numpy alone
    config = tmp_path / "run.ini"
    config.write_text("[scenario]\nactivation_time = 0.5\nduration = 3.0\n"
                      "load_steps = 0.2:2000.0, 1.0:4000.0\n", encoding="utf-8")
    src = str(Path(dcgridlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", EVERY_SUBCOMMAND, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0] * 9, "scipy": []}
