"""The package's public surface and its runtime dependencies."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcgridlab

# every subcommand, bode for each of its plants, on a 3 s scenario; prints
# the exit codes, every scipy module the process loaded and every OpenSSL
# binding it loaded
EVERY_SUBCOMMAND = """
import json, sys
from dcgridlab.cli import main
config, out = sys.argv[1:]
runs = [["tune"], ["simulate"], ["compare"], ["rootlocus"]]
runs += [["bode", "--plant", plant] for plant in
         ("power", "voltage", "power-loop", "voltage-loop", "unity")]
codes = [main(argv + ["--config", config, "--out", out]) for argv in runs]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
openssl = sorted(m for m in ("_hashlib", "_ssl", "ssl") if m in sys.modules)
print(json.dumps({"codes": codes, "scipy": scipy, "openssl": openssl}))
"""


def run_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports this package."""
    src = str(Path(dcgridlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300, check=True).stdout


@pytest.fixture(scope="module")
def every_subcommand(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("every_subcommand")
    config = tmp_path / "run.ini"
    config.write_text("[scenario]\nactivation_time = 0.5\nduration = 3.0\n"
                      "load_steps = 0.2:2000.0, 1.0:4000.0\n", encoding="utf-8")
    report = json.loads(run_python(EVERY_SUBCOMMAND, str(config),
                                   str(tmp_path / "out")).splitlines()[-1])
    assert report["codes"] == [0] * 9
    return report


def test_every_public_name_resolves():
    missing = [name for name in dcgridlab.__all__ if not hasattr(dcgridlab, name)]
    assert missing == []
    assert len(set(dcgridlab.__all__)) == len(dcgridlab.__all__)


def test_no_subcommand_imports_scipy(every_subcommand):
    # scipy serves the tests as an oracle only; the runtime needs numpy alone
    assert every_subcommand["scipy"] == []


@pytest.mark.skipif(not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))),
                    reason="this Python has no builtin SHA-256 module")
def test_no_subcommand_loads_openssl(every_subcommand):
    # the manifest hash is CPython's builtin SHA-256: importing hashlib would
    # load OpenSSL, about 3.8 MB of peak RSS per process.  Checked in a fresh
    # process, as this one's test tools import hashlib
    assert every_subcommand["openssl"] == []


def test_hashlib_serves_a_build_without_builtin_sha256():
    # as on a build without builtin hashes: the same digest, from hashlib
    digest = run_python("""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None   # imports fail
from dcgridlab import cli
print(cli.sha256 is __import__("hashlib").sha256, cli.sha256(b"dcgrid").hexdigest())
""")
    assert digest.split() == ["True", hashlib.sha256(b"dcgrid").hexdigest()]
