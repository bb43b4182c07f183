"""The code-line counter of .github/scripts: a directory counts its *.py files."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def loc(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, ".github/scripts/loc.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.splitlines()


def test_directory_counts_its_python_files():
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src/dcgridlab").glob("*.py"))
    by_file = loc(*files)
    assert by_file[-1].endswith(" total") and int(by_file[-1].split()[0]) > 0
    assert loc("src/dcgridlab") == by_file
