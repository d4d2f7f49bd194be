"""The experiment scripts run end to end with small arguments.

Each script runs in a fresh interpreter with ``src`` on its path; it must exit
0 and print its expected closing line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name, args, closing", [
    ("tower_census.py", ["--max-depth", "1"], "census: all rows consistent"),
    ("hexagon_sweep.py", ["--r-max", "2", "--n-max", "4"],
     "embedded n=4 i=2 j=3 l=3     signs -+-+-+  pass"),
    ("order_search_experiments.py", ["--budget", "20000"],
     "hexagon-ball r=1      balls  13/ 121  sat"),
])
def test_script_closing_line(name, args, closing):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(closing)


def test_realize_demo_writes_files(tmp_path):
    proc = run_script("realize_demo.py", "--radius", "3", "--scrambles", "1",
                      "--out", str(tmp_path), "--svg")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "scramble0  denominators [1, 2]  verified=True  almost_free=True  round_trip=True")
    for label in ("standard", "scramble0"):
        written = {p.name for p in (tmp_path / label).iterdir()}
        assert written == {"realization.csv"} | {
            f"map_{k}.{ext}" for k in range(-3, 4) for ext in ("csv", "svg")}
