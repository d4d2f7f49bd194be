"""The experiment scripts run end to end with small arguments.

Each script runs in a fresh interpreter with ``src`` on its path; it must exit
0 and print its expected closing line.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from treeact.tower import FiniteTreeAction, InverseSystem, build_congruence_tower, system_from_json
from treeact.trees import Tree

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


class TestCensusChecks:
    """A census row is consistent only if the tower passes what `tower verify` checks."""

    @staticmethod
    def row_for(monkeypatch, broken):
        spec = importlib.util.spec_from_file_location(
            "tower_census", ROOT / "scripts" / "tower_census.py")
        census = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(census)
        monkeypatch.setattr(census, "build_congruence_tower", lambda *a, **k: broken)
        return census.census_row(2, 2, 2, 1000)

    def test_sound_tower(self, monkeypatch):
        assert self.row_for(monkeypatch, build_congruence_tower(2, 2, 2))["ok"]

    def test_invalid_level(self, monkeypatch):
        sys_ = build_congruence_tower(2, 2, 2)
        mid = sys_.levels[1]
        duplicated = Tree(mid.tree.vertices, mid.tree.edges + mid.tree.edges[:1])
        levels = [sys_.levels[0], FiniteTreeAction(duplicated, mid.generators), sys_.levels[2]]
        row = self.row_for(monkeypatch, InverseSystem(levels, sys_.bonds))
        assert row["equivariant"] and not row["ok"]

    def test_bond_not_identity_below(self, monkeypatch):
        sys_ = build_congruence_tower(2, 2, 2)
        collapsed = {v: "0|e" for v in sys_.bonds[1]}
        row = self.row_for(monkeypatch, InverseSystem(sys_.levels, [sys_.bonds[0], collapsed]))
        assert row["equivariant"] and not row["ok"]

    @pytest.mark.parametrize("label", sorted(oracles.broken_towers()))
    def test_broken_tower(self, monkeypatch, label):
        # the towers whose failing `tower verify` reports the CLI golden lines pin
        row = self.row_for(monkeypatch, system_from_json(oracles.broken_towers()[label]))
        assert row["equivariant"] == (label != "scrambled_bond") and not row["ok"]
