"""CLI behaviour: exit codes, schema-valid reports, byte determinism, artifacts."""

import hashlib
import io
import json
import shlex
from contextlib import redirect_stdout
from importlib import resources

import jsonschema
import pytest

from treeact import cli, presets


SCHEMA = json.loads(
    resources.files("treeact").joinpath("schemas/report.schema.json").read_text()
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def run_report(*argv):
    code, out = run_cli(*argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


class TestExitCodes:
    def test_pass_is_zero(self):
        code, report = run_report("identities", "hexagon", "-r", "1")
        assert code == 0 and report["outcome"] == "pass"

    def test_unsat_is_one(self):
        code, report = run_report("order", "search", "--preset", "torsion-z2")
        assert code == 1 and report["outcome"] == "unsat"

    def test_budget_is_two(self):
        code, report = run_report(
            "order", "search", "--preset", "z-ball-3", "--budget", "1"
        )
        assert code == 2 and report["outcome"] == "budget-exhausted"

    def test_usage_is_three(self):
        code, _ = run_cli("tower", "bogus")
        assert code == 3

    def test_missing_file_is_three(self):
        code, _ = run_cli("tree", "info", "--in", "/nonexistent/tree.json")
        assert code == 3

    @pytest.mark.parametrize("matrix", [
        {"n": 2, "mod": None, "entries": ["1", "0", "0", "1"]},
        {"n": 2, "mod": None, "entries": [True, False, False, True]},
        {"n": 2.0, "mod": None, "entries": [1, 0, 0, 1]},
        {"n": 2, "mod": "4", "entries": [1, 0, 0, 1]},
    ])
    def test_malformed_matrix_is_three(self, tmp_path, matrix):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix))
        code, _ = run_cli("identities", "congruence", "--level", "2", "--matrix", str(f))
        assert code == 3

    def test_group_cap_is_two(self):
        code, report = run_report(
            "tower", "build", "-n", "3", "-p", "2", "--depth", "2", "--cap", "10"
        )
        assert code == 2 and report["outcome"] == "budget-exhausted"


class TestDeterminism:
    def test_reports_byte_identical(self):
        a = run_cli("tower", "build", "-n", "3", "-p", "2", "--depth", "1")[1]
        b = run_cli("tower", "build", "-n", "3", "-p", "2", "--depth", "1")[1]
        assert a == b

    def test_search_byte_identical(self):
        a = run_cli("order", "search", "--preset", "z-ball-3")[1]
        b = run_cli("order", "search", "--preset", "z-ball-3")[1]
        assert a == b

    def test_artifact_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("order", "search", "--preset", "z2-ball-1", "--out", str(f1))
        run_cli("order", "search", "--preset", "z2-ball-1", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestTower:
    def test_build_counts(self):
        code, report = run_report("tower", "build", "-n", "3", "-p", "2", "--depth", "1")
        assert code == 0
        assert report["details"]["levels"][1]["leaves"] == 168
        assert report["provenance"]["representative_rule"].startswith("entries reduced")

    def test_build_preset(self):
        code, report = run_report("tower", "build", "--preset", "congruence-tower-3-2-1")
        assert report["details"]["levels"][1]["leaves"] == 168

    def test_build_writes_artifacts(self, tmp_path):
        out = tmp_path / "tower.json"
        dots = tmp_path / "dots"
        code, _ = run_report(
            "tower", "build", "-n", "2", "-p", "3", "--depth", "1",
            "--out", str(out), "--dot-dir", str(dots),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["p"] == 3
        assert (dots / "level_1.dot").exists()

    def test_verify(self):
        code, report = run_report("tower", "verify", "-n", "2", "-p", "2", "--depth", "2")
        assert code == 0 and report["outcome"] == "pass"

    def test_verify_roundtrip_through_file(self, tmp_path):
        out = tmp_path / "t.json"
        run_cli("tower", "build", "-n", "2", "-p", "2", "--depth", "2", "--out", str(out))
        code, report = run_report("tower", "verify", "--in", str(out))
        assert code == 0

    def test_orbits(self):
        code, report = run_report("tower", "orbits", "-n", "3", "-p", "2", "--depth", "1")
        assert report["details"]["orbit_size"] == 168
        assert report["details"]["closed"] is True

    def test_decorate(self):
        code, report = run_report("tower", "decorate", "-n", "3", "-p", "2", "--depth", "1")
        assert code == 0
        assert report["details"]["orbit_sizes"] == [1, 168]
        assert report["details"]["lengths_head"] == ["1/1", "1/2", "1/3"]

    def test_star_build(self, tmp_path):
        svg = tmp_path / "star.svg"
        code, report = run_report("tower", "build", "--star", "8", "--svg", str(svg))
        assert code == 0
        assert len(report["details"]["star"]["arms"]) == 16
        assert svg.read_text().count("<line") == 16


class TestOrder:
    def test_search_writes_witness(self, tmp_path):
        out = tmp_path / "witness.json"
        code, report = run_report(
            "order", "search", "--preset", "z-ball-3", "--out", str(out)
        )
        assert code == 0 and report["outcome"] == "sat"
        assert out.exists()

    def test_check_witness(self, tmp_path):
        out = tmp_path / "witness.json"
        run_cli("order", "search", "--preset", "z-ball-3", "--out", str(out))
        code, report = run_report(
            "order", "check", "--order", str(out), "--invariant", "gens+inv"
        )
        assert code == 0 and report["outcome"] == "pass"

    def test_check_detects_corruption(self, tmp_path):
        out = tmp_path / "witness.json"
        run_cli("order", "search", "--preset", "z-ball-3", "--out", str(out))
        payload = json.loads(out.read_text())
        # flipping a non-adjacent comparison breaks transitivity; flipping an
        # adjacent one would just swap neighbours and stay a total order
        assert payload["signs"][1][:2] == [0, 2]
        payload["signs"][1][2] *= -1
        out.write_text(json.dumps(payload))
        code, report = run_report("order", "check", "--order", str(out))
        assert code == 1 and report["outcome"] == "fail"
        assert report["details"]["transitivity_violations"] > 0

    def test_check_detects_broken_invariance(self, tmp_path):
        out = tmp_path / "witness.json"
        run_cli("order", "search", "--preset", "z-ball-3", "--out", str(out))
        payload = json.loads(out.read_text())
        payload["signs"][0][2] *= -1  # adjacent swap: still an order, not invariant
        out.write_text(json.dumps(payload))
        code, report = run_report("order", "check", "--order", str(out),
                                  "--invariant", "gens+inv")
        assert code == 1
        assert report["details"]["transitivity_violations"] == 0
        assert report["details"]["invariance_violations"] > 0

    def test_unsat_trace_written(self, tmp_path):
        out = tmp_path / "trace.json"
        code, _ = run_report(
            "order", "search", "--preset", "torsion-z2", "--out", str(out)
        )
        trace = json.loads(out.read_text())
        assert "branches" in trace and trace["forcing_chain"]

    def test_extract(self, tmp_path):
        # simplest honest chain: three searches on the same preset
        chains = [tmp_path / f"c{k}.json" for k in range(3)]
        for f in chains:
            run_cli("order", "search", "--preset", "z-ball-3", "--out", str(f))
        code, report = run_report(
            "order", "extract",
            "--chain", str(chains[0]), "--chain", str(chains[1]), "--chain", str(chains[2]),
            "--target-radius", "1",
        )
        assert code == 0
        assert report["details"]["supporters"] == [0, 1, 2]

    def test_from_action_round_trip(self):
        code, report = run_report("order", "from-action")
        assert code == 0
        assert report["details"]["reproduced_input_order"] is True

    def test_shuffle_stable_unsat(self):
        for seed in ("1", "99"):
            code, report = run_report(
                "order", "search", "--preset", "torsion-z3", "--seed", seed
            )
            assert code == 1 and report["outcome"] == "unsat"


class TestRealizeCommand:
    def test_preset_writes_csvs(self, tmp_path):
        outdir = tmp_path / "real"
        code, report = run_report(
            "realize", "--preset", "realize-z-21", "--out", str(outdir)
        )
        assert code == 0
        assert report["details"]["verified"] is True
        assert report["details"]["almost_free"] is True
        text = (outdir / "realization.csv").read_text()
        assert text.startswith("word,t")
        assert (outdir / "map_g.csv").exists()

    def test_file_driven(self, tmp_path):
        order = tmp_path / "order.json"
        run_cli("order", "search", "--preset", "z-ball-3", "--out", str(order))
        enum = tmp_path / "enum.json"
        enum.write_text(json.dumps({"indices": list(range(9))}))
        code, report = run_report(
            "realize", "--order", str(order), "--enum", str(enum),
            "--out", str(tmp_path / "out"),
        )
        assert code == 0 and report["details"]["elements"] == 9


class TestIdentities:
    def test_hexagon_embedded(self):
        code, report = run_report(
            "identities", "hexagon", "--embedded", "4", "1", "2", "2"
        )
        assert code == 0

    def test_ll_sweep(self):
        code, report = run_report("identities", "ll")
        assert code == 0 and report["details"]["cases"] == 375

    def test_core_order_24(self):
        code, report = run_report("identities", "core", "--group", "sl2z3")
        assert code == 0
        assert report["details"]["group_order"] == 24

    def test_congruence_member(self):
        code, report = run_report(
            "identities", "congruence", "--level", "2", "-n", "3",
            "--elementary", "1,2,2", "--scan", "6",
        )
        assert code == 0
        assert report["details"]["levels_found_up_to_scan"] == [2]

    def test_congruence_nonmember_exits_one(self):
        code, report = run_report(
            "identities", "congruence", "--level", "2", "-n", "3",
            "--elementary", "1,2,1",
        )
        assert code == 1 and report["details"]["member"] is False


class TestTreeCommands:
    @pytest.fixture()
    def tree_file(self, tmp_path):
        f = tmp_path / "tree.json"
        f.write_text(
            json.dumps(
                {"vertices": ["a", "b", "c", "d"],
                 "edges": [["a", "b"], ["b", "c"], ["b", "d"]]}
            )
        )
        return f

    def test_info(self, tree_file):
        code, report = run_report("tree", "info", "--in", str(tree_file))
        assert code == 0
        assert report["details"]["end_points"] == 3
        assert report["details"]["branch_points"] == 1

    def test_info_invalid_tree(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"vertices": ["a", "b", "c"],
                                 "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}))
        code, report = run_report("tree", "info", "--in", str(f))
        assert code == 1 and report["details"]["reason"] == "cycle"

    def test_hull(self, tree_file):
        code, report = run_report(
            "tree", "hull", "--in", str(tree_file), "--vertices", "a,c"
        )
        assert report["details"]["hull"] == ["a", "b", "c"]

    def test_fix(self, tree_file, tmp_path):
        auto = tmp_path / "auto.json"
        auto.write_text(json.dumps(
            {"mapping": {"a": "a", "b": "b", "c": "d", "d": "c"}}
        ))
        code, report = run_report(
            "tree", "fix", "--in", str(tree_file), "--leaf", "a", "--map", str(auto)
        )
        assert code == 0 and report["details"]["fixed_vertex"] == "b"


class TestPresets:
    def test_catalog_contains_required_names(self):
        code, report = run_report("presets")
        names = set(report["details"]["presets"])
        assert {"hexagon-r1", "congruence-tower-3-2-2", "star-dendrite-8"} <= names

    def test_entries_carry_docs_and_params(self):
        _, report = run_report("presets")
        for entry in report["details"]["presets"].values():
            assert entry["doc"] and "params" in entry and "command" in entry

    def test_report_flag_writes_copy(self, tmp_path):
        f = tmp_path / "report.json"
        code, out = run_cli("presets", "--report", str(f))
        assert f.read_text() == out


# SHA-256 of the stdout report and the exit code of every preset command.
# congruence-tower-3-2-2 is left out because it takes seconds; the benchmark
# pins the digest of its serialized tower instead.
GOLDEN_REPORTS = {
    "congruence-tower-3-2-1": (0, "da4f04e60a9bc936be603a40f6ebeec420bfd5c3e6f4aa3d9f31f88b24a37653"),
    "congruence-u12": (0, "4814f1de9507ecb495d06bbf428c2554db2e01d84ea1c73308cfcabf2731717d"),
    "core-sl2z2": (0, "4988721c04e4fa21dcf14e10e921ac3c764a38609085ad2bf127cbb7ec1e1c50"),
    "core-sl2z3": (0, "c897bf839b482244ed4d48c42750ae2f214ae3c5aed6fa599c6f14673ff8e91b"),
    "decorated-tower-3-2-1": (0, "01ab6cf2da70c0e31c39141156e87789c96f08f0f7a922d210d1f43ebef02a1a"),
    "heisenberg-ball-2": (0, "59cb2ace0d4410da9c4fd39725e1c1d2091acc336ad6cb8f1b5022851a422e07"),
    "hexagon-embedded-4-1-2-l2": (0, "5df941c0ef3ba4a4a68ad961f1050d42476da50ed5bb4fd808a936f60045a0c5"),
    "hexagon-r1": (0, "926b7d5cfb7f75d405a86f9e9211e6a0d6d8caae6389a71c85cb9e493f65b18f"),
    "hexagon-r2": (0, "c91be0515c9f6a9ec4f2ea6f7a36b4f29965dc1d418159da2da6359634230685"),
    "hexagon-r3": (0, "836b0741b12bd50b91555884229dcf6120059d9e164f08f23166b1db7910e90b"),
    "ll-heisenberg": (0, "9897043cfa27c4cca63c0e94dcf5c7a4c0cfb0638961c13e8b1d691af7ca9979"),
    "realize-z-21": (0, "995315cd12180ee076196b4e9cfeda10d5412f6a43a796a034e86a89ce327b16"),
    "star-dendrite-1": (0, "a4669e0cb3dc2f3f8c5819ebec0dfa9219e2d623cfd56ed26b246a6868a34c49"),
    "star-dendrite-8": (0, "b6d489975b700e4c5963f6edc72586c5630fc1914ac91d709341301288749859"),
    "torsion-z2": (1, "0f1110836239910da4dcad5d4074779f9f3dd17a66e31538dce2580a2a5dfe57"),
    "torsion-z3": (1, "cb80191c76384c6271677388e6d3982174508cada65783cf61284d97b911f344"),
    "torsion-z4": (1, "5a7de5ae105023a92785f73ed2cab439fc95992a7a402c8e418f0710459b5a52"),
    "z-ball-3": (0, "5d9cbd1c74b3845025a19bfcaafe5f417906d64cec69b747e2f6fbead8b80d54"),
    "z2-ball-1": (0, "017e3c0f4ae172dcd419d2eb1f0f7e49607d1ad664067935ba472c1d705c478f"),
}
SLOW_PRESETS = {"congruence-tower-3-2-2"}


class TestGoldenReports:
    def test_every_fast_preset_is_pinned(self):
        assert set(GOLDEN_REPORTS) == set(presets.PRESETS) - SLOW_PRESETS

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_digest(self, name):
        code, out = run_cli(*shlex.split(presets.PRESETS[name]["command"]))
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == GOLDEN_REPORTS[name]
