"""CLI behaviour: exit codes, schema-valid reports, byte determinism, artifacts."""

import hashlib
import io
import json
import shlex
import time
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import oracles
from treeact import cli, presets
from treeact.matrices import elementary, matrix_to_json
from treeact.ordering import OrderingError
from treeact.tower import build_congruence_tower, system_to_json


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

    def test_budget_report_says_how_far(self):
        code, report = run_report(
            "order", "search", "--preset", "z-ball-3", "--budget", "1"
        )
        assert code == 2 and report["details"] == {
            "message": "search budget exhausted",
            "branches": 1,
            "depth": 1,
            "classes_assigned": 1,
            "classes": 9,
            "propagation_steps": 1,
        }

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


class TestOneParser:
    """The parser is built once per process and outlives usage errors."""

    def test_repeated_calls_build_no_parser(self, monkeypatch):
        run_cli("presets")
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        for argv in (["presets"], ["identities", "hexagon", "-r", "1"], ["tower", "bogus"]):
            run_cli(*argv)
        assert built == []

    def test_valid_command_after_a_usage_error(self, capsys):
        before = run_cli("identities", "hexagon", "-r", "1")
        assert before[0] == 0
        assert run_cli("tower", "bogus") == (3, "")
        assert run_cli("identities", "ll", "--r-max", "-1") == (3, "")
        assert "error:" in capsys.readouterr().err
        assert run_cli("identities", "hexagon", "-r", "1") == before


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

    def test_build_out_streams_the_dumped_system(self, tmp_path):
        # --out writes the JSON chunk by chunk: the bytes are those of the whole text
        out = tmp_path / "tower.json"
        code, _ = run_report("tower", "build", "-n", "2", "-p", "3", "--depth", "2",
                             "--out", str(out))
        assert code == 0
        want = cli._dump(system_to_json(build_congruence_tower(2, 3, 2)))
        assert out.read_bytes() == want.encode()

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

    def test_check_large_generator_is_quick(self, tmp_path):
        # a 7-element ball of one 120x120 unipotent generator; with an O(n^5)
        # inverse this check ran for more than 120 s
        ball = {"radius": 3, "names": ["g"], "count": 7,
                "generators": [matrix_to_json(elementary(120, 1, 2, 1))]}
        order = tmp_path / "order.json"
        order.write_text(json.dumps({
            "ball": ball, "signs": [[i, j, -1] for i in range(7) for j in range(i + 1, 7)]}))
        start = time.perf_counter()
        code, report = run_report("order", "check", "--order", str(order),
                                  "--invariant", "gens+inv")
        assert time.perf_counter() - start < 5
        assert code == 0 and report["details"]["invariance_violations"] == 0

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

    def test_preset_round_trips(self):
        code, report = run_report("realize", "--preset", "realize-z-21")
        assert code == 0 and report["details"]["round_trip"] is True

    def test_sub_enumeration_does_not_round_trip(self, tmp_path):
        # three realized points leave elements of the ball that no probe
        # image tells apart, so the order read back is not the witness
        order = tmp_path / "order.json"
        run_cli("order", "search", "--preset", "z-ball-3", "--out", str(order))
        enum = tmp_path / "enum.json"
        enum.write_text(json.dumps({"indices": [4, 3, 5]}))
        code, report = run_report("realize", "--order", str(order), "--enum", str(enum))
        assert code == 1 and report["outcome"] == "fail"
        assert report["details"]["verified"] is True
        assert report["details"]["round_trip"] is False

    def test_cyclic_order_is_not_total(self, tmp_path, capsys):
        # the radius-1 Z ball, indexed u^-1, e, u, ordered cyclically:
        # u > e, u^-1 > u and e > u^-1
        ball = {"radius": 1, "names": ["g"], "generators": [Z_GEN], "count": 3}
        cyc = tmp_path / "cyc.json"
        cyc.write_text(json.dumps({"ball": ball, "signs": [[2, 1, 1], [0, 2, 1], [1, 0, 1]]}))
        enum = tmp_path / "e.json"
        enum.write_text(json.dumps({"indices": [1, 2, 0]}))
        assert run_cli("realize", "--order", str(cyc), "--enum", str(enum)) == (3, "")
        assert "order not total on the enumeration" in capsys.readouterr().err

    def test_search_witness_not_invariant_on_outer_ball(self, tmp_path, capsys):
        # the heisenberg-ball-2 witness is invariant for pairs of the inner
        # ball only; over all 53 outer elements generator a reverses a pair
        order = tmp_path / "w.json"
        assert run_cli("order", "search", "--preset", "heisenberg-ball-2",
                       "--out", str(order))[0] == 0
        enum = tmp_path / "enum.json"
        enum.write_text(json.dumps({"indices": list(range(53))}))
        capsys.readouterr()
        assert run_cli("realize", "--order", str(order), "--enum", str(enum)) == (3, "")
        err = capsys.readouterr().err
        assert "generator a reverses the order of a^-1*b*a^-1 < a^-1*a^-1" in err


class TestIdentities:
    def test_hexagon_embedded(self):
        code, report = run_report(
            "identities", "hexagon", "--embedded", "4", "1", "2", "2"
        )
        assert code == 0

    def test_ll_sweep(self):
        code, report = run_report("identities", "ll")
        assert code == 0 and report["details"]["cases"] == 375

    def test_ll_sweeps_once_per_r(self, monkeypatch):
        # the sweep is looked up as cli.verify_ll_identity, where a tracer may wrap it
        plain = run_cli("identities", "ll", "--r-max", "3")
        sweep, calls = cli.verify_ll_identity, []

        def counting(*args):
            calls.append(args[3])
            return sweep(*args)

        monkeypatch.setattr(cli, "verify_ll_identity", counting)
        assert run_cli("identities", "ll", "--r-max", "3") == plain
        assert calls == [1, 2, 3]

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

    @pytest.mark.parametrize("vertices", ["zz", ","])
    def test_hull_unknown_vertex_is_three(self, tree_file, capsys, vertices):
        argv = ["tree", "hull", "--in", str(tree_file), "--vertices", vertices]
        assert run_cli(*argv) == (3, "")
        assert capsys.readouterr().err == "error: vertex not in tree\n"

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
    "realize-z-21": (0, "ef4e1e4601b55a4571018d7f001d2af743d5a7db7e3cc03921ab78a2d92f1019"),
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


# The same pin for one non-preset command line per optional argument of every
# subcommand, and for `tower verify` on each of ``oracles.broken_towers``.
# {name} stands for a file made by ``_write_inputs``; no path appears in a
# report, so the digests do not depend on where the files live.
GOLDEN_LINES = {
    "tower build congruence": ("tower build -n 2 -p 3 --depth 1 --cap 1000 --out {out}/t.json --dot-dir {out}/dots", 0, "ce8a99d8a13694b701a0777d4b9455dde96283240334e629c3824725caca7f84"),
    "tower build star": ("tower build --star 3 --out {out}/star.json --svg {out}/star.svg", 0, "43c4c704eac0e1cd59f487e0dd31b55f4c374d3afe3551502bf6d1c660171164"),
    "tower build preset": ("tower build --preset congruence-tower-3-2-1", 0, "da4f04e60a9bc936be603a40f6ebeec420bfd5c3e6f4aa3d9f31f88b24a37653"),
    "tower build star preset": ("tower build --preset star-dendrite-8", 0, "b6d489975b700e4c5963f6edc72586c5630fc1914ac91d709341301288749859"),
    "tower build in": ("tower build --in {tower}", 0, "eba567df1cf3b66523421af33395ca3be6294694017b255ac6d192ad94e664a9"),
    "tower verify in": ("tower verify --in {tower}", 0, "31e66941aecc0f850e4dd091b9d85cb4fbe39f7b3eafe11bc01cc272a797b86f"),
    "tower verify broken invalid level": ("tower verify --in {broken_invalid_level}", 1, "dcbdbf918e89fe42d4b16ac3a91d25b6d5a058b2d010dd408b7b27ed5539d72b"),
    "tower verify broken scrambled bond": ("tower verify --in {broken_scrambled_bond}", 1, "85e35eb176735452ba78485489bb00c9003ff15f7a1d02166a99ba063535946b"),
    "tower verify broken bond moves lower copy": ("tower verify --in {broken_bond_moves_lower_copy}", 1, "46f306209f4c53c1f13768d0199ce19d954bb3cac161d522b5aab8caa6066b59"),
    "tower verify broken disconnected preimage": ("tower verify --in {broken_disconnected_preimage}", 1, "0cca8f72b33f3a6337167c4515acf0d369467eb49bc4ec5591b19a73e4428a68"),
    "tower verify broken provenance p 3": ("tower verify --in {broken_provenance_p_3}", 1, "1c1757256e1516b287490f8f4f86ba793da83a3df7d59c2f3edad060e8ca088f"),
    "tower verify cap": ("tower verify -n 2 -p 2 --depth 1 --cap 100 --report {out}/r.json", 0, "5f4d86fe6bb61a48dc47b8d8d7e80f5ebbbf28b0179d6cdf0fe14e1b3f55d9a6"),
    "tower orbits": ("tower orbits -n 2 -p 3 --depth 1 --vertex 1|0,2,1,1 --orbit-cap 2", 0, "3db589992a62191cc25702bbb1a47c1d06087fac4d8b3c2f27a14a5b099f2fc0"),
    "tower decorate": ("tower decorate -n 2 -p 3 --depth 1 --seed-leaf 1|0,1,2,2 --orbit-cap 3", 0, "2d6d7f4ff19e94920774cd8fcccc07d809590d769f8cdb172a9df523605fff57"),
    "order search gens": ("order search --gens {gens} --radius 2 --outer-radius 4 --invariant gens --budget 100000 --out {out}/w.json", 0, "8edf9a587ebce7ce5dc044524b4583d537048f2ea416026df7da7eb32dc61c83"),
    "order search defaults": ("order search --gens {gens}", 0, "f40dafd4630229abf51302bce01fa96afc92331296560264e69d5cb2c702c7d1"),
    "order check": ("order check --order {order} --invariant gens --inner-radius 1", 0, "d06ab5906d706de6cd8c17f7803335b6f170ee83007b984cbdbf98dd4020402e"),
    "order extract": ("order extract --chain {order} --chain {order} --target-radius 1 --out {out}/x.json", 0, "f9fd4f9f25b524325480cb3fdbeac27688e46a3eda620d2baccc8d98b7c21e97"),
    "realize files": ("realize --order {order} --enum {enum} --svg --out {out}/real", 0, "4bbb0165795d6e89dd1dd1be49b53382f139af596a1c8bb8f790f31a10ec2041"),
    "identities hexagon": ("identities hexagon --embedded 5 1 3 2", 0, "9a6bff3266ca4ac4df664772f0110851b010fbbc0a6dea2fc9b7462bb4cd729c"),
    "identities ll": ("identities ll --r-max 2 --m-max 3 --p-max 2 --q-max 4", 0, "3b328bc0b429d2c44bc508e3b4c28404ecc73cbee877de416391d3a5c7e16c54"),
    "identities ll default": ("identities ll", 0, "9897043cfa27c4cca63c0e94dcf5c7a4c0cfb0638961c13e8b1d691af7ca9979"),
    "identities core sl2z2": ("identities core --group sl2z2", 0, "4988721c04e4fa21dcf14e10e921ac3c764a38609085ad2bf127cbb7ec1e1c50"),
    "identities core sl2z3": ("identities core --group sl2z3", 0, "c897bf839b482244ed4d48c42750ae2f214ae3c5aed6fa599c6f14673ff8e91b"),
    "identities congruence matrix": ("identities congruence --level 2 --matrix {matrix} --scan 6", 0, "de8b5aa03f20004405409e028a4af18dfd0b4928c23d5adc99c51631193a6913"),
    "identities congruence elementary": ("identities congruence --level 3 --elementary 1,2,3", 0, "5532f66496f9ed631df4e030f51342615a652447216194ef2bee80d94d2f974e"),
    "tree info": ("tree info --in {tree}", 0, "9daca473a78c0e936c6433a99d5a64578aaf940f8012737d9d2db94f9791f675"),
    "tree hull": ("tree hull --in {tree} --vertices a,e,f", 0, "6609b7fe83ccc665dab93072a05a88aeef0f6ce451d0131244c690162e53e5ca"),
    "tree fix": ("tree fix --in {tree} --leaf a --map {swap}", 0, "0afa848f31a5d4a6a2dec430b481091391fd8138ff3089bdcf40f0dfd49fdb8a"),
    "tree fix common": ("tree fix --in {tree} --leaf a --map {swap} --map {ident}", 0, "69a71eb48069352842d7b809a98638c9d1c10b0493d820e56e91c58347614960"),
    "presets report": ("presets --report {out}/presets.json", 0, "dd74aa8d393b617b5767c8019f6a605830d87c204acd51bfe387e1e0202b3eb4"),
}


Z_GEN = {"n": 2, "mod": None, "entries": [1, 1, 0, 1]}


def _write_inputs(root):
    """The input files the golden lines name, made without the CLI where possible."""
    def put(name, obj):
        (root / name).write_text(json.dumps(obj))
        return str(root / name)

    files = {"out": str(root / "out")}
    files["gens"] = put("gens.json", {"generators": [Z_GEN], "names": ["g"]})
    files["enum"] = put("enum.json", {"indices": [0, 2, 1, 4, 3, 6, 5, 8, 7]})
    files["matrix"] = put("matrix.json", {"n": 3, "mod": None, "entries": [1, 0, 4, 0, 1, 0, 0, 0, 1]})
    files["tree"] = put("tree.json", {
        "vertices": ["a", "b", "c", "d", "e", "f"],
        "edges": [["a", "b"], ["b", "c"], ["b", "d"], ["c", "e"], ["d", "f"]],
    })
    files["swap"] = put("swap.json", {"mapping": {"a": "a", "b": "b", "c": "d", "d": "c", "e": "f", "f": "e"}})
    files["ident"] = put("ident.json", {"mapping": {v: v for v in "abcdef"}})
    for label, payload in oracles.broken_towers().items():
        files[f"broken_{label}"] = put(f"broken_{label}.json", payload)
    files["tower"] = str(root / "tower.json")
    files["order"] = str(root / "order.json")
    assert run_cli("tower", "build", "-n", "2", "-p", "2", "--depth", "1", "--out", files["tower"])[0] == 0
    assert run_cli("order", "search", "--preset", "z-ball-3", "--out", files["order"])[0] == 0
    return files


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("inputs"))


def golden_argv(line, files):
    return [token.format(**files) for token in shlex.split(line)]


class TestGoldenLines:
    @pytest.mark.parametrize("label", sorted(GOLDEN_LINES))
    def test_report_digest(self, label, input_files):
        line, code_want, digest_want = GOLDEN_LINES[label]
        code, out = run_cli(*golden_argv(line, input_files))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (code_want, digest_want)


class TestGivenValues:
    """A value the user gives is recorded in ``parameters`` and used, or rejected."""

    def test_orbit_cap_zero_is_used(self):
        code, report = run_report("tower", "orbits", "-n", "2", "-p", "2", "--depth", "1",
                                  "--orbit-cap", "0")
        assert code == 0 and report["parameters"]["orbit_cap"] == 0
        assert (report["details"]["orbit_size"], report["details"]["closed"]) == (1, False)

    def test_star_zero_is_rejected(self, capsys):
        assert run_cli("tower", "build", "--star", "0") == (3, "")
        assert "at least one arm pair required" in capsys.readouterr().err

    def test_outer_radius_zero_is_used(self, input_files):
        gens = input_files["gens"]
        # the radius-0 outer ball cannot hold the radius-2 inner ball
        assert run_cli("order", "search", "--gens", gens, "--radius", "2",
                       "--outer-radius", "0") == (3, "")
        code, report = run_report("order", "search", "--gens", gens, "--radius", "0",
                                  "--outer-radius", "0")
        assert code == 0 and report["parameters"]["outer_radius"] == 0
        assert report["details"]["ball_sizes"] == {"inner": 1, "outer": 1}

    def test_seed_is_recorded(self):
        _, plain = run_report("order", "search", "--preset", "heisenberg-ball-2")
        _, seeded = run_report("order", "search", "--preset", "heisenberg-ball-2", "--seed", "3")
        assert seeded["parameters"] == {**plain["parameters"], "seed": 3}
        assert (plain["details"]["decisions"], seeded["details"]["decisions"]) == (543, 142)

    @pytest.mark.parametrize("argv", [
        ["order", "search", "--preset", "z-ball-3", "--radius", "2"],
        ["tower", "build", "--preset", "congruence-tower-3-2-1", "-n", "2"],
        ["tower", "build", "--star", "3", "-n", "2"],
        ["realize", "--preset", "realize-z-21", "--order", "order.json"],
    ])
    def test_option_that_does_not_apply_is_rejected(self, argv):
        assert run_cli(*argv) == (3, "")

    @pytest.mark.parametrize("line, written, words", [
        ("tower build -n 2 -p 2 --depth 1 --svg {out}/x.svg", "x.svg", "--svg applies only with --star"),
        ("tower build --star 2 --dot-dir {out}/d", "d", "--dot-dir does not apply with --star"),
        ("realize --preset realize-z-21 --svg", None, "--svg applies only with --out"),
    ])
    def test_output_option_that_writes_nothing_is_rejected(self, tmp_path, capsys, line, written, words):
        assert run_cli(*line.format(out=tmp_path).split()) == (3, "")
        assert words in capsys.readouterr().err
        assert written is None or not (tmp_path / written).exists()

    @pytest.mark.parametrize("argv", [
        "identities ll --r-max -1",
        "identities ll --m-max -1",
        "identities ll --p-max -1",
        "identities ll --q-max -1",
        "order search --preset z-ball-3 --budget -5",
        "tower orbits -n 2 -p 2 --depth 1 --orbit-cap -3",
        "tower decorate -n 2 -p 2 --depth 1 --orbit-cap -1",
        "identities congruence --level 2 --elementary 1,2,3 --scan -1",
        "tower build -n 2 -p 2 --depth 1 --cap -1",
    ])
    def test_negative_count_is_rejected(self, argv, capsys):
        assert run_cli(*argv.split()) == (3, "")
        assert "must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ("tower verify -n 1", "dimension must be at least 2"),
        ("tower verify -p 1", "p must be prime"),
        ("tower verify -p 0", "p must be prime"),
        ("tower verify --depth -1", "depth must be nonnegative"),
    ])
    def test_tower_parameter_out_of_range_is_rejected(self, argv, message, capsys):
        assert run_cli(*argv.split()) == (3, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, line", [
        ("order search", "error: --gens is required unless --preset is given"),
        ("realize", "error: --order is required unless --preset is given"),
        ("identities congruence --level 2",
         "error: --elementary is required unless --matrix is given"),
        ("tower build --preset no-such", "error: unknown preset: no-such"),
        ("order search --preset z-ball-3 --budget x",
         "error: argument --budget: must be a non-negative integer, got 'x'"),
        ("identities congruence --level 2 --elementary 1,2",
         "error: argument --elementary: expected i,j,v as three integers, got '1,2'"),
    ])
    def test_usage_error_names_the_fault(self, argv, line, capsys):
        # argparse prints its usage first; the last stderr line is the error
        assert run_cli(*argv.split()) == (3, "")
        assert capsys.readouterr().err.splitlines()[-1] == line

    @pytest.mark.parametrize("extra", ["", "--invariant none "])
    def test_inner_radius_without_invariance_is_rejected(self, extra, input_files, capsys):
        line = f"order check --order {{order}} {extra}--inner-radius 2"
        assert run_cli(*golden_argv(line, input_files)) == (3, "")
        assert "--inner-radius applies only with --invariant" in capsys.readouterr().err


class TestTowerFromFile:
    """With --in the tower comes from the file: no build option applies or is recorded."""

    @pytest.mark.parametrize("sub", ["build", "verify", "orbits", "decorate"])
    def test_no_build_parameters(self, sub, input_files):
        code, report = run_report("tower", sub, "--in", input_files["tower"])
        assert code == 0 and report["parameters"] == {}

    @pytest.mark.parametrize("option", [["-n", "7"], ["-p", "3"], ["--depth", "5"], ["--cap", "9"]])
    def test_build_option_is_rejected(self, option, input_files, capsys):
        assert run_cli("tower", "verify", "--in", input_files["tower"], *option) == (3, "")
        assert "does not apply with --in" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["build", "verify"])
    def test_report_is_the_build_report_without_build_options(self, sub, input_files):
        # the file holds the tower that `tower build -n 2 -p 2 --depth 1` builds
        _, built = run_report("tower", sub, "-n", "2", "-p", "2", "--depth", "1")
        _, loaded = run_report("tower", sub, "--in", input_files["tower"])
        assert set(built["parameters"]) == {"n", "p", "depth", "cap"}
        assert loaded == {**built, "parameters": {}}

    def test_invalid_level_is_reported_once(self, tmp_path, input_files):
        payload = json.loads(Path(input_files["tower"]).read_text())
        edges = payload["levels"][1]["tree"]["edges"]
        edges.append(edges[0])
        bad = tmp_path / "tower.json"
        bad.write_text(json.dumps(payload))
        code, report = run_report("tower", "verify", "--in", str(bad))
        assert code == 1
        assert report["details"]["reasons"] == ["level 1: invalid tree: duplicate edge"]

    def test_cycle_in_the_top_level(self, tmp_path):
        # the serialized n=2 p=2 depth-2 tower with an edge from the root to
        # the top level's last vertex; the rooted form of that level hangs
        # the vertex from the root, so its bond block has two tops
        payload = system_to_json(build_congruence_tower(2, 2, 2))
        top = payload["levels"][2]["tree"]
        top["edges"].append([top["vertices"][0], top["vertices"][-1]])
        bad = tmp_path / "tower.json"
        bad.write_text(json.dumps(payload))
        code, report = run_report("tower", "verify", "--in", str(bad))
        assert code == 1
        assert report["details"]["reasons"] == [
            "level 2: invalid tree: cycle", "preimage of 1|1,1,1,0 is disconnected"]

    # the file of `tower build -n 2 -p 2 --depth 1`, corrupted in one place,
    # with the exit codes of tower verify, orbits, decorate and build on it:
    # a reference to no vertex is bad input everywhere; a generator that is
    # not a bijection fails `verify`, is bad input for the commands that
    # walk an orbit, and passes `build`, which only counts vertices; levels
    # that name different generators are bad input everywhere; a vertex
    # named like a pendant is bad input only for `decorate`
    CORRUPTIONS = {
        "bond entry deleted": (lambda t: t["bonds"][0].pop("1|1,1,1,0"), (3, 3, 3, 3)),
        "bond value unknown": (lambda t: t["bonds"][0].update({"1|1,1,1,0": "nowhere"}),
                               (3, 3, 3, 3)),
        "image unknown": (lambda t: t["levels"][1]["generators"]["u12"].__setitem__(1, "ghost"),
                          (3, 3, 3, 3)),
        "image repeated": (lambda t: t["levels"][1]["generators"]["u12"].__setitem__(
            1, t["levels"][1]["generators"]["u12"][2]), (1, 3, 3, 0)),
        "generator missing from level 0": (lambda t: t["levels"][0]["generators"].pop("u12"),
                                           (3, 3, 3, 3)),
        "generator added to level 1": (lambda t: t["levels"][1]["generators"].update(
            zz=t["levels"][1]["generators"]["u12"]), (3, 3, 3, 3)),
        "root renamed to a pendant vertex": (lambda t: t.update(json.loads(
            json.dumps(t).replace('"0|e"', '"pend2m"'))), (0, 0, 3, 0)),
    }

    @pytest.mark.parametrize("column, sub", enumerate(["verify", "orbits", "decorate", "build"]))
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_file(self, corruption, column, sub, tmp_path, input_files, capsys):
        corrupt, exits = self.CORRUPTIONS[corruption]
        payload = json.loads(Path(input_files["tower"]).read_text())
        corrupt(payload)
        bad = tmp_path / "tower.json"
        bad.write_text(json.dumps(payload))
        code, _ = run_cli("tower", sub, "--in", str(bad))
        assert code == exits[column]
        if code == 3:
            assert capsys.readouterr().err.startswith("error: ")


class TestPresetErrors:
    @pytest.mark.parametrize("argv, words", [
        (["tower", "build", "--preset", "hexagon-r1"], ["'hexagon-r1'", "not a tower preset"]),
        (["tower", "verify", "--preset", "star-dendrite-8"], ["'star-dendrite-8'", "tower verify"]),
    ])
    def test_message_names_the_preset(self, argv, words, capsys):
        assert run_cli(*argv) == (3, "")
        err = capsys.readouterr().err
        assert all(w in err for w in words), err

    def test_unknown_search_preset_is_an_ordering_error(self):
        with pytest.raises(OrderingError, match="unknown search preset: nope"):
            presets.search_instance("nope")


class TestMalformedInput:
    """Input files are validated when loaded; every malformed one exits 3."""

    @pytest.mark.parametrize("argv, payload", [
        ("tree info --in {bad}", [1, 2]),
        ("tree info --in {bad}", {"vertices": ["a", 2], "edges": []}),
        ("tree info --in {bad}", {"vertices": ["a"], "edges": [], "embedding": {"a": ["1/0", "0"]}}),
        ("realize --order {order} --enum {bad}", {"indices": [0, 99]}),
        ("realize --order {order} --enum {bad}", {"indices": [0, 1, 2, 3, 4, 5, 6, 7, -1]}),
        ("realize --order {order} --enum {bad}", {"indices": [True, 0]}),
        ("realize --order {order} --enum {bad}", [0, 1]),
        ("tree fix --in {tree} --leaf a --map {bad}", {"mapping": {"a": 1}}),
        ("tree fix --in {tree} --leaf a --map {bad}", {"mapping": [["a", "a"]]}),
        ("tower verify --in {bad}", {"levels": 5, "bonds": []}),
        ("tower orbits --in {bad}", {"levels": [], "bonds": []}),
        ("tower verify --in {bad}", []),
        ("order search --gens {bad}", [Z_GEN]),
        ("order search --gens {bad}", {"generators": [Z_GEN, Z_GEN], "names": ["a"]}),
        ("order check --order {bad}", []),
        ("realize --order {order} --enum {bad}", {"indices": []}),
        ("realize --order {order} --enum {bad}", {"indices": [0, 0]}),
    ])
    def test_malformed_file_is_three(self, tmp_path, input_files, argv, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli(*golden_argv(argv, {**input_files, "bad": str(bad)})) == (3, "")

    @pytest.mark.parametrize("sub", ["verify", "build"])
    @pytest.mark.parametrize("key, value", [
        ("n", "2"), ("n", True), ("n", None), ("p", 1), ("p", 2.0), ("p", False)])
    def test_provenance_that_is_not_an_int_of_at_least_two_is_three(
            self, tmp_path, input_files, capsys, sub, key, value):
        payload = json.loads(Path(input_files["tower"]).read_text())
        payload["provenance"][key] = value
        bad = tmp_path / "tower.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("tower", sub, "--in", str(bad)) == (3, "")
        assert capsys.readouterr().err == f"error: provenance {key} must be an integer >= 2\n"

    @pytest.mark.parametrize("sub", ["verify", "build"])
    @pytest.mark.parametrize("n", [1000, 4000])
    def test_provenance_degree_bound_out_of_reach_is_three(
            self, tmp_path, input_files, capsys, sub, n):
        payload = json.loads(Path(input_files["tower"]).read_text())
        payload["provenance"].update(n=n, p=10 ** 6)
        bad = tmp_path / "tower.json"
        bad.write_text(json.dumps(payload))
        start = time.perf_counter()
        assert run_cli("tower", sub, "--in", str(bad)) == (3, "")
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "error: provenance p^(n^2-1) is too large to be a vertex degree\n")

    @pytest.mark.parametrize("edit", [
        lambda signs: signs + [[0, 99, 1]],         # an index outside the ball
        lambda signs: [[0, 1, True]] + signs[1:],   # a bool is not a sign
        lambda signs: [[0, 1]] + signs[1:],
        lambda signs: [[1, 1, 1]] + signs[1:],      # a diagonal pair
        lambda signs: [[0, 1, 2]] + signs[1:],      # 2 is no sign
    ], ids=["outside", "bool", "pair", "diagonal", "two"])
    def test_malformed_sign_triples_are_three(self, tmp_path, input_files, edit):
        payload = json.loads(Path(input_files["order"]).read_text())
        payload["signs"] = edit(payload["signs"])
        bad = tmp_path / "order.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("order", "check", "--order", str(bad)) == (3, "")

    @pytest.mark.parametrize("argv, tree, mapping", [
        ("tree hull --in {tree} --vertices a,c",
         {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}, None),
        ("tree fix --in {tree} --leaf d --map {map}",
         {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["a", "c"], ["a", "d"]]},
         {"mapping": {"a": "a", "b": "c", "c": "b", "d": "d"}}),
    ], ids=["hull", "fix"])
    def test_graph_that_is_not_a_tree_is_three(self, tmp_path, capsys, argv, tree, mapping):
        files = {"tree": tmp_path / "tree.json", "map": tmp_path / "map.json"}
        files["tree"].write_text(json.dumps(tree))
        files["map"].write_text(json.dumps(mapping))
        assert run_cli(*argv.format(**files).split()) == (3, "")
        assert capsys.readouterr().err == "error: not a tree: cycle\n"

    @pytest.mark.parametrize("copies", [1, 2])
    def test_map_that_misses_the_leaf_is_three(self, tmp_path, capsys, copies):
        tree, partial = tmp_path / "t.json", tmp_path / "m.json"
        tree.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}))
        partial.write_text(json.dumps({"mapping": {"b": "b", "c": "c"}}))
        argv = ["tree", "fix", "--in", str(tree), "--leaf", "a"] + ["--map", str(partial)] * copies
        assert run_cli(*argv) == (3, "")
        assert capsys.readouterr().err == "error: not an automorphism: domain mismatch\n"

    def test_binary_file_is_three(self, tmp_path):
        bad = tmp_path / "tree.json"
        bad.write_bytes(b"\xff\xfe\x00")
        assert run_cli("tree", "info", "--in", str(bad)) == (3, "")


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [
        KeyError("boom"),
        AssertionError("internal error: witness failed re-verification"),
    ])
    def test_bug_exits_four_with_traceback(self, monkeypatch, capsys, exc):
        def broken():
            raise exc

        monkeypatch.setattr(presets, "presets", broken)
        assert run_cli("presets") == (4, "")
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "Traceback" in err


def readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("treeact ")]


def test_readme_cli_lines_parse_and_show_every_command():
    # parsed only, never run: the README and the command table cannot drift apart
    shown = {cli.parse(shlex.split(line, comments=True)[1:]).command
             for line in readme_cli_lines()}
    assert shown == set(cli.COMMANDS)
