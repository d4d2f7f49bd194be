"""Coset towers: construction counts, equivariance, decorations, star geometry.

Leaf counts are checked against the exhaustive determinant-filter oracle,
never against the builder's own enumeration.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from functools import cached_property
from math import isclose, pi
from pathlib import Path

import pytest

import oracles
from treeact import tower
from treeact.matrices import CapExceeded, sl_order
from treeact.tower import (
    InverseSystem,
    TowerError,
    attach_decorations,
    build_congruence_tower,
    degree_profile,
    orbit,
    projection_orbit_growth,
    star_dendrite,
    star_to_json,
    star_to_svg,
    system_from_json,
    system_to_json,
    verify_all_bonds,
    verify_bond_structure,
    verify_tower,
)
from treeact.trees import TreeAutomorphism, _subset_top, validate_tree


@pytest.fixture(scope="module")
def tower321():
    return build_congruence_tower(3, 2, 1)


def trivial_system():
    return build_congruence_tower(3, 2, 0)


class TestBuild:
    def test_short_first_level_raises_under_optimization(self):
        # python -O drops assert statements; the internal error must stay
        code = ("import sys\n"
                "from treeact import tower\n"
                "if __debug__:\n"
                "    sys.exit('not optimized')\n"
                "tower.sl_order = lambda n, p, depth: 7\n"
                "tower.build_congruence_tower(2, 2, 1)\n")
        src = str(Path(tower.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1] == (
            "AssertionError: internal error: the generators do not generate SL_n(Z/p)")

    def test_depth_zero(self):
        sys_ = trivial_system()
        assert len(sys_.levels) == 1
        assert sys_.levels[0].tree.vertices == ("0|e",)
        assert not sys_.bonds

    def test_depth_one_counts_match_det_oracle(self, tower321):
        count, _ = oracles.sl_by_det_filter(3, 2)
        tree = tower321.levels[1].tree
        assert count == 168
        assert len(tree.leaves()) == count
        assert len(tree.vertices) == count + 1

    def test_trees_valid_and_actions_are_automorphisms(self, tower321):
        for act in tower321.levels:
            assert validate_tree(act.tree).ok
            act.validate()

    def test_root_fixed_at_every_level(self, tower321):
        for act in tower321.levels:
            for auto in act.generators.values():
                assert auto("0|e") == "0|e"

    def test_sampled_relations(self, tower321):
        # words that agree as matrices in the quotient agree as tree maps;
        # mod 2 every transvection squares to the identity, a relation the
        # integral matrices do not satisfy
        act = tower321.levels[1]
        mats = {name: m.reduce_mod(2) for name, m in tower321.matrices.items()}
        names = sorted(mats)
        found_nontrivial = 0
        for x in names:
            for y in names:
                m1 = mats[x] * mats[y]
                for z in names:
                    if m1 == mats[z] and (x, y) != (z,):
                        found_nontrivial += 1
                        for v in act.tree.vertices:
                            assert act.generators[x](act.generators[y](v)) == act.generators[z](v)
                if m1.is_identity():
                    found_nontrivial += 1
                    for v in act.tree.vertices:
                        assert act.generators[x](act.generators[y](v)) == v
        assert found_nontrivial > 0

    def test_action_is_left_translation(self, tower321):
        # vertex labels are reduced matrices; the generator u must send the
        # vertex of M to the vertex of u*M (not M*u)
        act = tower321.levels[1]
        for name, u in tower321.matrices.items():
            auto = act.generators[name]
            for vid in list(act.tree.vertices)[1:10]:
                entries = tuple(int(x) for x in vid.split("|")[1].split(","))
                m = [list(entries[k * 3:(k + 1) * 3]) for k in range(3)]
                left = oracles.mat_mul(u.rows(), m, 2)
                expect = "1|" + ",".join(str(x) for row in left for x in row)
                assert auto(vid) == expect

    def test_not_prime_rejected(self):
        with pytest.raises(TowerError, match="prime"):
            build_congruence_tower(3, 4, 1)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            build_congruence_tower(3, 2, 3)  # 11M elements > default cap


class TestBonds:
    def test_equivariance_passes(self, tower321):
        rep = verify_all_bonds(tower321)
        assert rep.passed
        assert rep.checked == 6 * 169

    def test_structure(self, tower321):
        rep = verify_bond_structure(tower321, 0)
        assert rep.passed

    def test_depth_zero_vacuous(self):
        rep = verify_all_bonds(trivial_system())
        assert rep.passed and rep.checked == 0

    def test_scrambled_bond_fails_with_witness(self):
        # depth 2 so that different leaves have different parents
        sys_ = build_congruence_tower(2, 2, 2)
        assert verify_all_bonds(sys_).passed
        bond = dict(sys_.bonds[1])
        leaves = sys_.levels[2].tree.leaves()
        a = leaves[0]
        b = next(v for v in leaves if bond[v] != bond[a])
        bond[a], bond[b] = bond[b], bond[a]
        broken = InverseSystem(sys_.levels, [sys_.bonds[0], bond], sys_.provenance)
        rep = verify_all_bonds(broken)
        assert not rep.passed
        assert rep.violations and {v for _name, v in rep.violations} <= set(leaves)

    def test_missing_level_rejected(self):
        with pytest.raises(TowerError, match="no bond at this level"):
            verify_bond_structure(trivial_system(), 0)

    @pytest.mark.parametrize("level", [0, 1])
    def test_bond_with_an_extra_key(self, level):
        # the stray key's block is disconnected whichever of its vertices the
        # connectivity walk starts from
        sys_ = build_congruence_tower(2, 2, 2)
        bonds = [dict(bond) for bond in sys_.bonds]
        bonds[level]["ghost"] = "0|e"
        rep = verify_bond_structure(InverseSystem(sys_.levels, bonds, sys_.provenance), level)
        assert rep.reasons == ("bond domain mismatch", "preimage of 0|e is disconnected")
        assert _subset_top(sys_.levels[level + 1].tree, frozenset({"ghost"})) is None

    @pytest.mark.parametrize("level", [-1, 2])
    def test_level_outside_the_bonds_rejected(self, level):
        sys_ = build_congruence_tower(2, 2, 2)
        assert len(sys_.bonds) == 2
        with pytest.raises(TowerError, match="no bond at this level"):
            verify_bond_structure(sys_, level)


class TestNumberedViews:
    """A built tower hands out read-only views of its one numbering and is
    checked on the numbering's one verdict; a loaded one on its strings."""

    def test_views_cannot_be_edited(self):
        sys_ = build_congruence_tower(2, 2, 2)
        assert isinstance(sys_.levels, tuple) and isinstance(sys_.bonds, tuple)
        with pytest.raises(TypeError):
            sys_.bonds[1]["0|e"] = "1|0,1,1,0"
        with pytest.raises(TypeError):
            sys_.levels[1].generators["u12"] = sys_.levels[1].generators["u21"]
        with pytest.raises(FrozenInstanceError):
            sys_.levels[1].tree = sys_.levels[2].tree
        with pytest.raises(FrozenInstanceError):
            sys_.bonds = ()

    def test_replaced_views_are_checked_on_their_strings(self):
        sys_ = build_congruence_tower(2, 2, 2)
        with pytest.raises(TowerError, match="generator u12: domain mismatch"):
            replace(sys_.levels[1], tree=sys_.levels[2].tree).validate()
        collapsed = dict.fromkeys(sys_.bonds[1], "0|e")
        rep = verify_bond_structure(replace(sys_, bonds=(sys_.bonds[0], collapsed)), 1)
        assert rep.reasons == ("bond not surjective", "bond not the identity on the lower copy")

    @staticmethod
    def string_checks(monkeypatch, sys_):
        """The report of verify_tower, and how often it ran each string check."""
        calls = Counter()
        for name in ("validate_tree", "is_tree_automorphism"):
            def counted(*args, _name=name, _check=getattr(tower, name)):
                calls[_name] += 1
                return _check(*args)
            monkeypatch.setattr(tower, name, counted)
        return verify_tower(sys_), calls

    def test_built_tower_makes_no_string_check(self, monkeypatch):
        report, calls = self.string_checks(monkeypatch, build_congruence_tower(2, 3, 2))
        assert report.reasons == () and report.bonds.checked == 2 * (25 + 673)
        assert calls == Counter()

    def test_loaded_tower_makes_every_string_check(self, monkeypatch):
        loaded = system_from_json(system_to_json(build_congruence_tower(2, 3, 2)))
        report, calls = self.string_checks(monkeypatch, loaded)
        assert report.reasons == () and report.bonds.checked == 2 * (25 + 673)
        # three levels, two generators on each
        assert calls == Counter(validate_tree=3, is_tree_automorphism=6)

    def test_verdict_is_reached_once(self, monkeypatch):
        calls = Counter()
        body = vars(tower._Numbering)["holds"].func

        def counted(numbering):
            calls["holds"] += 1
            return body(numbering)

        verdict = cached_property(counted)
        verdict.__set_name__(tower._Numbering, "holds")
        monkeypatch.setattr(tower._Numbering, "holds", verdict)
        sys_ = build_congruence_tower(2, 3, 2)
        assert verify_tower(sys_).reasons == ()
        for act in sys_.levels:
            act.validate()
        assert verify_all_bonds(sys_).passed
        assert all(verify_bond_structure(sys_, a).passed for a in range(len(sys_.bonds)))
        assert len(attach_decorations(sys_, sys_.levels[-1].tree.leaves()[0]).pendants) == 648
        assert calls == Counter(holds=1)


class TestLazyViews:
    """A built tower makes its string maps, bonds and pendants only when
    something reads them, and never makes a level's adjacency."""

    def test_built_checked_decorated_and_written_makes_no_map(self, monkeypatch):
        made = Counter()
        init, bond = TreeAutomorphism.__init__, tower._Numbering.bond

        def counted_init(auto, *args):
            made["maps"] += 1
            init(auto, *args)

        def counted_bond(numbering, *args):
            made["bonds"] += 1
            return bond(numbering, *args)

        monkeypatch.setattr(TreeAutomorphism, "__init__", counted_init)
        monkeypatch.setattr(tower._Numbering, "bond", counted_bond)
        sys_ = build_congruence_tower(3, 2, 2)
        assert verify_tower(sys_).reasons == ()
        dec = attach_decorations(sys_, sys_.levels[-1].tree.leaves()[0])
        growth = projection_orbit_growth(sys_, dec, dec.pendants[0].tip)
        assert growth.sizes == (1, 168, 43008)
        # a capped walk takes the inverses too, as int lists of the numbering
        capped = projection_orbit_growth(sys_, dec, dec.pendants[0].tip, cap=3)
        assert (capped.sizes, capped.closed) == ((1, 82, 763), (True, False, False))
        written = system_to_json(sys_)
        assert len(written["levels"][2]["generators"]["u12"]) == 1 + 168 + 43008
        # each level's tree answers from its parent list
        assert all(validate_tree(act.tree) for act in sys_.levels)
        assert [len(act.tree.leaves()) for act in sys_.levels] == [0, 168, 43008]
        # and its rooted form is that list, with positions in vertex order
        for act in sys_.levels:
            parent, position = act.tree._rooted
            assert parent is act.tree._parent and position == range(len(act.tree.vertices))
        assert [a for a, act in enumerate(sys_.levels) if "adjacency" in vars(act.tree)] == []
        assert made == Counter()
        # a view makes its dict on the first read, once
        assert sys_.levels[1].generators["u12"] is sys_.levels[1].generators["u12"]
        assert dict(sys_.bonds[0]) == dict.fromkeys(sys_.levels[1].tree.vertices, "0|e")
        assert sys_.bonds[0] == dict(sys_.bonds[0])
        assert made == Counter(maps=6, bonds=1)


class TestPendantViews:
    @pytest.fixture(scope="class")
    def decorated(self):
        sys_ = build_congruence_tower(2, 3, 2)
        seed = sys_.levels[-1].tree.leaves()[5]
        return sys_, attach_decorations(sys_, seed), oracles.decoration(sys_, seed)

    def test_reads_agree_with_the_oracle(self, decorated):
        _sys, dec, want = decorated
        pendants = dec.pendants
        assert len(pendants) == len(want) == 648
        assert pendants[0] == want[0] and pendants[-1] == want[-1] == pendants[647]
        assert pendants[:3] == want[:3] and pendants[-2::-300] == want[-2::-300]
        assert tuple(pendants) == want and list(reversed(pendants)) == list(want[::-1])
        with pytest.raises(IndexError):
            pendants[648]

    @pytest.mark.parametrize("name", ["pend0m", "pend01t", "pend649m", "pendXm", "pend1", "pend"])
    def test_names_of_no_pendant(self, decorated, name):
        sys_, dec, _want = decorated
        with pytest.raises(TowerError, match="vertex not in decorated tree"):
            projection_orbit_growth(sys_, dec, name)

    def test_long_number_is_no_pendant(self, decorated):
        sys_, dec, _want = decorated
        with pytest.raises(TowerError, match="vertex not in decorated tree"):
            projection_orbit_growth(sys_, dec, "pend" + "9" * 5000 + "t")

    @pytest.mark.parametrize("built", [False, True])
    def test_first_clash_in_pendant_order(self, built):
        # the root named like the second pendant's tip, a later vertex like the first's
        sys_ = build_congruence_tower(2, 2, 1)
        ids = list(sys_._numbering.ids)
        ids[0], ids[3] = "pend2t", "pend1t"
        if built:
            num = sys_._numbering
            sys_ = tower._Numbering(ids, num.parent, num.images, num.counts, num.names).system(
                sys_.provenance, sys_.matrices)
            assert sys_._numbering.holds
        else:
            text = json.dumps(system_to_json(sys_))
            for old, new in zip(sys_._numbering.ids, ids):
                text = text.replace(f'"{old}"', f'"{new}"')
            sys_ = system_from_json(json.loads(text))
        with pytest.raises(TowerError, match="pendant vertex pend1t is already a vertex"):
            attach_decorations(sys_, sys_.levels[1].tree.leaves()[0])


class TestOrbit:
    def test_root_orbit(self, tower321):
        res = orbit(tower321.levels[1], "0|e")
        assert res.vertices == ("0|e",) and res.closed

    def test_leaf_orbit_is_all_leaves(self, tower321):
        leaf = tower321.levels[1].tree.leaves()[0]
        res = orbit(tower321.levels[1], leaf)
        assert len(res) == 168 and res.closed

    def test_trivial_action(self):
        sys_ = trivial_system()
        res = orbit(sys_.levels[0], "0|e")
        assert res.vertices == ("0|e",)

    def test_word_length_cap(self, tower321):
        leaf = tower321.levels[1].tree.leaves()[0]
        res = orbit(tower321.levels[1], leaf, cap=1)
        assert not res.closed
        assert 1 < len(res) < 168


class TestDegreeProfile:
    def test_depth_zero(self):
        assert degree_profile(trivial_system()).max_degrees == (0,)

    def test_depth_one(self, tower321):
        dp = degree_profile(tower321)
        assert dp.max_degrees == (0, 168)
        assert dp.expected_stable == 2 ** 8 + 1
        assert dp.stabilized is True  # vacuous below level 2


class TestStarDendrite:
    def test_arm_one(self):
        sd = star_dendrite(1)
        arm = next(a for a in sd.arms if a.index == 1)
        assert arm.angle_coeff == Fraction(1, 2)
        assert arm.length == 1
        assert isclose(arm.angle_float, pi / 2, abs_tol=1e-12)

    def test_arm_minus_two(self):
        sd = star_dendrite(2)
        arm = next(a for a in sd.arms if a.index == -2)
        assert arm.angle_coeff == Fraction(-3, 4)
        assert arm.length == Fraction(1, 2)

    def test_count_one_is_path(self):
        sd = star_dendrite(1)
        assert validate_tree(sd.tree).ok
        assert len(sd.tree.vertices) == 3
        assert max(len(ws) for ws in sd.tree.adjacency.values()) == 2

    def test_json_marks_floats_approximate(self):
        payload = star_to_json(star_dendrite(3))
        assert all(arm["floats_approximate"] for arm in payload["arms"])
        assert payload["arms"][0]["angle_pi_multiple"].count("/") == 1

    def test_svg(self):
        svg = star_to_svg(star_dendrite(4))
        assert svg.count("<line") == 8


class TestDecorations:
    def test_trivial_action_single_pendant(self):
        sys_ = trivial_system()
        dec = attach_decorations(sys_, "0|e")
        assert len(dec.pendants) == 1
        assert (dec.pendants[0].mid, dec.pendants[0].tip) == ("pend1m", "pend1t")
        act = oracles.decorated_action(dec)
        assert validate_tree(act.tree).ok
        act.validate()

    def test_full_orbit_pendants(self, tower321):
        leaf = tower321.levels[1].tree.leaves()[0]
        dec = attach_decorations(tower321, leaf)
        assert len(dec.pendants) == 168
        assert [p.tip for p in dec.pendants[:3]] == ["pend1t", "pend2t", "pend3t"]
        act = oracles.decorated_action(dec)
        act.validate()
        # generators permute pendant tips transitively with the leaf orbit
        res = orbit(act, dec.pendants[0].tip)
        assert len(res) == 168

    def test_pendants_follow_the_uncapped_orbit_walk(self):
        sys_ = build_congruence_tower(2, 2, 2)
        act = sys_.levels[-1]
        seed = act.tree.leaves()[0]
        dec = attach_decorations(sys_, seed)
        # mod 4 no generator is its own inverse, yet none was made
        assert all(auto._inv is None for auto in act.generators.values())
        gens = [act.generators[name] for name in sorted(act.generators)]
        walked, seen = [seed], {seed}
        for x in walked:
            for y in (g(x) for g in gens):
                if y not in seen:
                    seen.add(y)
                    walked.append(y)
        assert [p.anchor for p in dec.pendants] == walked

    def test_seed_must_be_leaf(self, tower321):
        with pytest.raises(TowerError, match="leaf"):
            attach_decorations(tower321, "0|e")

    def test_pendant_name_taken_by_a_tower_vertex(self):
        # the root renamed to the mid vertex of the second pendant
        text = json.dumps(system_to_json(build_congruence_tower(2, 2, 1)))
        sys_ = system_from_json(json.loads(text.replace('"0|e"', '"pend2m"')))
        for act in sys_.levels:
            act.validate()
        leaf = sys_.levels[1].tree.leaves()[0]
        with pytest.raises(TowerError, match="pendant vertex pend2m is already a vertex"):
            attach_decorations(sys_, leaf)


class TestProjectionGrowth:
    def test_depth_zero(self):
        sys_ = trivial_system()
        dec = attach_decorations(sys_, "0|e")
        growth = projection_orbit_growth(sys_, dec, dec.pendants[0].tip)
        assert growth.sizes == (1,)

    def test_depth_one(self, tower321):
        leaf = tower321.levels[1].tree.leaves()[0]
        dec = attach_decorations(tower321, leaf)
        growth = projection_orbit_growth(tower321, dec, dec.pendants[0].tip)
        assert growth.sizes == (1, 168)
        assert growth.strictly_increasing()


class TestDepthTwoCounts:
    def test_vertex_count_is_sum_of_quotient_orders(self, tower322):
        sys_, _ = tower322
        for a, act in enumerate(sys_.levels):
            assert len(act.tree.vertices) == sum(sl_order(3, 2, b) for b in range(a + 1))

    def test_level_indexing_by_prefix(self, tower322):
        sys_, _ = tower322
        tree = sys_.levels[2].tree
        by_level = {}
        for v in tree.vertices:
            by_level[v.split("|")[0]] = by_level.get(v.split("|")[0], 0) + 1
        assert by_level == {"0": 1, "1": 168, "2": 43008}

    def test_root_and_internal_degrees(self, tower322):
        sys_, _ = tower322
        adj = sys_.levels[2].tree.adjacency
        assert len(adj["0|e"]) == 168
        lvl1_degrees = {len(adj[v]) for v in adj if v.startswith("1|")}
        assert lvl1_degrees == {257}


class TestSerialization:
    def test_round_trip_depth_one(self, tower321):
        payload = system_to_json(tower321)
        again = system_from_json(payload)
        assert again.provenance["p"] == 2
        rep = verify_all_bonds(again)
        assert rep.passed
        assert [a.tree.vertices for a in again.levels] == [
            a.tree.vertices for a in tower321.levels
        ]

    def test_json_is_deterministic(self, tower321):
        a = json.dumps(system_to_json(tower321), sort_keys=True)
        b = json.dumps(system_to_json(build_congruence_tower(3, 2, 1)), sort_keys=True)
        assert a == b


def serialized(sys_) -> bytes:
    """The bytes `treeact tower build --out` writes."""
    return (json.dumps(system_to_json(sys_), sort_keys=True, indent=2) + "\n").encode()


# SHA-256 and length of the serialized tower, recorded before the builder
# was rewritten to extend each level from the one below
TOWER_BYTES = {
    (2, 2, 1): ("161be287ca30c889fca65b532be33a4f8b82b271a88e4959df73899ae437d62d", 1955),
    (2, 2, 2): ("e9bd905249c3d8e28ed7c9f01347a8a65f70bff77a6549f6ae96de3b579a025a", 11633),
    (2, 3, 2): ("fd90b40066c53771300cc99ee93f8a3dea67d98df75c1b1fa826641c689f1f94", 122609),
    (3, 2, 1): ("928de321cd35569302a80490a8db3f3630c823855528c7f8ac458933f57649ad", 60163),
}


class TestSerializedBytes:
    @pytest.mark.parametrize("npd", sorted(TOWER_BYTES))
    def test_pinned(self, npd):
        data = serialized(build_congruence_tower(*npd))
        assert (hashlib.sha256(data).hexdigest(), len(data)) == TOWER_BYTES[npd]

    def test_pinned_depth_two_mod_four(self, tower322):
        # the values the benchmark records for the same tower
        data = serialized(tower322[0])
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (
            "8e51fa46af04d7b8acc7ff5682c17fd8c50a359e8ad602508001607aa94825ee", 16_335_267)

    def test_pinned_depth_three_mod_27(self):
        # the benchmark's second tower, the one with a level between the
        # bottom and the top
        data = serialized(build_congruence_tower(2, 3, 3))
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (
            "ab39f78fddbb57ba25e61497b6d1448ae471a19c1c98949f0d1e3ecfdfac182e", 3_525_689)


def reduced_id(vid: str, p: int) -> str:
    """The id of the coset below ``vid``: its entries reduced mod p^(b-1)."""
    b, entries = vid.split("|")
    beta = int(b) - 1
    if beta == 0:
        return "0|e"
    return f"{beta}|" + ",".join(str(int(e) % p ** beta) for e in entries.split(","))


class TestNesting:
    """Level a is level a+1 without its newest vertices, as the bonds say:
    its vertices come first, in order, the generators agree on them, and the
    bond fixes them and maps each newer vertex to its tree parent."""

    @pytest.mark.parametrize("n, p, depth", [(2, 2, 2), (2, 3, 2), (2, 2, 3)])
    def test_small(self, n, p, depth):
        self.check(build_congruence_tower(n, p, depth), p)

    def test_depth_two_mod_four(self, tower322):
        self.check(tower322[0], 2)

    @staticmethod
    def check(sys_, p):
        for a, bond in enumerate(sys_.bonds):
            lower, upper = sys_.levels[a], sys_.levels[a + 1]
            old = lower.tree.vertices
            assert upper.tree.vertices[:len(old)] == old
            for name, auto in lower.generators.items():
                up = upper.generators[name]
                assert all(auto(v) == up(v) for v in old)
                assert auto.domain() == frozenset(old)
            assert all(bond[v] == v for v in old)
            new = upper.tree.vertices[len(old):]
            assert new and all(v.startswith(f"{a + 1}|") for v in new)
            assert all(bond[v] == reduced_id(v, p) for v in new)
            # a new vertex is a leaf of the upper tree hanging from its bond image
            assert all(upper.tree.adjacency[v] == (bond[v],) for v in new)
            assert len(bond) == len(upper.tree.vertices)


class TestGeneratorImages:
    """Each generator image is the left product with u_ij, by the naive
    oracle: on every vertex of the smaller towers, whose levels 2 and up
    the builder lifts from the level below, and on a sample of the
    depth-2 mod-4 tower's."""

    @pytest.mark.parametrize("n, p, depth", [(2, 3, 2), (3, 2, 1), (2, 2, 4), (2, 3, 3),
                                             (2, 5, 2)])
    def test_left_translation(self, n, p, depth):
        sys_ = build_congruence_tower(n, p, depth)
        for act in sys_.levels:
            self.check(act, act.tree.vertices, n, p)

    def test_sampled_depth_two_mod_four(self, tower322):
        top = tower322[0].levels[-1]
        self.check(top, random.Random(0).sample(top.tree.vertices, 2000), 3, 2)

    @staticmethod
    def check(act, vertices, n, p):
        names = {f"u{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
        assert set(act.generators) == names
        for name, auto in act.generators.items():
            u = oracles.unipotent(n, int(name[1]), int(name[2]), 1)
            for v in vertices:
                if v == "0|e":
                    assert auto(v) == v
                    continue
                b, entries = v.split("|")
                flat = [int(e) for e in entries.split(",")]
                x = [flat[i * n:(i + 1) * n] for i in range(n)]
                ux = oracles.mat_mul(u, x, p ** int(b))
                assert auto(v) == f"{b}|" + ",".join(str(e) for row in ux for e in row)


def level_ids(b: int, elements) -> list[str]:
    return [f"{b}|" + ",".join(map(str, x)) for x in sorted(elements)]


class TestLevelSets:
    """The vertices level b adds are the whole quotient SL_n(Z/p^b) in the
    order of its entry tuples, as the naive oracles list it: by the
    determinant filter, or for the larger moduli by the closure of the
    u_ij."""

    @pytest.mark.parametrize("n, p, depth", [(2, 2, 4), (2, 3, 3), (2, 5, 2), (3, 2, 1)])
    def test_levels(self, n, p, depth):
        sys_ = build_congruence_tower(n, p, depth)
        gens = [oracles.unipotent(n, i, j, 1)
                for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for b in range(1, depth + 1):
            m = p ** b
            if m ** (n * n) <= 2 ** 16:
                elements = oracles.sl_by_det_filter(n, m)[1]
            else:
                elements = oracles.group_closure(gens, m, sl_order(n, p, b))[0]
            old = len(sys_.levels[b - 1].tree.vertices)
            assert list(sys_.levels[b].tree.vertices[old:]) == level_ids(b, elements)


class TestLift:
    """Only level 1 is enumerated; every deeper level is lifted from it."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        real = tower.enumerate_group

        def counted(n, m, gens, cap=10 ** 6):
            calls.append((n, m))
            return real(n, m, gens, cap=cap)

        monkeypatch.setattr(tower, "enumerate_group", counted)
        return calls

    def test_enumerates_mod_p_once(self, monkeypatch):
        calls = self.spy(monkeypatch)
        sys_ = build_congruence_tower(3, 2, 2)
        assert calls == [(3, 2)]
        assert len(sys_.levels[-1].tree.vertices) == 1 + 168 + 43008

    def test_cap_checked_before_any_level(self, monkeypatch):
        calls = self.spy(monkeypatch)
        with pytest.raises(CapExceeded):
            build_congruence_tower(3, 2, 2, cap=43007)
        assert calls == []


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# The decoration of the first leaf of the top level, as `tower decorate`
# makes it, with the pendants numbered along the uncapped orbit walk
# (generators alone, sorted by name).  "anchors" hashes the pendant anchors
# in numbering order, "vertices" the decorated tree's vertex sequence, and
# each map the sorted (vertex, image) pairs as JSON.
DECORATION_PINS = {
    (2, 3, 2): {
        "seed": "2|0,1,8,0",
        "pendants": 648,
        "anchors": "c06d16aa5b0ebf015b7025ae0b400c70cba1e26d0e0df4ee8177e4d3aa903795",
        "vertices": "159f8f3d96b802747c670ba89b4fdfa2f316fc9e4461b03112a3cdfe17655337",
        "maps": {
            "u12": "bdcd00e141d27b09821bcc3f813741af8cc13e1089688302513f467d991463fa",
            "u21": "f5893601fa8899f5680e78d02a535c1371cde2eb27b961b48588bfa82ee6df3c",
        },
    },
    (3, 2, 1): {
        "seed": "1|0,0,1,0,1,0,1,0,0",
        "pendants": 168,
        "anchors": "b95cf81640762100b6fb973dbe432dcd12a50cf9e74b84d574cf7617bb8c7a6a",
        "vertices": "c09f2223d1fd84ea0e7b0a3e653d65aa5d2cdf39e80a96575129e33aae64c045",
        "maps": {
            "u12": "68fe47dabe68def65db6ee354a9c393576d3774e158789b6538fc1c86fa179d1",
            "u13": "70b06036091f88e3eccc63d712ee7e3579e3d2cdbaa4da4c04891a658f1c9dbd",
            "u21": "071cf65b8bf601fe1a0d8cd8f77c0d44a9921c3b59acbf2dae9483215773846b",
            "u23": "94d8129bb3fadf963a7d1598d580c8f67604c289a87bf455d4662889305bcc15",
            "u31": "48595754f28348e74265cb47b8f7d76db83fbacd627f53235940c4f155088c7d",
            "u32": "f4e866a066ef9b0da2f4d77d1f83cd7573d8671e9b04771278505bf7f6b3efe1",
        },
    },
}

# (level, vertex, cap) -> (size, closed, first 16 hex digits of the SHA-256
# of the sorted orbit, one vertex per line), in the tower (2, 3, 2): the
# first vertex of every class b <= level, recorded with the decoration pins
ORBIT_PINS = {
    (0, "0|e", None): (1, True, "869f843f42b5bdfc"),
    (0, "0|e", 0): (1, False, "869f843f42b5bdfc"),
    (0, "0|e", 1): (1, True, "869f843f42b5bdfc"),
    (0, "0|e", 2): (1, True, "869f843f42b5bdfc"),
    (0, "0|e", 3): (1, True, "869f843f42b5bdfc"),
    (1, "0|e", None): (1, True, "869f843f42b5bdfc"),
    (1, "0|e", 0): (1, False, "869f843f42b5bdfc"),
    (1, "0|e", 1): (1, True, "869f843f42b5bdfc"),
    (1, "0|e", 2): (1, True, "869f843f42b5bdfc"),
    (1, "0|e", 3): (1, True, "869f843f42b5bdfc"),
    (1, "1|0,1,2,0", None): (24, True, "5e4e7d646efb9256"),
    (1, "1|0,1,2,0", 0): (1, False, "c313bc869624a540"),
    (1, "1|0,1,2,0", 1): (5, False, "94add87af3067986"),
    (1, "1|0,1,2,0", 2): (13, False, "b5aa95df3496da74"),
    (1, "1|0,1,2,0", 3): (23, False, "f1ca4eaf179bebc6"),
    (2, "0|e", None): (1, True, "869f843f42b5bdfc"),
    (2, "0|e", 0): (1, False, "869f843f42b5bdfc"),
    (2, "0|e", 1): (1, True, "869f843f42b5bdfc"),
    (2, "0|e", 2): (1, True, "869f843f42b5bdfc"),
    (2, "0|e", 3): (1, True, "869f843f42b5bdfc"),
    (2, "1|0,1,2,0", None): (24, True, "5e4e7d646efb9256"),
    (2, "1|0,1,2,0", 0): (1, False, "c313bc869624a540"),
    (2, "1|0,1,2,0", 1): (5, False, "94add87af3067986"),
    (2, "1|0,1,2,0", 2): (13, False, "b5aa95df3496da74"),
    (2, "1|0,1,2,0", 3): (23, False, "f1ca4eaf179bebc6"),
    (2, "2|0,1,8,0", None): (648, True, "7d649179af5405b2"),
    (2, "2|0,1,8,0", 0): (1, False, "82cfe6bdaec6d48e"),
    (2, "2|0,1,8,0", 1): (5, False, "296e73d0c322caec"),
    (2, "2|0,1,8,0", 2): (17, False, "a4e3dd6bd7221271"),
    (2, "2|0,1,8,0", 3): (47, False, "186031fba3a3331e"),
}


class TestDecorationPins:
    @pytest.mark.parametrize("npd", sorted(DECORATION_PINS))
    def test_pinned(self, npd):
        want = DECORATION_PINS[npd]
        sys_ = build_congruence_tower(*npd)
        seed = sys_.levels[-1].tree.leaves()[0]
        dec = attach_decorations(sys_, seed)
        act = oracles.decorated_action(dec)
        got = {
            "seed": seed,
            "pendants": len(dec.pendants),
            "anchors": sha("\n".join(p.anchor for p in dec.pendants)),
            "vertices": sha("\n".join(act.tree.vertices)),
            "maps": {name: sha(json.dumps(sorted(auto.mapping.items())))
                     for name, auto in sorted(act.generators.items())},
        }
        assert got == want


class TestOrbitPins:
    @pytest.fixture(scope="class")
    def tower232(self):
        return build_congruence_tower(2, 3, 2)

    @pytest.mark.parametrize("level, vertex, cap", sorted(ORBIT_PINS, key=str))
    def test_pinned(self, tower232, level, vertex, cap):
        res = orbit(tower232.levels[level], vertex, cap)
        got = (len(res), res.closed, sha("\n".join(res.vertices))[:16])
        assert got == ORBIT_PINS[(level, vertex, cap)]


def _short_image_list():
    """A written (2, 2, 1) tower with one image dropped from u12 on level 1."""
    obj = system_to_json(build_congruence_tower(2, 2, 1))
    obj["levels"][1]["generators"]["u12"].pop()
    return obj


class TestRejections:
    """Each refusal of a foreign vertex or a malformed file, one row each."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda sys_: orbit(sys_.levels[1], "nope"), "vertex not in tree",
                     id="orbit-foreign-vertex"),
        pytest.param(lambda sys_: orbit(sys_.levels[1], "nope", 2), "vertex not in tree",
                     id="capped-orbit-foreign-vertex"),
        pytest.param(lambda sys_: attach_decorations(sys_, "nope"), "seed not in deepest tree",
                     id="decoration-foreign-seed"),
        pytest.param(lambda sys_: system_from_json(_short_image_list()),
                     "generator u12: one image per vertex required", id="json-image-count"),
    ])
    def test_refusal(self, call, message):
        sys_ = build_congruence_tower(2, 2, 1)
        with pytest.raises(TowerError) as exc:
            call(sys_)
        assert str(exc.value) == message
