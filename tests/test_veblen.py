"""Axis labelings: census, canonical kinds, classification witnesses."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import axis_psts
from hypothesis import given
from hypothesis import strategies as st

from skewpersp import veblen
from skewpersp.indices import (
    ALL_PERMS,
    CORRELATION,
    INDICES,
    PAIRS,
    extend,
    parse_cycles,
)
from skewpersp.psts import from_text, validate_configuration
from skewpersp.veblen import (
    PARTNER,
    CanonicalKind,
    VeblenConfig,
    action_table,
    aut_perms,
    canonical,
    census_index,
    census_orbits,
    enumerate_labelings,
    from_psts,
    lemma23_representatives,
    star,
    star_triangles,
    top,
)

KINDS = tuple(CanonicalKind)


class TestStarsAndTops:
    def test_shapes(self):
        for i in INDICES:
            assert len(star(i)) == 3 and len(top(i)) == 3
            assert all(i in u for u in star(i))
            assert all(i not in u for u in top(i))

    def test_correlation_swaps(self):
        for i in INDICES:
            assert CORRELATION.apply_line(star(i)) == top(i)
            assert CORRELATION.apply_line(top(i)) == star(i)


class TestVeblenConfig:
    def test_rejects_wrong_line_count(self):
        with pytest.raises(ValueError):
            VeblenConfig((top(1), top(2), top(3)))

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError, match="exactly 2"):
            VeblenConfig((top(1), top(2), top(3), star(3)))

    def test_rejects_repeated_lines(self):
        with pytest.raises(ValueError):
            VeblenConfig((top(1), top(1), top(2), top(3)))

    def test_normalized_line_order(self):
        v = VeblenConfig(tuple(reversed(canonical(CanonicalKind.G2).lines)))
        assert v == canonical(CanonicalKind.G2)


class TestCanonicalKinds:
    def test_g2_is_the_four_tops(self):
        assert canonical(CanonicalKind.G2).lines == tuple(
            sorted((top(i) for i in INDICES), key=lambda ln: sorted(map(str, ln)))
        ) or set(canonical(CanonicalKind.G2).lines) == {top(i) for i in INDICES}

    def test_b2_forced_completion(self):
        # frozen from the exhaustive completion search: the only other
        # completion of {T(1), T(2)} is the four-tops labeling itself
        v = canonical(CanonicalKind.B2)
        non_tops = [ln for ln in v.lines if ln not in {top(i) for i in INDICES}]
        assert sorted(map(sorted, (map(str, ln) for ln in non_tops))) == [
            ["12", "13", "24"],
            ["12", "14", "23"],
        ]
        completions = [
            w for w in enumerate_labelings()
            if w.has_line(top(1)) and w.has_line(top(2))
        ]
        assert len(completions) == 2
        other = next(w for w in completions if w != v)
        assert other == canonical(CanonicalKind.G2)

    def test_starred_kinds_are_complement_images(self):
        for kind in KINDS:
            assert canonical(PARTNER[kind]) == canonical(kind).apply(CORRELATION)

    def test_six_distinct_labelings(self):
        assert len({canonical(kind) for kind in KINDS}) == 6

    def test_tops_per_kind(self):
        want = {"G2": 4, "G2_STAR": 0, "B2": 2, "V4": 0, "V5": 1, "V6": 0}
        for kind in KINDS:
            assert sum(canonical(kind).has_line(top(i)) for i in INDICES) == want[kind.value]

    def test_stars_mirror_tops(self):
        for kind in KINDS:
            stars = [i for i in INDICES if canonical(kind).has_line(star(i))]
            tops = [i for i in INDICES if canonical(PARTNER[kind]).has_line(top(i))]
            assert stars == tops


def scan_labelings():
    """The reference census: ``VeblenConfig`` tried on every 4-subset of
    the twenty 3-subsets of pairs, the ones that validate sorted."""
    triples = [frozenset(c) for c in itertools.combinations(PAIRS, 3)]
    out = []
    for quad in itertools.combinations(triples, 4):
        try:
            out.append(VeblenConfig(quad))
        except ValueError:
            continue
    return tuple(sorted(out, key=VeblenConfig.sort_key))


IMPORT_GUARD = textwrap.dedent(
    """
    import skewpersp.cli
    from skewpersp import veblen

    print(veblen.enumerate_labelings.cache_info().currsize,
          veblen.census_index.cache_info().currsize)
    """
)


class TestCensus:
    def test_count(self, census):
        assert len(census) == 30

    def test_matches_the_exhaustive_scan(self, census):
        assert census == scan_labelings()

    def test_matches_the_definition_in_order(self, census):
        # from the definition alone, over all 4,845 quadruples of 3-sets of
        # pairs: each pair on two of them, any two sharing at most one pair;
        # a line sorts by its pair indices, a labeling by its sorted lines
        def key(line):
            return tuple(sorted(PAIRS.index(u) for u in line))

        triples = [frozenset(t) for t in itertools.combinations(PAIRS, 3)]
        reference = []
        for quad in itertools.combinations(triples, 4):
            if all(sum(u in t for t in quad) == 2 for u in PAIRS) and all(
                len(s & t) <= 1 for s, t in itertools.combinations(quad, 2)
            ):
                reference.append(tuple(sorted(quad, key=key)))
        reference.sort(key=lambda lines: [key(ln) for ln in lines])
        assert [v.lines for v in census] == reference

    def test_validates_only_the_mask_survivors(self, monkeypatch):
        # a cold census validates 30 labelings; the exhaustive scan
        # validates all 4,845 quadruples
        calls = 0
        real = VeblenConfig.__new__

        def counting(cls, lines):
            nonlocal calls
            calls += 1
            return real(cls, lines)

        monkeypatch.setattr(VeblenConfig, "__new__", counting)
        veblen.enumerate_labelings.__wrapped__()
        assert calls == 30

    def test_importing_the_cli_builds_no_census(self):
        """A fresh interpreter, so the session's census does not count:
        ``aut`` and ``iso`` on structure files never need the labelings."""
        src = str(Path(veblen.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_all_valid_configurations(self, census):
        for v in census:
            assert validate_configuration(axis_psts(v), 2)

    def test_sorted_and_duplicate_free(self, census):
        keys = [v.sort_key() for v in census]
        assert keys == sorted(keys)
        assert len(set(census)) == 30

    def test_contains_the_canonical_kinds(self, census):
        for kind in KINDS:
            assert canonical(kind) in census

    def test_closed_under_the_48_maps(self, census):
        pool = set(census)
        for v in census[:5]:
            for phi in ALL_PERMS:
                assert v.apply(extend(phi)) in pool
            assert v.apply(CORRELATION) in pool


class TestActionTable:
    """The one table of how the 48 candidate maps move the census, against
    labelings constructed and validated here."""

    def test_census_index(self, census):
        index = census_index()
        assert len(index) == 60
        for k, v in enumerate(census):
            assert index[v] == index[frozenset(v.lines)] == k

    def test_each_entry_is_the_position_of_the_image(self, census):
        maps = [extend(phi) for phi in ALL_PERMS]
        maps += [m.compose(CORRELATION) for m in maps]
        table = action_table()
        assert len(table) == 48
        for m, row in zip(maps, table):
            images = [VeblenConfig(tuple(m.apply_line(ln) for ln in v.lines)) for v in census]
            assert row == tuple(census.index(w) for w in images)

    def test_aut_perms_match_the_direct_scan(self, census):
        # the direct check of the 24 candidates that ``aut_perms`` made
        # before it read the table
        for v in census:
            assert aut_perms(v) == tuple(phi for phi in ALL_PERMS if v.apply(extend(phi)) == v)


class TestStarTriangles:
    def test_frozen_counts(self):
        want = {"G2": 4, "G2_STAR": 0, "B2": 2, "V4": 0, "V5": 1, "V6": 0}
        for kind in KINDS:
            assert len(star_triangles(canonical(kind))) == want[kind.value]

    def test_b2_members(self):
        assert star_triangles(canonical(CanonicalKind.B2)) == (1, 2)

    def test_v5_member(self):
        assert star_triangles(canonical(CanonicalKind.V5)) == (3,)

    def test_star_line_is_not_a_star_triangle(self, census):
        for v in census:
            for i in star_triangles(v):
                assert not v.has_line(star(i))

    @given(st.sampled_from(ALL_PERMS), st.sampled_from(KINDS))
    def test_equivariance(self, phi, kind):
        v = canonical(kind)
        moved = v.apply(extend(phi))
        assert sorted(phi(i) for i in star_triangles(v)) == list(
            star_triangles(moved)
        )


class TestAutomorphisms:
    def test_frozen_orders(self):
        want = {"G2": 24, "G2_STAR": 24, "B2": 4, "V4": 4, "V5": 3, "V6": 3}
        for kind in KINDS:
            assert len(aut_perms(canonical(kind))) == want[kind.value]

    def test_b2_stabilizes_both_blocks(self):
        for phi in aut_perms(canonical(CanonicalKind.B2)):
            assert {phi(1), phi(2)} == {1, 2}
            assert {phi(3), phi(4)} == {3, 4}

    def test_v5_fixes_three(self):
        group = aut_perms(canonical(CanonicalKind.V5))
        assert all(phi(3) == 3 for phi in group)
        # strictly smaller than the full stabilizer of 3 (order 6)
        assert len(group) == 3

    def test_v5_transposition_moves_lines(self):
        # (1,2) fixes 3 yet does not preserve the labeling
        v = canonical(CanonicalKind.V5)
        assert v.apply(extend(parse_cycles("(1,2)"))) != v

    def test_closed_under_composition(self):
        for kind in (CanonicalKind.B2, CanonicalKind.V5):
            group = set(aut_perms(canonical(kind)))
            for a, b in itertools.product(group, repeat=2):
                assert a.compose(b) in group


class TestClassification:
    """Each labeling is the extend image of exactly one canonical kind: its
    orbit under the 24 extended maps holds that kind and no other."""

    def test_canonical_classifies_as_itself(self):
        for kind in KINDS:
            assert kinds_in_orbit(canonical(kind)) == [kind]

    def test_moved_b2(self):
        v = canonical(CanonicalKind.B2).apply(extend(parse_cycles("(1,3)(2,4)")))
        assert kinds_in_orbit(v) == [CanonicalKind.B2]

    def test_census_fully_classified(self, census):
        for v in census:
            assert len(kinds_in_orbit(v)) == 1

    def test_extend_orbit_sizes(self):
        want = {"G2": 1, "G2_STAR": 1, "B2": 6, "V4": 6, "V5": 8, "V6": 8}
        orbit_of = orbits_by_labeling(False)
        for kind in KINDS:
            assert len(orbit_of[canonical(kind)]) == want[kind.value]

    def test_orbits_cover_census(self, census):
        orbit_of = orbits_by_labeling(False)
        covered = set()
        for kind in KINDS:
            covered.update(orbit_of[canonical(kind)])
        assert covered == set(census)


def orbits_by_labeling(complemented):
    """Each labeling's orbit in the census partition."""
    return {v: orbit for orbit in census_orbits(complemented) for v in orbit}


def kinds_in_orbit(v):
    """The canonical kinds in the orbit of ``v`` under the 24 extended maps."""
    return [kind for kind in KINDS if canonical(kind) in orbits_by_labeling(False)[v]]


class TestCensusOrbits:
    @pytest.mark.parametrize("complemented", [False, True])
    def test_partition(self, census, complemented):
        # disjoint orbits that cover the census, each in census order and
        # the image set of each of its members
        orbits = census_orbits(complemented)
        members = [v for orbit in orbits for v in orbit]
        assert sorted(members, key=census.index) == list(census)
        maps = [extend(phi) for phi in ALL_PERMS]
        if complemented:
            maps += [m.compose(CORRELATION) for m in maps]
        for orbit in orbits:
            assert list(orbit) == sorted(orbit, key=census.index)
            assert all({v.apply(m) for m in maps} == set(orbit) for v in orbit)
        assert [orbit[0] for orbit in orbits] == sorted((o[0] for o in orbits), key=census.index)

    def test_full_orbits_join_partners(self):
        # each orbit under the 48 maps is a kind's orbit under the 24
        # extended maps joined with its partner's
        ext = orbits_by_labeling(False)
        joined = {
            frozenset(ext[canonical(kind)] + ext[canonical(PARTNER[kind])]) for kind in KINDS
        }
        assert joined == {frozenset(orbit) for orbit in census_orbits(True)}


class TestLemma23Representatives:
    def test_class_counts(self):
        # computed from the brute-forced automorphism groups
        want = {"G2": 5, "B2": 10, "V5": 10}
        for kind_name, n in want.items():
            assert len(lemma23_representatives(CanonicalKind[kind_name])) == n

    def test_classes_partition_s4(self):
        for kind in (CanonicalKind.G2, CanonicalKind.B2, CanonicalKind.V5):
            classes = lemma23_representatives(kind)
            members = [f for c in classes for f in c]
            assert sorted(members) == sorted(ALL_PERMS)


class TestPstsBoundary:
    def test_round_trip(self, census):
        for v in census:
            assert from_psts(axis_psts(v)) == v

    def test_point_names(self):
        # an axis file names the six pair points c12 .. c34
        text = "psts 6 4\nc12 c13 c14 c23 c24 c34\nc12 c13 c23\nc12 c14 c24\nc13 c14 c34\nc23 c24 c34\n"
        assert from_psts(from_text(text)) == canonical(CanonicalKind.G2)

    def test_wrong_points_rejected(self):
        from skewpersp.psts import Psts

        s = Psts(["x", "y", "z"], [])
        with pytest.raises(ValueError, match="expected points"):
            from_psts(s)
