"""Axis labelings: census, canonical kinds, classification witnesses."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import axis_psts
from hypothesis import given
from hypothesis import strategies as st

from skewpersp import veblen
from skewpersp.indices import (
    ALL_PERMS,
    CORRELATION,
    EXTEND,
    INDICES,
    PAIRS,
    parse_cycles,
    s4_tables,
)
from skewpersp.psts import from_text, validate_configuration
from skewpersp.veblen import (
    PAIR_NAMES,
    PARTNER,
    CanonicalKind,
    action_table,
    apply,
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
            assert all(i in PAIRS[u] for u in star(i))
            assert all(i not in PAIRS[u] for u in top(i))

    def test_correlation_swaps(self):
        for i in INDICES:
            assert frozenset(CORRELATION[u] for u in star(i)) == top(i)
            assert frozenset(CORRELATION[u] for u in top(i)) == star(i)


class TestVeblenConfig:
    """An axis file must hold a Veblen configuration on the six pair
    points: ``from_psts`` reads the labeling's position off the census and
    rejects any other line set, naming its lines."""

    def test_rejects_wrong_line_count(self):
        with pytest.raises(ValueError, match="not one of the 30 labelings"):
            from_psts(named((top(1), top(2), top(3))))

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError, match=r"lines \{c23 c24 c34\}, \{c13 c14 c34\}, \{c12 c14 c24\}, \{c14 c24 c34\}$"):
            from_psts(named((top(1), top(2), top(3), star(4))))

    def test_rejects_repeated_lines(self):
        with pytest.raises(ValueError, match="not one of the 30 labelings"):
            from_psts(named((top(1), top(1), top(2), top(3))))

    def test_normalized_line_order(self):
        g2 = enumerate_labelings()[canonical(CanonicalKind.G2)]
        assert from_psts(named(reversed(g2))) == canonical(CanonicalKind.G2)


def named(lines):
    """Lines of pair positions as ``from_psts`` reads them: the pair point
    names, with each line's names in the given order.  No ``Psts`` is
    built, so no check of its own stands before ``from_psts``."""
    return SimpleNamespace(points=PAIR_NAMES, lines=[[PAIR_NAMES[u] for u in sorted(ln)] for ln in lines])


def lines_of(v):
    """The lines of the labeling at census position ``v``, as frozensets."""
    return {frozenset(ln) for ln in enumerate_labelings()[v]}


class TestCanonicalKinds:
    def test_g2_is_the_four_tops(self):
        assert lines_of(canonical(CanonicalKind.G2)) == {top(i) for i in INDICES}

    def test_b2_forced_completion(self, census):
        # frozen from the exhaustive completion search: the only other
        # completion of {T(1), T(2)} is the four-tops labeling itself
        v = canonical(CanonicalKind.B2)
        non_tops = [ln for ln in lines_of(v) if ln not in {top(i) for i in INDICES}]
        assert sorted(sorted("%d%d" % PAIRS[u] for u in ln) for ln in non_tops) == [
            ["12", "13", "24"],
            ["12", "14", "23"],
        ]
        completions = [w for w in census if {top(1), top(2)} <= lines_of(w)]
        assert len(completions) == 2
        other = next(w for w in completions if w != v)
        assert other == canonical(CanonicalKind.G2)

    def test_starred_kinds_are_complement_images(self):
        for kind in KINDS:
            assert canonical(PARTNER[kind]) == apply(canonical(kind), CORRELATION)

    def test_six_distinct_labelings(self):
        assert len({canonical(kind) for kind in KINDS}) == 6

    def test_tops_per_kind(self):
        want = {"G2": 4, "G2_STAR": 0, "B2": 2, "V4": 0, "V5": 1, "V6": 0}
        for kind in KINDS:
            assert sum(top(i) in lines_of(canonical(kind)) for i in INDICES) == want[kind.value]

    def test_stars_mirror_tops(self):
        for kind in KINDS:
            stars = [i for i in INDICES if star(i) in lines_of(canonical(kind))]
            tops = [i for i in INDICES if top(i) in lines_of(canonical(PARTNER[kind]))]
            assert stars == tops


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

    def test_matches_the_definition_in_order(self, census):
        # from the definition alone, over all 4,845 quadruples of 3-sets of
        # pairs: each pair on two of them, any two sharing at most one pair;
        # a line sorts by its pair positions, a labeling by its sorted lines
        def key(line):
            return tuple(sorted(line))

        triples = [frozenset(t) for t in itertools.combinations(range(len(PAIRS)), 3)]
        reference = []
        for quad in itertools.combinations(triples, 4):
            if all(sum(u in t for t in quad) == 2 for u in range(len(PAIRS))) and all(
                len(s & t) <= 1 for s, t in itertools.combinations(quad, 2)
            ):
                reference.append(tuple(sorted(key(t) for t in quad)))
        reference.sort()
        assert list(enumerate_labelings()) == reference

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

    def test_sorted_and_duplicate_free(self):
        # each labeling in its normal form, the sorted tuple of its sorted
        # lines, which is also its sort key
        keys = list(enumerate_labelings())
        assert keys == sorted(keys)
        assert len(set(keys)) == 30
        assert all(v == tuple(sorted(tuple(sorted(ln)) for ln in v)) for v in keys)

    def test_contains_the_canonical_kinds(self, census):
        for kind in KINDS:
            assert canonical(kind) in census

    def test_closed_under_the_48_maps(self, census):
        pool = set(census)
        for v in census[:5]:
            for m in EXTEND:
                assert apply(v, m) in pool
            assert apply(v, CORRELATION) in pool


class TestActionTable:
    """The one table of how the 48 candidate maps move the census, against
    images of the lines computed here."""

    def test_census_index(self):
        index = census_index()
        assert len(index) == 30
        for k, v in enumerate(enumerate_labelings()):
            assert index[v] == k

    def test_each_entry_is_the_position_of_the_image(self, census):
        maps = list(EXTEND)
        maps += [tuple(m[k] for k in CORRELATION) for m in maps]
        table = action_table()
        assert len(table) == 48
        line_sets = [lines_of(v) for v in census]
        for m, row in zip(maps, table):
            images = [{frozenset(m[u] for u in ln) for ln in lines} for lines in line_sets]
            assert row == tuple(line_sets.index(w) for w in images)

    def test_aut_perms_match_the_direct_scan(self, census):
        # the direct check of the 24 candidates that ``aut_perms`` made
        # before it read the table
        for v in census:
            assert aut_perms(v) == tuple(phi for phi, m in enumerate(EXTEND) if apply(v, m) == v)


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
                assert star(i) not in lines_of(v)

    @given(st.sampled_from(range(len(ALL_PERMS))), st.sampled_from(KINDS))
    def test_equivariance(self, phi, kind):
        v = canonical(kind)
        moved = apply(v, EXTEND[phi])
        assert sorted(ALL_PERMS[phi][i - 1] for i in star_triangles(v)) == list(
            star_triangles(moved)
        )


class TestAutomorphisms:
    def test_frozen_orders(self):
        want = {"G2": 24, "G2_STAR": 24, "B2": 4, "V4": 4, "V5": 3, "V6": 3}
        for kind in KINDS:
            assert len(aut_perms(canonical(kind))) == want[kind.value]

    def test_b2_stabilizes_both_blocks(self):
        for phi in aut_perms(canonical(CanonicalKind.B2)):
            images = ALL_PERMS[phi]
            assert {images[0], images[1]} == {1, 2}
            assert {images[2], images[3]} == {3, 4}

    def test_v5_fixes_three(self):
        group = aut_perms(canonical(CanonicalKind.V5))
        assert all(ALL_PERMS[phi][2] == 3 for phi in group)
        # strictly smaller than the full stabilizer of 3 (order 6)
        assert len(group) == 3

    def test_v5_transposition_moves_lines(self):
        # (1,2) fixes 3 yet does not preserve the labeling
        v = canonical(CanonicalKind.V5)
        assert apply(v, EXTEND[parse_cycles("(1,2)")]) != v

    def test_closed_under_composition(self):
        for kind in (CanonicalKind.B2, CanonicalKind.V5):
            group = set(aut_perms(canonical(kind)))
            for a, b in itertools.product(group, repeat=2):
                assert s4_tables()[0][a][b] in group


class TestClassification:
    """Each labeling is the extend image of exactly one canonical kind: its
    orbit under the 24 extended maps holds that kind and no other."""

    def test_canonical_classifies_as_itself(self):
        for kind in KINDS:
            assert kinds_in_orbit(canonical(kind)) == [kind]

    def test_moved_b2(self):
        v = apply(canonical(CanonicalKind.B2), EXTEND[parse_cycles("(1,3)(2,4)")])
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
        maps = list(EXTEND)
        if complemented:
            maps += [tuple(m[k] for k in CORRELATION) for m in maps]
        for orbit in orbits:
            assert list(orbit) == sorted(orbit, key=census.index)
            assert all({apply(v, m) for m in maps} == set(orbit) for v in orbit)
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
            assert sorted(members) == list(range(len(ALL_PERMS)))


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
