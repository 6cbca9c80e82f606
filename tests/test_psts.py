"""Partial Steiner triple systems: validation, lookups, serialization."""

import itertools
import random

import pytest
from conftest import free_complete_subgraphs, pasch_counts, projective_space, relabel, third_point
from hypothesis import given
from hypothesis import strategies as st

from skewpersp.perspective import parse_spec_text, build
from skewpersp.psts import (
    Psts,
    PstsError,
    from_text,
    to_text,
    validate_configuration,
)

PASCH = Psts(
    ["u", "v", "w", "x", "y", "z"],
    [("u", "v", "w"), ("u", "x", "y"), ("z", "v", "x"), ("z", "w", "y")],
)


def perspective(text):
    return build(parse_spec_text(text))


class TestConstruction:
    def test_normalization(self):
        s = Psts(["b", "a", "c"], [("c", "b", "a")])
        assert s.points == ("a", "b", "c")
        assert s.lines == (("a", "b", "c"),)

    def test_bad_name(self):
        with pytest.raises(PstsError):
            Psts(["a b"], [])
        with pytest.raises(PstsError):
            Psts([""], [])

    def test_duplicate_points(self):
        with pytest.raises(PstsError) as e:
            Psts(["a", "a", "b", "c"], [("a", "b", "c")])
        assert any("duplicate points" in p for p in e.value.problems)

    def test_line_not_a_3set(self):
        with pytest.raises(PstsError) as e:
            Psts(["a", "b", "c"], [("a", "b", "b")])
        assert any("not a 3-set" in p for p in e.value.problems)

    def test_unknown_point(self):
        with pytest.raises(PstsError) as e:
            Psts(["a", "b", "c"], [("a", "b", "d")])
        assert any("unknown points" in p for p in e.value.problems)

    def test_duplicate_line(self):
        with pytest.raises(PstsError) as e:
            Psts(["a", "b", "c"], [("a", "b", "c"), ("c", "a", "b")])
        assert any("duplicate lines" in p for p in e.value.problems)

    def test_two_lines_through_two_points(self):
        with pytest.raises(PstsError) as e:
            Psts(["a", "b", "c", "d"], [("a", "b", "c"), ("a", "b", "d")])
        assert any("two lines" in p for p in e.value.problems)

    def test_three_lines_through_one_pair_exact(self):
        # the problem list as the name-keyed check reported it
        with pytest.raises(PstsError) as e:
            Psts(["a", "b", "c", "d", "e"], [("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")])
        assert e.value.problems == [
            "points a, b lie on two lines (third points c and d)",
            "points a, b lie on two lines (third points d and e)",
            "points b, a lie on two lines (third points c and d)",
            "points b, a lie on two lines (third points d and e)",
        ]

    def test_mixed_problems_exact(self):
        with pytest.raises(PstsError) as e:
            Psts(
                ["a", "a", "b", "c", "d", "e"],
                [("a", "b", "c"), ("b", "a", "d"), ("a", "b", "q"), ("c", "d", "e"), ("e", "d", "c")],
            )
        assert e.value.problems == [
            "duplicate lines: [('c', 'd', 'e')]",
            "duplicate points: ['a']",
            "line ('a', 'b', 'q') uses unknown points ['q']",
            "points a, b lie on two lines (third points c and d)",
            "points b, a lie on two lines (third points c and d)",
        ]

    def test_problems_are_collected(self):
        with pytest.raises(PstsError) as e:
            Psts(["a", "a", "b"], [("a", "b", "q")])
        assert len(e.value.problems) >= 2

    def test_empty_structure(self):
        s = Psts([], [])
        assert s.points == () and s.lines == ()


class TestLookups:
    def test_degree_sum(self):
        assert sum(len(PASCH.partners[PASCH.points.index(x)]) for x in PASCH.points) == 3 * len(PASCH.lines)

    def test_collinearity(self):
        assert third_point(PASCH, "u", "v") is not None
        assert third_point(PASCH, "u", "z") is None

    def test_third_point(self):
        assert third_point(PASCH, "u", "v") == "w"
        assert third_point(PASCH, "v", "u") == "w"
        assert third_point(PASCH, "u", "z") is None

    def test_unique_joining_line(self):
        for x, y in itertools.combinations(PASCH.points, 2):
            if third_point(PASCH, x, y) is not None:
                carriers = [ln for ln in PASCH.lines if x in ln and y in ln]
                assert len(carriers) == 1

    def test_no_join_inside_perspective(self):
        s = perspective("perm:id@G2")
        assert third_point(s, "a1", "b2") is None


class TestSignature:
    def test_non_uniform(self):
        s = Psts(["a", "b", "c", "d"], [("a", "b", "c")])
        assert not any(validate_configuration(s, d) for d in range(3))

    def test_validate(self):
        assert validate_configuration(PASCH, 2)
        assert not validate_configuration(PASCH, 3)

    def test_isolated_points(self):
        s = Psts([*PASCH.points, "q"], PASCH.lines)
        assert not any(validate_configuration(s, d) for d in range(4))
        assert validate_configuration(Psts(["q"], []), 0)
        assert validate_configuration(Psts([], []), 5)


class TestFreeSubgraphs:
    def test_reference_count(self):
        # brute-forced over all C(15,5) subsets and frozen
        s = perspective("perm:id@G2")
        assert len(free_complete_subgraphs(s, 5)) == 6

    def test_pg32_count(self):
        assert len(projective_space(4).free_k5) == 1008

    def test_free_means_distinct_joins(self):
        s = perspective("perm:id@G2")
        for clique in free_complete_subgraphs(s, 5):
            joins = {
                frozenset((x, y, third_point(s, x, y)))
                for x, y in itertools.combinations(sorted(clique), 2)
            }
            assert len(joins) == 10

    def test_line_is_not_a_free_triangle(self):
        s = Psts(["a", "b", "c"], [("a", "b", "c")])
        assert free_complete_subgraphs(s, 3) == ()

    def test_pasch_triangles(self):
        # each of the 4 point triples omitting a line is a free triangle?
        # no: only triples that are pairwise collinear count
        tris = free_complete_subgraphs(PASCH, 3)
        for t in tris:
            pts = sorted(t)
            assert all(
                third_point(PASCH, x, y) is not None
                for x, y in itertools.combinations(pts, 2)
            )
            assert tuple(pts) not in PASCH.lines

    def test_trivial_sizes(self):
        assert free_complete_subgraphs(PASCH, 0) == (frozenset(),)
        assert len(free_complete_subgraphs(PASCH, 1)) == 6
        with pytest.raises(ValueError):
            free_complete_subgraphs(PASCH, -1)

    @given(st.permutations(list(PASCH.points)))
    def test_relabel_commutes(self, perm):
        mapping = dict(zip(PASCH.points, perm))
        relabeled = relabel(PASCH, mapping)
        direct = {
            frozenset(mapping[x] for x in clique)
            for clique in free_complete_subgraphs(PASCH, 3)
        }
        assert direct == set(free_complete_subgraphs(relabeled, 3))


def brute_force_free(s, n):
    """Every n-subset of the points, in order, that is pairwise collinear
    with pairwise distinct joining lines."""
    found = []
    for pts in itertools.combinations(s.points, n):
        if not all(third_point(s, x, y) is not None for x, y in itertools.combinations(pts, 2)):
            continue
        joins = [frozenset((x, y, third_point(s, x, y))) for x, y in itertools.combinations(pts, 2)]
        if len(set(joins)) == len(joins):
            found.append(frozenset(pts))
    return tuple(found)


FANO = Psts(
    [str(i) for i in range(7)],
    [("0", "1", "3"), ("1", "2", "4"), ("2", "3", "5"), ("3", "4", "6"),
     ("0", "4", "5"), ("1", "5", "6"), ("0", "2", "6")],
)

TRIANGLE_POINTS = [f"t{i:02d}" for i in range(12)]


@pytest.mark.parametrize(
    "s",
    [
        PASCH,
        FANO,
        perspective("perm:(1,2)@B2"),
        perspective("kappa:(1,2,4)@V5"),
        Psts(TRIANGLE_POINTS, [TRIANGLE_POINTS[k : k + 3] for k in range(0, 12, 3)]),
        projective_space(4),
    ],
    ids=["pasch", "fano", "plain", "complementing", "triangles", "pg32"],
)
def test_free_subgraphs_match_brute_force(s):
    for n in range(7):
        assert free_complete_subgraphs(s, n) == brute_force_free(s, n), n
    assert free_complete_subgraphs(s, 0) == (frozenset(),)


@st.composite
def small_psts(draw):
    """A structure on at most 12 points: the triples in a drawn order, each
    kept unless it shares a pair with a line kept before it, up to a drawn
    number of lines."""
    points = [f"p{i:02d}" for i in range(draw(st.integers(0, 12)))]
    triples = list(itertools.combinations(points, 3))
    draw(st.randoms(use_true_random=False)).shuffle(triples)
    limit = draw(st.integers(0, 20))
    lines, covered = [], set()
    for ln in triples:
        pairs = {frozenset(p) for p in itertools.combinations(ln, 2)}
        if len(lines) < limit and not pairs & covered:
            covered |= pairs
            lines.append(ln)
    return Psts(points, lines)


@given(small_psts())
def test_free_subgraphs_of_random_structures(s):
    for n in range(7):
        assert free_complete_subgraphs(s, n) == brute_force_free(s, n), n


@given(small_psts())
def test_partners_come_sorted(s):
    """Sorted line triples list each point's partner pairs in order, so the
    core keeps them as they come, with no sort of its own."""
    for pairs in s.partners:
        assert list(pairs) == sorted(pairs) and all(j < k for j, k in pairs)


def eager_partners(s):
    """Each point's line partners as index pairs, straight from the
    name-level lines: a reference for the first-use listing."""
    index = {x: i for i, x in enumerate(s.points)}
    return tuple(
        tuple(sorted(tuple(sorted(index[y] for y in ln if y != x)) for ln in s.lines if x in ln))
        for x in s.points
    )


@given(small_psts())
def test_partners_listed_on_first_use(s):
    assert s._partners is None  # never by the constructor
    assert s.partners == eager_partners(s)
    assert s.partners is s.partners


@given(small_psts())
def test_degrees_counted_from_the_lines(s):
    degrees = {sum(x in ln for ln in s.lines) for x in s.points}
    for d in range(6):
        assert validate_configuration(s, d) == (degrees <= {d})
    assert s._partners is None


@given(small_psts())
def test_hash_follows_points_and_lines(s):
    fresh = hash(s)
    assert s.partners is not None  # listing what is derived moves no hash
    assert hash(s) == fresh == hash(Psts(s.points, s.lines))


def test_free_subgraphs_span_many_words():
    # 1,200 points: the candidate masks run to many machine words
    names = [f"t{i:04d}" for i in range(1200)]
    triangles = [names[k : k + 3] for k in range(0, 1200, 3)]
    s = Psts(names, triangles)
    assert free_complete_subgraphs(s, 1) == tuple(frozenset([x]) for x in names)
    assert free_complete_subgraphs(s, 2) == tuple(
        frozenset(p) for t in triangles for p in itertools.combinations(t, 2)
    )
    assert free_complete_subgraphs(s, 3) == ()


def relabeled(s, seed):
    """s under a seeded renaming that also reorders the sorted points."""
    names = [f"q{k:02d}" for k in range(len(s.points))]
    random.Random(seed).shuffle(names)
    return relabel(s, dict(zip(s.points, names)))


CORE_CASES = [PASCH, FANO, perspective("perm:id@G2"), perspective("kappa:id@V5")]


@pytest.mark.parametrize(
    "s",
    CORE_CASES + [relabeled(s, seed) for seed, s in enumerate(CORE_CASES, 11)],
    ids=["pasch", "fano", "plain", "complementing"]
    + ["pasch-relabeled", "fano-relabeled", "plain-relabeled", "complementing-relabeled"],
)
def test_core_matches_brute_force(s):
    """The index core against a scan of the name-level lines."""
    index = {x: i for i, x in enumerate(s.points)}
    lines = tuple(frozenset(index[x] for x in ln) for ln in s.lines)
    assert s.line_sets == tuple(tuple(sorted(ln)) for ln in lines)
    for i in range(len(s.points)):
        through = [ln - {i} for ln in lines if i in ln]
        assert s.partners[i] == tuple(sorted(tuple(sorted(rest)) for rest in through))
        third = {}
        for j, k in (tuple(rest) for rest in through):
            third[j], third[k] = k, j
        assert s.third[i] == third
    for x, y in itertools.permutations(s.points, 2):
        carriers = [ln for ln in s.lines if x in ln and y in ln]
        assert len(carriers) <= 1
        expected = (set(carriers[0]) - {x, y}).pop() if carriers else None
        assert third_point(s, x, y) == expected
        # s has built its table above; the same answer from a structure
        # whose table the lookup itself builds
        fresh = Psts(s.points, s.lines)
        assert fresh._third is None  # built on first use, never by the constructor
        assert third_point(fresh, x, y) == expected
    for x in s.points:
        assert third_point(s, x, x) is None
        assert len(s.partners[s.points.index(x)]) == sum(x in ln for ln in s.lines)


class TestPaschCounts:
    """``Psts.pasch`` against closed forms and the name-level scan of
    ``conftest.pasch_configurations``."""

    @staticmethod
    def by_name(s):
        return dict(zip(s.points, s.pasch))

    @pytest.mark.parametrize("d,per_point,total", [(3, 6, 7), (4, 42, 105)])
    def test_projective_spaces(self, d, per_point, total):
        # in PG(d-1, 2) any two lines through a point span a plane, which
        # is a Fano plane, and both Pasch configurations on them lie in it
        s = projective_space(d)
        assert set(s.pasch) == {per_point}
        assert sum(s.pasch) == 6 * total
        assert self.by_name(s) == pasch_counts(s)

    def test_pg42(self):
        assert set(projective_space(5).pasch) == {210}

    def test_pasch_and_triangles(self):
        assert PASCH.pasch == (1,) * 6
        names = [f"t{i:04d}" for i in range(1200)]
        s = Psts(names, [names[k : k + 3] for k in range(0, 1200, 3)])
        assert s.pasch == (0,) * 1200

    def test_counted_on_first_use(self):
        s = perspective("perm:id@G2")
        assert s._pasch is None
        assert s.pasch is s.pasch
        assert s.triangles is s.triangles

    @given(st.randoms(use_true_random=False))
    def test_relabel_invariant(self, rng):
        s = perspective("kappa:(1,2,4)@V5")
        names = [f"q{k:02d}" for k in range(len(s.points))]
        rng.shuffle(names)
        mapping = dict(zip(s.points, names))
        moved = self.by_name(relabel(s, mapping))
        assert {mapping[x]: c for x, c in self.by_name(s).items()} == moved

    def test_canonical_axis_specs_match_scan(self, perm_specs, kappa_specs):
        specs = [*perm_specs, *kappa_specs]
        assert len(specs) == 288
        for spec in specs:
            s = build(spec)
            assert self.by_name(s) == pasch_counts(s), spec


class TestText:
    def test_round_trip_pasch(self):
        assert from_text(to_text(PASCH)) == PASCH

    def test_round_trip_perspective(self):
        s = perspective("kappa:(1,2,4)@V5")
        assert from_text(to_text(s)) == s

    def test_round_trip_empty(self):
        s = Psts([], [])
        assert to_text(s) == "psts 0 0\n\n"
        assert from_text(to_text(s)) == s
        assert from_text("psts 0 0\n") == s

    def test_missing_points_row(self):
        with pytest.raises(PstsError, match="no points row"):
            from_text("psts 2 0\n")

    def test_header_shape(self):
        text = to_text(PASCH)
        assert text.splitlines()[0] == "psts 6 4"

    def test_bad_header(self):
        with pytest.raises(PstsError):
            from_text("nope 1 2\n")
        with pytest.raises(PstsError):
            from_text("")
        # a digit that is no decimal digit, which int() rejects
        with pytest.raises(PstsError, match="bad header"):
            from_text("psts \u00b2 0\n")

    def test_row_count_mismatch(self):
        with pytest.raises(PstsError):
            from_text("psts 3 2\na b c\na b c\n")

    def test_bad_line_row(self):
        with pytest.raises(PstsError):
            from_text("psts 3 1\na b c\na b\n")
