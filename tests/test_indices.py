"""Index algebra: pair positions, permutations by position, pair maps as
6-tuples, the group tables of S4, cycle text."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewpersp.indices import (
    ALL_PERMS,
    CORRELATION,
    EXTEND,
    IDENTITY,
    INDICES,
    PAIRS,
    conjugacy_classes_under,
    fixed_points,
    is_subgroup,
    orbits,
    parse_cycles,
    render_cycles,
    s4_tables,
)

perms = st.sampled_from(range(len(ALL_PERMS)))
pairs = st.sampled_from(range(len(PAIRS)))
indices = st.sampled_from(INDICES)


def at(f, i):
    """The image of the index i under the permutation at position f."""
    return ALL_PERMS[f][i - 1]


class TestPair:
    """A pair is its position in ``PAIRS``; ``PAIRS[u]`` holds its ends."""

    def test_global_order(self):
        assert ["%d%d" % ends for ends in PAIRS] == ["12", "13", "14", "23", "24", "34"]
        assert PAIRS.index((2, 4)) == 4

    def test_membership_and_other(self):
        ends = PAIRS[1]
        assert 1 in ends and 3 in ends and 2 not in ends

    def test_iteration(self):
        assert list(PAIRS[3]) == [2, 3]


class TestCorrelation:
    def test_complement(self):
        assert PAIRS[CORRELATION[PAIRS.index((2, 4))]] == (1, 3)
        assert PAIRS[CORRELATION[0]] == (3, 4)

    @given(pairs)
    def test_involution(self, u):
        assert CORRELATION[CORRELATION[u]] == u

    @given(pairs)
    def test_fixed_point_free(self, u):
        assert CORRELATION[u] != u

    def test_pairmap_constant_matches(self):
        for u in range(len(PAIRS)):
            assert PAIRS[CORRELATION[u]] == tuple(i for i in INDICES if i not in PAIRS[u])


class TestPerm4:
    """A permutation is its position in ``ALL_PERMS``; ``s4_tables`` holds
    its products."""

    def test_group_size(self):
        assert len(ALL_PERMS) == 24
        assert len(set(ALL_PERMS)) == 24
        assert IDENTITY == 0 and ALL_PERMS[IDENTITY] == INDICES

    @given(perms, perms, indices)
    def test_compose_semantics(self, f, g, i):
        comp = s4_tables()[0]
        assert at(comp[f][g], i) == at(f, at(g, i))

    @given(perms)
    def test_inverse(self, f):
        comp, inv, _ = s4_tables()
        assert comp[f][inv[f]] == IDENTITY
        assert comp[inv[f]][f] == IDENTITY

    @given(perms, perms)
    def test_conjugation(self, f, a):
        g = s4_tables()[2][a][f]
        for i in INDICES:
            assert at(g, at(a, i)) == at(a, at(f, i))

    def test_fixed_points(self):
        assert fixed_points(parse_cycles("(2,3,4)")) == (1,)
        assert fixed_points(IDENTITY) == (1, 2, 3, 4)

    def test_cycles_ordering(self):
        assert render_cycles(parse_cycles("(3,4,2)(1)")) == "(2,3,4)"
        assert render_cycles(parse_cycles("(4,2)(3,1)")) == "(1,3)(2,4)"


class TestCycleText:
    def test_identity_renders_id(self):
        assert render_cycles(IDENTITY) == "id"
        assert parse_cycles("id") == IDENTITY

    @given(perms)
    def test_round_trip(self, f):
        assert parse_cycles(render_cycles(f)) == f

    def test_fixed_points_optional(self):
        assert parse_cycles("(1)(2,3,4)") == parse_cycles("(2,3,4)")

    def test_whitespace_tolerated(self):
        assert parse_cycles(" (1,2)(3,4) ") == parse_cycles("(1,2)(3,4)")

    def test_malformed_text(self):
        # Arabic-Indic and superscript digits too: int() reads the first
        for bad in ["", "(1,2", "1,2", "(1,x)", "()", "(1,5)", "(\u0661,\u0662)", "(1,\u00b2)"]:
            with pytest.raises(ValueError, match="malformed"):
                parse_cycles(bad)

    def test_repeated_index(self):
        with pytest.raises(ValueError, match="not a bijection"):
            parse_cycles("(1,2,2)")
        with pytest.raises(ValueError, match="not a bijection"):
            parse_cycles("(1,2)(2,3)")


def cycles(f):
    """The cycles of the permutation at position f, fixed points included,
    read off its cycle text and ``fixed_points``, ordered by least index."""
    text = render_cycles(f)
    moved = [] if text == "id" else [tuple(map(int, c.split(","))) for c in text[1:-1].split(")(")]
    return sorted(moved + [(i,) for i in fixed_points(f)])


def cycle_type(phi):
    return tuple(sorted(len(c) for c in cycles(phi)))


class TestCycleType:
    """Cycle types read off the cycle text."""

    @given(perms)
    def test_partition_of_four(self, f):
        assert sorted(i for c in cycles(f) for i in c) == list(INDICES)
        for c in cycles(f):
            assert [at(f, i) for i in c] == list(c[1:] + c[:1])

    def test_census_of_types(self):
        from collections import Counter

        counts = Counter(cycle_type(f) for f in range(len(ALL_PERMS)))
        assert counts == {
            (1, 1, 1, 1): 1, (1, 1, 2): 6, (1, 3): 8, (2, 2): 3, (4,): 6,
        }


class TestExtend:
    def test_elementwise_images(self):
        f = parse_cycles("(1,2,3,4)")
        assert PAIRS[EXTEND[f][PAIRS.index((1, 2))]] == (2, 3)
        assert PAIRS[EXTEND[parse_cycles("(1,2)")][0]] == (1, 2)
        assert PAIRS[EXTEND[parse_cycles("(1,3)")][PAIRS.index((1, 4))]] == (3, 4)
        for u in range(len(PAIRS)):
            assert EXTEND[IDENTITY][u] == u

    @given(perms, perms, pairs)
    def test_homomorphism(self, f, g, u):
        assert EXTEND[s4_tables()[0][f][g]][u] == EXTEND[f][EXTEND[g][u]]

    @given(perms, pairs)
    def test_commutes_with_correlation(self, f, u):
        assert EXTEND[f][CORRELATION[u]] == CORRELATION[EXTEND[f][u]]

    def test_faithful(self):
        assert len(set(EXTEND)) == 24

    @given(perms)
    def test_inverse_compatible(self, f):
        inverse = tuple(EXTEND[f].index(u) for u in range(len(PAIRS)))
        assert inverse == EXTEND[s4_tables()[1][f]]


class TestPairMap:
    """A map of the pairs is the 6-tuple of the image of each position."""

    @given(perms, perms)
    def test_compose_semantics(self, f, g):
        m, n = EXTEND[f], EXTEND[g]
        assert tuple(m[k] for k in n) == EXTEND[s4_tables()[0][f][g]]

    def test_apply_line(self):
        line = frozenset(PAIRS.index(ends) for ends in [(1, 2), (1, 3), (1, 4)])
        assert frozenset(CORRELATION[u] for u in line) == frozenset(
            PAIRS.index(ends) for ends in [(3, 4), (2, 4), (2, 3)]
        )

    def test_correlation_outside_extends(self):
        assert CORRELATION not in set(EXTEND)
        assert CORRELATION[CORRELATION[0]] == 0


class TestSubgroups:
    def test_trivial_subgroup(self):
        assert is_subgroup(frozenset({IDENTITY}))
        classes = conjugacy_classes_under(frozenset({IDENTITY}))
        assert len(classes) == 24
        assert all(len(c) == 1 for c in classes)

    def test_full_group_classes(self):
        classes = conjugacy_classes_under(frozenset(range(len(ALL_PERMS))))
        assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
        # representatives are least members, classes ordered by them
        reps = [c[0] for c in classes]
        assert reps == sorted(reps)
        assert reps[0] == IDENTITY

    def test_not_a_subgroup(self):
        with pytest.raises(ValueError, match="not a subgroup"):
            conjugacy_classes_under(frozenset({parse_cycles("(1,2)")}))
        assert not is_subgroup(frozenset({IDENTITY, parse_cycles("(1,2,3)")}))

    def test_classes_partition_s4(self):
        classes = conjugacy_classes_under(frozenset(range(len(ALL_PERMS))))
        seen = [f for c in classes for f in c]
        assert sorted(seen) == list(range(len(ALL_PERMS)))


class TestOrbits:
    def test_items_order(self):
        # residues mod 3 under adding 3 mod 9, listed in a shuffled order:
        # each orbit follows the items, and orbits follow their first member
        items = (4, 0, 7, 3, 8, 1, 5, 2, 6)
        got = orbits(items, lambda x: {(x + 3 * k) % 9 for k in range(3)})
        assert got == ((4, 7, 1), (0, 3, 6), (8, 5, 2))
