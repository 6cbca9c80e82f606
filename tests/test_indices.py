"""Index algebra: pair positions, permutations, pair maps, cycle text."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewpersp.indices import (
    ALL_PERMS,
    CORRELATION,
    IDENTITY,
    INDICES,
    PAIRS,
    PairMap,
    Perm4,
    conjugacy_classes_under,
    correlation,
    extend,
    is_subgroup,
    orbits,
    parse_cycles,
    render_cycles,
)

perms = st.sampled_from(ALL_PERMS)
pairs = st.sampled_from(range(len(PAIRS)))
indices = st.sampled_from(INDICES)


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
        assert PAIRS[correlation(PAIRS.index((2, 4)))] == (1, 3)
        assert PAIRS[correlation(0)] == (3, 4)

    @given(pairs)
    def test_involution(self, u):
        assert correlation(correlation(u)) == u

    @given(pairs)
    def test_fixed_point_free(self, u):
        assert correlation(u) != u

    def test_pairmap_constant_matches(self):
        for u in range(len(PAIRS)):
            assert CORRELATION.images[u] == correlation(u)


class TestPerm4:
    def test_group_size(self):
        assert len(ALL_PERMS) == 24
        assert len(set(ALL_PERMS)) == 24
        assert ALL_PERMS[0] == IDENTITY

    def test_not_a_bijection_rejected(self):
        with pytest.raises(ValueError):
            Perm4((1, 1, 3, 4))

    @given(perms, perms, indices)
    def test_compose_semantics(self, f, g, i):
        assert f.compose(g)(i) == f(g(i))

    @given(perms)
    def test_inverse(self, f):
        assert f.compose(f.inverse()) == IDENTITY
        assert f.inverse().compose(f) == IDENTITY

    @given(perms, perms)
    def test_conjugation(self, f, a):
        g = f.conjugate_by(a)
        for i in INDICES:
            assert g(a(i)) == a(f(i))

    def test_fixed_points(self):
        assert parse_cycles("(2,3,4)").fixed_points() == (1,)
        assert IDENTITY.fixed_points() == (1, 2, 3, 4)

    def test_cycles_ordering(self):
        f = parse_cycles("(2,3,4)")
        assert f.cycles() == ((1,), (2, 3, 4))


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


def cycle_type(phi):
    return tuple(sorted(len(c) for c in phi.cycles()))


class TestCycleType:
    """Cycle types read off ``Perm4.cycles``."""

    @given(perms)
    def test_partition_of_four(self, f):
        assert sorted(i for c in f.cycles() for i in c) == list(INDICES)
        for c in f.cycles():
            assert [f(i) for i in c] == list(c[1:] + c[:1])

    def test_census_of_types(self):
        from collections import Counter

        counts = Counter(cycle_type(f) for f in ALL_PERMS)
        assert counts == {
            (1, 1, 1, 1): 1, (1, 1, 2): 6, (1, 3): 8, (2, 2): 3, (4,): 6,
        }


class TestExtend:
    def test_elementwise_images(self):
        f = parse_cycles("(1,2,3,4)")
        assert PAIRS[extend(f).images[PAIRS.index((1, 2))]] == (2, 3)
        assert PAIRS[extend(parse_cycles("(1,2)")).images[0]] == (1, 2)
        assert PAIRS[extend(parse_cycles("(1,3)")).images[PAIRS.index((1, 4))]] == (3, 4)
        for u in range(len(PAIRS)):
            assert extend(IDENTITY).images[u] == u

    @given(perms, perms, pairs)
    def test_homomorphism(self, f, g, u):
        assert extend(f.compose(g)).images[u] == extend(f).images[extend(g).images[u]]

    @given(perms, pairs)
    def test_commutes_with_correlation(self, f, u):
        assert extend(f).images[correlation(u)] == correlation(extend(f).images[u])

    def test_faithful(self):
        assert len({extend(f).images for f in ALL_PERMS}) == 24

    @given(perms)
    def test_inverse_compatible(self, f):
        assert extend(f).inverse() == extend(f.inverse())


class TestPairMap:
    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            PairMap((0, 0, 2, 3, 4, 5))

    @given(perms, perms, pairs)
    def test_compose_semantics(self, f, g, u):
        m, n = extend(f), extend(g)
        assert m.compose(n).images[u] == m.images[n.images[u]]

    def test_apply_line(self):
        line = frozenset(PAIRS.index(ends) for ends in [(1, 2), (1, 3), (1, 4)])
        assert CORRELATION.apply_line(line) == frozenset(
            PAIRS.index(ends) for ends in [(3, 4), (2, 4), (2, 3)]
        )

    def test_correlation_outside_extends(self):
        assert CORRELATION.images not in {extend(f).images for f in ALL_PERMS}
        assert CORRELATION.compose(CORRELATION).images[0] == 0


class TestSubgroups:
    def test_trivial_subgroup(self):
        assert is_subgroup(frozenset({IDENTITY}))
        classes = conjugacy_classes_under(frozenset({IDENTITY}))
        assert len(classes) == 24
        assert all(len(c) == 1 for c in classes)

    def test_full_group_classes(self):
        classes = conjugacy_classes_under(frozenset(ALL_PERMS))
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
        classes = conjugacy_classes_under(frozenset(ALL_PERMS))
        seen = [f for c in classes for f in c]
        assert sorted(seen) == sorted(ALL_PERMS)


class TestOrbits:
    def test_items_order(self):
        # residues mod 3 under adding 3 mod 9, listed in a shuffled order:
        # each orbit follows the items, and orbits follow their first member
        items = (4, 0, 7, 3, 8, 1, 5, 2, 6)
        got = orbits(items, lambda x: {(x + 3 * k) % 9 for k in range(3)})
        assert got == ((4, 7, 1), (0, 3, 6), (8, 5, 2))
