"""Perspective construction, predictions, and spec text."""

import gc
import tracemalloc

import pytest
from conftest import third_point
from hypothesis import given
from hypothesis import strategies as st

from skewpersp.indices import ALL_PERMS, CORRELATION, IDENTITY, PAIRS, Pair, correlation, extend, parse_cycles
from skewpersp.classify import enumerate_family
from skewpersp.perspective import (
    A_NAMES,
    B_NAMES,
    C_NAMES,
    CENTER,
    POINTS,
    PerspectiveSpec,
    SkewFamily,
    a_name,
    axis_token,
    b_name,
    build,
    c_name,
    parse_spec_text,
    predicted_free_k5,
    spec_text,
)
from skewpersp import psts
from skewpersp.psts import Psts, PstsError, _free_cliques, validate_configuration
from skewpersp.veblen import CanonicalKind, VeblenConfig, canonical

perms = st.sampled_from(ALL_PERMS)
kinds = st.sampled_from(tuple(CanonicalKind))
families = st.sampled_from(tuple(SkewFamily))


def spec_of(family, perm, axis_kind):
    return PerspectiveSpec(family, perm, canonical(axis_kind))


class TestBuild:
    @given(families, perms, kinds)
    def test_always_a_15_4_20_3_configuration(self, family, perm, kind):
        s = build(spec_of(family, perm, kind))
        assert validate_configuration(s, 4)
        assert (len(s.points), len(s.lines)) == (15, 20)

    def test_point_roster(self):
        s = build(spec_of(SkewFamily.PERM, IDENTITY, CanonicalKind.G2))
        assert set(s.points) == {CENTER, *A_NAMES, *B_NAMES, *C_NAMES}

    def test_center_lines(self):
        s = build(spec_of(SkewFamily.PERM, IDENTITY, CanonicalKind.G2))
        for i in (1, 2, 3, 4):
            assert third_point(s, a_name(i), b_name(i)) == CENTER

    def test_a_side_joins_are_fixed(self):
        s = build(spec_of(SkewFamily.PERM_KAPPA, IDENTITY, CanonicalKind.V5))
        for u in PAIRS:
            assert third_point(s, a_name(u.lo), a_name(u.hi)) == c_name(u)

    def test_identity_b_side(self):
        s = build(spec_of(SkewFamily.PERM, IDENTITY, CanonicalKind.G2))
        assert third_point(s, "b1", "b2") is not None
        assert third_point(s, "b1", "b2") == "c12"

    def test_kappa_b_side_is_complemented(self):
        s = build(spec_of(SkewFamily.PERM_KAPPA, IDENTITY, CanonicalKind.G2))
        for u in PAIRS:
            assert third_point(s, b_name(u.lo), b_name(u.hi)) == c_name(correlation(u))

    def test_names_are_shared(self):
        for i in (1, 2, 3, 4):
            assert a_name(i) is A_NAMES[i - 1] and b_name(i) is B_NAMES[i - 1]

    def test_retained_bytes_per_structure(self, perm_specs, kappa_specs):
        """A memory gate that cannot flake: the bytes tracemalloc sees held
        by freshly built structures, none of which has been searched.  They
        hold their lines only (about 500 bytes); listing the line partners
        as well would take about 5 KiB."""
        specs = [*perm_specs, *kappa_specs]
        assert len(specs) == 288
        for spec in specs:  # fill what building memoizes, so only structures count
            build(spec)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            built = [build(spec) for spec in specs]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(s.points is POINTS for s in built)
        assert retained / len(built) <= 1024

    def test_build_and_validation_list_no_partners(self, census, monkeypatch):
        """The audit builds and validates all 1,440 structures and searches
        a fifth of them, so neither step lists line partners."""
        listed = []
        monkeypatch.setattr(psts, "_partners", lambda *args: listed.append(args))
        specs = [*enumerate_family(SkewFamily.PERM, census), *enumerate_family(SkewFamily.PERM_KAPPA, census)]
        assert all(validate_configuration(build(spec), 4) for spec in specs)
        assert listed == []

    def test_frame_path_matches_the_name_level_constructor(self, census):
        specs = [*enumerate_family(SkewFamily.PERM, census), *enumerate_family(SkewFamily.PERM_KAPPA, census)]
        assert len(specs) == 1440
        for spec in specs:
            s = build(spec)
            named = Psts(s.points, s.lines)
            assert s == named and s.partners == named.partners, spec_text(spec)
            assert all(list(pairs) == sorted(pairs) for pairs in s.partners), spec_text(spec)

    @pytest.mark.parametrize(
        "lines,problem",
        [
            # T(1) and a line sharing its pairs 23 and 24
            (("23 24 34", "12 13 14", "12 23 24", "13 14 34"), "lie on two lines"),
            (("23 24", "12 13 14 34", "12 23 34", "13 14 24"), "not a 3-set"),
        ],
        ids=["pair-on-two-lines", "two-pair-line"],
    )
    def test_corrupted_axis_raises(self, lines, problem):
        # past the validating constructor, as only a bug could
        axis = tuple.__new__(
            VeblenConfig, (tuple(frozenset(Pair(int(p[0]), int(p[1])) for p in ln.split()) for ln in lines),)
        )
        with pytest.raises(PstsError, match=problem):
            build(PerspectiveSpec(SkewFamily.PERM, IDENTITY, axis))


class TestBJoin:
    """The line through b_i and b_j meets the axis in c_u, u = delta^-1({i,j})."""

    def test_identity_skew(self):
        s = build(spec_of(SkewFamily.PERM, IDENTITY, CanonicalKind.G2))
        for u in PAIRS:
            assert third_point(s, b_name(u.lo), b_name(u.hi)) == c_name(u)

    def test_three_cycle(self):
        s = build(spec_of(SkewFamily.PERM, parse_cycles("(2,3,4)"), CanonicalKind.G2))
        assert third_point(s, "b1", "b2") == c_name(Pair(1, 4))

    @given(families, perms, st.sampled_from(PAIRS))
    def test_matches_built_lines(self, family, perm, u):
        spec = spec_of(family, perm, CanonicalKind.B2)
        s = build(spec)
        delta = extend(perm)
        if family is SkewFamily.PERM_KAPPA:
            delta = delta.compose(CORRELATION)
        assert third_point(s, b_name(u.lo), b_name(u.hi)) == c_name(delta.inverse()(u))


class TestPredictedFreeK5:
    def test_identity_over_four_tops(self):
        spec = spec_of(SkewFamily.PERM, IDENTITY, CanonicalKind.G2)
        predicted = {frozenset(POINTS[i] for i in f) for f in predicted_free_k5(spec)}
        assert len(predicted) == 6
        assert frozenset((CENTER, *A_NAMES)) in predicted
        assert frozenset((CENTER, *B_NAMES)) in predicted
        for i in (1, 2, 3, 4):
            assert any(a_name(i) in f and b_name(i) in f and CENTER not in f
                       for f in predicted)

    def test_fixed_point_free_skew(self):
        for kind in CanonicalKind:
            spec = spec_of(SkewFamily.PERM, parse_cycles("(1,2)(3,4)"), kind)
            assert len(predicted_free_k5(spec)) == 2

    @given(perms, kinds)
    def test_agrees_with_oracle_perm(self, perm, kind):
        spec = spec_of(SkewFamily.PERM, perm, kind)
        assert predicted_free_k5(spec) == _free_cliques(build(spec), 5)

    @given(perms, kinds)
    def test_agrees_with_oracle_kappa(self, perm, kind):
        spec = spec_of(SkewFamily.PERM_KAPPA, perm, kind)
        predicted = predicted_free_k5(spec)
        assert len(predicted) == 2
        assert predicted == _free_cliques(build(spec), 5)


class TestSpecText:
    @given(families, perms, kinds)
    def test_round_trip_canonical(self, family, perm, kind):
        spec = spec_of(family, perm, kind)
        assert parse_spec_text(spec_text(spec)) == spec

    def test_examples(self):
        spec = parse_spec_text("perm:(1,2)(3,4)@B2")
        assert spec.family is SkewFamily.PERM
        assert spec.perm == parse_cycles("(1,2)(3,4)")
        assert spec.axis == canonical(CanonicalKind.B2)
        spec = parse_spec_text("kappa:id@G2")
        assert spec.family is SkewFamily.PERM_KAPPA
        assert spec.perm == IDENTITY

    def test_census_token_round_trip(self, census):
        for k in (0, 7, 29):
            spec = parse_spec_text(f"kappa:id@census:{k}")
            assert spec.axis == census[k]
            # canonical kinds render by name, the rest by census index
            assert axis_token(spec.axis) in {f"census:{k}"} | {
                kind.value for kind in CanonicalKind
            }

    def test_whitespace_tolerated(self):
        assert parse_spec_text("perm: id @ G2") == parse_spec_text("perm:id@G2")

    def test_not_a_bijection(self):
        with pytest.raises(ValueError, match="not a bijection"):
            parse_spec_text("perm:(1,2,2)@G2")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="bad spec"):
            parse_spec_text("twist:id@G2")

    def test_missing_axis(self):
        with pytest.raises(ValueError, match="missing"):
            parse_spec_text("perm:id")

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown axis"):
            parse_spec_text("perm:id@Q7")

    def test_census_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_spec_text("perm:id@census:30")

    def test_load_axis_hook(self, census):
        calls = []

        def load(token):
            calls.append(token)
            return census[3]

        spec = parse_spec_text("perm:id@/tmp/axis.psts", load_axis=load)
        assert calls == ["/tmp/axis.psts"]
        assert spec.axis == census[3]


class TestSortKey:
    def test_canonical_axes_rank_first(self, census):
        canon = spec_of(SkewFamily.PERM, IDENTITY, CanonicalKind.G2)
        other = PerspectiveSpec(SkewFamily.PERM, IDENTITY, census[10])
        assert canon.sort_key() < other.sort_key()

    def test_deterministic_total_order(self, perm_specs):
        keys = [s.sort_key() for s in perm_specs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
