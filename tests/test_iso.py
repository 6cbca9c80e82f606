"""Canonical keys, witness search, and the family criteria."""

import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import (
    axis_psts,
    canonical_key,
    closure,
    family_images,
    joint_refinement,
    pasch_configurations,
    pasch_counts,
    projective_space,
    reference_refine_pair,
    relabel,
    triangle_counts,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from skewpersp import cli, iso
from skewpersp.classify import enumerate_family
from skewpersp.indices import ALL_PERMS, CORRELATION, EXTEND, IDENTITY, INDICES
from skewpersp.iso import (
    CanonicalKey,
    _Canonicalizer,
    _canonical_search,
    _rank_raw,
    _pasch_seed,
    _refine,
    _refined,
    _search,
    _seed_colors,
    automorphism_group,
    certificates_differ,
    find_isomorphism,
)
from skewpersp.perspective import (
    CENTER,
    CENTER_INDEX,
    KAPPA,
    PERM,
    POINTS,
    a_name,
    b_name,
    build,
    c_name,
    decode_spec,
    encode_spec,
    image_perm,
    parse_spec_text,
    spec_text,
)
from skewpersp.psts import Psts, to_text
from skewpersp.veblen import CanonicalKind, apply, canonical, enumerate_labelings


def perspective(text):
    return build(parse_spec_text(text))


#: the witness search's fixed pairs on the perspectives' frame: the center
#: onto itself, and the center onto a1
PINNED = (CENTER_INDEX, CENTER_INDEX)
CENTER_TO_A1 = (CENTER_INDEX, POINTS.index("a1"))


def is_index_map(m):
    """Whether ``m`` is a tuple of ints, the form the oracles return."""
    return type(m) is tuple and all(type(j) is int for j in m)


REFERENCE_AUT_ORDERS = {
    # frozen from exhaustive witness enumeration
    "perm:id@G2": 720,
    "perm:id@B2": 8,
    "perm:(1,2)@B2": 8,
    "kappa:id@G2": 24,
    "kappa:id@B2": 4,
    "kappa:id@V5": 3,
    "kappa:(1,2,4)@V5": 3,
}


def hashlib_digest(key):
    """The key digest as ``hashlib`` computes it, with OpenSSL's SHA-256
    where OpenSSL is present."""
    return hashlib.sha256(repr((key.point_count, key.line_count, key.encoding)).encode()).hexdigest()[:12]


#: SHA-256 pads a message with at least 9 bytes to whole 64-byte blocks, so
#: 55 and 56 bytes, and 63 and 64, fall on either side of a block edge
PADDING_EDGES = (55, 56, 63, 64, 119, 120, 127, 128)


@st.composite
def keys_of_repr_length(draw, n):
    """A key whose digested text, ``repr((points, lines, encoding))``, is n
    bytes long: the point count's digits fill what the drawn lines leave."""
    encoding = tuple(draw(st.lists(st.tuples(*[st.integers(0, 99)] * 3), max_size=(n - 20) // 14)))
    digits = n - len(repr((0, len(encoding), encoding))) + 1
    low = 10 ** (digits - 1) if digits > 1 else 0
    key = CanonicalKey(draw(st.integers(low, 10**digits - 1)), len(encoding), encoding)
    assert len(repr((key.point_count, key.line_count, key.encoding))) == n
    return key


class TestCanonicalKey:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_relabeling_invariant(self, rng):
        s = perspective("kappa:(1,2,4)@V5")
        names = list(s.points)
        shuffled = names[:]
        rng.shuffle(shuffled)
        relabeled = relabel(s, dict(zip(names, shuffled)))
        assert canonical_key(relabeled) == canonical_key(s)

    def test_distinguishes_non_isomorphic(self):
        assert canonical_key(perspective("perm:id@G2")) != canonical_key(
            perspective("kappa:id@G2")
        )

    def test_equals_iff_witness(self, perm_specs):
        sample = [build(s) for s in perm_specs[:10]]
        for x, y in itertools.combinations(sample, 2):
            same_key = canonical_key(x) == canonical_key(y)
            assert same_key == (find_isomorphism(x, y) is not None)

    def test_total_order_and_digest(self):
        k1 = canonical_key(perspective("perm:id@G2"))
        k2 = canonical_key(perspective("perm:id@B2"))
        assert (k1 < k2) != (k2 < k1)
        assert len(k1.digest) == 12 and str(k1) == k1.digest

    def test_digest_matches_hashlib_on_the_class_keys(self, perm_classes, kappa_classes):
        keys = [c.key for c in perm_classes + kappa_classes]
        assert len(keys) == 68
        assert [k.digest for k in keys] == [hashlib_digest(k) for k in keys]

    @pytest.mark.parametrize("n", PADDING_EDGES)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_digest_matches_hashlib_across_padding_edges(self, n, data):
        key = data.draw(keys_of_repr_length(n))
        assert key.digest == hashlib_digest(key)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_pinned_key_invariant_under_relabelings_fixing_pin(self, rng):
        s = perspective("perm:(1,2)@B2")
        names = [x for x in s.points if x != CENTER]
        shuffled = names[:]
        rng.shuffle(shuffled)
        relabeled = relabel(s, {CENTER: CENTER, **dict(zip(names, shuffled))})
        assert canonical_key(relabeled, CENTER) == canonical_key(s, CENTER)

    def test_pinned_key_separates_center_moving_isomorphism(self):
        # isomorphic, but only by isomorphisms that move the center
        x, y = perspective("perm:id@B2"), perspective("perm:(1,2)@G2")
        assert canonical_key(x) == canonical_key(y)
        assert find_isomorphism(x, y) is not None
        assert canonical_key(x, CENTER) != canonical_key(y, CENTER)
        assert find_isomorphism(x, y, fix=PINNED) is None

    def test_pinned_keys_decide_fixed_isomorphism(self):
        # in the 8-point structure the least line encoding alone cannot tell
        # x04 from x05, so the key must also carry the pinned point's label;
        # perm:id@G2 has automorphisms that move the center, kappa:id@B2 none
        lines = [
            ("x00", "x01", "x02"), ("x00", "x03", "x05"), ("x00", "x04", "x06"),
            ("x01", "x05", "x06"), ("x02", "x05", "x07"), ("x03", "x06", "x07"),
        ]
        small = Psts([f"x{i:02d}" for i in range(8)], lines)
        for s in (small, perspective("perm:id@G2"), perspective("kappa:id@B2")):
            for p, q in itertools.combinations(range(len(s.points)), 2):
                same = canonical_key(s, s.points[p]) == canonical_key(s, s.points[q])
                assert same == (find_isomorphism(s, s, fix=(p, q)) is not None)


class TestWitnessSearch:
    def test_reflexive(self, kappa_specs):
        for spec in kappa_specs[:6]:
            s = build(spec)
            m = find_isomorphism(s, s)
            assert m is not None and iso._is_isomorphism(s, s, m)

    def test_witnesses_verify(self, perm_specs):
        reps = [build(s) for s in perm_specs[:8]]
        for x, y in itertools.combinations(reps, 2):
            m = find_isomorphism(x, y)
            if m is not None:
                assert iso._is_isomorphism(x, y, m)

    def test_witness_is_an_index_tuple(self):
        # entry i is the image of point i, on the frame's indices
        x, y = perspective("perm:(1,2,4)@V5"), perspective("perm:(1,4,2)@V5")
        m = find_isomorphism(x, y)
        assert is_index_map(m) and iso._is_isomorphism(x, y, m)
        assert find_isomorphism(x, y, fix=PINNED) is not None

    def test_fix_constraint_honored(self):
        s = perspective("perm:id@G2")
        m = find_isomorphism(s, s, fix=CENTER_TO_A1)
        # this structure is point-transitive enough for the center to move
        assert m is not None and m[CENTER_INDEX] == POINTS.index("a1")
        assert iso._is_isomorphism(s, s, m)

    def test_fixed_point_checked_at_the_leaf(self, monkeypatch):
        # isomorphic only by maps that move the center; certificates that
        # collided would hand the search colours that need not agree on the
        # fixed point, and the leaf check still holds it
        x, y = perspective("perm:id@B2"), perspective("perm:(3,4)@G2")
        assert find_isomorphism(x, y) is not None
        monkeypatch.setattr(iso, "certificates_differ", lambda x, y, fix=None: False)
        assert find_isomorphism(x, y, fix=PINNED) is None

    def test_fix_can_rule_out(self):
        s = perspective("kappa:id@B2")
        # the boolean-complementing family pins the center
        assert find_isomorphism(s, s, fix=CENTER_TO_A1) is None

    def test_search_count_matches_group(self):
        s = perspective("kappa:id@V5")
        assert len(list(_search(s, s, None))) == 3

    def test_non_isomorphic(self):
        assert (
            find_isomorphism(
                perspective("perm:(1,2)@B2"), perspective("perm:(3,4)@B2")
            )
            is None
        )


def reference_line_check(x, y, m):
    """``iso._is_isomorphism`` as sets of lines: ``m`` maps the indices of
    x one to one onto those of y, and the image of x's line set is y's."""
    if len(m) != len(x.points) or len(set(m)) != len(m) or set(m) != set(range(len(y.points))):
        return False
    return {frozenset(m[i] for i in ln) for ln in x.line_sets} == set(map(frozenset, y.line_sets))


def with_extra_line(rng, s):
    """``s`` plus one random line on pairs no line covers, or None when a
    few draws find none."""
    covered = {frozenset(p) for ln in s.lines for p in itertools.combinations(ln, 2)}
    for _ in range(20):
        ln = rng.sample(s.points, 3)
        if not {frozenset(p) for p in itertools.combinations(ln, 2)} & covered:
            return Psts(s.points, [*s.lines, ln])
    return None


class TestLineCheck:
    """The index-level line check against sets of lines, on maps of every
    kind it meets."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_sets_of_lines(self, seed):
        rng = random.Random(seed)
        x = random_psts(rng)
        n = len(x.points)
        iso_map = rng.sample(range(n), n)
        # y is the image of x under iso_map, on the same names
        y = Psts(x.points, [[x.points[iso_map[i]] for i in ln] for ln in x.line_sets])
        swapped = list(iso_map)
        a, b = rng.sample(range(n), 2)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        maps = [
            iso_map,  # an isomorphism
            rng.sample(range(n), n),  # any bijection
            swapped,  # a bijection that may map a line onto a non-line
            [iso_map[1], *iso_map[1:]],  # not injective
            iso_map[:-1],  # an entry short
            [*iso_map, n],  # an entry too many
            [*iso_map[:-1], n],  # one entry out of range
        ]
        targets = [y, x, with_extra_line(rng, y), with_extra_line(rng, x)]
        for target in filter(None, targets):
            for m in maps:
                for form in (tuple(m), list(m)):
                    assert iso._is_isomorphism(x, target, form) == reference_line_check(x, target, m)
        assert iso._is_isomorphism(x, y, iso_map)
        extra = targets[2]
        assert extra is None or not iso._is_isomorphism(x, extra, iso_map)

    def test_a_line_onto_a_non_line(self):
        s = FANO
        m = list(range(7))
        m[0], m[1] = 1, 0  # line 013 goes to 103, a line; 026 to 126, none
        assert not iso._is_isomorphism(s, s, m) and not reference_line_check(s, s, m)


def triangles_pair(count=400, seed=11):
    """``count`` disjoint triangles, and a copy under a seeded renaming."""
    names = [f"t{i:04d}" for i in range(3 * count)]
    s = Psts(names, [tuple(names[3 * k : 3 * k + 3]) for k in range(count)])
    shuffled = [f"e{i:04d}" for i in range(3 * count)]
    random.Random(seed).shuffle(shuffled)
    return s, relabel(s, dict(zip(names, shuffled)))


def ok_calls(search):
    """The (point, candidate) pairs the witness search's ``ok()`` is asked
    about while ``search()`` runs, read by a profile hook: ``iso`` keeps no
    counter of its own.  Returns them with the result of ``search()``."""
    asked = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "ok" and frame.f_code.co_filename == iso.__file__:
            asked.append((frame.f_locals["i"], frame.f_locals["j"]))

    sys.setprofile(hook)
    try:
        result = search()
    finally:
        sys.setprofile(None)
    return asked, result


class TestLargeInputs:
    def test_triangles_search_work(self):
        # a candidate comes from the line partners of a placed partner's
        # image, so each of the 1,200 points is checked about once; a
        # scan of the whole cell at each depth makes 240,568 checks
        x, y = triangles_pair()
        asked, m = ok_calls(lambda: find_isomorphism(x, y))
        assert m is not None and iso._is_isomorphism(x, y, m)
        assert len(asked) <= 2 * 1200

    def test_triangles_witness_without_recursion(self, capsys, tmp_path):
        x, y = triangles_pair()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            m = find_isomorphism(x, y)
        finally:
            sys.setrecursionlimit(limit)
        assert m is not None and iso._is_isomorphism(x, y, m)
        f1, f2 = tmp_path / "x.psts", tmp_path / "y.psts"
        f1.write_text(to_text(x))
        f2.write_text(to_text(y))
        assert cli.main(["iso", str(f1), str(f2)]) == cli.EX_OK
        # one 'x -> y' row per point, by point name in sorted order
        named = {x.points[i]: y.points[j] for i, j in enumerate(m)}
        assert capsys.readouterr().out == "".join(f"{p} -> {named[p]}\n" for p in sorted(named))


def reference_isomorphisms(x, y, fix=None):
    """The witness search as it stood before the degree-bounded check: a
    full scan over every mapped point at each candidate, in a recursive
    DFS over the same refinement, order and candidate lists.  Its seed,
    (degree, Pasch count, triangle count, fix flag), and its dense view are
    built from the point names and name lines alone; fix = (px, py) and
    the maps it yields are point indices, as the search's are."""
    n = len(x.points)
    if n != len(y.points) or len(x.lines) != len(y.lines):
        return

    def seed(s):
        pasch, triangles = pasch_counts(s), triangle_counts(s)
        return [[sum(p in ln for ln in s.lines), pasch[p], triangles[p], 0] for p in s.points]

    raw_x, raw_y = seed(x), seed(y)
    if fix is not None:
        raw_x[fix[0]][3] = 1
        raw_y[fix[1]][3] = 1
    ranked = _rank_raw([tuple(t) for t in raw_x + raw_y])
    refined = reference_refine_pair(x, ranked[:n], y, ranked[n:])
    if refined is None:
        return
    cx, cy = refined
    by_color = {}
    for j, c in enumerate(cy):
        by_color.setdefault(c, []).append(j)

    def dense(s):
        index = {p: i for i, p in enumerate(s.points)}
        lines = [frozenset(index[p] for p in ln) for ln in s.lines]
        coll = [[False] * n for _ in range(n)]
        third = {}
        for ln in lines:
            for i, j in itertools.permutations(ln, 2):
                coll[i][j] = True
                third[(i, j)] = next(k for k in ln if k != i and k != j)
        return coll, third, lines

    (coll_x, third_x, lines_x), (coll_y, third_y, lines_y) = dense(x), dense(y)
    mapping, inverse = [-1] * n, [-1] * n
    y_lines = set(lines_y)

    def ok(i, j):
        for i2 in range(n):
            j2 = mapping[i2]
            if j2 == -1:
                continue
            if coll_x[i][i2] != coll_y[j][j2]:
                return False
            if coll_x[i][i2]:
                t = mapping[third_x[(i, i2)]]
                ty = third_y[(j, j2)]
                if t != -1 and t != ty:
                    return False
                if t == -1 and inverse[ty] != -1:
                    return False
        return True

    order = sorted(range(n), key=lambda i: (len(by_color.get(cx[i], ())), cx[i], i))

    def dfs(depth):
        if depth == n:
            if {frozenset(mapping[i] for i in ln) for ln in lines_x} == y_lines:
                yield tuple(mapping)
            return
        i = order[depth]
        for j in by_color.get(cx[i], ()):
            if inverse[j] != -1 or not ok(i, j):
                continue
            mapping[i], inverse[j] = j, i
            yield from dfs(depth + 1)
            mapping[i], inverse[j] = -1, -1

    yield from dfs(0)


FANO = Psts(
    [str(i) for i in range(7)],
    [("0", "1", "3"), ("1", "2", "4"), ("2", "3", "5"), ("3", "4", "6"),
     ("0", "4", "5"), ("1", "5", "6"), ("0", "2", "6")],
)


def relabelled(s, seed):
    """``s``, a copy under a seeded renaming, and the renaming."""
    names = [f"r{i:03d}" for i in range(len(s.points))]
    random.Random(seed).shuffle(names)
    rename = dict(zip(s.points, names))
    return s, relabel(s, rename), rename


def middle_point_fixed(x, y, rename):
    """The middle point of x and its image in y under ``rename``, as the
    index pair a fixed point is given by."""
    p = len(x.points) // 2
    return p, y.points.index(rename[x.points[p]])


def stars(count):
    """``count`` disjoint copies of a point on three lines, two of whose
    other points lie on one more line each.  The cells of the points on
    two lines are larger than their anchors' line partners, which also
    lie in the larger cells of the points on one line."""
    lines = []
    for k in range(count):
        c, x, y, z, w, u, v, p, q, r, t = (f"s{k:02d}{ch}" for ch in "cxyzwuvpqrt")
        lines += [(c, x, y), (c, z, w), (c, u, v), (x, p, q), (y, r, t)]
    return Psts(sorted({p for ln in lines for p in ln}), lines)


LARGE_CELLS = {
    "pg32": lambda: relabelled(projective_space(4), 3),
    "triangles": lambda: relabelled(triangles_pair(8)[0], 5),
    "stars": lambda: relabelled(stars(5), 7),
}


class TestSearchOrder:
    """The degree-bounded search visits what the full scan visited, so it
    yields the same maps in the same order."""

    @pytest.mark.parametrize("family", ["perm", "kappa"])
    @pytest.mark.parametrize("kind", [k.value for k in CanonicalKind])
    def test_self_pairs(self, family, kind):
        s = perspective(f"{family}:id@{kind}")
        for fix in (None, PINNED, CENTER_TO_A1):
            assert list(_search(s, s, fix)) == list(reference_isomorphisms(s, s, fix))

    @pytest.mark.parametrize(
        "first,second",
        [
            # not isomorphic: the last passes joint refinement, so the DFS
            # runs dry; refinement alone refutes the other four
            ("perm:id@G2_STAR", "perm:id@V4"),
            ("perm:id@G2_STAR", "perm:(3,4)@V5"),
            ("kappa:id@G2", "kappa:id@V5"),
            ("perm:(1,2)@B2", "perm:(3,4)@B2"),
            ("kappa:(1,2,4)@V5", "kappa:(1,2,4)@V6"),
            # isomorphic
            ("kappa:(1,2,4)@V5", "kappa:(1,4,2)@V6"),
            ("perm:(1,2,4)@V5", "perm:(1,4,2)@V5"),
            ("perm:id@B2", "perm:(1,2)@G2"),
        ],
    )
    def test_cross_pairs(self, first, second):
        x, y = perspective(first), perspective(second)
        for fix in (None, PINNED):
            assert list(_search(x, y, fix)) == list(reference_isomorphisms(x, y, fix))

    @pytest.mark.parametrize("s", [axis_psts(canonical(CanonicalKind.G2)), FANO], ids=["pasch", "fano"])
    def test_small_systems(self, s):
        maps = list(_search(s, s, None))
        assert maps == list(reference_isomorphisms(s, s))
        assert len(maps) == {6: 24, 7: 168}[len(s.points)]

    @pytest.mark.parametrize("name", LARGE_CELLS)
    def test_large_cells(self, name):
        # cells far larger than a point's line partners, where candidates
        # come from the partners of a placed partner's image
        x, y, rename = LARGE_CELLS[name]()
        for fix in (None, middle_point_fixed(x, y, rename)):
            found = list(itertools.islice(_search(x, y, fix), 50))
            assert len(found) == 50
            assert found == list(itertools.islice(reference_isomorphisms(x, y, fix), 50))

    @pytest.mark.parametrize("name", LARGE_CELLS)
    def test_candidates_keep_their_colour(self, name):
        # the line partners of a placed partner's image span other cells
        # too, which ok() would accept until a later depth runs dry
        x, y, rename = LARGE_CELLS[name]()
        for fix in (None, middle_point_fixed(x, y, rename)):
            asked, _ = ok_calls(lambda: list(itertools.islice(_search(x, y, fix), 50)))
            px, py = fix or (None, None)
            cx, cy = _refined(x, px)[1], _refined(y, py)[1]
            assert asked and all(cx[i] == cy[j] for i, j in asked)


def pasch_switch(s):
    """``s`` with one Pasch configuration xyz, xuv, wyu, wzv traded for
    xyu, xzv, wyz, wuv: the same twelve pairs, covered the other way."""
    quad = next(pasch_configurations(s))
    l1, l2, l3, l4 = (frozenset(ln) for ln in sorted(tuple(sorted(ln)) for ln in quad))
    (x,) = l1 & l2
    y, z = sorted(l1 - {x})
    (w,) = (l3 | l4) - l1 - l2
    (u,) = next(ln for ln in (l3, l4) if y in ln) - {w, y}
    (v,) = l2 - {x, u}
    kept = [ln for ln in s.lines if frozenset(ln) not in quad]
    return Psts(s.points, kept + [(x, y, u), (x, z, v), (w, y, z), (w, u, v)])


class TestWitnessSeed:
    """The witness search's seed against the name-level scans of
    ``conftest``: (degree, Pasch count, triangle count, fix flag)."""

    @staticmethod
    def reference_seed(s, fix):
        pasch, triangles = pasch_counts(s), triangle_counts(s)
        return [
            (sum(p in ln for ln in s.lines), pasch[p], triangles[p], p == fix) for p in s.points
        ]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), fixed=st.booleans())
    def test_random_structures(self, seed, fixed):
        rng = random.Random(seed)
        s = random_psts(rng)
        fix = rng.randrange(len(s.points)) if fixed else None
        assert _pasch_seed(s, fix) == self.reference_seed(s, None if fix is None else s.points[fix])

    def test_closed_forms(self):
        # any two lines through a point of a projective space span a plane,
        # where all four pairs of their other points are collinear
        for s, per_point in ((projective_space(4), 84), (FANO, 12)):
            assert {t[2] for t in _pasch_seed(s, None)} == {per_point}
            assert _pasch_seed(s, None) == self.reference_seed(s, None)
        # disjoint triangles are lines, not triangles
        assert {t[2] for t in _pasch_seed(triangles_pair(20)[0], None)} == {0}


class TestPaschSwitch:
    """PG(3,2) against a Pasch switch of itself, an STS(15) with fewer Pasch
    configurations: the Pasch counts of the seed tell them apart before the
    witness search places a point."""

    def pair(self):
        x = projective_space(4)
        y = relabel(pasch_switch(x), {p: f"c{p}" for p in x.points})
        assert sum(y.pasch) < sum(x.pasch)
        return x, y

    def test_not_isomorphic(self):
        assert find_isomorphism(*self.pair()) is None

    def test_refuted_by_refinement(self, monkeypatch):
        results = []

        def recording(*args):
            results.append(certificates_differ(*args))
            return results[-1]

        monkeypatch.setattr(iso, "certificates_differ", recording)
        assert list(_search(*self.pair(), None)) == []
        assert results == [True]

    def test_cli_exits_non_isomorphic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "x.psts", tmp_path / "y.psts"
        for path, s in zip((f1, f2), self.pair()):
            path.write_text(to_text(s))
        assert cli.main(["iso", str(f1), str(f2)]) == cli.EX_NONISO
        assert capsys.readouterr().out == ""


def seeded_copies(copies, points=12, lines=12, seed=0):
    """``copies`` disjoint copies of one seeded random partial triple
    system; the copy itself is rigid, so the group permutes the copies."""
    rng = random.Random(seed)
    covered, blocks = set(), []
    while len(blocks) < lines:
        ln = rng.sample(range(points), 3)
        pairs = {frozenset(p) for p in itertools.combinations(ln, 2)}
        if not pairs & covered:
            covered |= pairs
            blocks.append(ln)
    names = [[f"c{c}p{i:02d}" for i in range(points)] for c in range(copies)]
    return Psts(
        [p for copy in names for p in copy],
        [tuple(copy[i] for i in ln) for copy in names for ln in blocks],
    )


@functools.cache
def projective_group(d):
    """PG(d-1, 2) and its automorphism group, computed once per session."""
    s = projective_space(d)
    return s, automorphism_group(s)


def sympy_order(n, gens):
    """The order of the group that ``gens`` generate on n points, from
    sympy's Schreier-Sims: an outside oracle that shares no code with
    ``iso``."""
    return PermutationGroup([Permutation(list(g)) for g in gens] or [Permutation(n - 1)]).order()


def orbit(x, gens):
    """The orbit of point x under the group generated by ``gens``."""
    points, seen = [x], {x}
    for i in points:
        for g in gens:
            if g[i] not in seen:
                seen.add(g[i])
                points.append(g[i])
    return seen


def parse_aut_rows(s, text):
    """``aut`` output as (order, generators as index tuples); each
    generator row is ``generator: `` and disjoint cycles of point names."""
    order_row, *rows = text.splitlines()
    gens = []
    for row in rows:
        cycles = row.removeprefix("generator: ")
        assert cycles != row
        mapping = {p: p for p in s.points}
        for cycle in cycles[1:-1].split(")("):
            pts = cycle.split()
            for a, b in zip(pts, pts[1:] + pts[:1]):
                mapping[a] = b
        gens.append(tuple(s.points.index(mapping[p]) for p in s.points))
    return int(order_row.removeprefix("order ")), gens


class TestAutomorphismGroup:
    @pytest.mark.parametrize("spec_text,order", sorted(REFERENCE_AUT_ORDERS.items()))
    def test_reference_orders(self, spec_text, order):
        assert automorphism_group(perspective(spec_text))[1] == order

    def test_pasch_order(self):
        # each of the six canonical axes labels the one Pasch configuration
        for kind in CanonicalKind:
            s = axis_psts(canonical(kind))
            gens, order = automorphism_group(s)
            assert order == 24 == sympy_order(len(s.points), gens) == len(list(_search(s, s, None))), kind

    def test_generators_generate(self):
        s = perspective("kappa:id@B2")
        gens, order = automorphism_group(s)
        assert order == 4
        for g in gens:
            assert iso._is_isomorphism(s, s, g)
        # closure of the generators reaches the whole group
        assert len(closure(len(s.points), gens)) == order

    def test_generators_are_index_tuples(self):
        s = perspective("perm:id@B2")
        gens, _ = automorphism_group(s)
        assert gens and all(is_index_map(g) and iso._is_isomorphism(s, s, g) for g in gens)

    @pytest.mark.parametrize(
        "d,order,count", [(4, 20160, 9), (5, 9999360, 14)], ids=["pg32", "pg42"]
    )
    def test_projective_space_orders(self, d, order, count):
        s, (gens, found) = projective_group(d)
        assert found == order and len(gens) == count
        assert sympy_order(len(s.points), gens) == order
        assert all(iso._is_isomorphism(s, s, g) for g in gens)

    def test_class_orders_match_enumeration(self, perm_classes, kappa_classes):
        # the 68 classes; the census axes add none (test_classify)
        classes = perm_classes + kappa_classes
        assert len(classes) == 68
        for c in classes:
            s = build(c.representative)
            gens, order = automorphism_group(s)
            assert order == c.aut_order == len(list(_search(s, s, None)))
            assert sympy_order(len(s.points), gens) == order
            assert all(iso._is_isomorphism(s, s, g) for g in gens)

    def test_kappa_census_orders_match_enumeration(self, census):
        specs = enumerate_family(KAPPA, tuple(census))
        assert len(specs) == 720
        for spec in specs:
            s = build(spec)
            gens, order = automorphism_group(s)
            assert order == len(list(_search(s, s, None)))
            assert all(iso._is_isomorphism(s, s, g) for g in gens)

    def test_each_generator_is_new(self, perm_classes):
        # g moves some point x outside x's orbit under the generators
        # before it, so g is not in the group they generate
        structures = [build(c.representative) for c in perm_classes]
        groups = [(s, automorphism_group(s)[0]) for s in structures]
        for d in (4, 5):
            s, (gens, _) = projective_group(d)
            groups.append((s, gens))
        for s, gens in groups:
            for k, g in enumerate(gens):
                assert any(g[x] not in orbit(x, gens[:k]) for x in range(len(s.points)))

    def test_aut_beyond_key_cap_without_recursion(self, capsys, tmp_path):
        s = seeded_copies(3)
        path = tmp_path / "copies.psts"
        path.write_text(to_text(s))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            code = cli.main(["aut", str(path)])
        finally:
            sys.setrecursionlimit(limit)
        assert code == cli.EX_OK
        order, gens = parse_aut_rows(s, capsys.readouterr().out)
        assert order == len(list(_search(s, s, None))) == 6
        assert gens and all(iso._is_isomorphism(s, s, g) for g in gens)

    def test_identity_only_group(self, capsys, tmp_path):
        s = seeded_copies(1)
        assert len(list(_search(s, s, None))) == 1
        path = tmp_path / "rigid.psts"
        path.write_text(to_text(s))
        assert cli.main(["aut", str(path)]) == cli.EX_OK
        assert capsys.readouterr().out == "order 1\n"

    def test_aut_output_repeats(self, capsys, tmp_path):
        path = tmp_path / "pg32.psts"
        path.write_text(to_text(projective_space(4)))
        outputs = []
        for _ in range(2):
            assert cli.main(["aut", str(path)]) == cli.EX_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("order 20160\n")


class TestPruning:
    def test_only_path_fixing_automorphisms_prune(self):
        # an automorphism that moves an individualized point need not
        # permute the cells below it, so it must not prune a child there
        auts = list(_search(FANO, FANO, None))
        path, x, sibling = (0,), 1, 2
        c = _Canonicalizer(FANO)
        c.auts = [next(g for g in auts if g[0] != 0 and g[x] == sibling)]
        assert not c._pruned(x, [sibling], path)
        c.auts = [next(g for g in auts if g[0] == 0 and g[x] == sibling)]
        assert c._pruned(x, [sibling], path)


def isolated_points(n):
    return Psts([f"p{i:02d}" for i in range(n)], [])


def disjoint_triangles(k):
    names = [f"t{i:02d}" for i in range(3 * k)]
    return Psts(names, [tuple(names[3 * j : 3 * j + 3]) for j in range(k)])


class TestCanonicalSearchWork:
    """What one canonical search does on inputs whose groups are large:
    nodes visited, leaves reached, automorphisms found and kept, and the
    order.  The counts are deterministic, so a regression in pruning fails
    here instead of only running slower."""

    @pytest.mark.parametrize(
        "s,expected",
        [
            (isolated_points(8), (36, 8, 7, 7, 40320)),
            (isolated_points(12), (78, 12, 11, 11, 479001600)),
            (isolated_points(24), (300, 24, 23, 23, math.factorial(24))),
            (disjoint_triangles(4), (66, 12, 11, 11, 31104)),
            (disjoint_triangles(6), (141, 18, 17, 17, 33592320)),
            (projective_space(4), (24, 10, 9, 9, 20160)),
        ],
        ids=["points-8", "points-12", "points-24", "triangles-4", "triangles-6", "pg32"],
    )
    def test_ladder(self, monkeypatch, s, expected):
        counts = {"nodes": 0, "leaves": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        real_run = _Canonicalizer.run

        def run(self):
            key = real_run(self)
            counts["found"] = len(self.auts)
            return key

        monkeypatch.setattr(_Canonicalizer, "_visit", counting("nodes", _Canonicalizer._visit))
        monkeypatch.setattr(_Canonicalizer, "_leaf", counting("leaves", _Canonicalizer._leaf))
        monkeypatch.setattr(_Canonicalizer, "run", run)
        gens, order = automorphism_group(s)
        assert (counts["nodes"], counts["leaves"], counts["found"], len(gens), order) == expected
        assert sympy_order(len(s.points), gens) == order


def reference_refine(s, colors):
    """Full rounds of colour refinement: every point gets the dense rank
    of (its colour, the sorted colour pairs of its lines) until nothing
    changes.  Pairs stay tuples, so no packing is involved."""
    colors = list(colors)
    while True:
        sigs = [
            (colors[i], tuple(sorted(tuple(sorted((colors[j], colors[k]))) for j, k in pairs)))
            for i, pairs in enumerate(s.partners)
        ]
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        new = [rank[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def first_largest_cell(colors):
    """The points of the first largest colour class, or [] if discrete."""
    cells = {}
    for i, c in enumerate(colors):
        cells.setdefault(c, []).append(i)
    largest = max(len(cell) for cell in cells.values())
    if largest == 1:
        return []
    return next(cells[c] for c in sorted(cells) if len(cells[c]) == largest)


def random_lines(rng, points, attempts):
    """Greedily drawn random lines on range(points), no pair covered twice."""
    covered, lines = set(), []
    for _ in range(attempts):
        ln = rng.sample(range(points), 3)
        pairs = {frozenset(p) for p in itertools.combinations(ln, 2)}
        if not pairs & covered:
            covered |= pairs
            lines.append(ln)
    return lines


def random_psts(rng):
    """A seeded random partial triple system on about 6-20 points: one to
    three components of random lines (half the time copies of one
    another), plus up to three isolated points."""
    pieces = rng.choice((1, 1, 2, 3))
    size = max(3, rng.randint(6, 20) // pieces)
    copies = rng.random() < 0.5
    lines = []
    for piece in range(pieces):
        if piece == 0 or not copies:
            blocks = random_lines(rng, size, rng.randint(1, 2 * size))
        lines += [[size * piece + i for i in ln] for ln in blocks]
    names = [f"p{i:02d}" for i in range(size * pieces + rng.randint(0, 3))]
    return Psts(names, [[names[i] for i in ln] for ln in lines])


class TestRefine:
    """The canonical search's refinement, which packs line partner pairs
    into ints and signs a point alone in its cell by its colour only,
    against literal full rounds over tuples, at the nodes the search
    visits."""

    @staticmethod
    def assert_matches_reference(s, pin=None, depth=2):
        # root, then the children of the target cell, then (down to depth)
        # the children of each first child.  The search individualizes x
        # with max + 1, the reference with n + level: both lie above every
        # other colour, so the results must agree
        n = len(s.points)
        raw = _seed_colors(s)
        if pin is not None:
            raw = [t + (i == pin,) for i, t in enumerate(raw)]
        start = _rank_raw(raw)
        expected = reference_refine(s, start)
        assert _refine(s, start) == expected
        for level in range(depth):
            cell = first_largest_cell(expected)
            refined = []
            for x in cell:
                child = list(expected)
                child[x] = max(expected) + 1
                ref_child = list(expected)
                ref_child[x] = n + level
                refined.append(reference_refine(s, ref_child))
                assert _refine(s, child) == refined[-1], (level, x)
            if not refined:
                return
            expected = refined[0]

    def test_class_representatives(self, perm_classes, kappa_classes):
        for cls in perm_classes + kappa_classes:
            s = build(cls.representative)
            for pin in (None, s.points.index(CENTER)):
                self.assert_matches_reference(s, pin, depth=1)

    def test_random_structures(self):
        rng = random.Random(29)
        for _ in range(200):
            s = random_psts(rng)
            pin = rng.choice([None, rng.randrange(len(s.points))])
            self.assert_matches_reference(s, pin)

    def test_colours_past_1024(self):
        # two copies of a connected random system on 588 points: refinement
        # leaves every point with its twin, and individualizing one point
        # tells all 1,176 apart
        lines = random_lines(random.Random(5), 600, 800)
        used = sorted({i for ln in lines for i in ln})
        s = Psts(
            [f"{c}{i:03d}" for c in "ab" for i in used],
            [[f"{c}{i:03d}" for i in ln] for c in "ab" for ln in lines],
        )
        root = reference_refine(s, _rank_raw(_seed_colors(s)))
        x = first_largest_cell(root)[0]
        assert max(root) < 1024 <= max(reference_refine(s, [*root[:x], len(root), *root[x + 1 :]]))
        self.assert_matches_reference(s, depth=2)

    def test_pair_pack_past_1024(self):
        # with ten bits per colour the pairs (1, 1) and (0, 1025) both pack
        # to 1025, which would leave points 1027 and 1028 in one cell
        names = [f"q{i:04d}" for i in range(1029)]
        s = Psts(names, [(names[1027], names[1], names[2]), (names[1028], names[0], names[1026])])
        colors = [0, 1, 1, *range(2, 1025), 1025, 1026, 1026]
        refined = _refine(s, colors)
        assert refined[1027:] == [1027, 1026]
        assert refined == reference_refine(s, colors)
        assert reference_refine_pair(s, colors, s, colors) == (refined, refined)


def rewired(rng, s):
    """``s`` with one random line traded for a random line on pairs no
    other line covers, when one is found in a few draws: the same points,
    a nearly equal structure."""
    lines = [list(ln) for ln in s.lines]
    if lines:
        lines.pop(rng.randrange(len(lines)))
    covered = {frozenset(p) for ln in lines for p in itertools.combinations(ln, 2)}
    for _ in range(20):
        ln = rng.sample(s.points, 3)
        if not {frozenset(p) for p in itertools.combinations(ln, 2)} & covered:
            lines.append(ln)
            break
    return Psts(s.points, lines)


class TestCertificates:
    """Each structure's own refinement against the joint refinement of the
    pair that the witness search ran before: certificates differ exactly
    when the joint refinement refutes, and otherwise each side's stable
    colours are the joint ones, so the search tries the same candidates in
    the same order."""

    @staticmethod
    def assert_agrees_with_joint_refinement(x, y, fix):
        px, py = fix or (None, None)
        for s, p in ((x, px), (y, py)):
            assert list(_refined(s, p)[1]) == reference_refine(s, _rank_raw(_pasch_seed(s, p)))
        joint = joint_refinement(x, y, fix)
        assert certificates_differ(x, y, fix) == (joint is None)
        if joint is not None:
            assert joint == (list(_refined(x, px)[1]), list(_refined(y, py)[1]))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        other=st.sampled_from(["copy", "rewired", "random"]),
        fixed=st.sampled_from([None, "image", "any"]),
    )
    def test_random_pairs(self, seed, other, fixed):
        rng = random.Random(seed)
        x = random_psts(rng)
        y = {"copy": x, "rewired": rewired(rng, x), "random": random_psts(rng)}[other]
        names = list(y.points)
        renamed = dict(zip(names, rng.sample(names, len(names))))
        y = relabel(y, renamed)
        fix = None
        if fixed is not None:
            p = rng.choice(x.points)
            q = renamed[p] if fixed == "image" and p in renamed else rng.choice(y.points)
            fix = (x.points.index(p), y.points.index(q))
        self.assert_agrees_with_joint_refinement(x, y, fix)

    def test_fixed_pairs(self):
        x = projective_space(4)
        self.assert_agrees_with_joint_refinement(x, relabel(x, {p: f"c{p}" for p in x.points}), None)
        self.assert_agrees_with_joint_refinement(x, pasch_switch(x), None)
        assert certificates_differ(x, pasch_switch(x))
        # equal seeds that the first round splits on neither side: only the
        # signatures of that stable round tell these two apart
        names = [f"p{i}" for i in range(10)]
        x, y = (
            Psts(names, [[names[i] for i in ln] for ln in lines])
            for lines in (
                [(1, 2, 3), (2, 6, 8), (0, 4, 7), (0, 3, 6), (3, 8, 9), (1, 6, 9)],
                [(1, 2, 3), (0, 2, 6), (3, 5, 7), (0, 4, 7), (2, 4, 8), (6, 7, 8)],
            )
        )
        self.assert_agrees_with_joint_refinement(x, y, None)
        assert certificates_differ(x, y)
        # not isomorphic, yet refinement cannot tell them apart
        x, y = perspective("kappa:(1,2,4)@V5"), perspective("kappa:(1,2,4)@V6")
        for fix in (None, PINNED):
            self.assert_agrees_with_joint_refinement(x, y, fix)
            assert not certificates_differ(x, y, fix) and find_isomorphism(x, y, fix) is None

    def test_memoized_in_the_structure(self, monkeypatch):
        s = perspective("perm:(1,2)@B2")
        first = _refined(s, None)
        monkeypatch.setattr(iso, "_pasch_seed", None)  # a second refinement would fail
        assert _refined(s, None) is first
        assert list(s.refined) == [None]

    def test_same_in_every_process(self):
        # the certificate hashes ints and bools only, so string hash
        # randomization cannot move it
        code = textwrap.dedent(
            """
            from skewpersp.iso import _refined
            from skewpersp.perspective import CENTER, build, parse_spec_text
            s = build(parse_spec_text("kappa:(1,2,4)@V5"))
            print(_refined(s, None)[0], _refined(s, s.points.index(CENTER))[0])
            """
        )
        src = str(Path(iso.__file__).resolve().parents[1])
        outputs = set()
        for hashseed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed},
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        s = perspective("kappa:(1,2,4)@V5")
        assert outputs == {f"{_refined(s, None)[0]} {_refined(s, s.points.index(CENTER))[0]}\n"}


class TestFirstPathOrbits:
    """The group order that the canonical search multiplies up from its
    first-path orbits as it backtracks, against the witness search's count
    of automorphisms and a brute-force closure of the kept generators; and
    with a point pinned, the order over the size of its orbit against the
    witness search's count of the automorphisms that fix it."""

    @staticmethod
    def checked(s, pin):
        _, gens, order, _ = _canonical_search(s)
        assert order == len(list(_search(s, s, None))) == len(closure(len(s.points), gens))
        assert all(iso._is_isomorphism(s, s, g) for g in gens)
        if pin is not None:
            assert order // len(orbit(pin, gens)) == len(list(_search(s, s, (pin, pin))))
        return gens, order

    @pytest.mark.parametrize(
        "s",
        [
            axis_psts(canonical(CanonicalKind.G2)),
            FANO,
            perspective("perm:id@G2"),
            perspective("perm:(1,2)@B2"),
            perspective("kappa:(1,2,3,4)@V4"),
            perspective("kappa:id@G2"),
        ],
        ids=["pasch", "fano", "perm-id-G2", "perm-12-B2", "kappa-1234-V4", "kappa-id-G2"],
    )
    def test_order_matches_closure(self, s):
        for pin in (None, 0):
            self.checked(s, pin)

    @pytest.mark.parametrize("seed,copies", [(0, 2), (0, 4), (1, 3), (2, 2), (3, 4), (4, 1)])
    def test_seeded_copies(self, seed, copies):
        s = seeded_copies(copies, seed=seed)
        for pin in (None, 0):
            self.checked(s, pin)

    @pytest.mark.parametrize(
        "s",
        [Psts([], []), Psts(["x"], []), seeded_copies(1)],
        ids=["empty", "one-point", "rigid"],
    )
    def test_identity_only(self, s):
        assert _canonical_search(s)[1:3] == ((), 1)
        if s.points:
            assert self.checked(s, 0) == ((), 1)

    def test_duplicated_and_redundant_generators(self):
        # a repeat of a found automorphism, or a product of found ones, is
        # already in the group of those kept before it: a search that finds
        # each automorphism twice, followed by its products with those found
        # before, keeps the same generators and reaches the same order
        class Redundant(list):
            def append(self, g):
                found.append(g)
                self.extend([g, g])
                self.extend(tuple(a[i] for i in b) for a, b in itertools.product(found, repeat=2))

        plain = _Canonicalizer(FANO)
        plain.run()
        found = []
        c = _Canonicalizer(FANO)
        c.auts = Redundant()
        c.run()
        assert found == plain.auts and len(c.auts) > 2 * len(found)
        assert (c.kept, c.order) == (plain.kept, plain.order)
        assert plain.order == 168 and len(plain.kept) == len(plain.auts) == 4

    @pytest.mark.parametrize(
        "s",
        [FANO, perspective("perm:id@G2"), isolated_points(12), disjoint_triangles(4), projective_space(4)],
        ids=["fano", "perm-id-G2", "points-12", "triangles-4", "pg32"],
    )
    def test_thinned_automorphisms_fix_the_prefix(self, monkeypatch, s):
        # leaving the first-path node of depth L, every automorphism found
        # so far fixes the first L points of the first path
        levels = []
        real_thin = _Canonicalizer._thin

        def thin(self, level):
            levels.append(level)
            assert all(g[v] == v for g in self.auts for v in self.first_path[:level])
            real_thin(self, level)

        monkeypatch.setattr(_Canonicalizer, "_thin", thin)
        c = _Canonicalizer(s)
        c.run()
        assert levels == list(range(len(c.first_path) - 1, -1, -1))


def perm_family_iso(s1, s2):
    """The plain family's criterion for one pair of specs: the first
    witness (phi, case) of ``family_images`` whose image is s2, or None,
    which means no center-fixing isomorphism exists."""
    if decode_spec(s1)[0] != PERM or decode_spec(s2)[0] != PERM:
        raise ValueError("perm_family_iso expects two plain-family specs")
    return next((w for w, image in family_images(s1) if image == s2), None)


def kappa_family_iso(s1, s2):
    """The boolean-complementing family's criterion for one pair of specs,
    as in ``perm_family_iso``; None means no isomorphism exists."""
    if decode_spec(s1)[0] != KAPPA or decode_spec(s2)[0] != KAPPA:
        raise ValueError("kappa_family_iso expects two kappa-family specs")
    return next((w for w, image in family_images(s1) if image == s2), None)


class TestPermFamilyCriterion:
    def test_self_witness(self, perm_specs):
        for spec in perm_specs[:6]:
            w = perm_family_iso(spec, spec)
            assert w == (IDENTITY, "A")

    def test_inverse_pair_merges_in_case_b(self):
        s1 = parse_spec_text("perm:(1,2,4)@V5")
        s2 = parse_spec_text("perm:(1,4,2)@V5")
        w = perm_family_iso(s1, s2)
        assert w is not None and w[1] == "B"

    def test_known_non_isomorphic_pair(self):
        s1 = parse_spec_text("perm:(1,2)@B2")
        s2 = parse_spec_text("perm:(3,4)@B2")
        assert perm_family_iso(s1, s2) is None
        assert find_isomorphism(build(s1), build(s2), fix=PINNED) is None

    def test_agrees_with_oracle_on_sample(self, perm_specs):
        sample = perm_specs[:16]
        builds = [build(s) for s in sample]
        for (i, s1), (j, s2) in itertools.combinations(enumerate(sample), 2):
            algebraic = perm_family_iso(s1, s2) is not None
            oracle = find_isomorphism(builds[i], builds[j], fix=PINNED) is not None
            assert algebraic == oracle

    def test_rejects_wrong_family(self):
        p = parse_spec_text("perm:id@G2")
        k = parse_spec_text("kappa:id@G2")
        with pytest.raises(ValueError):
            perm_family_iso(p, k)


class TestKappaFamilyCriterion:
    def test_self_witness(self, kappa_specs):
        for spec in kappa_specs[:6]:
            w = kappa_family_iso(spec, spec)
            assert w == (IDENTITY, "A")

    def test_agrees_with_oracle_on_sample(self, kappa_specs):
        sample = kappa_specs[:16]
        builds = [build(s) for s in sample]
        for (i, s1), (j, s2) in itertools.combinations(enumerate(sample), 2):
            algebraic = kappa_family_iso(s1, s2) is not None
            oracle = find_isomorphism(builds[i], builds[j]) is not None
            assert algebraic == oracle

    def test_self_witness_count_is_aut_order(self, kappa_specs):
        # every automorphism fixes the center (Cor 4.2), so the maps whose
        # image is the spec itself are exactly the automorphisms
        for spec in kappa_specs[:8]:
            order = automorphism_group(build(spec))[1]
            assert sum(image == spec for _, image in family_images(spec)) == order

    def test_case_b_example(self):
        # a 4-cycle and its inverse over complement-swapped axes
        s1 = parse_spec_text("kappa:(1,2,3,4)@B2")
        for spec2 in (
            parse_spec_text(f"kappa:(1,4,3,2)@{kind.value}")
            for kind in CanonicalKind
        ):
            w = kappa_family_iso(s1, spec2)
            if w is not None and w[1] == "B":
                break
        else:
            pytest.fail("no case-B witness across the canonical axes")

    def test_rejects_wrong_family(self):
        p = parse_spec_text("perm:id@G2")
        with pytest.raises(ValueError):
            kappa_family_iso(p, p)


#: every permutation, by its position in ``ALL_PERMS``
PERMS = range(len(ALL_PERMS))
#: ``veblen.apply``, remembered: the references below move the 30
#: labelings by the same few maps tens of thousands of times
move = functools.cache(apply)


def after(a, b):
    """The position of permutation a after permutation b, composed on
    their image tuples rather than read from ``s4_tables``."""
    x, y = ALL_PERMS[a], ALL_PERMS[b]
    return ALL_PERMS.index(tuple(x[j - 1] for j in y))


def inverse(a):
    return ALL_PERMS.index(tuple(ALL_PERMS[a].index(i) + 1 for i in INDICES))


def conjugate(b, a):
    """a b a^-1."""
    return after(after(a, b), inverse(a))


def perm_conditions(sg1, sg2):
    """The plain-family criterion's permutation conditions for one pair of
    skews: per case, in ``ALL_PERMS`` order, each phi that satisfies its
    case with the pair map that must carry axis1 onto axis2."""
    sg2_inv = inverse(sg2)
    case_a = [(phi, EXTEND[phi]) for phi in PERMS if after(phi, sg1) == after(sg2, phi)]
    case_b = [
        (phi, EXTEND[after(sg2_inv, phi)])
        for phi in PERMS
        if after(phi, sg1) == after(sg2_inv, phi)
    ]
    return case_a, case_b


def kappa_conditions(f1, f2):
    """The boolean-complementing criterion's permutation conditions, as in
    ``perm_conditions``."""
    f2_inv = inverse(f2)
    case_a = [(alpha, EXTEND[alpha]) for alpha in PERMS if conjugate(f1, alpha) == f2]
    case_b = [
        (alpha, tuple(CORRELATION[k] for k in EXTEND[after(f2_inv, alpha)]))
        for alpha in PERMS
        if conjugate(f1, alpha) == f2_inv
    ]
    return case_a, case_b


def reference_family_iso(s1, s2, conditions):
    """A criterion as two literal scans over S4, case A first: the first
    phi of the skews' ``conditions`` whose pair map carries the axis of s1
    onto that of s2."""
    axis1, axis2 = decode_spec(s1)[2], decode_spec(s2)[2]
    for case, candidates in zip("AB", conditions):
        for phi, m in candidates:
            if move(axis1, m) == axis2:
                return phi, case
    return None


class TestFamilyImages:
    """The criteria scan the images of ``family_images``; the two-case
    scans over S4 are the reference."""

    @pytest.mark.parametrize(
        "criterion,conditions,specs",
        [
            (perm_family_iso, perm_conditions, "perm_specs"),
            (kappa_family_iso, kappa_conditions, "kappa_specs"),
        ],
        ids=["perm", "kappa"],
    )
    def test_criteria_match_reference_on_all_pairs(self, request, criterion, conditions, specs):
        specs = request.getfixturevalue(specs)
        assert len(specs) == 144
        # the permutation conditions depend on the skews only: once per pair
        by_skews = {}
        related, unrelated = [], []
        for s1 in specs:
            # the first witness per image, from one pass over the images
            first = {}
            for w, image in family_images(s1):
                first.setdefault(image, w)
            for s2 in specs:
                skews = (decode_spec(s1)[1], decode_spec(s2)[1])
                if skews not in by_skews:
                    by_skews[skews] = conditions(*skews)
                expected = reference_family_iso(s1, s2, by_skews[skews])
                assert first.get(s2) == expected
                (unrelated if expected is None else related).append((s1, s2, expected))
        assert len(related) < len(unrelated)
        # the criterion itself, on every related pair and a sample of the rest
        for s1, s2, expected in related + random.Random(3).sample(unrelated, 500):
            assert criterion(s1, s2) == expected

    def test_images_in_scan_order(self, perm_specs, kappa_specs):
        for spec in (perm_specs[7], kappa_specs[7]):
            witnesses = [w for w, _ in family_images(spec)]
            assert witnesses == [(phi, case) for case in "AB" for phi in PERMS]

    def test_image_point_maps_are_isomorphisms(self, census):
        # both cases of both families, over canonical and census axes: each
        # index map is the name-level formula's, and a bijection that
        # carries the lines onto the lines, compared by name
        for family in (PERM, KAPPA):
            for spec in enumerate_family(family, tuple(census))[::60]:
                s = build(spec)
                for w, ((phi, case), image) in enumerate(family_images(spec)):
                    perm = image_perm(spec, w)
                    assert sorted(perm) == list(range(len(POINTS)))
                    m = {POINTS[i]: POINTS[j] for i, j in enumerate(perm)}
                    assert m == reference_image_point_map(spec, phi, case)
                    assert m[CENTER] == CENTER
                    lines = {frozenset(m[x] for x in ln) for ln in s.lines}
                    assert lines == set(map(frozenset, build(image).lines)), (spec, phi, case)


def reference_image_point_map(s, phi, case):
    """The point map of ``s`` onto its family image under (phi, case), by
    names as the criterion states it: the reference for ``image_perm``.
    Case A keeps the tetrahedra and case B swaps them; the c points follow
    the pair map that moves the axis."""
    family, sigma, _ = decode_spec(s)
    if case == "A":
        a_to, b_to, pairs = a_name, b_name, EXTEND[phi]
    else:
        a_to, b_to, pairs = b_name, a_name, EXTEND[after(phi, sigma)]
        if family == KAPPA:
            pairs = tuple(pairs[k] for k in CORRELATION)
    m = {CENTER: CENTER}
    for i in INDICES:
        m[a_name(i)] = a_to(ALL_PERMS[phi][i - 1])
        m[b_name(i)] = b_to(ALL_PERMS[phi][i - 1])
    for u, w in enumerate(pairs):
        m[c_name(u)] = c_name(w)
    return m


def reference_family_images(s):
    """The family images of spec ``s`` computed from its (family, perm,
    axis), with the permutations composed on their image tuples and the
    axes moved by ``veblen.apply``: the reference for the integer tables."""
    family, sigma, axis = decode_spec(s)
    for phi in PERMS:
        yield (phi, "A"), encode_spec(family, conjugate(sigma, phi), move(axis, EXTEND[phi]))
    sigma_inv = inverse(sigma)
    for phi in PERMS:
        image = move(axis, EXTEND[after(phi, sigma)])
        if family == KAPPA:
            image = move(image, CORRELATION)
        yield (phi, "B"), encode_spec(family, conjugate(sigma_inv, phi), image)


class TestFamilyTables:
    def test_images_match_the_object_level_reference(self, census):
        specs = [*enumerate_family(PERM, census), *enumerate_family(KAPPA, census)]
        assert len(specs) == 1440
        for s in specs:
            assert list(family_images(s)) == list(reference_family_images(s)), spec_text(s)

    def test_ids_round_trip(self, census):
        fields = [(family, phi, v) for family in (PERM, KAPPA) for phi in PERMS for v in census]
        assert [encode_spec(*f) for f in fields] == list(range(len(fields)))
        assert [decode_spec(s) for s in range(len(fields))] == fields


class TestApply:
    """``apply`` returns the census position of the image, whose entry
    in the census holds the moved lines."""

    def test_apply_returns_the_census_instance(self, census):
        maps = list(EXTEND)
        maps += [tuple(CORRELATION[k] for k in m) for m in maps]
        labelings = enumerate_labelings()
        for v in census:
            for m in maps:
                image = apply(v, m)
                assert image in census
                assert set(map(frozenset, labelings[image])) == {frozenset(m[u] for u in ln) for ln in labelings[v]}

    def test_canonical_images_are_census_instances(self):
        for kind in CanonicalKind:
            assert apply(canonical(kind), EXTEND[IDENTITY]) == canonical(kind)
