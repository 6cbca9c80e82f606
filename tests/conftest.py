"""Shared fixtures.

The full-census audit is the single most expensive object the suite needs,
so it is computed once per session and shared; everything downstream treats
the report as read-only.
"""

import itertools

import pytest

from skewpersp.classify import (
    audit_claims,
    canonical_axes,
    enumerate_family,
    partition_into_classes,
)
from skewpersp.iso import _canonical_search, _pack_shift, _pasch_seed, _rank_raw, _signatures, orbit_label
from skewpersp.perspective import CENTER_INDEX, KAPPA, PERM, image_ids
from skewpersp.psts import Psts, _free_cliques
from skewpersp.veblen import PAIR_NAMES, enumerate_labelings


def relabel(s, mapping):
    """``s`` with every point renamed through ``mapping``."""
    return Psts([mapping[x] for x in s.points], [[mapping[x] for x in ln] for ln in s.lines])


def closure(n, gens):
    """Every element of the group generated by index tuples, by brute force."""
    identity = tuple(range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(g[i] for i in cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def canonical_key(s, pin=None):
    """The canonical key of ``s`` or, given the point named ``pin``, the
    key with that point's orbit label, as the audit keys the center."""
    key, gens, _, labeling = _canonical_search(s)
    return key if pin is None else (key, orbit_label(labeling, gens, s.points.index(pin)))


def searched_record(s):
    """(key, group order, center label) of ``s`` from a fresh canonical
    search: the first three fields of the audit's record."""
    key, gens, order, labeling = _canonical_search(s)
    return key, order, orbit_label(labeling, gens, CENTER_INDEX)


def family_images(s):
    """The 48 specs the family criteria relate to spec ``s``, as ((phi,
    case), image) pairs in witness order: witness w is case "A" under
    phi = w for w < 24, case "B" under phi = w - 24."""
    for w, image in enumerate(image_ids(s)):
        yield (w % 24, "AB"[w // 24]), image


def reference_refine_pair(a, ca, b, cb):
    """Joint refinement with shared ranks, so colours stay comparable
    across the two structures: None as soon as the colour histograms
    diverge, else both stable colourings.  The witness search refined
    every pair this way before it refined each structure once."""
    shift = _pack_shift(len(ca) + len(cb))
    while True:
        sa, sb = _signatures(a, ca, shift), _signatures(b, cb, shift)
        rank = {sig: r for r, sig in enumerate(sorted(set(sa) | set(sb)))}
        na, nb = [rank[s] for s in sa], [rank[s] for s in sb]
        if sorted(na) != sorted(nb):
            return None
        if na == ca and nb == cb:
            return ca, cb
        ca, cb = na, nb


def joint_refinement(x, y, fix=None):
    """``reference_refine_pair`` of x and y from the witness seed, ranked
    over both, with the points of fix = (px, py), point indices, fixed."""
    px, py = fix or (None, None)
    ranked = _rank_raw(_pasch_seed(x, px) + _pasch_seed(y, py))
    n = len(x.points)
    return reference_refine_pair(x, ranked[:n], y, ranked[n:])


def free_complete_subgraphs(s, n):
    """The free complete subgraphs on n points of ``s``, as name sets, in
    the lexicographic order of their index tuples."""
    return tuple(frozenset(s.points[i] for i in f) for f in _free_cliques(s, n))


def third_point(s, x, y):
    """The third point of the line through x and y, or None."""
    k = s.third[s.points.index(x)].get(s.points.index(y))
    return None if k is None else s.points[k]


def projective_space(d):
    """PG(d-1, 2): the nonzero vectors of GF(2)^d, lines {a, b, a xor b}."""
    pts = range(1, 2**d)
    lines = {tuple(sorted((a, b, a ^ b))) for a, b in itertools.combinations(pts, 2)}
    return Psts([f"v{p:02d}" for p in pts], [tuple(f"v{p:02d}" for p in ln) for ln in lines])


def pasch_configurations(s):
    """Every Pasch configuration of ``s``, as a set of four name lines:
    four lines on six points, any two meeting, found by a scan over the
    4-sets of lines that drops a set as soon as two of its lines miss."""
    lines = [frozenset(ln) for ln in s.lines]

    def grow(chosen, start):
        if len(chosen) == 4:
            if len(frozenset().union(*chosen)) == 6:
                yield frozenset(chosen)
            return
        for k in range(start, len(lines)):
            if all(len(lines[k] & ln) == 1 for ln in chosen):
                yield from grow(chosen + [lines[k]], k + 1)

    yield from grow([], 0)


def pasch_counts(s):
    """The number of Pasch configurations through each point, by name."""
    counts = dict.fromkeys(s.points, 0)
    for quad in pasch_configurations(s):
        for x in frozenset().union(*quad):
            counts[x] += 1
    return counts


def triangle_counts(s):
    """The number of triangles through each point, by name: three points,
    pairwise collinear and not on one line, found by a scan over every
    triple of points that reads the name lines alone."""
    lines = {frozenset(ln) for ln in s.lines}
    joined = {frozenset(p) for ln in s.lines for p in itertools.combinations(ln, 2)}
    counts = dict.fromkeys(s.points, 0)
    for t in itertools.combinations(s.points, 3):
        if frozenset(t) not in lines and all(frozenset(p) in joined for p in itertools.combinations(t, 2)):
            for x in t:
                counts[x] += 1
    return counts


def axis_psts(v):
    """The labeling at census position ``v`` as a structure on the pair
    points c12 .. c34, the names an axis file uses."""
    return Psts(PAIR_NAMES, [[PAIR_NAMES[u] for u in ln] for ln in enumerate_labelings()[v]])


@pytest.fixture(scope="session")
def census():
    """The 30 labelings, by their census positions."""
    return tuple(range(len(enumerate_labelings())))


@pytest.fixture(scope="session")
def axes():
    return canonical_axes()


@pytest.fixture(scope="session")
def perm_specs(axes):
    return enumerate_family(PERM, axes)


@pytest.fixture(scope="session")
def kappa_specs(axes):
    return enumerate_family(KAPPA, axes)


@pytest.fixture(scope="session")
def perm_classes(perm_specs):
    return partition_into_classes(perm_specs)


@pytest.fixture(scope="session")
def kappa_classes(kappa_specs):
    return partition_into_classes(kappa_specs)


@pytest.fixture(scope="session")
def census_audit():
    return audit_claims(axes_mode="census")
