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
from skewpersp.indices import ALL_PERMS
from skewpersp.iso import _canonical_search, _pack_shift, _pasch_seed, _rank_raw, _signatures
from skewpersp.perspective import IMAGE_WITNESSES, PerspectiveSpec, SkewFamily, image_ids, spec_id
from skewpersp.psts import Psts, _free_cliques
from skewpersp.veblen import PAIR_NAMES, enumerate_labelings


def relabel(s, mapping):
    """``s`` with every point renamed through ``mapping``."""
    return Psts([mapping[x] for x in s.points], [[mapping[x] for x in ln] for ln in s.lines])


def canonical_key(s, pin=None):
    """The canonical key of ``s``, with the point named ``pin`` pinned."""
    return _canonical_search(s, None if pin is None else s.points.index(pin))[0]


def family_images(s):
    """The 48 specs the family criteria relate to ``s``, as ((phi, case),
    image) pairs in the order of ``IMAGE_WITNESSES``: its image ids read
    back as specs."""
    census = enumerate_labelings()
    for w, k in zip(IMAGE_WITNESSES, image_ids(s.family, spec_id(s.perm, s.axis))):
        perm, axis = divmod(k, len(census))
        yield w, PerspectiveSpec(s.family, ALL_PERMS[perm], census[axis])


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
    """The labeling ``v`` as a structure on the pair points c12 .. c34,
    the names an axis file uses."""
    return Psts(PAIR_NAMES.values(), [[PAIR_NAMES[u] for u in ln] for ln in v.lines])


@pytest.fixture(scope="session")
def census():
    return enumerate_labelings()


@pytest.fixture(scope="session")
def axes():
    return canonical_axes()


@pytest.fixture(scope="session")
def perm_specs(axes):
    return enumerate_family(SkewFamily.PERM, axes)


@pytest.fixture(scope="session")
def kappa_specs(axes):
    return enumerate_family(SkewFamily.PERM_KAPPA, axes)


@pytest.fixture(scope="session")
def perm_classes(perm_specs):
    return partition_into_classes(perm_specs)


@pytest.fixture(scope="session")
def kappa_classes(kappa_specs):
    return partition_into_classes(kappa_specs)


@pytest.fixture(scope="session")
def census_audit():
    return audit_claims(axes_mode="census")
