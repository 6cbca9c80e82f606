"""The paper's objects re-derived from their definitions, with no package
code: so far the permutations of S4 with their composition, inverse and
conjugation, the six edges of the tetrahedron, their complements, the
edge maps of S4, the 48 skews, the 30 labelings of the Veblen
configuration by the edges and the lines of all 1,440 perspectives.  Only
the final comparison imports the package, so a fault shared by the
package's algebra and its tests cannot hide here."""

import itertools

INDICES = (1, 2, 3, 4)
#: the six edges of the tetrahedron on {1, 2, 3, 4}, in the order of
#: their ends read as two-digit numbers: 12, 13, 14, 23, 24, 34
EDGES = tuple(frozenset(e) for e in itertools.combinations(INDICES, 2))
#: the 24 permutations of {1, 2, 3, 4}, each as its images of 1, 2, 3, 4,
#: in lexicographic order
PERMS = sorted(itertools.permutations(INDICES))


def after(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation a after b, as images: i goes to a(b(i))."""
    return tuple(a[b[i - 1] - 1] for i in INDICES)


def group_tables() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """S4's tables over the positions in ``PERMS``: the composition
    ``comp[a][b]``, a after b; the inverse ``inv[a]``; and the conjugation
    ``conj[a][b]``, a b a^-1."""
    comp = tuple(tuple(PERMS.index(after(a, b)) for b in PERMS) for a in PERMS)
    inverses = [tuple(a.index(i) + 1 for i in INDICES) for a in PERMS]
    inv = tuple(PERMS.index(a) for a in inverses)
    conj = tuple(tuple(PERMS.index(after(after(a, b), a_inv)) for b in PERMS) for a, a_inv in zip(PERMS, inverses))
    return comp, inv, conj


def ends(e: frozenset) -> tuple[int, int]:
    return tuple(sorted(e))


def complements() -> tuple[int, ...]:
    """The position in ``EDGES`` of each edge's complement in {1, 2, 3, 4}."""
    return tuple(EDGES.index(frozenset(INDICES) - e) for e in EDGES)


def skews() -> list[tuple[int, ...]]:
    """Every bijection of the six edges under which two edges meet exactly
    when their images meet, as the positions in ``EDGES`` of the images of
    ``EDGES`` in order."""
    pairs = list(itertools.combinations(range(6), 2))
    return [
        images
        for images in itertools.permutations(range(6))
        if all(bool(EDGES[a] & EDGES[b]) == bool(EDGES[images[a]] & EDGES[images[b]]) for a, b in pairs)
    ]


def induced() -> dict[tuple[int, ...], tuple[int, ...]]:
    """The edge bijection induced by each of the 24 permutations of
    {1, 2, 3, 4}, keyed by the permutation's images of 1, 2, 3, 4."""
    out = {}
    for perm in itertools.permutations(INDICES):
        to = dict(zip(INDICES, perm))
        out[perm] = tuple(EDGES.index(frozenset(to[i] for i in e)) for e in EDGES)
    return out


def labelings() -> list[tuple[tuple[int, ...], ...]]:
    """Every set of four 3-sets of edges with each edge on exactly two of
    them and no two sharing more than one edge: the labelings of the
    Veblen configuration by the six edges.  Each is the sorted tuple of
    its lines, a line the sorted positions in ``EDGES`` of its edges, and
    the labelings come in the order of those tuples."""
    lines = itertools.combinations(range(6), 3)
    return sorted(
        quad
        for quad in itertools.combinations(lines, 4)
        if all(sum(e in line for line in quad) == 2 for e in range(6))
        and all(len(set(a) & set(b)) <= 1 for a, b in itertools.combinations(quad, 2))
    )


def moved(labeling: tuple[tuple[int, ...], ...], images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The labeling that an edge bijection carries ``labeling`` onto, in
    the form ``labelings`` gives it."""
    return tuple(sorted(tuple(sorted(images[e] for e in line)) for line in labeling))


def c(e: frozenset) -> str:
    """The name of the axis point on edge ``e``: c12, c13, ..., c34."""
    return "c%d%d" % ends(e)


def perspectives() -> list[set[frozenset[str]]]:
    """The lines of every perspective, by point names, at ``skew * 30 +
    axis``: skew k < 24 is the edge map of ``PERMS[k]``, skew 24 + k that
    map followed by the complement, and axis v the v-th of ``labelings``.
    A skew delta over a labeling N has the axis lines of N, the a-joins
    {a_i, a_j, c_ij}, the b-joins {b_i, b_j, c_u} with u = delta^-1({i, j})
    and the centre lines {p, a_i, b_i}."""
    cor = complements()
    edge_maps = [induced()[p] for p in PERMS]
    fixed = {frozenset({c(e), *(f"a{i}" for i in e)}) for e in EDGES}
    fixed |= {frozenset({"p", f"a{i}", f"b{i}"}) for i in INDICES}
    axes = [{frozenset(c(EDGES[e]) for e in line) for line in labeling} for labeling in labelings()]
    out = []
    for delta in edge_maps + [tuple(cor[k] for k in m) for m in edge_maps]:
        # delta carries the edge on the b-join of edge u onto u
        joins = {frozenset({c(EDGES[delta.index(u)]), *(f"b{i}" for i in e)}) for u, e in enumerate(EDGES)}
        out += [fixed | joins | axis for axis in axes]
    return out


def test_the_group_tables_are_a_group():
    comp, inv, conj = group_tables()
    identity = PERMS.index(INDICES)
    assert identity == 0 and len(PERMS) == len(set(PERMS)) == 24
    for a in range(24):
        assert comp[a][inv[a]] == comp[inv[a]][a] == identity
        assert conj[a][identity] == identity and conj[identity][a] == a
    assert any(comp[a][b] != comp[b][a] for a in range(24) for b in range(24))


def test_48_skews_of_which_24_are_induced():
    found = skews()
    plain = set(induced().values())
    assert len(found) == len(set(found)) == 48
    assert len(plain) == 24
    assert plain < set(found)
    assert complements() in set(found) - plain


def test_1440_perspectives_of_20_lines_on_15_points():
    found = perspectives()
    assert len(found) == 1440
    for lines in found:
        assert len(lines) == 20 and all(len(line) == 3 for line in lines)
        points = sorted(x for line in lines for x in line)
        assert [len(list(g)) for _, g in itertools.groupby(points)] == [4] * 15


def test_30_labelings_closed_under_the_48_skews():
    found = labelings()
    assert len(found) == len(set(found)) == 30
    for images in skews():
        assert sorted(moved(v, images) for v in found) == found


def test_they_are_the_maps_of_the_action_table():
    """The package's permutations are the derived ones in the same order,
    with the same composition, inverse and conjugation tables.  Its pairs
    are the six edges, by position, and its complement, its extension of
    each permutation and its pair point names are the derived ones.  Its
    census holds the derived labelings, position by position.  Each skew
    moves them exactly as one row of ``veblen.action_table`` says, the
    induced ones as rows 0-23 and the others as rows 24-47; the 48 rows
    are distinct, so the table holds each skew exactly once.  Row k is the
    edge map of permutation k, and row 24 + k that map followed by the
    complement.  The structure the package builds at each spec position
    has exactly the derived lines of that perspective, by point names."""
    from skewpersp.indices import ALL_PERMS, CORRELATION, EXTEND, PAIRS, s4_tables
    from skewpersp.perspective import build
    from skewpersp.veblen import PAIR_NAMES, action_table, enumerate_labelings

    assert list(ALL_PERMS) == PERMS
    assert s4_tables() == group_tables()
    assert PAIRS == tuple(ends(e) for e in EDGES)
    assert CORRELATION == complements()
    assert dict(zip(ALL_PERMS, EXTEND)) == induced()
    assert PAIR_NAMES == tuple(map(c, EDGES))

    derived = labelings()
    assert list(enumerate_labelings()) == derived
    position = {v: k for k, v in enumerate(derived)}

    def row(images):
        return tuple(position[moved(v, images)] for v in derived)

    table = action_table()
    assert len(set(table)) == 48
    plain = set(induced().values())
    assert {row(m) for m in plain} == set(table[:24])
    assert {row(m) for m in skews() if m not in plain} == set(table[24:])
    edge_maps = [induced()[p] for p in PERMS]
    cor = complements()
    assert [row(m) for m in edge_maps] == list(table[:24])
    assert [row(tuple(cor[k] for k in m)) for m in edge_maps] == list(table[24:])
    for s, lines in enumerate(perspectives()):
        assert set(map(frozenset, build(s).lines)) == lines, s
