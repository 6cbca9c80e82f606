"""The paper's objects re-derived from their definitions, with no package
code: so far the six edges of the tetrahedron, their complements, the
edge maps of S4 and the 48 skews.  Only the final comparison imports the
package, so a fault shared by the package's algebra and its tests cannot
hide here."""

import itertools

INDICES = (1, 2, 3, 4)
#: the six edges of the tetrahedron on {1, 2, 3, 4}, in the order of
#: their ends read as two-digit numbers: 12, 13, 14, 23, 24, 34
EDGES = tuple(frozenset(e) for e in itertools.combinations(INDICES, 2))


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


def test_48_skews_of_which_24_are_induced():
    found = skews()
    plain = set(induced().values())
    assert len(found) == len(set(found)) == 48
    assert len(plain) == 24
    assert plain < set(found)
    assert complements() in set(found) - plain


def test_they_are_the_maps_of_the_action_table():
    """The package's pairs are the six edges, by position, and its
    complement, its extension of each permutation and its pair point names
    are the derived ones.  Each skew moves the package's census of
    labelings exactly as one row of ``veblen.action_table`` says, the
    induced ones as rows 0-23 and the others as rows 24-47; the 48 rows
    are distinct, so the table holds each skew exactly once."""
    from skewpersp.indices import ALL_PERMS, CORRELATION, PAIRS, extend
    from skewpersp.veblen import PAIR_NAMES, action_table, enumerate_labelings

    assert PAIRS == tuple(ends(e) for e in EDGES)
    assert CORRELATION.images == complements()
    assert {phi.images: extend(phi).images for phi in ALL_PERMS} == induced()
    assert PAIR_NAMES == tuple("c%d%d" % ends(e) for e in EDGES)

    labelings = [frozenset(frozenset(line) for line in v.lines) for v in enumerate_labelings()]
    position = {lines: k for k, lines in enumerate(labelings)}

    def row(images):
        return tuple(
            position[frozenset(frozenset(images[u] for u in line) for line in lines)] for lines in labelings
        )

    table = action_table()
    assert len(set(table)) == 48
    plain = set(induced().values())
    assert {row(m) for m in plain} == set(table[:24])
    assert {row(m) for m in skews() if m not in plain} == set(table[24:])
