"""The paper's objects re-derived from their definitions, with no package
code: so far the 48 skews.  Only the final comparison imports the
package, so a fault shared by the package's algebra and its tests cannot
hide here."""

import itertools

INDICES = (1, 2, 3, 4)
#: the six edges of the tetrahedron on {1, 2, 3, 4}
EDGES = tuple(frozenset(e) for e in itertools.combinations(INDICES, 2))


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


def induced() -> set[tuple[int, ...]]:
    """The edge bijections induced by the 24 permutations of {1, 2, 3, 4}."""
    out = set()
    for perm in itertools.permutations(INDICES):
        to = dict(zip(INDICES, perm))
        out.add(tuple(EDGES.index(frozenset(to[i] for i in e)) for e in EDGES))
    return out


def test_48_skews_of_which_24_are_induced():
    found = skews()
    assert len(found) == len(set(found)) == 48
    assert len(induced()) == 24
    assert induced() < set(found)


def test_they_are_the_maps_of_the_action_table():
    """Each skew moves the package's census of labelings exactly as one row
    of ``veblen.action_table`` says, the induced ones as rows 0-23 and the
    others as rows 24-47; the 48 rows are distinct, so the table holds
    each skew exactly once."""
    from skewpersp.veblen import action_table, enumerate_labelings

    labelings = [
        frozenset(frozenset(frozenset(u) for u in line) for line in v.lines) for v in enumerate_labelings()
    ]
    position = {lines: k for k, lines in enumerate(labelings)}

    def row(images):
        return tuple(
            position[frozenset(frozenset(EDGES[images[EDGES.index(e)]] for e in line) for line in lines)]
            for lines in labelings
        )

    table = action_table()
    assert len(set(table)) == 48
    plain = induced()
    assert {row(m) for m in plain} == set(table[:24])
    assert {row(m) for m in skews() if m not in plain} == set(table[24:])
