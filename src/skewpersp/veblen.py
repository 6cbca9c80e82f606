"""Veblen (Pasch) configurations labeled by the six pairs of I4.

A labeling here is a (6_2 4_3) configuration whose points are exactly the
six pairs, each by its position in ``PAIRS``: four 3-subsets of pairs,
every pair on two of them, two lines meeting in at most one pair.  There
are 30 such labelings, and a labeling is its position 0-29 in
``enumerate_labelings()``, the census, which holds each one in a single
normal form: the sorted tuple of its four sorted lines.  That tuple is
also its sort key, and ``census_index`` reads it back as the position.
Six labelings are singled out as canonical kinds; every labeling is the
``extend`` image of exactly one canonical kind, and the complement
involution swaps the kinds in pairs (G2 with G2_STAR, B2 with V4, V5 with
V6).  ``apply`` moves a position by a map of the pairs, and
``action_table`` sends each position through the 48 candidate maps, the
``EXTEND`` maps of the 24 permutations and those followed by
``CORRELATION``; the index and the table are built on first use, so the
start stays cheap.  Row k of the table belongs to the permutation at
position k of ``ALL_PERMS``.

The star S(i) is the set of pairs through i, the top T(i) the set of pairs
avoiding i.  Tops and stars are the only possible lines invariant enough to
pin the kinds down: G2 consists of the four tops, B2 keeps two of them, V5
one, and the starred kinds are the complement images.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum

from .indices import (
    CORRELATION,
    EXTEND,
    INDICES,
    PAIRS,
    conjugacy_classes_under,
    orbits,
)


def star(i: int) -> frozenset[int]:
    """S(i): the three pairs containing i."""
    return frozenset(u for u, ends in enumerate(PAIRS) if i in ends)


def top(i: int) -> frozenset[int]:
    """T(i): the three pairs avoiding i."""
    return frozenset(u for u, ends in enumerate(PAIRS) if i not in ends)


def _normal(lines) -> tuple[tuple[int, ...], ...]:
    """The normal form of a set of lines of pair positions: the sorted
    tuple of the lines, each a sorted tuple."""
    return tuple(sorted(tuple(sorted(ln)) for ln in lines))


class CanonicalKind(Enum):
    G2 = "G2"
    G2_STAR = "G2_STAR"
    B2 = "B2"
    V4 = "V4"
    V5 = "V5"
    V6 = "V6"

    def __str__(self) -> str:
        return self.value


#: Complement-partner of each kind.
PARTNER: dict[CanonicalKind, CanonicalKind] = {
    CanonicalKind.G2: CanonicalKind.G2_STAR,
    CanonicalKind.G2_STAR: CanonicalKind.G2,
    CanonicalKind.B2: CanonicalKind.V4,
    CanonicalKind.V4: CanonicalKind.B2,
    CanonicalKind.V5: CanonicalKind.V6,
    CanonicalKind.V6: CanonicalKind.V5,
}


def _pairs(*texts: str) -> frozenset[int]:
    return frozenset(PAIRS.index((int(t[0]), int(t[1]))) for t in texts)


#: the normal form of each kind's representative
_CANONICAL: dict[CanonicalKind, tuple[tuple[int, ...], ...]] = {
    CanonicalKind.G2: _normal(top(i) for i in INDICES),
    CanonicalKind.B2: _normal((top(1), top(2), _pairs("12", "13", "24"), _pairs("12", "14", "23"))),
    CanonicalKind.V5: _normal(
        (top(3), _pairs("13", "23", "14"), _pairs("13", "34", "24"), _pairs("23", "34", "12"))
    ),
}
for _plain in tuple(_CANONICAL):
    _CANONICAL[PARTNER[_plain]] = _normal([CORRELATION[u] for u in ln] for ln in _CANONICAL[_plain])


def canonical(kind: CanonicalKind) -> int:
    """The census position of the fixed representative labeling of each
    kind.

    G2 is the four tops; B2 keeps tops T(1), T(2); V5 keeps T(3); the
    starred kinds are the complement images of their partners.  B2's two
    non-top lines are forced (the only other completion of {T(1), T(2)} is
    G2 itself); V5 has two completions swapped by extend((1,2)) and the one
    fixed here is part of the package contract.
    """
    return census_index()[_CANONICAL[kind]]


@functools.lru_cache(maxsize=1)
def enumerate_labelings() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All 30 labelings in normal form, sorted.  A 3-subset of pairs is a
    6-bit mask over the pair positions.  Each pair lies on two lines, so
    the four masks XOR to 0 and the first three force the fourth: the loop
    takes the sorted masks three at a time and keeps ``d = a ^ b ^ c`` when
    it has three bits, is larger than ``c``, makes the OR 63 (every pair on
    a line, so on two) and no two of the four masks share two bits."""
    masks = sorted(sum(1 << u for u in t) for t in itertools.combinations(range(len(PAIRS)), 3))
    out = []
    for a, b, c in itertools.combinations(masks, 3):
        d = a ^ b ^ c
        m = (a, b, c, d)
        if d > c and d.bit_count() == 3 and a | b | c | d == 63 and all(
            (x & y).bit_count() < 2 for x, y in itertools.combinations(m, 2)
        ):
            out.append(_normal([u for u in range(6) if x >> u & 1] for x in m))
    return tuple(sorted(out))


@functools.lru_cache(maxsize=1)
def census_index() -> dict[tuple[tuple[int, ...], ...], int]:
    """Each labeling's census position, keyed by its normal form."""
    return {v: k for k, v in enumerate(enumerate_labelings())}


def apply(v: int, m: tuple[int, ...]) -> int:
    """The census position of the image of labeling ``v`` under a pair
    bijection, given as the image position of each pair position.  A
    bijection of the six pairs carries a labeling onto a labeling."""
    return census_index()[_normal([m[u] for u in ln] for ln in enumerate_labelings()[v])]


@functools.lru_cache(maxsize=1)
def action_table() -> tuple[tuple[int, ...], ...]:
    """Where the 48 candidate maps send each census position: row k is
    ``EXTEND[k]``, row 24 + k is row k read through the row of the
    complement involution, which commutes with every extend(phi)."""
    census = range(len(enumerate_labelings()))
    rows = [tuple(apply(v, m) for v in census) for m in EXTEND]
    cor = tuple(apply(v, CORRELATION) for v in census)
    return tuple(rows + [tuple(cor[k] for k in row) for row in rows])


@functools.cache
def star_triangles(v: int) -> tuple[int, ...]:
    """All i whose star S(i) is a free triangle of labeling ``v``: the
    three pairs of S(i) pairwise collinear, yet S(i) itself not a line.
    The memo is bounded by the 30 labelings."""
    lines = [frozenset(ln) for ln in enumerate_labelings()[v]]
    out = []
    for i in INDICES:
        s = star(i)
        if s in lines:
            continue
        if all(any(u in ln and w in ln for ln in lines) for u, w in itertools.combinations(s, 2)):
            out.append(i)
    return tuple(out)


def aut_perms(v: int) -> tuple[int, ...]:
    """All permutations whose extension maps labeling ``v`` onto itself:
    the phi whose row of ``action_table`` fixes v."""
    return tuple(phi for phi, row in enumerate(action_table()[:24]) if row[v] == v)


def census_orbits(complemented: bool) -> tuple[tuple[int, ...], ...]:
    """The census partitioned into its orbits under the 24 extended
    permutations or, when ``complemented``, under all 48 candidate maps,
    each orbit in census order, the orbits ordered by their first."""
    rows = action_table()[: 48 if complemented else 24]
    return orbits(range(len(enumerate_labelings())), lambda v: {row[v] for row in rows})


def lemma23_representatives(kind: CanonicalKind) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes of all of S4 under the automorphism group of the
    canonical labeling of this kind, each class sorted with its least
    member first.  The class count drives the perspective classification:
    conjugate permutations over the same axis give isomorphic structures."""
    return conjugacy_classes_under(frozenset(aut_perms(canonical(kind))))


#: Point names used when a labeling crosses the PSTS text boundary, by
#: pair position.
PAIR_NAMES: tuple[str, ...] = tuple(f"c{i}{j}" for i, j in PAIRS)
_NAME_TO_PAIR: dict[str, int] = {name: u for u, name in enumerate(PAIR_NAMES)}


def from_psts(s) -> int:
    """The census position of the labeling of a structure on the six pair
    points c12 .. c34, as an axis file gives it; only its ``points`` and
    ``lines`` are read, so the labelings never load ``psts``.  Raises
    ValueError on any other points, and on lines that are no labeling,
    naming them."""
    if set(s.points) != set(_NAME_TO_PAIR):
        raise ValueError(
            f"expected points {sorted(_NAME_TO_PAIR)}, got {list(s.points)}"
        )
    v = census_index().get(_normal([_NAME_TO_PAIR[x] for x in ln] for ln in s.lines))
    if v is None:
        named = ", ".join("{" + " ".join(ln) + "}" for ln in s.lines) or "none"
        raise ValueError(f"not one of the 30 labelings of the six pairs: lines {named}")
    return v
