"""Veblen (Pasch) configurations labeled by the six pairs of I4.

A labeling here is a (6_2 4_3) configuration whose points are exactly the
six pairs: four 3-subsets of pairs, every pair on two of them, two lines
meeting in at most one pair.  There are 30 such labelings.  Six of them are
singled out as canonical kinds; every labeling is the ``extend`` image of
exactly one canonical kind, and the complement involution swaps the kinds
in pairs (G2 with G2_STAR, B2 with V4, V5 with V6).  ``action_table``
sends each census position (``census_index``) through the 48 candidate
maps; both are built on first use, so the start stays cheap.

The star S(i) is the set of pairs through i, the top T(i) the set of pairs
avoiding i.  Tops and stars are the only possible lines invariant enough to
pin the kinds down: G2 consists of the four tops, B2 keeps two of them, V5
one, and the starred kinds are the complement images.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import NamedTuple

from .indices import (
    ALL_PERMS,
    CORRELATION,
    INDICES,
    PAIR_INDEX,
    PAIRS,
    Pair,
    PairMap,
    Perm4,
    conjugacy_classes_under,
    extend,
    orbits,
)


def star(i: int) -> frozenset[Pair]:
    """S(i): the three pairs containing i."""
    return frozenset(u for u in PAIRS if i in u)


def top(i: int) -> frozenset[Pair]:
    """T(i): the three pairs avoiding i."""
    return frozenset(u for u in PAIRS if i not in u)


def _line_key(line: frozenset[Pair]) -> tuple[int, ...]:
    return tuple(sorted(PAIR_INDEX[u] for u in line))


class _VeblenFields(NamedTuple):
    lines: tuple[frozenset[Pair], ...]


class VeblenConfig(_VeblenFields):
    """A (6_2 4_3) configuration on the six pairs.

    ``lines`` is a tuple of four frozensets of pairs, sorted by pair index,
    so equal configurations compare equal.
    """

    __slots__ = ()

    def __new__(cls, lines) -> "VeblenConfig":
        lines = tuple(sorted((frozenset(ln) for ln in lines), key=_line_key))
        if len(lines) != 4 or any(len(ln) != 3 for ln in lines):
            raise ValueError("need exactly four 3-subsets of pairs")
        if len(set(lines)) != 4:
            raise ValueError("lines repeat")
        count = {u: 0 for u in PAIRS}
        for ln in lines:
            for u in ln:
                count[u] += 1
        bad = {u: n for u, n in count.items() if n != 2}
        if bad:
            raise ValueError(f"pairs must lie on exactly 2 lines, violated at {bad}")
        for l1, l2 in itertools.combinations(lines, 2):
            if len(l1 & l2) > 1:
                raise ValueError(f"lines share two pairs: {set(l1)} and {set(l2)}")
        return super().__new__(cls, lines)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @functools.lru_cache(maxsize=None)
    def apply(self, m: PairMap) -> "VeblenConfig":
        """The image labeling under a pair bijection.  A bijection of the
        six pairs carries a labeling onto a labeling, so the image is the
        census instance with those lines, looked up without re-validation.
        The memo is bounded by 30 labelings times 720 pair bijections."""
        return enumerate_labelings()[census_index()[frozenset(m.apply_line(ln) for ln in self.lines)]]

    def has_line(self, line: frozenset[Pair]) -> bool:
        return line in self.lines

    def sort_key(self) -> tuple:
        return tuple(_line_key(ln) for ln in self.lines)


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


def _pairs(*texts: str) -> frozenset[Pair]:
    return frozenset(Pair(int(t[0]), int(t[1])) for t in texts)


_CANONICAL: dict[CanonicalKind, VeblenConfig] = {}
_CANONICAL[CanonicalKind.G2] = VeblenConfig(tuple(top(i) for i in INDICES))
_CANONICAL[CanonicalKind.B2] = VeblenConfig(
    (top(1), top(2), _pairs("12", "13", "24"), _pairs("12", "14", "23"))
)
_CANONICAL[CanonicalKind.V5] = VeblenConfig(
    (top(3), _pairs("13", "23", "14"), _pairs("13", "34", "24"), _pairs("23", "34", "12"))
)
for _plain in tuple(_CANONICAL):
    _CANONICAL[PARTNER[_plain]] = VeblenConfig(
        tuple(CORRELATION.apply_line(ln) for ln in _CANONICAL[_plain].lines)
    )


def canonical(kind: CanonicalKind) -> VeblenConfig:
    """The fixed representative labeling of each kind.

    G2 is the four tops; B2 keeps tops T(1), T(2); V5 keeps T(3); the
    starred kinds are the complement images of their partners.  B2's two
    non-top lines are forced (the only other completion of {T(1), T(2)} is
    G2 itself); V5 has two completions swapped by extend((1,2)) and the one
    fixed here is part of the package contract.
    """
    return _CANONICAL[kind]


@functools.lru_cache(maxsize=1)
def enumerate_labelings() -> tuple[VeblenConfig, ...]:
    """All 30 labelings, sorted.  A 3-subset of pairs is a 6-bit mask over
    ``PAIR_INDEX``.  Each pair lies on two lines, so the four masks XOR to 0
    and the first three force the fourth: the loop takes the sorted masks
    three at a time and keeps ``d = a ^ b ^ c`` when it has three bits, is
    larger than ``c``, makes the OR 63 (every pair on a line, so on two) and
    no two of the four masks share two bits.  The 30 survivors are
    constructed, with full validation."""
    masks = sorted(sum(1 << PAIR_INDEX[u] for u in t) for t in itertools.combinations(PAIRS, 3))
    out = []
    for a, b, c in itertools.combinations(masks, 3):
        d = a ^ b ^ c
        m = (a, b, c, d)
        if d > c and d.bit_count() == 3 and a | b | c | d == 63 and all(
            (x & y).bit_count() < 2 for x, y in itertools.combinations(m, 2)
        ):
            out.append(VeblenConfig(frozenset(PAIRS[i] for i in range(6) if x >> i & 1) for x in m))
    return tuple(sorted(out, key=VeblenConfig.sort_key))


@functools.lru_cache(maxsize=1)
def census_index() -> dict[VeblenConfig | frozenset, int]:
    """Each labeling's census position, keyed by the labeling and by its
    set of lines, so ``apply`` finds an image without constructing it."""
    return {key: k for k, v in enumerate(enumerate_labelings()) for key in (v, frozenset(v.lines))}


@functools.lru_cache(maxsize=1)
def action_table() -> tuple[tuple[int, ...], ...]:
    """Where the 48 candidate maps send each census position: row k is
    extend(``ALL_PERMS[k]``), row 24 + k is row k read through the row of
    the complement involution, which commutes with every extend(phi)."""
    census, index = enumerate_labelings(), census_index()
    rows = [tuple(index[v.apply(extend(phi))] for v in census) for phi in ALL_PERMS]
    cor = tuple(index[v.apply(CORRELATION)] for v in census)
    return tuple(rows + [tuple(cor[k] for k in row) for row in rows])


@functools.cache
def star_triangles(v: VeblenConfig) -> tuple[int, ...]:
    """All i whose star S(i) is a free triangle of v: the three pairs of
    S(i) pairwise collinear, yet S(i) itself not a line.  The memo is
    bounded by the 30 labelings."""
    out = []
    for i in INDICES:
        s = star(i)
        if v.has_line(s):
            continue
        if all(any(u in ln and w in ln for ln in v.lines) for u, w in itertools.combinations(s, 2)):
            out.append(i)
    return tuple(out)


def aut_perms(v: VeblenConfig) -> tuple[Perm4, ...]:
    """All permutations whose extension maps v onto itself: the phi whose
    row of ``action_table`` fixes v's census position."""
    k = census_index()[v]
    return tuple(phi for phi, row in zip(ALL_PERMS, action_table()) if row[k] == k)


def census_orbits(complemented: bool) -> tuple[tuple[VeblenConfig, ...], ...]:
    """The census partitioned into its orbits under the 24 extended
    permutations or, when ``complemented``, under all 48 candidate maps,
    each orbit in census order, the orbits ordered by their first."""
    census, rows = enumerate_labelings(), action_table()[: 48 if complemented else 24]
    return orbits(census, lambda v: {census[row[census_index()[v]]] for row in rows})


def lemma23_representatives(kind: CanonicalKind) -> tuple[tuple[Perm4, ...], ...]:
    """Conjugacy classes of all of S4 under the automorphism group of the
    canonical labeling of this kind, each class sorted with its least
    member first.  The class count drives the perspective classification:
    conjugate permutations over the same axis give isomorphic structures."""
    return conjugacy_classes_under(frozenset(aut_perms(canonical(kind))))


#: Point names used when a labeling crosses the PSTS text boundary.
PAIR_NAMES: dict[Pair, str] = {u: f"c{u}" for u in PAIRS}
_NAME_TO_PAIR: dict[str, Pair] = {name: u for u, name in PAIR_NAMES.items()}


def from_psts(s) -> VeblenConfig:
    """The labeling of a structure on the six pair points c12 .. c34, as
    an axis file gives it; only its ``points`` and ``lines`` are read, so
    the labelings never load ``psts``.  Raises ValueError on any other
    points."""
    if set(s.points) != set(_NAME_TO_PAIR):
        raise ValueError(
            f"expected points {sorted(_NAME_TO_PAIR)}, got {list(s.points)}"
        )
    return VeblenConfig(
        tuple(frozenset(_NAME_TO_PAIR[x] for x in ln) for ln in s.lines)
    )
