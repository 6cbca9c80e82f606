"""Algebra over the index set I4 = {1, 2, 3, 4}.

The six unordered pairs of I4 label the points of every axis configuration,
so all higher layers lean on three primitives defined here:

* ``Pair``         an unordered pair {i, j}, kept in a fixed global order,
* ``Perm4``        a permutation of I4 with cycle-text parsing/rendering,
* ``PairMap``      a bijection of the six pairs (extensions of permutations
                   and the complement involution live here).

The complement involution ``correlation`` sends {i, j} to I4 minus {i, j};
it commutes with every extended permutation, which is what makes the
"boolean complementing" perspective family tick.

All types are immutable tuple records, equal, ordered and hashed as the
tuple of their fields; each checks its fields when it is constructed,
``_replace`` included.  Every enumeration order is fixed so downstream
reports are reproducible byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Callable, Sequence
from typing import NamedTuple

INDICES: tuple[int, int, int, int] = (1, 2, 3, 4)


def _check_index(i: int) -> int:
    if i not in (1, 2, 3, 4):
        raise ValueError(f"index out of range 1..4: {i!r}")
    return i


class _PairFields(NamedTuple):
    lo: int
    hi: int


class Pair(_PairFields):
    """Unordered pair of distinct indices, stored as lo < hi."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> "Pair":
        _check_index(lo)
        _check_index(hi)
        if lo >= hi:
            raise ValueError(f"pair must satisfy lo < hi, got ({lo}, {hi})")
        return super().__new__(cls, lo, hi)

    # ``_replace`` builds through ``_make``, so it checks the fields too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @staticmethod
    def of(i: int, j: int) -> "Pair":
        if i == j:
            raise ValueError(f"pair needs two distinct indices, got {i} twice")
        return Pair(min(i, j), max(i, j))

    def __str__(self) -> str:
        return f"{self.lo}{self.hi}"


#: The six pairs in the global order used by every serialization:
#: 12, 13, 14, 23, 24, 34.
PAIRS: tuple[Pair, ...] = tuple(
    Pair(i, j) for i, j in itertools.combinations(INDICES, 2)
)
PAIR_INDEX: dict[Pair, int] = {u: k for k, u in enumerate(PAIRS)}


def correlation(u: Pair) -> Pair:
    """Complement of a pair inside I4: {1,2} goes to {3,4} and so on."""
    rest = [i for i in INDICES if i not in u]
    return Pair(rest[0], rest[1])


class _Perm4Fields(NamedTuple):
    images: tuple[int, int, int, int]


class Perm4(_Perm4Fields):
    """Permutation of I4, stored by its image tuple (phi(1), ..., phi(4))."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, int, int, int]) -> "Perm4":
        if sorted(images) != [1, 2, 3, 4]:
            raise ValueError(f"not a bijection of 1..4: images {images}")
        return super().__new__(cls, images)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __call__(self, i: int) -> int:
        return self.images[_check_index(i) - 1]

    # only 24 distinct values exist, so the group operations below are
    # memoized; the tables stay tiny and hit rates are near total

    @functools.lru_cache(maxsize=None)
    def compose(self, other: "Perm4") -> "Perm4":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Perm4(tuple(self(other(i)) for i in INDICES))

    @functools.lru_cache(maxsize=None)
    def inverse(self) -> "Perm4":
        img = [0, 0, 0, 0]
        for i in INDICES:
            img[self(i) - 1] = i
        return Perm4(tuple(img))

    @functools.lru_cache(maxsize=None)
    def conjugate_by(self, alpha: "Perm4") -> "Perm4":
        """alpha . self . alpha^-1."""
        return alpha.compose(self).compose(alpha.inverse())

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i in INDICES if self(i) == i)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycle decomposition, fixed points included, each cycle
        starting at its least element, cycles ordered by least element."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for i in INDICES:
            if i in seen:
                continue
            cyc = [i]
            seen.add(i)
            j = self(i)
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return tuple(out)

    def __str__(self) -> str:
        return render_cycles(self)


IDENTITY = Perm4((1, 2, 3, 4))

#: All 24 permutations in lexicographic order of their image tuples.
ALL_PERMS: tuple[Perm4, ...] = tuple(
    Perm4(img) for img in sorted(itertools.permutations(INDICES))
)


def render_cycles(phi: Perm4) -> str:
    """Disjoint-cycle text with fixed points omitted; identity renders as 'id'."""
    parts = [c for c in phi.cycles() if len(c) > 1]
    if not parts:
        return "id"
    return "".join("(" + ",".join(str(i) for i in c) + ")" for c in parts)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str) -> Perm4:
    """Parse disjoint-cycle text such as '(1,2)(3,4)' or '(1)(2,3,4)' or 'id'.

    Fixed points may be written or omitted.  Raises ValueError with a
    'malformed' message on syntax errors and a 'not a bijection' message when
    the cycles repeat an index.
    """
    text = text.strip()
    if text == "id":
        return IDENTITY
    stripped = _CYCLE_RE.sub("", text)
    if not text or stripped != "":
        raise ValueError(f"malformed cycle text: {text!r}")
    img = {i: i for i in INDICES}
    seen: set[int] = set()
    for group in _CYCLE_RE.findall(text):
        items = [t.strip() for t in group.split(",")] if group.strip() else []
        if not items or any(not t.isdigit() for t in items):
            raise ValueError(f"malformed cycle text: {text!r}")
        xs = [int(t) for t in items]
        for x in xs:
            if x not in (1, 2, 3, 4):
                raise ValueError(f"malformed cycle text: index out of range 1..4 in {text!r}")
            if x in seen:
                raise ValueError(f"not a bijection: index {x} repeated in {text!r}")
            seen.add(x)
        for a, b in zip(xs, xs[1:] + xs[:1]):
            img[a] = b
    return Perm4(tuple(img[i] for i in INDICES))


class _PairMapFields(NamedTuple):
    images: tuple[int, int, int, int, int, int]  # indices into PAIRS


class PairMap(_PairMapFields):
    """Bijection of the six pairs, stored as images in global pair order."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, int, int, int, int, int]) -> "PairMap":
        if sorted(images) != [0, 1, 2, 3, 4, 5]:
            raise ValueError(f"not a bijection of the six pairs: {images}")
        return super().__new__(cls, images)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __call__(self, u: Pair) -> Pair:
        return PAIRS[self.images[PAIR_INDEX[u]]]

    def compose(self, other: "PairMap") -> "PairMap":
        return PairMap(tuple(self.images[k] for k in other.images))

    def inverse(self) -> "PairMap":
        img = [0] * 6
        for k in range(6):
            img[self.images[k]] = k
        return PairMap(tuple(img))

    def apply_line(self, line: frozenset[Pair]) -> frozenset[Pair]:
        return frozenset(self(u) for u in line)


@functools.lru_cache(maxsize=None)
def extend(phi: Perm4) -> PairMap:
    """Extension of a permutation to pairs: {i, j} goes to {phi(i), phi(j)}.

    extend is a group homomorphism from S4 into the symmetric group of the
    six pairs and it commutes with ``correlation``.
    """
    return PairMap(tuple(PAIR_INDEX[Pair.of(phi(u.lo), phi(u.hi))] for u in PAIRS))


#: The complement involution as a PairMap.
CORRELATION = PairMap(tuple(PAIR_INDEX[correlation(u)] for u in PAIRS))


def is_subgroup(perms: frozenset[Perm4]) -> bool:
    """True when the given set of permutations forms a subgroup of S4."""
    if IDENTITY not in perms:
        return False
    for a in perms:
        if a.inverse() not in perms:
            return False
        for b in perms:
            if a.compose(b) not in perms:
                return False
    return True


def orbits(items: Sequence, images: Callable) -> tuple[tuple, ...]:
    """Orbits of ``items`` under a group, where ``images(x)`` is the set of
    all images of x.  Each orbit lists its members in ``items`` order, and
    the orbits are ordered by their first member."""
    out, seen = [], set()
    for x in items:
        if x not in seen:
            orbit = images(x)
            seen.update(orbit)
            out.append(tuple(y for y in items if y in orbit))
    return tuple(out)


def conjugacy_classes_under(
    group: frozenset[Perm4] | set[Perm4] | tuple[Perm4, ...],
) -> tuple[tuple[Perm4, ...], ...]:
    """Orbits of all 24 permutations under conjugation by a subgroup.

    Each class is sorted, classes are ordered by their least member, so the
    first element of each class is its canonical representative.  Raises
    ValueError when the argument is not a subgroup of S4.
    """
    H = frozenset(group)
    if not is_subgroup(H):
        raise ValueError("conjugating set is not a subgroup of S4")
    return orbits(ALL_PERMS, lambda g: {g.conjugate_by(a) for a in H})
