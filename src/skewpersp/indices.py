"""Algebra over the index set I4 = {1, 2, 3, 4}.

The six unordered pairs {i, j} of I4 label the points of every axis
configuration.  A pair is its position 0-5 in ``PAIRS``, which lists the
pairs as tuples (i, j) with i < j in one global order, 12, 13, 14, 23, 24,
34; ``PAIRS[u]`` gives the ends of the pair at position u.  A permutation
of I4 is its position 0-23 in ``ALL_PERMS``, which lists the image tuples
(phi(1), ..., phi(4)) in lexicographic order, so positions order the
permutations as their images do.  A map of the six pairs is the 6-tuple
of the image position of each position, such as ``EXTEND[phi]``, the
extension of phi to pairs, and ``CORRELATION``.

The complement involution ``CORRELATION`` sends {i, j} to I4 minus {i, j};
it commutes with every extended permutation, which is what makes the
"boolean complementing" perspective family tick.

S4's composition, inverse and conjugation tables (``s4_tables``) are
built on first use, so the start stays cheap.  Every enumeration order is
fixed so downstream reports are reproducible byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Callable, Sequence

INDICES: tuple[int, int, int, int] = (1, 2, 3, 4)

#: The six pairs in the global order used by every serialization:
#: 12, 13, 14, 23, 24, 34.  A pair is its position in this tuple.
PAIRS: tuple[tuple[int, int], ...] = tuple(itertools.combinations(INDICES, 2))

#: All 24 permutations as image tuples, in lexicographic order.  A
#: permutation is its position in this tuple; the identity is 0.
ALL_PERMS: tuple[tuple[int, int, int, int], ...] = tuple(itertools.permutations(INDICES))
IDENTITY = 0

#: The complement involution on pair positions: {1,2} goes to {3,4} and so on.
CORRELATION: tuple[int, ...] = tuple(
    PAIRS.index(tuple(i for i in INDICES if i not in ends)) for ends in PAIRS
)

#: The extension of each permutation to pairs: {i, j} goes to
#: {phi(i), phi(j)}.  extend is a group homomorphism from S4 into the
#: symmetric group of the six pairs and it commutes with ``CORRELATION``.
EXTEND: tuple[tuple[int, ...], ...] = tuple(
    tuple(PAIRS.index(tuple(sorted((img[i - 1], img[j - 1])))) for i, j in PAIRS) for img in ALL_PERMS
)


@functools.lru_cache(maxsize=1)
def s4_tables() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """S4's tables over positions: the composition ``comp[a][b]``, a after
    b; the inverse ``inv[a]``; and the conjugation ``conj[a][b]``,
    a b a^-1.  Built on first use."""
    index = {img: k for k, img in enumerate(ALL_PERMS)}
    comp = tuple(tuple(index[tuple(a[i - 1] for i in b)] for b in ALL_PERMS) for a in ALL_PERMS)
    inv = tuple(row.index(IDENTITY) for row in comp)
    conj = tuple(tuple(comp[row[b]][inv[a]] for b in range(len(ALL_PERMS))) for a, row in enumerate(comp))
    return comp, inv, conj


def fixed_points(phi: int) -> tuple[int, ...]:
    """The indices that the permutation at position phi fixes."""
    return tuple(i for i in INDICES if ALL_PERMS[phi][i - 1] == i)


def render_cycles(phi: int) -> str:
    """Disjoint-cycle text of the permutation at position phi, each cycle
    from its least index, cycles ordered by it, fixed points omitted; the
    identity renders as 'id'."""
    img, seen, parts = ALL_PERMS[phi], set(), []
    for i in INDICES:
        if i in seen or img[i - 1] == i:
            continue
        cyc = [i]
        while img[cyc[-1] - 1] != i:
            cyc.append(img[cyc[-1] - 1])
        seen.update(cyc)
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts) or "id"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str) -> int:
    """Parse disjoint-cycle text such as '(1,2)(3,4)' or '(1)(2,3,4)' or 'id'
    into the permutation's position.

    Fixed points may be written or omitted; indices are ASCII digits, as
    ``int`` would read any Unicode digit.  Raises ValueError with a
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
        if not items or any(not (t.isascii() and t.isdigit()) for t in items):
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
    return ALL_PERMS.index(tuple(img[i] for i in INDICES))


def is_subgroup(perms: frozenset[int]) -> bool:
    """True when the given set of permutations forms a subgroup of S4."""
    comp, inv, _ = s4_tables()
    return IDENTITY in perms and all(
        inv[a] in perms and all(comp[a][b] in perms for b in perms) for a in perms
    )


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


def conjugacy_classes_under(group: frozenset[int] | set[int] | tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Orbits of all 24 permutations under conjugation by a subgroup.

    Each class is sorted, classes are ordered by their least member, so the
    first element of each class is its canonical representative.  Raises
    ValueError when the argument is not a subgroup of S4.
    """
    H = frozenset(group)
    if not is_subgroup(H):
        raise ValueError("conjugating set is not a subgroup of S4")
    conj = s4_tables()[2]
    return orbits(range(len(ALL_PERMS)), lambda g: {conj[a][g] for a in H})
