"""Seeded PSTS inputs for the ``oracle-large`` workload, and an independent
witness checker.

Nothing here imports ``skewpersp``: the structures are built from first
principles and the checker only tests that a point map is a bijection that
carries every line onto a line, so a bug in the package's isomorphism code
cannot make its own answers look right.

Structures:

* PG(3,2): the 15 nonzero vectors of GF(2)^4, lines {a, b, a xor b};
  a Steiner triple system with an automorphism group of order 20,160.
* a Pasch switch of PG(3,2): one Pasch configuration (four lines on six
  points) traded for the other one on the same pairs.  The result is an
  STS(15) with fewer Pasch configurations, so it is not isomorphic to
  PG(3,2); ``pasch_count`` proves that here without any search.
* ``TRIANGLES`` disjoint triangles: three points per line, no two lines
  meeting.

The first operand of every operation is a structure under its natural
labelling; the second is a copy under a seeded relabelling (point names,
point order, line order and order within lines).  ``aut`` takes PG(3,2)
under its natural labelling: its search time moves threefold with the
labelling (3 to 10 s over five seeds), which would swamp any change.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

TRIANGLES = 400


def pg32() -> tuple[list[str], list[tuple[str, str, str]]]:
    points = list(range(1, 16))
    lines = {tuple(sorted((a, b, a ^ b))) for a, b in itertools.combinations(points, 2)}
    return [f"v{p}" for p in points], [tuple(f"v{p}" for p in ln) for ln in sorted(lines)]


def _third(lines) -> dict[tuple[str, str], str]:
    third = {}
    for ln in lines:
        for x, y in itertools.permutations(ln, 2):
            third[(x, y)] = next(z for z in ln if z != x and z != y)
    return third


def _pasches(points, lines):
    """Each Pasch configuration once, as (x, y, z, u, v, w) with lines
    xyz, xuv, wyu, wzv."""
    third = _third(lines)
    through = {p: [ln for ln in lines if p in ln] for p in points}
    seen = set()
    for x in points:
        for l1, l2 in itertools.combinations(through[x], 2):
            y, z = (p for p in l1 if p != x)
            a, b = (p for p in l2 if p != x)
            for u, v in ((a, b), (b, a)):
                w = third.get((y, u))
                if w is None or w in l1 or w in l2 or third.get((z, v)) != w:
                    continue
                quad = frozenset(
                    frozenset(ln) for ln in ((x, y, z), (x, u, v), (w, y, u), (w, z, v))
                )
                if quad not in seen:
                    seen.add(quad)
                    yield x, y, z, u, v, w


def pasch_count(points, lines) -> int:
    return sum(1 for _ in _pasches(points, lines))


def pasch_switch(points, lines):
    """Trade the first Pasch configuration xyz, xuv, wyu, wzv for
    xyu, xzv, wyz, wuv: the same 12 pairs, covered the other way."""
    x, y, z, u, v, w = next(_pasches(points, lines))
    old = {frozenset(ln) for ln in ((x, y, z), (x, u, v), (w, y, u), (w, z, v))}
    new = [(x, y, u), (x, z, v), (w, y, z), (w, u, v)]
    kept = [ln for ln in lines if frozenset(ln) not in old]
    return points, sorted(tuple(sorted(ln)) for ln in kept + new)


def triangles(n: int = TRIANGLES):
    points = [f"t{i}" for i in range(3 * n)]
    return points, [tuple(points[3 * k : 3 * k + 3]) for k in range(n)]


def relabel(points, lines, rng: random.Random, prefix: str):
    """Rename points to seeded names and shuffle the order of points, of
    lines and of points within each line."""
    ids = list(range(len(points)))
    rng.shuffle(ids)
    name = {p: f"{prefix}{i}" for p, i in zip(points, ids)}
    pts = [name[p] for p in points]
    rng.shuffle(pts)
    lns = [[name[p] for p in ln] for ln in lines]
    for ln in lns:
        rng.shuffle(ln)
    rng.shuffle(lns)
    return pts, [tuple(ln) for ln in lns]


def to_text(points, lines) -> str:
    rows = [f"psts {len(points)} {len(lines)}", " ".join(points)]
    rows.extend(" ".join(ln) for ln in lines)
    return "\n".join(rows) + "\n"


def from_text(text: str):
    rows = [r.split() for r in text.splitlines() if r.strip()]
    return rows[1], [tuple(r) for r in rows[2:]]


def write_inputs(directory: Path, seed: int) -> dict[str, Path]:
    """Write the oracle-large input files for ``seed``; returns their paths
    by role."""
    rng = random.Random(seed)
    pg = pg32()
    switched = pasch_switch(*pg)
    if pasch_count(*pg) == pasch_count(*switched):
        raise RuntimeError("Pasch switch kept the Pasch count; inputs are not a non-isomorphic pair")
    tri = triangles()
    structures = {
        "pg32": pg,
        "pg32_copy": relabel(*pg, rng, "b"),
        "pasch_switched": relabel(*switched, rng, "c"),
        "triangles": tri,
        "triangles_copy": relabel(*tri, rng, "e"),
    }
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for role, (pts, lns) in structures.items():
        paths[role] = directory / f"{role}.psts"
        paths[role].write_text(to_text(pts, lns))
    return paths


def _line_set(lines) -> set[frozenset[str]]:
    return {frozenset(ln) for ln in lines}


def is_isomorphism(x, y, mapping: dict[str, str]) -> bool:
    """True when ``mapping`` is a bijection from the points of x onto the
    points of y carrying the lines of x exactly onto the lines of y."""
    (xp, xl), (yp, yl) = x, y
    if set(mapping) != set(xp) or sorted(mapping.values()) != sorted(yp):
        return False
    return {frozenset(mapping[p] for p in ln) for ln in xl} == _line_set(yl)


def parse_point_map(text: str) -> dict[str, str]:
    """The ``iso`` witness format: one ``x -> y`` row per point."""
    mapping = {}
    for row in text.splitlines():
        src, arrow, dst = row.partition(" -> ")
        if not arrow or src in mapping:
            raise ValueError(f"bad witness row {row!r}")
        mapping[src] = dst
    return mapping


def parse_cycles(text: str, points) -> dict[str, str]:
    """The ``aut`` generator format: ``(a b c)(d e)`` or ``id``."""
    mapping = {p: p for p in points}
    if text == "id":
        return mapping
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle text {text!r}")
    for cyc in text[1:-1].split(")("):
        names = cyc.split()
        for a, b in zip(names, names[1:] + names[:1]):
            mapping[a] = b
    return mapping
