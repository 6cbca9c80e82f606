"""Partial Steiner triple systems with named points.

A structure here is a finite set of points and a set of 3-element lines in
which two distinct lines meet in at most one point.  Points are plain
strings; all geometry below identifies structures only up to renaming, so
nothing downstream may depend on what the names look like.

Each structure holds its incidence once, over point indices, as the lines
in sorted index triples.  The isomorphism machinery works on that core,
and names meet it only at the boundary.  Everything derived is built on
first use only: each point's line partners as index pairs, the
third-point table, a dict per point, the per-point Pasch and triangle
counts, the free K5 subgraphs, searched over int bitmasks of points, and
the witness search's refinement memo.  Both searches read the partners,
the witness search the table and the memo, its seed colouring the Pasch
and triangle counts, and the canonical search's seed colouring the
subgraphs.  A structure that a checked isomorphism reaches from one whose
subgraphs are known takes them along the map instead of searching.  The
audit keeps every structure it builds, and most are never searched, so
they never list their partners.

Construction validates; an invalid line set raises ``PstsError`` carrying
the full list of problems found, not just the first.  Both ways in share
one index-level core, which finds every pair of points on two lines: the
name-level constructor (used by ``from_text``) checks names, unknown
points and repeated lines first, and a caller that has index triples
already, such as a perspective built on its fixed frame of points, hands
them over directly.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class PstsError(ValueError):
    """Invalid structure; ``problems`` lists every violation found."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _check_name(name: str, problems: list[str]) -> None:
    if not name or not set(name) <= NAME_CHARS:
        problems.append(f"bad point name {name!r} (need [A-Za-z0-9_]+)")


class Psts:
    """Immutable partial Steiner triple system.

    ``points`` is a sorted tuple of names.  Incidence is held once, over
    point indices, where a point's index is its position in ``points``:

    * ``line_sets``      the lines as sorted index triples, sorted,
    * ``partners[i]``    sorted (j, k) pairs, one per line {i, j, k} with j < k;
                         listed on first use, never by the constructor,
    * ``third[i][j]``    the third point of the line through i and j, present
                         only when that line exists; built from ``partners``
                         on first use, never by the constructor,
    * ``pasch[i]``       the number of Pasch configurations (four lines on
                         six points, any two meeting) through point i;
                         counted from ``third`` on first use,
    * ``triangles[i]``   the number of triangles through point i: pairs of
                         collinear points on two different lines through
                         i; counted in the same pass as ``pasch``,
    * ``free_k5``        the free K5 subgraphs as sorted index tuples, in
                         lexicographic order; searched on first use, never
                         by the constructor, unless ``carry_free_k5`` took
                         them along an isomorphism first,
    * ``refined``        the witness search's memo, by fixed point index or
                         None: a certificate and the stable colours of the
                         structure's refinement; an empty dict made on first
                         use and filled by ``iso``.

    ``lines`` reads the lines back as sorted name triples, in ``line_sets``
    order, which is name order too: indices are ranks in name order.  A
    census audit builds 1,440 structures and searches 69, so most of them
    hold ``points`` and ``line_sets`` only.
    """

    __slots__ = ("points", "line_sets", "_partners", "_third", "_pasch", "_free_k5", "_refined")

    def __init__(self, points, lines):
        problems: list[str] = []
        pts = sorted(points)
        for x in pts:
            _check_name(x, problems)
        dup = [x for x, n in Counter(pts).items() if n > 1]
        if dup:
            problems.append(f"duplicate points: {sorted(dup)}")
        index = {x: i for i, x in enumerate(pts)}

        # a point's index is its rank in name order, so sorted index
        # triples sort the way the sorted name triples would
        triples: list[tuple[int, int, int]] = []
        for ln in lines:
            ln = tuple(ln)
            if len(set(ln)) != 3:
                problems.append(f"line is not a 3-set: {ln}")
                continue
            missing = [x for x in ln if x not in index]
            if missing:
                problems.append(f"line {tuple(sorted(ln))} uses unknown points {missing}")
                continue
            triples.append(tuple(sorted(index[x] for x in ln)))
        dup_lines = [tuple(pts[i] for i in t) for t, n in Counter(triples).items() if n > 1]
        if dup_lines:
            problems.append(f"duplicate lines: {sorted(dup_lines)}")
        self._incidence(tuple(pts), tuple(sorted(set(triples))), problems)

    @classmethod
    def _from_triples(cls, points: tuple[str, ...], line_sets) -> "Psts":
        """A structure straight from index triples, for callers whose
        triples are sorted, distinct and of three points each by
        construction; ``_incidence`` still finds every pair on two lines."""
        s = cls.__new__(cls)
        s._incidence(points, line_sets, [])
        return s

    def _incidence(self, points: tuple[str, ...], line_sets, problems: list[str]) -> None:
        """The index-level core of both constructors.

        ``points`` are the names in sorted order and ``line_sets`` a sorted
        tuple of distinct sorted index triples of three points each.  Adds
        a problem for each pair of points on two lines, and raises
        ``PstsError`` if any problem is known; else the structure holds
        ``points`` and ``line_sets`` themselves, no copy."""
        n = len(points)
        on_lines = set()  # each pair {i, j}, i < j, of points on a line, as i * n + j
        for i, j, k in line_sets:
            on_lines.update((i * n + j, i * n + k, j * n + k))
        if len(on_lines) < 3 * len(line_sets):
            # a pair {x, y} on two lines: y ends two of x's partner pairs;
            # each end reports the pair, so both orders are listed
            for x, pairs in enumerate(_partners(n, line_sets)):
                thirds: dict[int, list[int]] = {}
                for j, k in pairs:
                    thirds.setdefault(j, []).append(k)
                    thirds.setdefault(k, []).append(j)
                for y, ts in thirds.items():
                    ts.sort()
                    for lo, hi in zip(ts, ts[1:]):
                        problems.append(
                            f"points {points[x]}, {points[y]} lie on two lines "
                            f"(third points {points[lo]} and {points[hi]})"
                        )
        if problems:
            raise PstsError(sorted(set(problems)))
        self.points = points
        self.line_sets = line_sets
        self._partners = None
        self._third = None
        self._pasch = None
        self._free_k5 = None
        self._refined = None

    @property
    def lines(self) -> tuple[tuple[str, str, str], ...]:
        """The lines as sorted name triples, in ``line_sets`` order."""
        pts = self.points
        return tuple((pts[i], pts[j], pts[k]) for i, j, k in self.line_sets)

    @property
    def partners(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The line partners of the class docstring, listed on first use."""
        if self._partners is None:
            self._partners = _partners(len(self.points), self.line_sets)
        return self._partners

    @property
    def third(self) -> tuple[dict[int, int], ...]:
        """The third-point table of the class docstring, built from
        ``partners`` on first use."""
        if self._third is None:
            tables = []
            for pairs in self.partners:
                t = {}
                for j, k in pairs:
                    t[j], t[k] = k, j
                tables.append(t)
            self._third = tuple(tables)
        return self._third

    @property
    def pasch(self) -> tuple[int, ...]:
        """The Pasch counts of the class docstring, counted on first use."""
        return self._local_counts()[0]

    @property
    def triangles(self) -> tuple[int, ...]:
        """The triangle counts of the class docstring, counted on first use."""
        return self._local_counts()[1]

    def _local_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The Pasch and the triangle counts, in one pass over ``third``.

        A point lies on two lines of each Pasch configuration through it,
        and two lines {i, y, z}, {i, u, v} lie in two of them at most: one
        with lines {w, y, u}, {w, z, v} for some w, the other with
        {w, y, v}, {w, z, u}.  The same two lines hold the triangles
        through i whose third side joins y or z to u or v.  So the work is
        O(deg^2) per point."""
        if self._pasch is None:
            third = self.third
            pasch, triangles = [], []
            for pairs in self.partners:
                n = t = 0
                for (y, z), (u, v) in combinations(pairs, 2):
                    ty, tz = third[y], third[z]
                    # the third points of the lines yu, yv, zu and zv, if any
                    yu, yv, zu, zv = ty.get(u), ty.get(v), tz.get(u), tz.get(v)
                    if yu is not None:
                        t += 1
                        n += yu == zv
                    if yv is not None:
                        t += 1
                        n += yv == zu
                    t += (zu is not None) + (zv is not None)
                pasch.append(n)
                triangles.append(t)
            self._pasch = (tuple(pasch), tuple(triangles))
        return self._pasch

    @property
    def free_k5(self) -> tuple[tuple[int, ...], ...]:
        """The free K5 subgraphs of the class docstring, searched on first use."""
        if self._free_k5 is None:
            self._free_k5 = _free_cliques(self, 5)
        return self._free_k5

    def carry_free_k5(self, source: "Psts", m: tuple[int, ...]) -> None:
        """Take ``free_k5`` from ``source`` along ``m``, entry i the index
        here of source point i, which the caller has checked is an
        isomorphism: the images, sorted as a search lists them.  Subgraphs
        already known stay."""
        if self._free_k5 is None:
            self._free_k5 = tuple(sorted(tuple(sorted(m[i] for i in c)) for c in source.free_k5))

    @property
    def refined(self) -> dict:
        """The memo of the class docstring, made on first use."""
        if self._refined is None:
            self._refined = {}
        return self._refined

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Psts)
            and self.points == other.points
            and self.line_sets == other.line_sets
        )

    def __hash__(self) -> int:
        return hash((self.points, self.line_sets))

    def __repr__(self) -> str:
        return f"Psts({len(self.points)} points, {len(self.line_sets)} lines)"


def _partners(n: int, line_sets) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each of n points' line partners: one (j, k) pair per line {i, j, k}
    through point i.  Sorted triples list each point's pairs in order
    already: two lines through a point share no other point."""
    partners: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, k in line_sets:
        partners[i].append((j, k))
        partners[j].append((i, k))
        partners[k].append((i, j))
    return tuple(map(tuple, partners))


def validate_configuration(s: Psts, point_degree: int) -> bool:
    """True when every point lies on exactly ``point_degree`` lines,
    counted from the lines, so validating lists no partners; every line
    has three points by construction."""
    degree = [0] * len(s.points)
    for i, j, k in s.line_sets:
        degree[i] += 1
        degree[j] += 1
        degree[k] += 1
    return degree.count(point_degree) == len(degree)


def _free_cliques(s: Psts, n: int) -> tuple[tuple[int, ...], ...]:
    """All n-point sets that are pairwise collinear with no line of the
    structure containing three of them, as increasing index tuples in
    lexicographic order.

    Sets grow over common neighbours in index order, held as int bitmasks:
    each added point cuts the candidates to its own later line partners,
    minus the third points of its lines to chosen points, and a branch ends
    once it cannot reach n points, so work follows degree, not point count.
    """
    if n < 0:
        raise ValueError(f"subgraph size must be nonnegative, got {n}")
    partners = s.partners
    found: list[tuple[int, ...]] = []

    def grow(chosen: tuple[int, ...], mask: int, cands: int) -> None:
        # mask: the chosen points; cands: points after every chosen one,
        # collinear with all of them and on no line through two of them
        if len(chosen) == n:
            found.append(chosen)
            return
        while len(chosen) + cands.bit_count() >= n:
            low = cands & -cands
            cands ^= low
            x = low.bit_length() - 1
            # a line through x and a chosen point rules out its third point
            nxt = 0
            for j, k in partners[x]:
                line = (1 << j) | (1 << k)
                if not line & mask:
                    nxt |= line
            grow(chosen + (x,), mask | low, nxt & cands)

    grow((), 0, (1 << len(s.points)) - 1)
    return tuple(found)


def to_text(s: Psts) -> str:
    """Serialize:  header 'psts <points> <lines>', then the point names on
    one line, then one line of the structure per text line."""
    rows = [f"psts {len(s.points)} {len(s.line_sets)}", " ".join(s.points)]
    rows.extend(" ".join(ln) for ln in s.lines)
    return "\n".join(rows) + "\n"


def from_text(text: str) -> Psts:
    """Inverse of ``to_text``.  Raises PstsError on malformed input."""
    rows = [r for r in (row.strip() for row in text.splitlines()) if r]
    if not rows:
        raise PstsError(["empty input"])
    head = rows[0].split()
    if len(head) != 3 or head[0] != "psts" or not all(h.isascii() and h.isdecimal() for h in head[1:]):
        raise PstsError([f"bad header {rows[0]!r} (expected 'psts <points> <lines>')"])
    np_, nl = int(head[1]), int(head[2])
    if np_ == 0 and len(rows) == 1 + nl:
        rows.insert(1, "")  # the blank points row of no points, dropped above
    if len(rows) == 1:
        raise PstsError([f"no points row after the header {rows[0]!r}"])
    if len(rows) != 2 + nl:
        raise PstsError([f"expected {nl} line rows after the points row, got {len(rows) - 2}"])
    points = rows[1].split()
    if len(points) != np_:
        raise PstsError([f"header promises {np_} points, names row has {len(points)}"])
    lines = []
    for row in rows[2:]:
        names = row.split()
        if len(names) != 3:
            raise PstsError([f"line row needs 3 names: {row!r}"])
        lines.append(tuple(names))
    return Psts(points, lines)
