"""Exact isomorphism machinery for small partial Steiner triple systems.

Three layers, all deterministic:

* ``_canonical_search``   a complete relabeling invariant, computed by
                          individualization-refinement backtracking; equal
                          keys if and only if isomorphic.  The labeling
                          that gives the key, with the group, gives each
                          point's orbit its least label (``orbit_label``):
                          an isomorphism between two structures with equal
                          keys maps x onto y exactly when the labels agree.
                          It refines each node in full rounds, from the
                          free-K5 seed at the root,
* ``automorphism_group``  generators and exact order, read from one run of
                          the same search: the automorphisms it finds
                          generate the group, and the orbits of its first
                          path under them multiply to the order and thin
                          them to generators, without listing the group,
* ``find_isomorphism``    explicit witness search (optionally pinning one
                          point pair), sound and complete; this is the
                          ground-truth oracle the algebraic criteria are
                          audited against.  It seeds its refinement with
                          per-point Pasch and triangle counts, not the
                          canonical search's free-K5 counts, and refines in
                          full rounds of its own, once per structure and
                          fixed point.  It first compares the certificates
                          of that refinement: unequal ones refute a pair
                          without a search, and equal ones leave cells so
                          small that the search rarely backtracks.  The
                          search is iterative and checks each candidate
                          against its line partners only; a point with a
                          line partner placed before it draws its
                          candidates from the line partners of that
                          partner's image.  So it has no depth limit, and
                          its candidates, like its check, follow point
                          degree, not point count.

The two searches share no seed and no refinement.  They share the ``Psts``
core, the colour ranking and pair pack, and ``_is_isomorphism``, the one
line check of every map either one returns.

Everything here reads structures as incidence data on point indices and
never reads a point name.  Maps cross the boundary as index tuples, entry i
the image of point i, and fixed points as index pairs; the CLI names them
when it prints.  The family criteria these oracles are audited against
live beside the spec, in ``perspective``; this module imports nothing from
the package but ``psts``.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from typing import NamedTuple

from .psts import Psts


class OracleInconsistencyError(RuntimeError):
    """The two independent isomorphism deciders disagreed; this is an
    internal bug, never a reportable finding."""


def _seed_colors(s: Psts) -> tuple[tuple[int, int], ...]:
    """(degree, free-K5 membership count) of each point: the canonical
    search's isomorphism-invariant seed coloring.  The witness search
    seeds from ``_pasch_seed`` instead."""
    k5 = [0] * len(s.points)
    for clique in s.free_k5:
        for i in clique:
            k5[i] += 1
    return tuple((len(p), c) for p, c in zip(s.partners, k5))


def _pack_shift(bound: int) -> int:
    """Bits per colour when a pair of colours below ``bound`` is packed
    into one int as (lo << shift) | hi: enough that the pack is injective
    and orders packs as it orders the pairs."""
    return max(10, bound.bit_length())


def _signatures(s: Psts, colors: list[int], shift: int) -> list[tuple]:
    # line partners packed as (lo << shift) | hi: cheap flat int tuples
    sigs = []
    for i, partners in enumerate(s.partners):
        part = sorted(
            (colors[j] << shift) | colors[k]
            if colors[j] <= colors[k]
            else (colors[k] << shift) | colors[j]
            for j, k in partners
        )
        sigs.append((colors[i], *part))
    return sigs


def _refine(s: Psts, colors: list[int]) -> list[int]:
    """Full rounds of colour refinement from dense ``colors`` (every value
    in 0..max used): each round gives every point the dense rank of (its
    colour, the sorted packed colours of its line partners), until nothing
    changes.  A point alone in its cell is signed by its colour only: no
    other signature starts with that colour, so its rank is the same."""
    partners = s.partners
    shift = _pack_shift(len(colors))
    while True:
        size = [0] * len(colors)
        for c in colors:
            size[c] += 1
        sigs: list[tuple] = []
        for i, c in enumerate(colors):
            if size[c] == 1:
                sigs.append((c,))
                continue
            part = []
            for j, k in partners[i]:
                a, b = colors[j], colors[k]
                part.append((a << shift) | b if a <= b else (b << shift) | a)
            part.sort()
            sigs.append((c, *part))
        refined = _rank_raw(sigs)
        if refined == colors:
            return colors
        colors = refined


def _rank_raw(raw: list[tuple]) -> list[int]:
    rank = {t: r for r, t in enumerate(sorted(set(raw)))}
    return [rank[t] for t in raw]


class CanonicalKey(NamedTuple):
    """Totally ordered complete invariant.  ``encoding`` is the least
    incidence relabeling found; the digest is a stable short display form."""

    point_count: int
    line_count: int
    encoding: tuple

    @property
    def digest(self) -> str:
        # CPython's own SHA-256 module, which hashlib falls back to without
        # OpenSSL; the digest is the same and no command loads OpenSSL
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256

        return sha256(repr((self.point_count, self.line_count, self.encoding)).encode()).hexdigest()[:12]

    def __str__(self) -> str:
        return self.digest


def _encode_leaf(s: Psts, colors: list[int]) -> tuple:
    """The lines under a discrete colouring, as sorted colour triples."""
    triples = []
    for i, j, k in s.line_sets:
        a, b, c = colors[i], colors[j], colors[k]
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        triples.append((a, b, c))
    triples.sort()
    return tuple(triples)


def _is_isomorphism(x: Psts, y: Psts, m: Sequence[int]) -> bool:
    """Whether ``m`` (entry i the image of point i) is a bijection onto
    ``range(len(y.points))`` carrying the lines of x exactly onto y's.

    A bijection maps distinct lines to distinct triples, so with equal line
    counts it is an isomorphism exactly when every image triple, ordered by
    compare-swaps, is a line of y."""
    if len(m) != len(x.points) or sorted(m) != list(range(len(y.points))):
        return False
    lines = set(y.line_sets)
    if len(lines) != len(x.line_sets):
        return False
    for i, j, k in x.line_sets:
        a, b, c = m[i], m[j], m[k]
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        if (a, b, c) not in lines:
            return False
    return True


class _Canonicalizer:
    """One individualization-refinement search over a structure.

    Leaves with equal encodings compose to automorphisms, which prune
    the children of later nodes.  The search explores every child that
    no automorphism found so far maps onto an explored sibling, so the
    automorphisms it finds generate the whole group: any automorphism h
    carries the first leaf onto a leaf with its encoding; found
    automorphisms carry that leaf, one pruned branch at a time, onto an
    explored one, whose automorphism then makes h a product of found
    ones."""

    def __init__(self, s: Psts):
        self.s = s
        self.n = len(s.points)
        self.best: tuple | None = None
        self.first_leaf: dict[tuple, list[int]] = {}
        self.auts: list[tuple[int, ...]] = []
        self.first_path: tuple[int, ...] | None = None

    def run(self) -> tuple:
        """Depth-first over the search tree, with an explicit stack of
        (colors, path, rest of the target cell, explored children)."""
        stack: list[tuple] = []
        self._visit(_rank_raw(_seed_colors(self.s)), (), stack)
        while stack:
            colors, path, children, explored = stack[-1]
            for x in children:
                if not self._pruned(x, explored, path):
                    explored.append(x)
                    child = list(colors)
                    # a fresh colour just above the others keeps them dense
                    child[x] = max(colors) + 1
                    self._visit(child, path + (x,), stack)
                    break
            else:
                stack.pop()
        assert self.best is not None
        return self.best

    def _visit(self, colors: list[int], path: tuple[int, ...], stack: list[tuple]) -> None:
        colors = _refine(self.s, colors)
        sizes = [0] * self.n
        for c in colors:
            sizes[c] += 1
        largest = max(sizes, default=1)
        if largest == 1:
            if self.first_path is None:
                self.first_path = path
            self._leaf(colors)
        else:
            # the first of the largest cells, in colour order
            target = sizes.index(largest)
            children = [i for i, c in enumerate(colors) if c == target]
            stack.append((colors, path, iter(children), []))

    def _leaf(self, colors: list[int]) -> None:
        enc = _encode_leaf(self.s, colors)
        seen = self.first_leaf.get(enc)
        if seen is None:
            self.first_leaf[enc] = colors
        else:
            # two labelings with one encoding compose to an automorphism
            inv = [0] * self.n
            for i, c in enumerate(seen):
                inv[c] = i
            g = tuple(inv[colors[i]] for i in range(self.n))
            if _is_isomorphism(self.s, self.s, g):
                self.auts.append(g)
        if self.best is None or enc < self.best:
            self.best = enc

    def _pruned(self, x: int, explored: list[int], path: tuple[int, ...]) -> bool:
        # x is pruned when its orbit meets an explored sibling, under the
        # found automorphisms that fix every individualized point so far:
        # only those are guaranteed to permute the current cell structure
        if not explored:
            return False
        usable = [g for g in self.auts if all(g[v] == v for v in path)]
        return not _orbit(x, usable).isdisjoint(explored)


def _orbit(x: int, gens: Sequence[tuple[int, ...]]) -> set[int]:
    """The orbit of point x under the group that ``gens`` generate."""
    orbit, frontier = {x}, [x]
    for i in frontier:
        for g in gens:
            j = g[i]
            if j not in orbit:
                orbit.add(j)
                frontier.append(j)
    return orbit


def _first_path_orbits(
    path: tuple[int, ...], found: Sequence[tuple[int, ...]]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Generators and order of the group that a search's ``found``
    automorphisms generate, from the orbits along its first ``path``
    (McKay, "Practical graph isomorphism", 1981).

    Two leaves of one node refine its colouring in colour order, so the
    automorphisms found under the first-path node with prefix P fix P,
    and by ``_Canonicalizer``'s argument applied to that subtree they
    generate the stabilizer of P.  The orbit of the next path point under
    the found automorphisms fixing P is then that stabilizer's orbit, and
    the discrete first leaf makes the stabilizer of the whole path
    trivial: the order is the product of the orbit sizes.  Deepest level
    first, each level keeps the first of those automorphisms that maps
    the orbit under the kept ones outside itself, until none does; so no
    kept one lies in the group of those kept before it."""
    kept: list[tuple[int, ...]] = []
    order = 1
    for level in range(len(path) - 1, -1, -1):
        usable = [g for g in found if all(g[v] == v for v in path[:level])]
        while True:
            orbit = _orbit(path[level], kept)
            g = next((g for g in usable if any(g[i] not in orbit for i in orbit)), None)
            if g is None:
                break
            kept.append(g)
        order *= len(orbit)
    return tuple(kept), order


def _canonical_search(
    s: Psts,
) -> tuple[CanonicalKey, tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """The canonical key of ``s``, totally ordered and stable across runs;
    generators, as index tuples, and order of its automorphism group, both
    from the automorphisms its search found; and the canonical labeling,
    entry i the label of point i in the least encoding, which carries
    ``s`` onto the structure that the key encodes."""
    c = _Canonicalizer(s)
    key = CanonicalKey(len(s.points), len(s.line_sets), c.run())
    return (key, *_first_path_orbits(c.first_path, c.auts), tuple(c.first_leaf[key.encoding]))


def orbit_label(labeling: Sequence[int], gens: Sequence[tuple[int, ...]], x: int) -> int:
    """The least canonical label on the orbit of point x under the group
    that ``gens`` generate, from one search's labeling and generators.

    Two structures with equal keys have labelings onto one structure C,
    and the labeling carries each orbit onto an orbit of C's group.  So
    an isomorphism maps x onto y exactly when their keys and orbit labels
    are equal (McKay & Piperno, "Practical graph isomorphism II", 2014)."""
    return min(labeling[i] for i in _orbit(x, gens))


def automorphism_group(s: Psts) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Generators, as index tuples, and exact order of the automorphism
    group, both read from one run of the canonical search by
    ``_first_path_orbits``.  Nothing enumerates the group."""
    return _canonical_search(s)[1:3]


# ---------------------------------------------------------------------------
# witness search


def _pasch_seed(s: Psts, fix: int | None) -> list[tuple[int, int, int, bool]]:
    """(degree, Pasch count, triangle count, is the fixed point) of each
    point: the witness search's seed colouring, which shares nothing with
    ``_seed_colors``.  Both counts come from one pass over ``Psts.third``
    (``Psts.pasch`` and ``Psts.triangles``)."""
    return [
        (len(p), c, t, i == fix)
        for i, (p, c, t) in enumerate(zip(s.partners, s.pasch, s.triangles))
    ]


def _refined(s: Psts, fix: int | None) -> tuple[int, tuple[int, ...]]:
    """The witness search's certificate of ``s`` with point ``fix``
    fixed, and its stable colours, memoized in ``s.refined``.

    Full rounds from the dense ranks of the ``_pasch_seed`` give every
    point the dense rank of its ``_signatures`` until no colour changes.
    The seed's triangle counts split cells that degree and Pasch counts
    leave tied: over the 1,440 census perspectives, with and without the
    center fixed, three refinements in four end with no cell of more than
    two points.
    The certificate hashes the sorted seed and every round's sorted
    signatures, the stable round included: ints and bools only, so it is
    the same in every process.  While two structures of one size agree
    round by round, ranks over both are ranks over either, so joint
    refinement of the pair refutes it exactly when the certificates
    differ, and otherwise ends on these colours (Grohe, Kersting, Mladenov
    & Schweitzer, "Color Refinement and its Applications", 2017).  A hash
    collision only costs a search, whose leaf check verifies every map and
    its fixed point."""
    found = s.refined.get(fix)
    if found is None:
        seed = _pasch_seed(s, fix)
        cert = hash(tuple(sorted(seed)))
        colors = _rank_raw(seed)
        shift = _pack_shift(len(colors))
        while True:
            sigs = _signatures(s, colors, shift)
            cert = hash((cert, tuple(sorted(sigs))))
            refined = _rank_raw(sigs)
            if refined == colors:
                break
            colors = refined
        found = s.refined[fix] = (cert, tuple(colors))
    return found


def certificates_differ(x: Psts, y: Psts, fix: tuple[int, int] | None = None) -> bool:
    """Whether the certificates of x and y, with the points of fix = (px,
    py) fixed, differ: then no isomorphism maps x onto y with f(px) = py.
    ``_search`` asks this first, before it places a point."""
    px, py = fix or (None, None)
    return _refined(x, px)[0] != _refined(y, py)[0]


def _search(x: Psts, y: Psts, fix: tuple[int, int] | None):
    """Backtracking isomorphism search; yields mappings as index tuples.

    Unequal certificates of the refinement from the (degree, Pasch count,
    triangle count, fix flag) seed refute most non-isomorphic pairs before
    any point is placed (Colbourn & Rosa, *Triple Systems*, 1999, on Pasch
    configurations as the local invariant of triple systems).  Equal ones
    hand over each side's stable colours, which are the ranks a joint
    refinement of the pair would give, and candidates come from equal
    colours.  The depth-first search is iterative, with an explicit
    candidate cursor per depth, so it has no depth limit: any input size
    runs without touching the recursion limit.  Candidates are tried in a
    fixed order, which makes the sequence of yielded maps deterministic,
    and ``_is_isomorphism`` checks each complete map, and that it maps px
    onto py, before it is yielded.

    A point with a line partner placed before it is anchored at the one
    placed first, and takes as candidates the line partners of its
    anchor's image that share its colour, in index order, worked out each
    time the search enters its depth afresh.  They include every point of
    the cell that ``ok()`` would accept, in cell order, so the search tree
    and the yielded maps are those of a scan of the whole cell (Cordella,
    Foggia, Sansone & Vento, "A (sub)graph isomorphism algorithm for
    matching large graphs", 2004, restrict candidates to neighbours of the
    mapped set the same way)."""
    n = len(x.points)
    if n != len(y.points) or len(x.line_sets) != len(y.line_sets):
        return
    if certificates_differ(x, y, fix):
        return
    px, py = fix or (None, None)
    cx, cy = _refined(x, px)[1], _refined(y, py)[1]

    by_color: dict[int, list[int]] = {}
    for j, c in enumerate(cy):
        by_color.setdefault(c, []).append(j)

    mapping = [-1] * n
    inverse = [-1] * n

    partners_x = x.partners
    third_x, third_y = x.third, y.third

    def ok(i: int, j: int) -> bool:
        # Only line partners can conflict.  For each line {i, a, b} of x the
        # mapped ends must lie on the line of y through j; for each line
        # {j, c, d} of y a used end must be the image of a point collinear
        # with i.  This is the verdict of a scan over every mapped point.
        third_j = third_y[j]
        for a, b in partners_x[i]:
            ma, mb = mapping[a], mapping[b]
            if ma == -1:
                if mb == -1:
                    continue
                ma, mb = mb, ma
            t = third_j.get(ma)
            if t is None or (t != mb if mb != -1 else inverse[t] != -1):
                return False
        third_i = third_x[i]
        for c in third_j:
            ic = inverse[c]
            if ic != -1 and ic not in third_i:
                return False
        return True

    # static smallest-cell-first order: refinement leaves most cells tiny,
    # and a cell is narrowed by its points' anchors below
    order = sorted(range(n), key=lambda i: (len(by_color.get(cx[i], ())), cx[i], i))
    cands = [by_color.get(cx[i], ()) for i in order]  # reset on entry where anchored
    # each depth's anchor: its point's line partner placed first, if any is before it
    position = [n] * n  # the depth of each point placed so far
    anchor = [-1] * n
    for d, i in enumerate(order):
        a = min((p for pair in partners_x[i] for p in pair), key=position.__getitem__, default=-1)
        if a != -1 and position[a] < d:
            anchor[d] = a
        position[i] = d
    cursor = [0] * n  # next candidate to try at each depth
    depth = 0
    while depth >= 0:
        if depth == n:
            if _is_isomorphism(x, y, mapping) and (px is None or mapping[px] == py):
                yield tuple(mapping)
            depth -= 1
            continue
        i = order[depth]
        j = mapping[i]
        if j != -1:  # back from the subtree below: undo, then try the next
            mapping[i] = inverse[j] = -1
        elif anchor[depth] != -1:  # entered fresh: the anchor's image is placed
            c = cx[i]
            cands[depth] = sorted(k for k in third_y[mapping[anchor[depth]]] if cy[k] == c)
        cs = cands[depth]
        for k in range(cursor[depth], len(cs)):
            j = cs[k]
            if inverse[j] == -1 and ok(i, j):
                cursor[depth] = k + 1
                mapping[i], inverse[j] = j, i
                depth += 1
                break
        else:
            cursor[depth] = 0
            depth -= 1


def find_isomorphism(x: Psts, y: Psts, fix: tuple[int, int] | None = None) -> tuple[int, ...] | None:
    """First isomorphism of x onto y under a fixed deterministic search
    order, as an index tuple (entry i the image of point i), honoring the
    optional constraint fix = (px, py) of point indices, meaning f(px) =
    py.  Unequal certificates refute the pair before a point is placed.
    Returns None exactly when no such isomorphism exists."""
    for m in _search(x, y, fix):
        return m
    return None
