"""Skew perspectives between two tetrahedra.

Given a skew delta (a bijection of the six pairs) and an axis labeling N,
the perspective is the 15-point structure on

    {p}  ∪  {a1..a4}  ∪  {b1..b4}  ∪  {c12..c34}

with 20 lines: the four axis lines of N over the c-points, the six A-side
joins {a_i, a_j, c_ij}, the six B-side joins {b_i, b_j, c_u} with
u = delta^-1({i,j}), and the four center lines {p, a_i, b_i}.

Two skew families are in scope, by their positions in ``FAMILIES``.  The
plain family "perm" takes delta = extend(sigma); the B-side then mirrors
the A-side through sigma.  The boolean-complementing family "kappa" takes
delta = extend(phi) composed with the complement involution, which is
what kills all free K5 subgraphs beyond the two tetrahedra A* and B*.

A spec is its position 0-1439: ``skew * 30 + axis``, where the axis is
the labeling's position in the census ``veblen.enumerate_labelings()`` and
``skew = family * 24 + perm`` is the row of ``veblen.action_table`` that
its B-side joins follow, the permutation by its position in ``ALL_PERMS``.
Only this module reads that layout: ``encode_spec`` and ``decode_spec``
turn a (family, perm, axis) into a spec and back.  ``build`` returns the
bare structure, on one frame of 15 sorted point names that every
perspective shares; a point's role (center, A_i, B_i or C_u) is its name,
spelled out in ``ROLE_LABELS``.

The closed-form criteria of the two families (Prop. 3.2 and 4.5) live
here too, phrased over S4 and the axis and solved for the second spec:
``image_ids`` lists the 48 specs one spec is related to, read from
``indices.s4_tables`` and ``veblen.action_table``.  In the plain family
those are exactly the specs a center-fixing isomorphism reaches, in the
boolean-complementing family (where every isomorphism fixes the center)
exactly the isomorphic ones.  ``image_perm`` spells out the isomorphism
onto an image as a permutation of the frame's indices, the form
``iso._is_isomorphism`` checks.
"""

from __future__ import annotations

import functools
import re

from .indices import (
    ALL_PERMS,
    CORRELATION,
    EXTEND,
    INDICES,
    PAIRS,
    fixed_points,
    parse_cycles,
    render_cycles,
    s4_tables,
)
from .psts import Psts
from .veblen import (
    PAIR_NAMES,
    CanonicalKind,
    action_table,
    canonical,
    enumerate_labelings,
    star,
    star_triangles,
)

CENTER = "p"
A_NAMES = tuple(f"a{i}" for i in INDICES)
B_NAMES = tuple(f"b{i}" for i in INDICES)
C_NAMES = PAIR_NAMES

#: the role of each point, as ``build --levi`` prints it: center, A1..A4,
#: B1..B4, C12..C34
ROLE_LABELS: dict[str, str] = {
    CENTER: "center",
    **{x: x.upper() for x in (*A_NAMES, *B_NAMES, *C_NAMES)},
}


def a_name(i: int) -> str:
    """The name of A-vertex i: one shared string, so the structures that
    hold it hold no copy."""
    return A_NAMES[i - 1]


def b_name(i: int) -> str:
    return B_NAMES[i - 1]


def c_name(u: int) -> str:
    return PAIR_NAMES[u]


#: the skew families by position: plain, then boolean-complementing
FAMILIES = ("perm", "kappa")
PERM, KAPPA = range(len(FAMILIES))
_PERMS, _AXES = len(ALL_PERMS), 30  # 30: the census size


def encode_spec(family: int, perm: int, axis: int) -> int:
    """The spec of the skew of ``family`` with permutation ``perm`` (a
    position in ``ALL_PERMS``) over ``axis`` (a census position).  The
    center carries no freedom."""
    return (family * _PERMS + perm) * _AXES + axis


def decode_spec(s: int) -> tuple[int, int, int]:
    """The (family, perm, axis) of spec ``s``."""
    skew, axis = divmod(s, _AXES)
    return (*divmod(skew, _PERMS), axis)


def sort_key(s: int) -> tuple:
    """The order of specs: by family name, then canonical-kind axes before
    census ones, so representatives keep their kind-name spelling whichever
    axis set was enumerated, then permutation and axis."""
    family, perm, axis = decode_spec(s)
    rank = _axis_rank(axis)
    return (FAMILIES[family], rank[0], perm, rank)


#: The frame every perspective is built on: its 15 point names in sorted
#: order, shared by all the structures ``build`` returns, and their index.
POINTS: tuple[str, ...] = tuple(sorted((CENTER, *A_NAMES, *B_NAMES, *C_NAMES)))
_INDEX = {x: i for i, x in enumerate(POINTS)}
CENTER_INDEX = _INDEX[CENTER]  # where every map between perspectives reads the center
_A = tuple(_INDEX[x] for x in A_NAMES)  # a_i at position i - 1
_B = tuple(_INDEX[x] for x in B_NAMES)
_C = tuple(_INDEX[x] for x in C_NAMES)  # by position in PAIRS
_B_ENDS = tuple((_INDEX[b_name(i)], _INDEX[b_name(j)]) for i, j in PAIRS)
#: the six A-side joins and the four center lines, the same in every perspective
_FIXED_LINES = tuple(
    tuple(sorted(_INDEX[x] for x in ln))
    for ln in [
        *((a_name(i), a_name(j), c_name(u)) for u, (i, j) in enumerate(PAIRS)),
        *((CENTER, a_name(i), b_name(i)) for i in INDICES),
    ]
)
#: A* and B*, and the G_(i) of ``predicted_free_k5`` at position i - 1
_TETRAHEDRA = tuple(tuple(sorted((CENTER_INDEX, *side))) for side in (_A, _B))
_G = tuple(
    tuple(sorted((_A[i - 1], _B[i - 1], *(_C[u] for u in star(i)))))
    for i in INDICES
)


def build(s: int) -> Psts:
    """Construct the perspective of spec ``s`` on the frame ``POINTS``:
    sorted index triples straight from the pair algebra, the B-side join of
    u meeting the axis in c_delta^-1(u).  The result is always a (15_4
    20_3) configuration.  Lines are checked at index level: no pair of
    points on two of them."""
    skew, axis = divmod(s, _AXES)
    lines = sorted((*_FIXED_LINES, *_axis_triples(axis), *_join_triples(skew)))
    return Psts._from_triples(POINTS, tuple(lines))


@functools.cache
def _axis_triples(axis: int) -> tuple[tuple[int, ...], ...]:
    """The axis lines of ``build``, as index triples: memoized, as only 30
    labelings exist."""
    return tuple(tuple(sorted(_C[u] for u in ln)) for ln in enumerate_labelings()[axis])


@functools.cache
def _join_triples(skew: int) -> tuple[tuple[int, ...], ...]:
    """The six B-side joins of ``build``, as index triples: memoized per
    skew, as there are 48."""
    family, perm = divmod(skew, _PERMS)
    delta = EXTEND[perm]
    if family == KAPPA:
        delta = tuple(delta[k] for k in CORRELATION)
    return tuple(
        tuple(sorted((lo, hi, _C[delta.index(u)]))) for u, (lo, hi) in enumerate(_B_ENDS)
    )


def predicted_free_k5(s: int) -> tuple[tuple[int, ...], ...]:
    """The closed-form ``Psts.free_k5`` of the structure of spec ``s``.

    Both tetrahedra extend through the center: A* and B* are always free.
    Plain skews add G_(i) = {a_i, b_i} ∪ {c_u : u in S(i)} for every i that
    sigma fixes whose star is a star-triangle of the axis.
    Boolean-complementing skews never add anything.  Must agree with the
    exhaustive clique oracle on every spec; the audit checks exactly that.
    """
    family, perm, axis = decode_spec(s)
    cliques = list(_TETRAHEDRA)
    if family == PERM:
        triangles = star_triangles(axis)
        cliques += (_G[i - 1] for i in fixed_points(perm) if i in triangles)
    return tuple(sorted(cliques))


# ---------------------------------------------------------------------------
# family criteria
#
# A witness w in range(48) names one image of a spec: case A under
# phi = w for w < 24, case B under phi = w - 24.


def image_ids(s: int) -> list[int]:
    """The 48 specs the family criteria relate to spec ``s``, all in its
    family, by witness.

    Two specs of the plain family are related by its criterion exactly
    when a center-fixing isomorphism joins their structures, and two
    specs of the boolean-complementing family exactly when any
    isomorphism does (all of them fix the center there).  The criterion
    has two cases.  Case A keeps the two tetrahedra apart: some phi in S4
    has extend(phi) carrying axis1 onto axis2 and conjugates sigma1 to
    sigma2.  Case B swaps them: phi conjugates sigma1 to sigma2's inverse
    and extend(sigma2^-1 phi) carries axis1 onto axis2, after the
    complement involution in the boolean-complementing family.

    Each case is solved here for the second spec.  For s = (sigma, N)
    and phi in S4, case A gives (phi sigma phi^-1, extend(phi) N) and
    case B gives (phi sigma^-1 phi^-1, extend(phi sigma) N), with the
    complement involution also applied to case B's axis in the
    boolean-complementing family.  The first witness whose image is a
    given spec is the first of a scan over S4.
    """
    (comp, inv, conj), act = s4_tables(), action_table()
    family, sigma, axis = decode_spec(s)
    base = encode_spec(family, 0, 0)
    sigma_inv = inv[sigma]
    ids = [base + c[sigma] * _AXES + row[axis] for c, row in zip(conj, act)]
    rows = act[_PERMS:] if family == KAPPA else act
    ids += [base + c[sigma_inv] * _AXES + rows[p[sigma]][axis] for c, p in zip(conj, comp)]
    return ids


def image_perm(s: int, w: int) -> tuple[int, ...]:
    """The point map that carries the structure of spec ``s`` onto that of
    its image under witness ``w``, on the frame's indices, center fixed.

    Case A keeps the tetrahedra: a_i -> a_phi(i), b_i -> b_phi(i) and
    c_u -> c_extend(phi)(u).  Case B swaps them: a_i -> b_phi(i),
    b_i -> a_phi(i), and the c points follow extend(phi sigma), then the
    complement involution in the boolean-complementing family.  The c
    points always follow the pair map that moves the axis."""
    case_b, phi = divmod(w, _PERMS)
    if not case_b:
        a_to, b_to, pairs = _A, _B, EXTEND[phi]
    else:
        family, sigma, _ = decode_spec(s)
        a_to, b_to, pairs = _B, _A, EXTEND[s4_tables()[0][phi][sigma]]
        if family == KAPPA:
            pairs = tuple(pairs[k] for k in CORRELATION)
    m = list(range(len(POINTS)))  # every entry but the center's is set below
    for a, b, k in zip(_A, _B, ALL_PERMS[phi]):
        m[a], m[b] = a_to[k - 1], b_to[k - 1]
    for c, k in zip(_C, pairs):
        m[c] = _C[k]
    return tuple(m)


# ---------------------------------------------------------------------------
# spec text:  perm:<cycles>@<axis>  /  kappa:<cycles>@<axis>
#
# The axis token is a canonical kind name, or census:<index> into the sorted
# labeling census for the remaining labelings.  File-path axes are resolved
# by the caller through ``load_axis``.

_KIND_BY_NAME = {kind.value: kind for kind in CanonicalKind}
_CENSUS_TOKEN = re.compile(r"census:([0-9]+)$")  # ASCII digits only, as int() reads any

_KIND_RANK = {canonical(kind): (0, pos) for pos, kind in enumerate(CanonicalKind)}


def _axis_rank(axis: int) -> tuple:
    return _KIND_RANK.get(axis) or (1, axis)


def axis_token(axis: int) -> str:
    rank = _axis_rank(axis)
    if rank[0] == 0:
        return tuple(CanonicalKind)[rank[1]].value
    return f"census:{rank[1]}"


def spec_text(s: int) -> str:
    family, perm, axis = decode_spec(s)
    return f"{FAMILIES[family]}:{render_cycles(perm)}@{axis_token(axis)}"


def parse_spec_text(text: str, load_axis=None) -> int:
    """Parse spec text to a spec.  ``load_axis`` resolves axis tokens that
    are neither kind names nor census indices (the CLI passes a file
    reader); without it such tokens are an error."""
    fam_text, sep, rest = text.partition(":")
    fam_text = fam_text.strip()
    if not sep or fam_text not in FAMILIES:
        raise ValueError(
            f"bad spec {text!r}: expected 'perm:<cycles>@<axis>' or 'kappa:<cycles>@<axis>'"
        )
    cyc_text, sep, axis_text = rest.partition("@")
    axis_text = axis_text.strip()
    if not sep or not axis_text:
        raise ValueError(f"bad spec {text!r}: missing '@<axis>'")
    perm = parse_cycles(cyc_text.strip())
    if axis_text in _KIND_BY_NAME:
        axis = canonical(_KIND_BY_NAME[axis_text])
    else:
        m = _CENSUS_TOKEN.match(axis_text)
        if m:
            axis = int(m.group(1))
            if axis >= _AXES:
                raise ValueError(f"census index {axis} out of range 0..{_AXES - 1}")
        elif load_axis is not None:
            axis = load_axis(axis_text)
        else:
            raise ValueError(
                f"unknown axis kind {axis_text!r} "
                f"(expected one of {', '.join(_KIND_BY_NAME)} or census:<n>)"
            )
    return encode_spec(FAMILIES.index(fam_text), perm, axis)
