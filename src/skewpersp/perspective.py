"""Skew perspectives between two tetrahedra.

Given a skew delta (a bijection of the six pairs) and an axis labeling N,
the perspective is the 15-point structure on

    {p}  ∪  {a1..a4}  ∪  {b1..b4}  ∪  {c12..c34}

with 20 lines: the four axis lines of N over the c-points, the six A-side
joins {a_i, a_j, c_ij}, the six B-side joins {b_i, b_j, c_u} with
u = delta^-1({i,j}), and the four center lines {p, a_i, b_i}.

Two skew families are in scope.  PERM takes delta = extend(sigma); the
B-side then mirrors the A-side through sigma.  PERM_KAPPA ("boolean
complementing") takes delta = extend(phi) composed with the complement
involution, which is what kills all free K5 subgraphs beyond the two
tetrahedra A* and B*.

``build`` returns the bare structure, on one frame of 15 sorted point
names that every perspective shares; a point's role (center, A_i, B_i or
C_u) is its name, spelled out in ``ROLE_LABELS``.

The closed-form criteria of the two families (Prop. 3.2 and 4.5) live
here too, phrased over S4 and the axis and solved for the second spec:
``image_ids`` lists the 48 specs one spec is related to, as integer spec
ids read from a small table of the S4 action and ``veblen.action_table``.
In the plain family those are exactly the specs a center-fixing
isomorphism reaches, in the boolean-complementing family (where every
isomorphism fixes the center) exactly the isomorphic ones.
``image_perm`` spells out the isomorphism onto an image as a permutation
of the frame's indices, the form ``iso._is_isomorphism`` checks.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from typing import NamedTuple

from .indices import (
    ALL_PERMS,
    CORRELATION,
    INDICES,
    PAIR_INDEX,
    PAIRS,
    Pair,
    Perm4,
    extend,
    parse_cycles,
    render_cycles,
)
from .psts import Psts, PstsError
from .veblen import (
    PAIR_NAMES,
    CanonicalKind,
    VeblenConfig,
    action_table,
    canonical,
    census_index,
    enumerate_labelings,
    star,
    star_triangles,
)

CENTER = "p"
A_NAMES = tuple(f"a{i}" for i in INDICES)
B_NAMES = tuple(f"b{i}" for i in INDICES)
C_NAMES = tuple(PAIR_NAMES[u] for u in PAIRS)

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


def c_name(u: Pair) -> str:
    return PAIR_NAMES[u]


class SkewFamily(Enum):
    PERM = "perm"
    PERM_KAPPA = "kappa"

    def __str__(self) -> str:
        return self.value


class _SpecFields(NamedTuple):
    family: SkewFamily
    perm: Perm4
    axis: VeblenConfig


class PerspectiveSpec(_SpecFields):
    """A skew, by its family and permutation, plus an axis labeling; the
    center carries no freedom.

    PERM carries sigma with delta = extend(sigma).  PERM_KAPPA carries phi
    with delta = extend(phi) after the complement involution; the two
    factors commute, so the order is immaterial.  Each spec computes its
    id once, on first use, so lookups by id hash no permutation or
    labeling; the cached id lives in the instance ``__dict__``, which is
    why this record, unlike the others, has no ``__slots__``.
    """

    @functools.cached_property
    def sid(self) -> int:
        """The spec's ``spec_id``, computed on first use."""
        return spec_id(self.perm, self.axis)

    def sort_key(self) -> tuple:
        # canonical-kind axes outrank census ones so representatives keep
        # their kind-name spelling whichever axis set was enumerated
        rank = _axis_rank(self.axis)
        return (self.family.value, rank[0], self.perm.images, rank)


#: The frame every perspective is built on: its 15 point names in sorted
#: order, shared by all the structures ``build`` returns, and their index.
POINTS: tuple[str, ...] = tuple(sorted((CENTER, *A_NAMES, *B_NAMES, *C_NAMES)))
_INDEX = {x: i for i, x in enumerate(POINTS)}
CENTER_INDEX = _INDEX[CENTER]  # where every map between perspectives reads the center
_A = tuple(_INDEX[x] for x in A_NAMES)  # a_i at position i - 1
_B = tuple(_INDEX[x] for x in B_NAMES)
_C = tuple(_INDEX[c_name(u)] for u in PAIRS)  # by position in PAIRS
_B_ENDS = tuple((_INDEX[b_name(u.lo)], _INDEX[b_name(u.hi)]) for u in PAIRS)
#: the six A-side joins and the four center lines, the same in every perspective
_FIXED_LINES = tuple(
    tuple(sorted(_INDEX[x] for x in ln))
    for ln in [
        *((a_name(u.lo), a_name(u.hi), c_name(u)) for u in PAIRS),
        *((CENTER, a_name(i), b_name(i)) for i in INDICES),
    ]
)
#: A* and B*, and the G_(i) of ``predicted_free_k5`` at position i - 1
_TETRAHEDRA = tuple(tuple(sorted((CENTER_INDEX, *side))) for side in (_A, _B))
_G = tuple(
    tuple(sorted((_A[i - 1], _B[i - 1], *(_C[PAIR_INDEX[u]] for u in star(i)))))
    for i in INDICES
)


def build(spec: PerspectiveSpec) -> Psts:
    """Construct the perspective on the frame ``POINTS``: sorted index
    triples straight from the pair algebra, the B-side join of u meeting
    the axis in c_delta^-1(u).  The result is always a (15_4 20_3)
    configuration for a valid spec.  Lines are checked at index level,
    three distinct points each and no pair on two of them, so a corrupted
    axis surfaces as a PstsError."""
    lines = sorted((*_FIXED_LINES, *_axis_triples(spec.axis), *_join_triples(spec.family, spec.perm)))
    return Psts._from_triples(POINTS, tuple(lines))


@functools.cache
def _axis_triples(axis: VeblenConfig) -> tuple[tuple[int, ...], ...]:
    """The axis lines of ``build``, as index triples: memoized, as only 30
    labelings exist."""
    triples = []
    for ln in axis.lines:
        t = tuple(sorted(_C[PAIR_INDEX[u]] for u in ln))
        if len(set(t)) != 3:
            raise PstsError([f"axis line is not a 3-set of pairs: {sorted(map(str, ln))}"])
        triples.append(t)
    return tuple(triples)


@functools.cache
def _join_triples(family: SkewFamily, perm: Perm4) -> tuple[tuple[int, ...], ...]:
    """The six B-side joins of ``build``, as index triples: memoized, as
    they depend on the family and the permutation only, 48 skews."""
    delta = extend(perm)
    if family is SkewFamily.PERM_KAPPA:
        delta = delta.compose(CORRELATION)
    return tuple(
        tuple(sorted((lo, hi, _C[u]))) for (lo, hi), u in zip(_B_ENDS, delta.inverse().images)
    )


def predicted_free_k5(spec: PerspectiveSpec) -> tuple[tuple[int, ...], ...]:
    """The closed-form ``Psts.free_k5`` of the built structure.

    Both tetrahedra extend through the center: A* and B* are always free.
    PERM skews add G_(i) = {a_i, b_i} ∪ {c_u : u in S(i)} for every i that
    sigma fixes whose star is a star-triangle of the axis.  PERM_KAPPA
    skews never add anything.  Must agree with the exhaustive clique oracle
    on every spec; the audit checks exactly that.
    """
    cliques = list(_TETRAHEDRA)
    if spec.family is SkewFamily.PERM:
        triangles = star_triangles(spec.axis)
        cliques += (_G[i - 1] for i in spec.perm.fixed_points() if i in triangles)
    return tuple(sorted(cliques))


# ---------------------------------------------------------------------------
# family criteria


class IsoCase(Enum):
    A = "A"
    B = "B"


#: The (phi, case) of each family image, in the order ``image_ids`` lists
#: them: case A first, phi in ``ALL_PERMS`` order.
IMAGE_WITNESSES: tuple[tuple[Perm4, IsoCase], ...] = tuple(
    (phi, case) for case in IsoCase for phi in ALL_PERMS
)


class _FamilyTables:
    """A spec's id is ``perm * n_axes + axis``: its permutation's index in
    ``ALL_PERMS`` and its axis's census position.  ``conj[phi][sigma]`` is
    phi sigma phi^-1, ``comp[phi][sigma]`` phi sigma, ``inv[sigma]`` sigma^-1."""

    def __init__(self) -> None:
        self.n_axes = len(enumerate_labelings())
        self.perm_index = perm = {phi: k for k, phi in enumerate(ALL_PERMS)}
        self.conj = tuple(tuple(perm[s.conjugate_by(phi)] for s in ALL_PERMS) for phi in ALL_PERMS)
        self.comp = tuple(tuple(perm[phi.compose(s)] for s in ALL_PERMS) for phi in ALL_PERMS)
        self.inv = tuple(perm[s.inverse()] for s in ALL_PERMS)


@functools.cache
def _family_tables() -> _FamilyTables:
    # built on first use, so importing the package stays cheap
    return _FamilyTables()


def spec_id(perm: Perm4, axis: VeblenConfig) -> int:
    """The integer id of the spec with skew permutation ``perm`` over
    ``axis``, in either family."""
    t = _family_tables()
    return t.perm_index[perm] * t.n_axes + census_index()[axis]


def image_ids(family: SkewFamily, sid: int) -> list[int]:
    """The ids of the 48 specs the family criteria relate to the spec with
    id ``sid`` in ``family``, in the order of ``IMAGE_WITNESSES``.

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
    boolean-complementing family.  The first (phi, case) whose image is a
    given spec is the first witness of a scan over S4.
    """
    t, act = _family_tables(), action_table()
    n = t.n_axes
    sigma, axis = divmod(sid, n)
    sigma_inv = t.inv[sigma]
    ids = [conj[sigma] * n + row[axis] for conj, row in zip(t.conj, act)]
    rows = act[24:] if family is SkewFamily.PERM_KAPPA else act
    ids += [conj[sigma_inv] * n + rows[comp[sigma]][axis] for conj, comp in zip(t.conj, t.comp)]
    return ids


def image_perm(s: PerspectiveSpec, phi: Perm4, case: IsoCase) -> tuple[int, ...]:
    """The point map that carries the structure of ``s`` onto that of its
    family image under (phi, case), on the frame's indices, center fixed.

    Case A keeps the tetrahedra: a_i -> a_phi(i), b_i -> b_phi(i) and
    c_u -> c_extend(phi)(u).  Case B swaps them: a_i -> b_phi(i),
    b_i -> a_phi(i), and the c points follow extend(phi sigma), then the
    complement involution in the boolean-complementing family.  The c
    points always follow the pair map that moves the axis."""
    if case is IsoCase.A:
        a_to, b_to, pairs = _A, _B, extend(phi)
    else:
        a_to, b_to, pairs = _B, _A, extend(phi.compose(s.perm))
        if s.family is SkewFamily.PERM_KAPPA:
            pairs = pairs.compose(CORRELATION)
    m = list(range(len(POINTS)))  # every entry but the center's is set below
    for a, b, k in zip(_A, _B, phi.images):
        m[a], m[b] = a_to[k - 1], b_to[k - 1]
    for c, k in zip(_C, pairs.images):
        m[c] = _C[k]
    return tuple(m)


# ---------------------------------------------------------------------------
# spec text:  perm:<cycles>@<axis>  /  kappa:<cycles>@<axis>
#
# The axis token is a canonical kind name, or census:<index> into the sorted
# labeling census for the remaining labelings.  File-path axes are resolved
# by the caller through ``load_axis``.

_KIND_BY_NAME = {kind.value: kind for kind in CanonicalKind}
_CENSUS_TOKEN = re.compile(r"census:(\d+)$")

_KIND_RANK = {canonical(kind): (0, pos) for pos, kind in enumerate(CanonicalKind)}


def _axis_rank(axis: VeblenConfig) -> tuple:
    return _KIND_RANK.get(axis) or (1, census_index()[axis])


def axis_token(axis: VeblenConfig) -> str:
    rank = _axis_rank(axis)
    if rank[0] == 0:
        return tuple(CanonicalKind)[rank[1]].value
    return f"census:{rank[1]}"


def spec_text(spec: PerspectiveSpec) -> str:
    return (
        f"{spec.family.value}:{render_cycles(spec.perm)}"
        f"@{axis_token(spec.axis)}"
    )


def parse_spec_text(text: str, load_axis=None) -> PerspectiveSpec:
    """Parse spec text.  ``load_axis`` resolves axis tokens that are neither
    kind names nor census indices (the CLI passes a file reader); without it
    such tokens are an error."""
    fam_text, sep, rest = text.partition(":")
    fam_text = fam_text.strip()
    if not sep or fam_text not in ("perm", "kappa"):
        raise ValueError(
            f"bad spec {text!r}: expected 'perm:<cycles>@<axis>' or 'kappa:<cycles>@<axis>'"
        )
    family = SkewFamily.PERM if fam_text == "perm" else SkewFamily.PERM_KAPPA
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
            census = enumerate_labelings()
            k = int(m.group(1))
            if k >= len(census):
                raise ValueError(
                    f"census index {k} out of range 0..{len(census) - 1}"
                )
            axis = census[k]
        elif load_axis is not None:
            axis = load_axis(axis_text)
        else:
            raise ValueError(
                f"unknown axis kind {axis_text!r} "
                f"(expected one of {', '.join(_KIND_BY_NAME)} or census:<n>)"
            )
    return PerspectiveSpec(family, perm, axis)
