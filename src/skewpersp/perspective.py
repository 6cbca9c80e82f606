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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .indices import (
    CORRELATION,
    INDICES,
    PAIR_INDEX,
    PAIRS,
    Pair,
    PairMap,
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
    canonical,
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


@dataclass(frozen=True)
class Skew:
    """A pair bijection in one of the two families.

    PERM carries sigma with delta = extend(sigma).  PERM_KAPPA carries phi
    with delta = extend(phi) after the complement involution; the two
    factors commute, so the order is immaterial.
    """

    family: SkewFamily
    perm: Perm4

    def delta(self) -> PairMap:
        m = extend(self.perm)
        if self.family is SkewFamily.PERM_KAPPA:
            m = m.compose(CORRELATION)
        return m


@dataclass(frozen=True)
class PerspectiveSpec:
    """A skew plus an axis labeling; the center carries no freedom."""

    skew: Skew
    axis: VeblenConfig

    def sort_key(self) -> tuple:
        # canonical-kind axes outrank census ones so representatives keep
        # their kind-name spelling whichever axis set was enumerated
        rank = _axis_rank(self.axis)
        return (
            self.skew.family.value,
            rank[0],
            self.skew.perm.images,
            rank,
        )


#: The frame every perspective is built on: its 15 point names in sorted
#: order, shared by all the structures ``build`` returns, and their index.
POINTS: tuple[str, ...] = tuple(sorted((CENTER, *A_NAMES, *B_NAMES, *C_NAMES)))
_INDEX = {x: i for i, x in enumerate(POINTS)}
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


def build(spec: PerspectiveSpec) -> Psts:
    """Construct the perspective on the frame ``POINTS``: sorted index
    triples straight from the pair algebra, the B-side join of u meeting
    the axis in c_delta^-1(u).  The result is always a (15_4 20_3)
    configuration for a valid spec.  Lines are checked at index level,
    three distinct points each and no pair on two of them, so a corrupted
    axis surfaces as a PstsError."""
    lines = list(_FIXED_LINES)
    for ln in spec.axis.lines:
        t = tuple(sorted(_C[PAIR_INDEX[u]] for u in ln))
        if len(set(t)) != 3:
            raise PstsError([f"axis line is not a 3-set of pairs: {sorted(map(str, ln))}"])
        lines.append(t)
    dinv = spec.skew.delta().inverse()
    for (lo, hi), u in zip(_B_ENDS, dinv.images):
        lines.append(tuple(sorted((lo, hi, _C[u]))))
    return Psts._from_triples(POINTS, tuple(sorted(lines)))


def predicted_free_k5(spec: PerspectiveSpec) -> tuple[frozenset[str], ...]:
    """Closed-form list of the free K5 subgraphs of the built structure.

    Both tetrahedra extend through the center: A* and B* are always free.
    PERM skews add G_(i) = {a_i, b_i} ∪ {c_u : u in S(i)} for every i that
    sigma fixes whose star is a star-triangle of the axis.  PERM_KAPPA
    skews never add anything.  Must agree with the exhaustive clique oracle
    on every spec; the audit checks exactly that.
    """
    sets = [
        frozenset((CENTER, *A_NAMES)),
        frozenset((CENTER, *B_NAMES)),
    ]
    if spec.skew.family is SkewFamily.PERM:
        triangles = set(star_triangles(spec.axis))
        for i in spec.skew.perm.fixed_points():
            if i in triangles:
                sets.append(
                    frozenset({a_name(i), b_name(i), *(c_name(u) for u in star(i))})
                )
    return tuple(sorted(sets, key=lambda f: tuple(sorted(f))))


# ---------------------------------------------------------------------------
# spec text:  perm:<cycles>@<axis>  /  kappa:<cycles>@<axis>
#
# The axis token is a canonical kind name, or census:<index> into the sorted
# labeling census for the remaining labelings.  File-path axes are resolved
# by the caller through ``load_axis``.

_KIND_BY_NAME = {kind.value: kind for kind in CanonicalKind}
_CENSUS_TOKEN = re.compile(r"census:(\d+)$")

_axis_rank_cache: dict[VeblenConfig, tuple] = {}


def _axis_rank(axis: VeblenConfig) -> tuple:
    if not _axis_rank_cache:
        for pos, kind in enumerate(CanonicalKind):
            _axis_rank_cache[canonical(kind)] = (0, pos)
        for pos, v in enumerate(enumerate_labelings()):
            _axis_rank_cache.setdefault(v, (1, pos))
    return _axis_rank_cache[axis]


def axis_token(axis: VeblenConfig) -> str:
    rank = _axis_rank(axis)
    if rank[0] == 0:
        return tuple(CanonicalKind)[rank[1]].value
    return f"census:{rank[1]}"


def spec_text(spec: PerspectiveSpec) -> str:
    return (
        f"{spec.skew.family.value}:{render_cycles(spec.skew.perm)}"
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
    return PerspectiveSpec(Skew(family, perm), axis)
