"""Enumeration, isomorphism classes, and the published-claim audit.

The two perspective families are enumerated over a chosen axis set, built,
keyed, and partitioned into isomorphism classes.  On top of the partition
sits an audit that replays every counted or structural claim of the
published classification of these structures against the oracle layer and
emits one finding per claim: claim id, computed value, published value,
MATCH or MISMATCH verdict, and machine-checkable witnesses for every
divergence.

Published numbers are treated as expectations, never as axioms: a
divergence is reported with witnesses, not patched over.  A disagreement
between the two independent in-package oracles (canonical keys versus
explicit witness search), on the other hand, is a bug and aborts the audit
out loud.

One audit holds one structure and one record per spec, keyed by (family,
spec id) and made on first use, and one canonical search keys each
criterion orbit: the search of the first member the audit asks for.  The
record holds its key, group order and center's orbit label, which with
the key decides center-fixing isomorphism, and that searched spec.  Every
other member shares the record, and takes its free K5 subgraphs, along
the criterion's point map ``image_perm``, a permutation of the shared
frame's indices, once ``iso._is_isomorphism`` checks it as an isomorphism
that fixes the center.  Canonical-axis specs sort first, so each orbit's
searched spec lies over a canonical axis, and
``classes_beyond_canonical_axes: 0`` is backed by a checked isomorphism
onto a canonical-axis spec.  The records and structures, with their
refinement memos, go when the audit ends.

The witness search backs the key partitions once per audit: a witness onto
the representative's searched spec from each other searched spec of a
class, and one refutation per pair of class representatives, by unequal
certificates or, where they share one, by a search.  Composed with the
checked maps, these decide every pair of specs, so the class counts,
"collisions: 0" and the classes no published entry reaches do not rest on
keys alone.  The two criterion sweeps compute each spec's 48 image ids
once and compare membership with key equality on every pair.  A failed
check raises ``OracleInconsistencyError`` (exit 70).
"""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple

from .indices import (
    ALL_PERMS,
    CORRELATION,
    IDENTITY,
    correlation,
    extend,
    parse_cycles,
    render_cycles,
)
from .iso import (
    CanonicalKey,
    OracleInconsistencyError,
    _canonical_search,
    _is_isomorphism,
    _refined,
    find_isomorphism,
    orbit_label,
)
from .perspective import (
    CENTER,
    CENTER_INDEX,
    IMAGE_WITNESSES,
    POINTS,
    PerspectiveSpec,
    SkewFamily,
    a_name,
    b_name,
    build,
    c_name,
    image_ids,
    image_perm,
    predicted_free_k5,
    spec_id,
    spec_text,
)
from .psts import Psts, validate_configuration
from .veblen import (
    PAIRS,
    PARTNER,
    CanonicalKind,
    VeblenConfig,
    aut_perms,
    canonical,
    census_orbits,
    enumerate_labelings,
    lemma23_representatives,
    star_triangles,
)


def canonical_axes() -> tuple[VeblenConfig, ...]:
    return tuple(canonical(kind) for kind in CanonicalKind)


def enumerate_family(
    family: SkewFamily, axes: tuple[VeblenConfig, ...]
) -> tuple[PerspectiveSpec, ...]:
    """All 24 x |axes| specs of one family, in spec sort order."""
    if not axes:
        raise ValueError("need at least one axis")
    specs = [
        PerspectiveSpec(family, perm, axis)
        for perm in ALL_PERMS
        for axis in axes
    ]
    return tuple(sorted(specs, key=PerspectiveSpec.sort_key))


class IsoClass(NamedTuple):
    class_id: str
    representative: PerspectiveSpec
    members: tuple[PerspectiveSpec, ...]
    key: CanonicalKey
    free_k5_count: int
    aut_order: int
    branch: str  # "A" when >= 3 free K5 subgraphs, else "B"
    published_label: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.class_id,
            "representative": spec_text(self.representative),
            "size": len(self.members),
            "key": self.key.digest,
            "free_k5": self.free_k5_count,
            "aut_order": self.aut_order,
            "branch": self.branch,
            "published_label": self.published_label,
            "members": [spec_text(s) for s in self.members],
        }


class _Record(NamedTuple):
    """What one canonical search gives a spec: its key, its group order,
    the center's ``orbit_label``, and the searched spec they come from."""

    key: CanonicalKey
    order: int
    center: int
    source: PerspectiveSpec


class _Structures:
    """Each spec's built structure (``structures[spec]``) and its
    ``record``, both made on first use and keyed by (family, spec id).

    Structures with equal keys have an isomorphism mapping center onto
    center exactly when their center labels are equal, so (key, center)
    decides center-fixing isomorphism.  A family criterion relates a spec
    exactly to the specs that a center-fixing isomorphism reaches (Prop.
    3.2 and 4.5), and such a map keeps all four fields, so a criterion
    orbit shares one record object.  The first spec of an orbit asked for
    is searched, and one pass over its family image ids links every other
    member to it as its image under some (phi, case).  A member takes the
    searched spec's record, and its free K5 subgraphs along
    ``image_perm``, once that map fixes the center and passes
    ``_is_isomorphism``.  A failed check raises; nothing falls back."""

    def __init__(self) -> None:
        self._built: dict[tuple, Psts] = {}
        self._records: dict[tuple, _Record] = {}
        # (family, spec id) of a member not yet carried -> (searched spec,
        # phi, case): shared parts, so an entry holds no spec of its own
        self._links: dict[tuple, tuple] = {}

    def __getitem__(self, spec: PerspectiveSpec) -> Psts:
        key = (spec.family, spec.sid)
        s = self._built.get(key)
        if s is None:
            s = self._built[key] = build(spec)
        return s

    def record(self, spec: PerspectiveSpec) -> _Record:
        family, sid = key = (spec.family, spec.sid)
        r = self._records.get(key)
        if r is None:
            link = self._links.pop(key, None)
            if link is not None:
                r = self._carry(spec, *link)
            else:
                canon, gens, order, labeling = _canonical_search(self[spec])
                r = _Record(canon, order, orbit_label(labeling, gens, CENTER_INDEX), spec)
                for w, image in zip(IMAGE_WITNESSES, image_ids(family, sid)):
                    if image != sid:
                        self._links.setdefault((family, image), (spec, *w))
            self._records[key] = r
        return r

    def _carry(self, spec: PerspectiveSpec, source: PerspectiveSpec, phi, case) -> _Record:
        """The record and free K5 subgraphs of the searched ``source``,
        taken onto its image ``spec`` under (phi, case) along the map,
        once that is checked."""
        s, t = self[spec], self[source]
        m = image_perm(source, phi, case)
        moves = m[CENTER_INDEX] != CENTER_INDEX
        if moves or not _is_isomorphism(t, s, m):
            raise OracleInconsistencyError(
                f"the case {case.value} map of {spec_text(source)} onto {spec_text(spec)} "
                + ("moves the center" if moves else "is no isomorphism")
            )
        s.carry_free_k5(t, m)
        return self._records[(source.family, source.sid)]


def partition_into_classes(specs, *, structures: _Structures | None = None) -> tuple[IsoClass, ...]:
    """Group specs by the canonical key of their built structures.

    Representatives are the sort-least members (canonical-kind axes rank
    before the rest, so representatives read as plain kind names whenever
    the class touches a canonical axis).  Output is independent of input
    order.  The audit passes its ``structures`` so that no spec is built
    twice; the classes do not depend on it.
    """
    if structures is None:
        structures = _Structures()
    # in sort order, so each group lists its members sorted and the groups
    # come in the order of their least members
    groups: dict[CanonicalKey, list[PerspectiveSpec]] = {}
    for s in sorted(set(specs), key=PerspectiveSpec.sort_key):
        groups.setdefault(structures.record(s).key, []).append(s)
    classes = []
    for idx, (key, members) in enumerate(groups.items(), 1):
        members = tuple(members)
        rep = members[0]
        k5 = len(structures[rep].free_k5)
        prefix = "P" if rep.family is SkewFamily.PERM else "K"
        classes.append(
            IsoClass(
                class_id=f"{prefix}{idx:02d}",
                representative=rep,
                members=members,
                key=key,
                free_k5_count=k5,
                aut_order=structures.record(rep).order,
                branch="A" if k5 >= 3 else "B",
            )
        )
    return tuple(classes)


# ---------------------------------------------------------------------------
# published classification data
#
# Claim identifiers (fact_2_1, theorem_3_4, ...) name the claims of the
# published classification; the audit findings carry them verbatim.

_K = CanonicalKind

#: Theorem 3.4 list: 42 entries (label, axis kind, sigma).  Entry (iv) is
#: printed with an inconsistent cycle type and resolved here through its
#: stated cross-reference to the identity skew over B2.
THEOREM_3_4_ENTRIES: tuple[tuple[str, CanonicalKind, str], ...] = (
    ("i", _K.G2, "id"),
    ("ii", _K.G2, "(1,2)(3,4)"),
    ("iii", _K.G2, "(2,3,4)"),
    ("iv", _K.B2, "id"),
    ("v", _K.G2, "(1,2,3,4)"),
    ("vi", _K.G2_STAR, "id"),
    ("vii", _K.G2_STAR, "(1,2)(3,4)"),
    ("viii", _K.G2_STAR, "(2,3,4)"),
    ("ix", _K.G2_STAR, "(3,4)"),
    ("x", _K.G2_STAR, "(1,2,3,4)"),
    ("xi", _K.B2, "(1,2)(3,4)"),
    ("xii", _K.B2, "(1,3)(2,4)"),
    ("xiii", _K.B2, "(1,2,4)"),
    ("xiv", _K.B2, "(1,2,3,4)"),
    ("xv", _K.B2, "(1,3,2,4)"),
    ("xvi", _K.B2, "(3,4)"),
    ("xvii", _K.B2, "(2,3,4)"),
    ("xviii", _K.B2, "(2,3)"),
    ("xix", _K.V4, "id"),
    ("xx", _K.V4, "(1,2)(3,4)"),
    ("xxi", _K.V4, "(1,3)(2,4)"),
    ("xxii", _K.V4, "(2,3,4)"),
    ("xxiii", _K.V4, "(1,2,3)"),
    ("xxiv", _K.V4, "(3,4)"),
    ("xxv", _K.V4, "(1,2)"),
    ("xxvi", _K.V4, "(2,3)"),
    ("xxvii", _K.V4, "(1,2,3,4)"),
    ("xxviii", _K.V4, "(1,3,2,4)"),
    ("xxix", _K.V5, "id"),
    ("xxx", _K.V5, "(1,2,4)"),
    ("xxxi", _K.V5, "(2,4)"),
    ("xxxii", _K.V5, "(1,2)(3,4)"),
    ("xxxiii", _K.V5, "(2,3,4)"),
    ("xxxiv", _K.V5, "(3,4)"),
    ("xxxv", _K.V5, "(1,2,3,4)"),
    ("xxxvi", _K.V6, "id"),
    ("xxxvii", _K.V6, "(1,2)(3,4)"),
    ("xxxviii", _K.V6, "(2,3,4)"),
    ("xxxix", _K.V6, "(1,2,4)"),
    ("xl", _K.V6, "(2,4)"),
    ("xli", _K.V6, "(3,4)"),
    ("xlii", _K.V6, "(1,2,3,4)"),
)

#: Theorem 4.9 list: 20 entries (label, axis kind, phi).
THEOREM_4_9_ENTRIES: tuple[tuple[str, CanonicalKind, str], ...] = (
    ("1", _K.G2, "id"),
    ("2", _K.G2, "(1,2)(3,4)"),
    ("3", _K.G2, "(3,4)"),
    ("4", _K.G2, "(2,3,4)"),
    ("5", _K.G2, "(1,2,3,4)"),
    ("6", _K.B2, "id"),
    ("7", _K.B2, "(3,4)"),
    ("8", _K.B2, "(1,2)"),
    ("9", _K.B2, "(2,3,4)"),
    ("10", _K.B2, "(1,2,3)"),
    ("11", _K.B2, "(1,2)(3,4)"),
    ("12", _K.B2, "(1,4)(2,3)"),
    ("13", _K.B2, "(1,2,3,4)"),
    ("14", _K.V5, "id"),
    ("15", _K.V5, "(2,4)"),
    ("16", _K.V5, "(3,4)"),
    ("17", _K.V5, "(2,3,4)"),
    ("18", _K.V5, "(1,2,4)"),
    ("19", _K.V5, "(1,2,3,4)"),
    ("20", _K.V5, "(1,2)(3,4)"),
)

#: Lemma 2.3 printed representative lists (shared by each kind's partner,
#: since complementing preserves the automorphisms).
LEMMA_2_3_PUBLISHED: dict[CanonicalKind, tuple[str, ...]] = {
    _K.G2: ("id", "(2,3,4)", "(1,2)(3,4)", "(3,4)", "(1,2,3,4)"),
    _K.B2: (
        "id",
        "(3,4)",
        "(1,2)",
        "(2,3)",
        "(2,3,4)",
        "(1,2,3)",
        "(1,2)(3,4)",
        "(1,4)(2,3)",
        "(1,2,3,4)",
        "(1,3,2,4)",
    ),
    _K.V5: (
        "id",
        "(2,4)",
        "(3,4)",
        "(2,3,4)",
        "(1,2,4)",
        "(1,2)(3,4)",
        "(1,2,3,4)",
    ),
}

#: Fact 2.2 automorphism-group orders as printed.
FACT_2_2_PUBLISHED_ORDERS: dict[CanonicalKind, int] = {
    _K.G2: 24,
    _K.G2_STAR: 24,
    _K.B2: 4,
    _K.V4: 4,
    _K.V5: 6,
    _K.V6: 6,
}

PUBLISHED_PERM_CLASS_COUNT = 42
PUBLISHED_KAPPA_CLASS_COUNT = 20
PUBLISHED_TOTAL_COUNT = 62


def _entry_spec(family: SkewFamily, kind: CanonicalKind, cycles: str) -> PerspectiveSpec:
    return PerspectiveSpec(family, parse_cycles(cycles), canonical(kind))


# ---------------------------------------------------------------------------
# findings and report


class Finding(NamedTuple):
    claim_id: str
    claim: str
    computed: dict
    published: dict
    verdict: str  # "MATCH" | "MISMATCH"
    witnesses: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "claim": self.claim,
            "computed": self.computed,
            "published": self.published,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
        }


class ClassificationReport(NamedTuple):
    axes_mode: str  # "canonical" | "census"
    census_size: int
    perm_classes: tuple[IsoClass, ...]
    kappa_classes: tuple[IsoClass, ...]
    findings: tuple[Finding, ...]

    @property
    def all_match(self) -> bool:
        return all(f.verdict == "MATCH" for f in self.findings)

    def finding(self, claim_id: str) -> Finding:
        for f in self.findings:
            if f.claim_id == claim_id:
                return f
        raise KeyError(claim_id)


def _verdict(ok: bool) -> str:
    return "MATCH" if ok else "MISMATCH"


def _fact_2_1(census) -> Finding:
    ext_orbits, full_orbits = census_orbits(False), census_orbits(True)
    # a labeling is classified when one of the 48 maps carries it onto a kind
    kinds = {canonical(kind) for kind in CanonicalKind}
    unclassified = [v for orbit in full_orbits if kinds.isdisjoint(orbit) for v in orbit]
    # the kinds must be pairwise inequivalent under the 24 extended maps;
    # under all 48 maps the only mergers allowed are the three partner pairs
    ext_distinct = True
    merges_ok = True
    pair_witness = []
    for k1, k2 in itertools.combinations(CanonicalKind, 2):
        v1, v2 = canonical(k1), canonical(k2)
        if any(v1 in o and v2 in o for o in ext_orbits):
            ext_distinct = False
            pair_witness.append(f"{k1} maps onto {k2} under an extended permutation")
        full = any(v1 in o and v2 in o for o in full_orbits)
        if full != (PARTNER[k1] is k2):
            merges_ok = False
            pair_witness.append(
                f"{k1} vs {k2}: equivalent under the 48 maps = {full}, expected otherwise"
            )
    ok = not unclassified and ext_distinct and merges_ok
    return Finding(
        claim_id="fact_2_1",
        claim="every labeling in the census is carried onto exactly one of the six canonical kinds by one of the 48 candidate maps",
        computed={
            "census_size": len(census),
            "unclassified": len(unclassified),
            "extend_orbit_sizes": sorted(map(len, ext_orbits)),
            "full_orbit_sizes": sorted(map(len, full_orbits)),
            "kinds_distinct_under_extends": ext_distinct,
            "full_map_merges_are_exactly_partner_pairs": merges_ok,
        },
        published={"census_reduces_to_six_kinds": True},
        verdict=_verdict(ok),
        witnesses=tuple(pair_witness),
    )


def _eq_2() -> Finding:
    pairings = {}
    ok = True
    for kind in (_K.G2, _K.B2, _K.V5):
        partner = PARTNER[kind]
        holds = canonical(kind).apply(CORRELATION) == canonical(partner)
        pairings[f"{kind}->{partner}"] = holds
        ok = ok and holds
    return Finding(
        claim_id="eq_2",
        claim="the complement involution pairs the canonical kinds: G2 with G2_STAR, B2 with V4, V5 with V6",
        computed=pairings,
        published={k: True for k in pairings},
        verdict=_verdict(ok),
    )


def _fact_2_2() -> Finding:
    computed = {str(kind): len(aut_perms(canonical(kind))) for kind in CanonicalKind}
    published = {str(kind): FACT_2_2_PUBLISHED_ORDERS[kind] for kind in CanonicalKind}
    witnesses = []
    if computed != published:
        v5 = canonical(_K.V5)
        swap = parse_cycles("(1,2)")
        image = sorted(
            "{" + ",".join(str(u) for u in sorted(ln)) + "}"
            for ln in v5.apply(extend(swap)).lines
        )
        witnesses.append(
            "(1,2) fixes the index 3 yet extend((1,2)) sends the V5 line set to "
            + " ".join(image)
            + ", which differs from V5; the stabilizer claim overcounts"
        )
        witnesses.append(
            "V6 is the complement image of V5, so its group order diverges identically"
        )
    return Finding(
        claim_id="fact_2_2",
        claim="automorphism group orders of the six canonical kinds",
        computed=computed,
        published=published,
        verdict=_verdict(computed == published),
        witnesses=tuple(witnesses),
    )


def _lemma_2_3(kind: CanonicalKind) -> Finding:
    classes = lemma23_representatives(kind)
    published = LEMMA_2_3_PUBLISHED[kind]
    pub_perms = [parse_cycles(t) for t in published]
    class_of = {}
    for cls in classes:
        for g in cls:
            class_of[g] = cls
    hit: dict[tuple, str] = {}
    duplicates = []
    for text, g in zip(published, pub_perms):
        cls = class_of[g]
        if cls in hit:
            duplicates.append(f"{text} and {hit[cls]} fall in one class")
        hit[cls] = text
    missing = [cls for cls in classes if cls not in hit]
    ok = len(classes) == len(published) and not duplicates and not missing
    witnesses = list(duplicates)
    for cls in missing:
        witnesses.append(
            f"class of {render_cycles(cls[0])} (size {len(cls)}) has no printed representative"
        )
    return Finding(
        claim_id=f"lemma_2_3_{kind.value.lower()}",
        claim=f"printed conjugacy-class representatives under the {kind} automorphism group are complete and irredundant",
        computed={
            "classes": len(classes),
            "published_reps_in_distinct_classes": not duplicates,
            "classes_without_published_rep": len(missing),
        },
        published={"classes": len(published), "representatives": list(published)},
        verdict=_verdict(ok),
        witnesses=tuple(witnesses),
    )


def _construction(structures, all_specs) -> Finding:
    bad = []
    for s in all_specs:
        if not validate_configuration(structures[s], 4):
            bad.append(spec_text(s))
    return Finding(
        claim_id="construction",
        claim="every perspective in both families over every census axis is a (15_4 20_3) configuration",
        computed={"specs_checked": len(all_specs), "invalid": len(bad)},
        published={"configuration": "(15_4 20_3)"},
        verdict=_verdict(not bad),
        witnesses=tuple(bad[:5]),
    )


def _lemma_3_1(structures, perm_specs) -> Finding:
    mismatches = []
    dichotomy_fail = []
    for s in perm_specs:
        built = structures[s]
        if built.free_k5 != predicted_free_k5(s):
            mismatches.append(spec_text(s))
        has_extra = len(built.free_k5) >= 3
        triangles = star_triangles(s.axis)
        condition = any(i in triangles for i in s.perm.fixed_points())
        if has_extra != condition:
            dichotomy_fail.append(spec_text(s))
    ok = not mismatches and not dichotomy_fail
    return Finding(
        claim_id="lemma_3_1",
        claim="free K5 subgraphs of a plain-family perspective are the two tetrahedra plus one clique per fixed index whose star is a star-triangle of the axis",
        computed={
            "perm_specs_checked": len(perm_specs),
            "closed_form_equals_oracle": not mismatches,
            "branch_dichotomy_holds": not dichotomy_fail,
        },
        published={"closed_form_equals_oracle": True, "branch_dichotomy_holds": True},
        verdict=_verdict(ok),
        witnesses=tuple((mismatches + dichotomy_fail)[:5]),
    )


def _lemma_3_3() -> Finding:
    computed = {str(kind): len(star_triangles(canonical(kind))) for kind in CanonicalKind}
    published = {"G2": 4, "G2_STAR": 0, "B2": 2, "V4": 0, "V5": 1, "V6": 0}
    return Finding(
        claim_id="lemma_3_3",
        claim="star-triangle counts of the six canonical kinds",
        computed=computed,
        published=published,
        verdict=_verdict(computed == published),
    )


def _check_partitions(structures, perm_classes, kappa_classes, perm_specs) -> None:
    """Back the key partitions with the witness search, once per audit:
    the classes of both families and, with the center fixed, those of the
    plain ``perm_specs`` by (key, center label).

    A record's ``source`` is its orbit's searched spec, linked to each
    member by a checked center-fixing map, so a witness from each other
    source of a class onto its representative's links every member.  Each
    pair of representatives is refuted once; center-fixing ones only
    within one plain class, as non-isomorphic structures have no
    center-fixing isomorphism.  Any disagreement with the keys raises."""
    plain = [c.members for c in perm_classes + kappa_classes]
    fixing: dict[tuple, list[PerspectiveSpec]] = {}
    for s in perm_specs:
        rec = structures.record(s)
        fixing.setdefault((rec.key, rec.center), []).append(s)
    # each center-fixing class lies inside the plain class of its key
    within: dict[CanonicalKey, list[PerspectiveSpec]] = {}
    for (key, _), members in fixing.items():
        within.setdefault(key, []).append(members[0])
    center = (CENTER_INDEX, CENTER_INDEX)
    for groups, pairs, fix in (
        (plain, itertools.combinations([m[0] for m in plain], 2), None),
        (fixing.values(), (p for reps in within.values() for p in itertools.combinations(reps, 2)), center),
    ):
        for members in groups:
            r = structures.record(members[0]).source
            for t in dict.fromkeys(structures.record(s).source for s in members):
                if t != r and find_isomorphism(structures[t], structures[r], fix=fix) is None:
                    raise OracleInconsistencyError(f"equal keys but no witness: {spec_text(t)} vs {spec_text(r)}")
        for r1, r2 in pairs:
            if find_isomorphism(structures[r1], structures[r2], fix=fix) is not None:
                raise OracleInconsistencyError(f"witness found but keys differ: {spec_text(r1)} vs {spec_text(r2)}")


def _criterion_sweep(claim_id: str, claim: str, specs, keys) -> Finding:
    """The family's algebraic criterion against key equality on all pairs
    i <= j of specs of one family.  Each spec's image ids are computed
    once; the criterion relates a pair exactly when the second spec's id
    is among the first's images."""
    texts = [spec_text(s) for s in specs]
    family = specs[0].family
    ids = [s.sid for s in specs]
    rank: dict = {}
    classes = [rank.setdefault(k, len(rank)) for k in keys]
    disagreements = []
    for i in range(len(specs)):
        images = set(image_ids(family, ids[i]))
        for j in range(i, len(specs)):
            algebraic = ids[j] in images
            oracle = classes[i] == classes[j]
            if algebraic != oracle:
                disagreements.append(
                    f"{texts[i]} vs {texts[j]}: criterion={algebraic} oracle={oracle}"
                )
    checked = len(specs) * (len(specs) + 1) // 2
    return Finding(
        claim_id=claim_id,
        claim=claim,
        computed={"pairs_checked": checked, "disagreements": len(disagreements)},
        published={"disagreements": 0},
        verdict=_verdict(not disagreements),
        witnesses=tuple(disagreements[:5]),
    )


def _prop_3_2(structures, perm_specs) -> Finding:
    return _criterion_sweep(
        "prop_3_2",
        "the two-case conjugation criterion decides center-fixing isomorphism in the plain family",
        perm_specs,
        [(r.key, r.center) for r in map(structures.record, perm_specs)],
    )


def _prop_4_5(structures, kappa_specs) -> Finding:
    return _criterion_sweep(
        "prop_4_5",
        "the two-case conjugation criterion decides isomorphism in the boolean-complementing family",
        kappa_specs,
        [structures.record(s).key for s in kappa_specs],
    )


def _lemma_4_1(structures, kappa_specs) -> Finding:
    bad = []
    for s in kappa_specs:
        if len(structures[s].free_k5) != 2:
            bad.append(spec_text(s))
    return Finding(
        claim_id="lemma_4_1",
        claim="boolean-complementing perspectives contain exactly the two tetrahedral free K5 subgraphs",
        computed={"specs_checked": len(kappa_specs), "violations": len(bad)},
        published={"free_k5_count": 2},
        verdict=_verdict(not bad),
        witnesses=tuple(bad[:5]),
    )


def _cor_4_2(structures, kappa_specs) -> Finding:
    """Decided on each orbit's searched spec.  Its witness refinement
    starts from an invariant seed, so every automorphism keeps its
    colours: with the center alone in its cell, each fixes the center.  A
    point that shares the center's cell must be refuted as its image.
    Every other member follows along its checked center-fixing map."""
    moves: dict[PerspectiveSpec, bool] = {}
    moved = []
    for s in kappa_specs:
        source = structures.record(s).source
        if source not in moves:
            t = structures[source]
            colors = _refined(t, None)[1]
            moves[source] = any(
                find_isomorphism(t, t, fix=(CENTER_INDEX, q)) is not None
                for q, c in enumerate(colors)
                if c == colors[CENTER_INDEX] and q != CENTER_INDEX
            )
        if moves[source]:
            moved.append(f"{spec_text(s)}: an automorphism moves the center")
    return Finding(
        claim_id="cor_4_2",
        claim="every automorphism of a boolean-complementing perspective fixes the center",
        computed={"structures_checked": len(kappa_specs), "center_moved": len(moved)},
        published={"center_moved": 0},
        verdict=_verdict(not moved),
        witnesses=tuple(moved[:5]),
    )


def _lemma_4_3(perm_classes, kappa_classes) -> Finding:
    """The witness search refutes every pair of class representatives
    (``_check_partitions``), so distinct keys are distinct structures
    across the families too."""
    perm_keys = {c.key for c in perm_classes}
    kappa_keys = {c.key for c in kappa_classes}
    collisions = perm_keys & kappa_keys
    return Finding(
        claim_id="lemma_4_3",
        claim="no structure appears in both families",
        computed={
            "perm_keys": len(perm_keys),
            "kappa_keys": len(kappa_keys),
            "collisions": len(collisions),
        },
        published={"collisions": 0},
        verdict=_verdict(not collisions),
        witnesses=tuple(k.digest for k in sorted(collisions))[:5],
    )


def _lemma_4_4(structures, census) -> Finding:
    """The tetrahedron swap a_i <-> b_i with c_u -> c_complement(u) carries
    the identity-skew boolean-complementing perspective over any axis onto
    the one over the complemented axis."""
    explicit = {CENTER: CENTER}
    for i in (1, 2, 3, 4):
        explicit[a_name(i)] = b_name(i)
        explicit[b_name(i)] = a_name(i)
    for u in PAIRS:
        explicit[c_name(u)] = c_name(correlation(u))
    swap = tuple(POINTS.index(explicit[x]) for x in POINTS)  # on the frame's indices
    failures = []
    keys_differ = []
    for idx, axis in enumerate(census):
        s1 = PerspectiveSpec(SkewFamily.PERM_KAPPA, IDENTITY, axis)
        s2 = PerspectiveSpec(SkewFamily.PERM_KAPPA, IDENTITY, axis.apply(CORRELATION))
        if not _is_isomorphism(structures[s1], structures[s2], swap):
            failures.append(f"axis census:{idx}")
        if structures.record(s1).key != structures.record(s2).key:
            keys_differ.append(f"axis census:{idx}")
    ok = not failures and not keys_differ
    return Finding(
        claim_id="lemma_4_4",
        claim="swapping the tetrahedra while complementing the axis points is an isomorphism onto the complement-axis twin (identity skew, boolean-complementing family)",
        computed={
            "axes_checked": len(census),
            "explicit_map_verifies": not failures,
            "keys_equal": not keys_differ,
        },
        published={"explicit_map_verifies": True},
        verdict=_verdict(ok),
        witnesses=tuple((failures + keys_differ)[:5]),
    )


def _cor_4_6() -> Finding:
    """The second spec is moved by the object algebra, the images come
    from the integer tables; the two meet as spec ids."""
    checked = 0
    failures = []
    kappa = SkewFamily.PERM_KAPPA
    for phi in ALL_PERMS:
        images = {
            kind: set(image_ids(kappa, spec_id(phi, canonical(kind)))) for kind in CanonicalKind
        }
        for alpha in ALL_PERMS:
            conj = phi.conjugate_by(alpha)
            for kind in CanonicalKind:
                checked += 1
                if spec_id(conj, canonical(kind).apply(extend(alpha))) not in images[kind]:
                    failures.append(
                        f"phi={render_cycles(phi)} alpha={render_cycles(alpha)} axis={kind}"
                    )
    return Finding(
        claim_id="cor_4_6",
        claim="conjugating the skew while moving the axis by the same permutation preserves the isomorphism type in the boolean-complementing family",
        computed={"triples_checked": checked, "failures": len(failures)},
        published={"failures": 0},
        verdict=_verdict(not failures),
        witnesses=tuple(failures[:5]),
    )


def _lemma_4_8(structures) -> Finding:
    checked = 0
    failures = []
    for kind in CanonicalKind:
        axis = canonical(kind)
        # S4's classes under conjugation by the axis automorphisms (Lemma 2.3)
        cls = {b: k for k, members in enumerate(lemma23_representatives(kind)) for b in members}
        keys = {}
        for beta in ALL_PERMS:
            s = PerspectiveSpec(SkewFamily.PERM_KAPPA, beta, axis)
            keys[beta] = structures.record(s).key
        for b1, b2 in itertools.combinations_with_replacement(ALL_PERMS, 2):
            checked += 1
            conjugate = cls[b1] == cls[b2]
            if conjugate != (keys[b1] == keys[b2]):
                failures.append(
                    f"axis={kind} {render_cycles(b1)} vs {render_cycles(b2)}: conjugate={conjugate}"
                )
    return Finding(
        claim_id="lemma_4_8",
        claim="over a fixed canonical axis, two boolean-complementing skews give isomorphic structures exactly when conjugate under the axis automorphisms",
        computed={"same_axis_pairs_checked": checked, "failures": len(failures)},
        published={"failures": 0},
        verdict=_verdict(not failures),
        witnesses=tuple(failures[:5]),
    )


def _theorem_finding(
    structures,
    claim_id: str,
    claim: str,
    classes: tuple[IsoClass, ...],
    entries,
    family: SkewFamily,
    published_count: int,
    census_note: dict | None,
) -> tuple[tuple[IsoClass, ...], Finding]:
    """Attach published labels to classes and compare the class count;
    report distinctness and the classes no entry reaches, with exhaustive
    non-isomorphism witnesses."""
    by_key = {c.key: c for c in classes}
    entry_keys = {}
    labels: dict[str, list[str]] = {}
    problems = []
    for label, kind, cycles in entries:
        k = structures.record(_entry_spec(family, kind, cycles)).key
        entry_keys[label] = k
        if k not in by_key:
            problems.append(f"entry ({label}) matches no computed class")
            continue
        labels.setdefault(by_key[k].class_id, []).append(f"({label})")
    distinct = len(set(entry_keys.values())) == len(entry_keys)
    if not distinct:
        seen: dict = {}
        for label, k in entry_keys.items():
            if k in seen:
                problems.append(
                    f"entries ({seen[k]}) and ({label}) are isomorphic (one key)"
                )
            seen[k] = label
    labeled = tuple(
        c._replace(published_label=", ".join(labels[c.class_id]) if c.class_id in labels else None)
        for c in classes
    )
    unmatched = [c for c in labeled if c.published_label is None]
    witnesses = list(problems)
    # each entry is a member of another class, whose representative the
    # witness search refutes against this one's (``_check_partitions``)
    for c in unmatched:
        witnesses.append(
            f"{spec_text(c.representative)} (key {c.key.digest}) admits no isomorphism onto any "
            f"listed entry; exhaustive witness search refutes all {len(entries)}"
        )
    computed = {
        "classes": len(classes),
        "entries": len(entries),
        "entries_in_distinct_classes": distinct,
        "classes_without_entry": len(unmatched),
        "unmatched": [spec_text(c.representative) for c in unmatched],
        **(census_note or {}),
    }
    ok = distinct and not problems and len(classes) == published_count and not unmatched
    return labeled, Finding(
        claim_id=claim_id,
        claim=claim,
        computed=computed,
        published={"classes": published_count},
        verdict=_verdict(ok),
        witnesses=tuple(witnesses),
    )


def audit_claims(axes_mode: str = "census") -> ClassificationReport:
    """Run the complete pipeline and audit every published claim.

    ``axes_mode`` selects the axis set for the family enumerations:
    "canonical" uses the six canonical labelings, "census" all 30.  The
    per-claim suites that the published proofs quantify over canonical axes
    always run over those, so the two modes differ only in how much of the
    census the partitions and the construction sweeps cover.
    """
    if axes_mode not in ("canonical", "census"):
        raise ValueError(f"axes_mode must be 'canonical' or 'census', got {axes_mode!r}")
    census = enumerate_labelings()
    axes = canonical_axes() if axes_mode == "canonical" else census

    perm_canonical = enumerate_family(SkewFamily.PERM, canonical_axes())
    kappa_canonical = enumerate_family(SkewFamily.PERM_KAPPA, canonical_axes())
    perm_specs = perm_canonical if axes_mode == "canonical" else enumerate_family(SkewFamily.PERM, axes)
    kappa_specs = kappa_canonical if axes_mode == "canonical" else enumerate_family(SkewFamily.PERM_KAPPA, axes)

    structures = _Structures()
    perm_classes = partition_into_classes(perm_specs, structures=structures)
    kappa_classes = partition_into_classes(kappa_specs, structures=structures)
    _check_partitions(structures, perm_classes, kappa_classes, perm_canonical)

    census_note_perm = census_note_kappa = None
    if axes_mode == "census":
        canon_perm_keys = {structures.record(s).key for s in perm_canonical}
        canon_kappa_keys = {structures.record(s).key for s in kappa_canonical}
        census_note_perm = {
            "classes_beyond_canonical_axes": len({c.key for c in perm_classes} - canon_perm_keys)
        }
        census_note_kappa = {
            "classes_beyond_canonical_axes": len({c.key for c in kappa_classes} - canon_kappa_keys)
        }

    perm_classes, theorem_3_4 = _theorem_finding(
        structures,
        "theorem_3_4",
        "the plain family over the canonical kinds falls into exactly the 42 listed isomorphism classes",
        perm_classes,
        THEOREM_3_4_ENTRIES,
        SkewFamily.PERM,
        PUBLISHED_PERM_CLASS_COUNT,
        census_note_perm,
    )
    kappa_classes, theorem_4_9 = _theorem_finding(
        structures,
        "theorem_4_9",
        "the boolean-complementing family over the canonical kinds has exactly 20 isomorphism types",
        kappa_classes,
        THEOREM_4_9_ENTRIES,
        SkewFamily.PERM_KAPPA,
        PUBLISHED_KAPPA_CLASS_COUNT,
        census_note_kappa,
    )

    total = Finding(
        claim_id="total_count",
        claim="the two families together contribute 62 structures",
        computed={
            "perm_classes": len(perm_classes),
            "kappa_classes": len(kappa_classes),
            "total": len(perm_classes) + len(kappa_classes),
        },
        published={"total": PUBLISHED_TOTAL_COUNT},
        verdict=_verdict(len(perm_classes) + len(kappa_classes) == PUBLISHED_TOTAL_COUNT),
        witnesses=(
            ()
            if len(perm_classes) + len(kappa_classes) == PUBLISHED_TOTAL_COUNT
            else (
                "both theorem audits contribute the divergence; see theorem_3_4 and theorem_4_9 witnesses",
            )
        ),
    )

    findings = (
        _construction(structures, tuple(perm_specs) + tuple(kappa_specs)),
        _fact_2_1(census),
        _eq_2(),
        _fact_2_2(),
        _lemma_2_3(_K.G2),
        _lemma_2_3(_K.B2),
        _lemma_2_3(_K.V5),
        _lemma_3_1(structures, perm_specs),
        _lemma_3_3(),
        _prop_3_2(structures, perm_canonical),
        theorem_3_4,
        _lemma_4_1(structures, kappa_specs),
        _cor_4_2(structures, kappa_specs),
        _lemma_4_3(perm_classes, kappa_classes),
        _lemma_4_4(structures, census),
        _prop_4_5(structures, kappa_canonical),
        _cor_4_6(),
        _lemma_4_8(structures),
        theorem_4_9,
        total,
    )
    return ClassificationReport(
        axes_mode=axes_mode,
        census_size=len(census),
        perm_classes=perm_classes,
        kappa_classes=kappa_classes,
        findings=findings,
    )


# ---------------------------------------------------------------------------
# rendering


def _class_table(title: str, classes: tuple[IsoClass, ...]) -> list[str]:
    rows = [f"== {title}: {len(classes)} classes =="]
    rows.append(f"{'id':<5} {'representative':<24} {'size':>4} {'k5':>3} {'aut':>4} {'br':<2} published")
    for c in classes:
        rows.append(
            f"{c.class_id:<5} {spec_text(c.representative):<24} {len(c.members):>4} "
            f"{c.free_k5_count:>3} {c.aut_order:>4} {c.branch:<2} {c.published_label or '-'}"
        )
    return rows


def render_text(report: ClassificationReport) -> str:
    rows = [
        "skew perspective classification audit",
        f"axes: {report.axes_mode} ({report.census_size} labelings in the census)",
        "",
    ]
    rows.extend(_class_table("plain family (perm)", report.perm_classes))
    rows.append("")
    rows.extend(_class_table("boolean-complementing family (kappa)", report.kappa_classes))
    rows.append("")
    rows.append("== audit findings ==")
    for f in report.findings:
        rows.append(f"{f.claim_id}: {f.verdict}")
        rows.append(f"  claim: {f.claim}")
        rows.append(f"  computed:  {json.dumps(f.computed)}")
        rows.append(f"  published: {json.dumps(f.published)}")
        for w in f.witnesses:
            rows.append(f"  witness: {w}")
    rows.append("")
    n_bad = sum(1 for f in report.findings if f.verdict != "MATCH")
    rows.append("verdict: ALL MATCH" if n_bad == 0 else f"verdict: {n_bad} MISMATCH")
    return "\n".join(rows) + "\n"


def render_structured(report: ClassificationReport) -> str:
    doc = {
        "axes": report.axes_mode,
        "census_size": report.census_size,
        "families": {
            "perm": {
                "classes": [c.to_dict() for c in report.perm_classes],
            },
            "kappa": {
                "classes": [c.to_dict() for c in report.kappa_classes],
            },
        },
        "findings": [f.to_dict() for f in report.findings],
        "all_match": report.all_match,
    }
    return json.dumps(doc, indent=2) + "\n"
