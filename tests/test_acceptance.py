"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion NN: PASS|FAIL`` line (visible under
``pytest -s``; the -v test names mirror the numbering) and then asserts.
All tolerances are exact: this is integer combinatorics, nothing is
approximate.

Criterion 9 asserts the published class count of 20 for the
boolean-complementing family.  The computation reproducibly finds 25
classes over canonical axes (see the theorem_4_9 finding in the audit for
the five representatives with no published counterpart), so that test
fails, deliberately: the assertion states the published claim, not the
measured value, and the divergence is real.
"""

import itertools
import subprocess
import sys

from conftest import canonical_key, free_complete_subgraphs

from skewpersp.classify import (
    THEOREM_3_4_ENTRIES,
    enumerate_family,
    partition_into_classes,
    render_text,
)
from skewpersp.indices import ALL_PERMS, CORRELATION, PAIRS, extend, parse_cycles
from skewpersp.iso import automorphism_group, find_isomorphism
from skewpersp.perspective import (
    CENTER_INDEX,
    PerspectiveSpec,
    SkewFamily,
    build,
    predicted_free_k5,
    spec_text,
)
from skewpersp.psts import _free_cliques, validate_configuration
from skewpersp.veblen import (
    PARTNER,
    CanonicalKind,
    canonical,
    census_orbits,
    star_triangles,
)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _match(finding) -> bool:
    return finding.verdict == "MATCH"


# ------------------------------------------------------------------ 1


def test_criterion_01_construction_validity(census):
    bad = []
    for family in (SkewFamily.PERM, SkewFamily.PERM_KAPPA):
        for perm in ALL_PERMS:
            for axis in census:
                spec = PerspectiveSpec(family, perm, axis)
                if not validate_configuration(build(spec), 4):
                    bad.append(spec_text(spec))
    total = 2 * len(ALL_PERMS) * len(census)
    report(
        1,
        f"all {total} census-axis constructions are (15_4 20_3) configurations",
        not bad,
        detail="; ".join(bad[:3]),
    )


# ------------------------------------------------------------------ 2


def test_criterion_02_labeling_census(census, census_audit):
    # independent brute force: every 4-subset of the twenty 3-subsets of
    # the six pair points, kept when each point lies on exactly two lines
    # and no two lines share more than one point
    triples = [frozenset(t) for t in itertools.combinations(PAIRS, 3)]
    found = 0
    line_sets = set()
    for quad in itertools.combinations(triples, 4):
        degree_ok = all(sum(p in t for t in quad) == 2 for p in PAIRS)
        pair_ok = all(len(s & t) <= 1 for s, t in itertools.combinations(quad, 2))
        if degree_ok and pair_ok:
            found += 1
            line_sets.add(frozenset(quad))
    enumerated = {frozenset(v.lines) for v in census}

    count_ok = found == 30 and len(census) == 30 and line_sets == enumerated

    # canonical forms distinct under the 24 relabelings; the full set of 48
    # candidate maps merges exactly the complement-partner pairs
    kinds = list(CanonicalKind)
    distinct_ok = all(
        all(canonical(k).apply(extend(a)) != canonical(m) for a in ALL_PERMS)
        for k, m in itertools.permutations(kinds, 2)
    )
    ext_orbit = {v: orbit for orbit in census_orbits(False) for v in orbit}
    pairing_ok = all(
        [m for m in kinds if canonical(m) in ext_orbit[canonical(k).apply(CORRELATION)]]
        == [PARTNER[k]]
        for k in kinds
    )

    fact = census_audit.finding("fact_2_1")
    coverage_ok = (
        _match(fact)
        and fact.computed["extend_orbit_sizes"] == [1, 1, 6, 6, 8, 8]
        and fact.computed["full_orbit_sizes"] == [2, 12, 16]
        and fact.computed["census_size"] == 30
        and fact.computed["unclassified"] == 0
    )
    eq2_ok = _match(census_audit.finding("eq_2"))

    report(
        2,
        "census count 30 (brute force), kinds distinct, complement pairings, coverage",
        count_ok and distinct_ok and pairing_ok and coverage_ok and eq2_ok,
        detail=f"brute_force={found} distinct={distinct_ok} pairing={pairing_ok}",
    )


# ------------------------------------------------------------------ 3


def test_criterion_03_star_triangle_counts():
    got = tuple(len(star_triangles(canonical(k))) for k in CanonicalKind)
    want = (4, 0, 2, 0, 1, 0)
    report(3, "star-triangle counts over the six kinds", got == want, detail=str(got))


# ------------------------------------------------------------------ 4


def test_criterion_04_free_k5_closed_form(perm_specs):
    bad = [
        spec_text(s)
        for s in perm_specs
        if predicted_free_k5(s) != _free_cliques(build(s), 5)
    ]
    report(
        4,
        f"closed-form free K5 list equals the clique oracle on all {len(perm_specs)} plain specs",
        not bad,
        detail="; ".join(bad[:3]),
    )


# ------------------------------------------------------------------ 5


def test_criterion_05_two_free_k5_and_center_fixed(kappa_specs):
    wrong_count = []
    moved = []
    for s in kappa_specs:
        built = build(s)
        if len(free_complete_subgraphs(built, 5)) != 2:
            wrong_count.append(spec_text(s))
        gens, _ = automorphism_group(built)
        if any(g[CENTER_INDEX] != CENTER_INDEX for g in gens):
            moved.append(spec_text(s))
    report(
        5,
        f"every one of {len(kappa_specs)} complementing specs: 2 free K5s, automorphisms fix the center",
        not wrong_count and not moved,
        detail=f"k5_violations={len(wrong_count)} center_moved={len(moved)}",
    )


# ------------------------------------------------------------------ 6


def test_criterion_06_plain_family_criterion_vs_oracle(census_audit):
    f = census_audit.finding("prop_3_2")
    n = 144
    ok = (
        _match(f)
        and f.computed["pairs_checked"] == n * (n - 1) // 2 + n
        and f.computed["disagreements"] == 0
    )
    report(6, "plain-family criterion agrees with the center-fixing oracle on all pairs", ok,
           detail=f"pairs={f.computed['pairs_checked']}")


# ------------------------------------------------------------------ 7


def test_criterion_07_complementing_family_criterion_vs_oracle(census_audit):
    f45 = census_audit.finding("prop_4_5")
    f48 = census_audit.finding("lemma_4_8")
    f46 = census_audit.finding("cor_4_6")
    n = 144
    ok = (
        _match(f45)
        and f45.computed["pairs_checked"] == n * (n - 1) // 2 + n
        and f45.computed["disagreements"] == 0
        and _match(f48)
        and _match(f46)
        and f46.computed["triples_checked"] == 24 * 24 * 6
        and f46.computed["failures"] == 0
    )
    report(7, "complementing-family criterion, key classes, and conjugation equivariance", ok,
           detail=f"pairs={f45.computed['pairs_checked']} triples={f46.computed['triples_checked']}")


# ------------------------------------------------------------------ 8


def test_criterion_08_families_disjoint_and_explicit_map(census_audit):
    f43 = census_audit.finding("lemma_4_3")
    f44 = census_audit.finding("lemma_4_4")
    ok = (
        _match(f43)
        and f43.computed["collisions"] == 0
        and _match(f44)
        and f44.computed["axes_checked"] == 30
        and f44.computed["explicit_map_verifies"]
        and f44.computed["keys_equal"]
    )
    report(8, "zero cross-family key collisions; tetrahedron-swap map verifies on every axis", ok)


# ------------------------------------------------------------------ 9


def test_criterion_09_published_complementing_class_count(kappa_classes):
    # Strict assertion of the published count.  The partition reproducibly
    # has 25 classes; the theorem_4_9 audit finding lists the five
    # representatives that match no published entry, each with
    # non-isomorphism witnesses.  This failure is the honest outcome.
    got = len(kappa_classes)
    report(
        9,
        "complementing family partitions into exactly 20 classes (published count)",
        got == 20,
        detail=f"computed {got} classes",
    )


# ------------------------------------------------------------------ 10


def test_criterion_10_plain_family_vs_listed_entries(census_audit, perm_classes, axes):
    # (a) the computed partition is stable: a fresh run reproduces the same
    # class keys in the same order
    fresh = partition_into_classes(enumerate_family(SkewFamily.PERM, axes))
    stable = [c.key for c in fresh] == [c.key for c in perm_classes] and len(fresh) == 43

    # (b) the 42 listed entries land in 42 distinct computed classes
    class_keys = {c.key for c in perm_classes}
    entry_keys = []
    for _, kind, cyc in THEOREM_3_4_ENTRIES:
        spec = PerspectiveSpec(SkewFamily.PERM, parse_cycles(cyc), canonical(kind))
        entry_keys.append(canonical_key(build(spec)))
    entries_ok = (
        len(THEOREM_3_4_ENTRIES) == 42
        and len(set(entry_keys)) == 42
        and set(entry_keys) <= class_keys
    )

    # (c) each computed class outside the list is witnessed non-isomorphic
    # to every listed entry
    unmatched = [c for c in perm_classes if c.key not in set(entry_keys)]
    entry_builds = [
        build(PerspectiveSpec(SkewFamily.PERM, parse_cycles(cyc), canonical(kind)))
        for _, kind, cyc in THEOREM_3_4_ENTRIES
    ]
    witnessed = all(
        find_isomorphism(build(c.representative), eb) is None
        for c in unmatched
        for eb in entry_builds
    )

    f = census_audit.finding("theorem_3_4")
    finding_ok = (
        f.computed["entries_in_distinct_classes"]
        and f.computed["classes_without_entry"] == len(unmatched) == 1
        and f.computed["unmatched"] == [spec_text(c.representative) for c in unmatched]
    )

    report(
        10,
        "42 listed plain-family entries match distinct classes; extras witnessed non-isomorphic",
        stable and entries_ok and witnessed and finding_ok,
        detail=f"computed={len(perm_classes)} unmatched={[spec_text(c.representative) for c in unmatched]}",
    )


# ------------------------------------------------------------------ 11


def test_criterion_11_audit_determinism(census_audit, tmp_path):
    baseline = render_text(census_audit)
    texts = [baseline]
    for jobs in (2, 4):
        out = tmp_path / f"audit_j{jobs}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "skewpersp.cli", "audit",
             "--axes", "census", "--jobs", str(jobs), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr  # divergences exist, by design
        texts.append(out.read_text())
    identical = all(t == baseline for t in texts)
    report(
        11,
        "audit report byte-identical across independent runs and --jobs 1/2/4",
        identical,
        detail=f"{len(baseline)} bytes",
    )
