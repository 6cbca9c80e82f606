"""Family enumeration, isomorphism classes, and the published-claim audit."""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import canonical_key, family_images, joint_refinement, searched_record

from skewpersp import classify, cli, iso, perspective, psts, veblen
from skewpersp.classify import (
    FACT_2_2_PUBLISHED_ORDERS,
    LEMMA_2_3_PUBLISHED,
    PUBLISHED_KAPPA_CLASS_COUNT,
    PUBLISHED_PERM_CLASS_COUNT,
    PUBLISHED_TOTAL_COUNT,
    THEOREM_3_4_ENTRIES,
    THEOREM_4_9_ENTRIES,
    OracleInconsistencyError,
    enumerate_family,
    partition_into_classes,
    render_structured,
    render_text,
)
from skewpersp.indices import PAIRS
from skewpersp.iso import find_isomorphism
from skewpersp.perspective import (
    CENTER,
    CENTER_INDEX,
    IMAGE_WITNESSES,
    POINTS,
    IsoCase,
    SkewFamily,
    build,
    c_name,
    parse_spec_text,
    spec_text,
)
from skewpersp.veblen import VeblenConfig, aut_perms

EXPECTED_VERDICTS = {
    # the audit's honest divergence set, frozen
    "construction": "MATCH",
    "fact_2_1": "MATCH",
    "eq_2": "MATCH",
    "fact_2_2": "MISMATCH",
    "lemma_2_3_g2": "MATCH",
    "lemma_2_3_b2": "MATCH",
    "lemma_2_3_v5": "MISMATCH",
    "lemma_3_1": "MATCH",
    "lemma_3_3": "MATCH",
    "prop_3_2": "MATCH",
    "theorem_3_4": "MISMATCH",
    "lemma_4_1": "MATCH",
    "cor_4_2": "MATCH",
    "lemma_4_3": "MATCH",
    "lemma_4_4": "MATCH",
    "prop_4_5": "MATCH",
    "cor_4_6": "MATCH",
    "lemma_4_8": "MATCH",
    "theorem_4_9": "MISMATCH",
    "total_count": "MISMATCH",
}


class TestEnumeration:
    def test_sizes(self, axes, census):
        assert len(enumerate_family(SkewFamily.PERM, axes)) == 144
        assert len(enumerate_family(SkewFamily.PERM_KAPPA, tuple(census))) == 720

    def test_families_have_equal_sizes(self, axes):
        assert len(enumerate_family(SkewFamily.PERM, axes)) == len(
            enumerate_family(SkewFamily.PERM_KAPPA, axes)
        )

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            enumerate_family(SkewFamily.PERM, ())

    def test_deterministic_order(self, axes, perm_specs):
        again = enumerate_family(SkewFamily.PERM, tuple(reversed(axes)))
        assert again == perm_specs


class TestPartition:
    def test_class_counts(self, perm_classes, kappa_classes):
        assert len(perm_classes) == 43
        assert len(kappa_classes) == 25

    def test_members_share_keys(self, kappa_classes):
        for c in kappa_classes:
            for member in c.members:
                assert canonical_key(build(member)) == c.key
            assert c.representative == c.members[0]

    def test_branch_rule(self, perm_classes, kappa_classes):
        for c in perm_classes + kappa_classes:
            assert c.branch == ("A" if c.free_k5_count >= 3 else "B")

    def test_kappa_classes_all_branch_b(self, kappa_classes):
        assert all(c.branch == "B" and c.free_k5_count == 2 for c in kappa_classes)

    def test_ids_are_sequential(self, perm_classes, kappa_classes):
        assert [c.class_id for c in perm_classes] == [
            f"P{k:02d}" for k in range(1, 44)
        ]
        assert [c.class_id for c in kappa_classes] == [
            f"K{k:02d}" for k in range(1, 26)
        ]

    def test_first_classes(self, perm_classes):
        head = [
            (c.class_id, spec_text(c.representative), c.free_k5_count, c.aut_order, c.branch)
            for c in perm_classes[:4]
        ]
        assert head == [
            ("P01", "perm:id@G2", 6, 720, "A"),
            ("P02", "perm:id@G2_STAR", 2, 48, "B"),
            ("P03", "perm:id@B2", 4, 8, "A"),
            ("P04", "perm:id@V4", 2, 8, "B"),
        ]

    def test_sizes_sum_to_spec_count(self, perm_classes, kappa_classes, perm_specs):
        assert sum(len(c.members) for c in perm_classes) == len(perm_specs)
        assert sum(len(c.members) for c in kappa_classes) == len(perm_specs)

    def test_census_adds_no_classes(self, census, perm_classes):
        full = partition_into_classes(
            enumerate_family(SkewFamily.PERM, tuple(census))
        )
        assert {c.key for c in full} == {c.key for c in perm_classes}


class TestOracleSweep:
    """The witness search backs the key partitions of the canonical specs
    once per audit (``classify._check_partitions``); a search that
    contradicts the keys must abort it."""

    @staticmethod
    def _partitions(perm_specs, kappa_specs):
        structures = classify._Structures()
        perm = partition_into_classes(perm_specs, structures=structures)
        kappa = partition_into_classes(kappa_specs, structures=structures)
        return structures, perm, kappa

    # each family under the id of its criterion claim
    @pytest.mark.parametrize("family", ["perm", "kappa"], ids=["prop_3_2", "prop_4_5"])
    def test_witness_between_representatives_raises(self, monkeypatch, family, perm_specs, kappa_specs):
        # only representatives that share a certificate reach the search:
        # the first two are made to, by the certificate check the search
        # makes first
        structures, perm, kappa = self._partitions(perm_specs, kappa_specs)
        r1, r2 = (c.representative for c in (perm if family == "perm" else kappa)[:2])
        pair = {structures[r1], structures[r2]}
        real, real_differ = classify.find_isomorphism, iso.certificates_differ
        monkeypatch.setattr(
            iso, "certificates_differ", lambda x, y, fix=None: {x, y} != pair and real_differ(x, y, fix)
        )
        monkeypatch.setattr(
            classify,
            "find_isomorphism",
            lambda x, y, fix=None: tuple(range(len(x.points))) if {x, y} == pair else real(x, y, fix=fix),
        )
        with pytest.raises(OracleInconsistencyError, match="keys differ") as e:
            classify._check_partitions(structures, perm, kappa, perm_specs)
        assert f"{spec_text(r1)} vs {spec_text(r2)}" in str(e.value)

    def test_one_center_label_for_every_spec_exits_70(self, monkeypatch, capsys):
        # one center label merges the center-fixing classes into the plain
        # ones; the witness search finds no center-fixing map between the
        # first two searched specs of a plain class, whose centers lie in
        # different orbits
        monkeypatch.setattr(classify, "orbit_label", lambda labeling, gens, x: 0)
        code = cli.main(["audit", "--axes", "census"])
        out, err = capsys.readouterr()
        assert code == cli.EX_SOFTWARE == 70
        assert out == ""
        assert "equal keys but no witness: perm:(3,4)@G2 vs perm:id@B2" in err

    def test_search_count_follows_the_partitions(self, monkeypatch, perm_specs, kappa_specs):
        calls = certified = 0
        real, real_differ = classify.find_isomorphism, iso.certificates_differ

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        def differ(*args):
            nonlocal certified
            result = real_differ(*args)
            certified += result
            return result

        structures, perm, kappa = self._partitions(perm_specs, kappa_specs)
        monkeypatch.setattr(classify, "find_isomorphism", counting)
        monkeypatch.setattr(iso, "certificates_differ", differ)
        classify._check_partitions(structures, perm, kappa, perm_specs)

        def pairs(k):
            return k * (k - 1) // 2

        def shared(reps, pin):
            # pairs of representatives that share a certificate
            groups = {}
            for s in (structures[r] for r in reps):
                cert = iso._refined(s, pin)[0]
                groups[cert] = groups.get(cert, 0) + 1
            return sum(pairs(k) for k in groups.values())

        def extra_sources(classes):
            # searched specs of a class beyond its representative's
            return sum(len({structures.record(s).source for s in members}) - 1 for members in classes)

        fixing = {}
        for s in perm_specs:
            r = structures.record(s)
            fixing.setdefault((r.key, r.center), []).append(s)
        within = {}
        for members in fixing.values():
            within.setdefault(structures.record(members[0]).key, []).append(members[0])
        reps = [c.representative for c in perm + kappa]
        assert (len(fixing), len(perm), len(kappa)) == (44, 43, 25)
        # the witness search runs once for each searched spec of a class
        # beyond its representative's, plain or center-fixing, and once for
        # each pair of representatives that share a certificate: of the 68
        # class representatives, and of the center-fixing ones within one
        # plain class.  Certificates refute the other pairs before a point
        # is placed
        plain_links = extra_sources(c.members for c in perm + kappa)
        fixing_links = extra_sources(fixing.values())
        within_pairs = sum(pairs(len(r)) for r in within.values())
        searched_pairs = shared(reps, None) + sum(shared(r, CENTER_INDEX) for r in within.values())
        assert (plain_links, fixing_links, within_pairs, searched_pairs) == (1, 0, 1, 1)
        assert calls - certified == plain_links + fixing_links + searched_pairs == 2
        assert certified == pairs(len(reps)) + within_pairs - searched_pairs == 2278


class TestCriterionSweep:
    def test_sweeps_catch_a_criterion_without_case_b(self, monkeypatch, perm_specs, kappa_specs):
        real = classify.image_ids

        def case_a_only(family, sid):
            return [k for (_, case), k in zip(IMAGE_WITNESSES, real(family, sid)) if case is IsoCase.A]

        monkeypatch.setattr(classify, "image_ids", case_a_only)
        for sweep, specs in ((classify._prop_3_2, perm_specs), (classify._prop_4_5, kappa_specs)):
            f = sweep(classify._Structures(), specs)
            assert f.verdict == "MISMATCH"
            assert f.computed["disagreements"] > 0
            assert f.computed["pairs_checked"] == 10440


class TestNoRevalidation:
    """Labelings are validated where they are constructed, never when a
    pair bijection moves them; a call counter makes this a gate that
    cannot flake."""

    def test_algebraic_claims_construct_no_labeling(self, monkeypatch, census, perm_specs, kappa_specs):
        calls = 0
        real = VeblenConfig.__new__

        def counting(cls, lines):
            nonlocal calls
            calls += 1
            return real(cls, lines)

        monkeypatch.setattr(VeblenConfig, "__new__", counting)
        # start cold, so every image goes through the census lookup
        VeblenConfig.apply.cache_clear()
        veblen.census_index.cache_clear()
        veblen.action_table.cache_clear()
        perspective._family_tables.cache_clear()
        for v in census:
            aut_perms(v)
        classify._fact_2_1(census)
        classify._cor_4_6()
        for s in perm_specs + kappa_specs:
            for _ in family_images(s):
                pass
        assert calls == 0
        VeblenConfig(census[0].lines)
        assert calls == 1


WORK_FIELDS = (
    # counted calls: builds, clique searches, canonical searches, witness
    # searches (``find_isomorphism`` calls that certificates do not
    # refute), canonical search nodes, canonical search leaves, checked
    # maps (classify's line checks of a map between two structures); then
    # the witness certificates computed, the pairs the search refutes by
    # unequal certificates, the witness searches that refute a pair and
    # that find a map, and the structures that list their line partners
    "build", "cliques", "canonical", "witness", "nodes", "leaves", "maps",
    "certificates", "certified", "refuted", "found", "partners",
)


def count_audit_work(*axes_modes: str) -> dict[str, dict[str, int]]:
    """The work of one audit per mode, run in turn under counting wrappers
    patched once around them all."""
    counts = dict.fromkeys(WORK_FIELDS, 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    real_differ, real_find = iso.certificates_differ, classify.find_isomorphism

    def differ(*args):
        result = real_differ(*args)
        counts["certified"] += result
        return result

    def find(*args, **kwargs):
        certified = counts["certified"]
        result = real_find(*args, **kwargs)
        if counts["certified"] == certified:  # not refuted by certificates
            counts["witness"] += 1
            counts["refuted" if result is None else "found"] += 1
        return result

    work = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "build", counting("build", classify.build))
        m.setattr(psts, "_free_cliques", counting("cliques", psts._free_cliques))
        m.setattr(iso._Canonicalizer, "run", counting("canonical", iso._Canonicalizer.run))
        m.setattr(classify, "find_isomorphism", find)
        m.setattr(iso._Canonicalizer, "_visit", counting("nodes", iso._Canonicalizer._visit))
        m.setattr(iso._Canonicalizer, "_leaf", counting("leaves", iso._Canonicalizer._leaf))
        m.setattr(classify, "_is_isomorphism", counting("maps", classify._is_isomorphism))
        # one seed per certificate: the memo in each structure hands out the rest
        m.setattr(iso, "_pasch_seed", counting("certificates", iso._pasch_seed))
        # where the witness search asks for them, before it places a point
        m.setattr(iso, "certificates_differ", differ)
        m.setattr(psts, "_partners", counting("partners", psts._partners))
        for axes_mode in axes_modes:
            counts.update(dict.fromkeys(WORK_FIELDS, 0))
            classify.audit_claims(axes_mode)
            work[axes_mode] = dict(counts)
    return work


@pytest.fixture(scope="module")
def audit_work():
    """One instrumented audit per mode, shared by the work gates below."""
    return count_audit_work("census", "canonical")


class TestAuditWork:
    """What one audit builds and searches: each spec is built once, and one
    canonical search keys each criterion orbit: 44 orbits of the plain
    family, 25 of the boolean-complementing one.  Its labeling gives the
    center labels, so no search runs with the center pinned.  Free K5
    subgraphs are searched once for each of the 69 searched specs.  The
    searches visit a fixed tree.  Every
    other key, and every other spec's subgraphs, come along a checked map,
    so a silent fallback to searching moves these counts.  The witness
    search runs twice: once from the one searched spec of a plain class
    beyond its representative's, and once for the one pair of class
    representatives that shares a certificate.  The audit's record is its
    only memo, so the counts do not depend on what ran before in the
    process; they are deterministic, and this is a work gate that cannot
    flake."""

    WORK = {
        # the first seven of WORK_FIELDS; the checked maps are 1,371
        # carrying maps and lemma 4.4's 30
        "census": (1440, 69, 69, 2, 693, 453, 1401),
        # 219 carrying maps, lemma 4.4's 30, and 24 more for kappa:id over
        # the non-canonical census axes, whose keys and subgraphs are
        # carried
        "canonical": (312, 69, 69, 2, 693, 453, 273),
    }

    @staticmethod
    def calls(work):
        return tuple(work[name] for name in WORK_FIELDS[:7])

    @pytest.mark.parametrize("axes_mode,expected", WORK.items())
    def test_each_spec_built_and_searched_once(self, audit_work, axes_mode, expected):
        assert self.calls(audit_work[axes_mode]) == expected

    @pytest.mark.parametrize("axes_mode", ["census", "canonical"])
    def test_only_searched_structures_list_partners(self, audit_work, axes_mode):
        """Line partners are listed on first use, and only the 69
        searched structures need them: the canonical search keys them,
        and the witness search refines and searches only them.  The others
        need their lines, degrees and carried subgraphs only."""
        assert audit_work[axes_mode]["partners"] == 69

    def test_second_audit_does_the_same_work(self, audit_work):
        # the shared fixture ran the first canonical audit of the pair
        first = self.calls(audit_work["canonical"])
        second = self.calls(count_audit_work("canonical")["canonical"])
        assert first == second == self.WORK["canonical"]


class TestWitnessRefutations:
    """How the pairs the witness oracle decides in one audit end.  71
    (structure, fixed point) certificates refute 2,278 pairs of class
    representatives before any search: every pair of the 68 class
    representatives of both families but one, and the one pair of
    center-fixing representatives within one plain class.  Two witness
    searches run: backtracking refutes the one pair,
    kappa:(1,2,4)@V5 against kappa:(1,2,4)@V6, and one finds the map that
    joins the two center-fixing orbits of one plain class.
    Deterministic, so a slide back to searching refuted pairs, or to
    refuting by backtracking, fails this gate without flaking."""

    @pytest.mark.parametrize("axes_mode", ["census", "canonical"])
    def test_refinement_refutes_before_backtracking(self, audit_work, axes_mode):
        work = audit_work[axes_mode]
        assert work["certificates"] == 71
        assert (work["certified"], work["refuted"], work["found"]) == (2278, 1, 1)
        assert work["witness"] == work["refuted"] + work["found"]


MEMORY_GATE = textwrap.dedent(
    """
    import gc, sys
    from skewpersp.classify import audit_claims

    gc.collect()
    before = sys.getallocatedblocks()
    report = audit_claims("census")
    del report
    gc.collect()
    print(sys.getallocatedblocks() - before)
    """
)


def test_certificates_differ_exactly_when_joint_refinement_refutes(monkeypatch):
    """Every pair a canonical audit hands the witness search, which decides
    it by certificate or by search, against the joint refinement of the
    pair that the search ran before: certificates differ exactly where it
    refutes, and elsewhere they hand the search its colours."""
    decided = []
    real_find = classify.find_isomorphism

    def find(x, y, fix=None):
        decided.append((x, y, fix))
        return real_find(x, y, fix=fix)

    monkeypatch.setattr(classify, "find_isomorphism", find)
    classify.audit_claims("canonical")
    assert len(decided) == 2280
    refuted = 0
    for x, y, fix in decided:
        joint = joint_refinement(x, y, fix)
        refuted += joint is None
        assert iso.certificates_differ(x, y, fix) == (joint is None)
        if joint is not None:
            px, py = fix or (None, None)
            assert joint == (list(iso._refined(x, px)[1]), list(iso._refined(y, py)[1]))
    assert refuted == 2278


def test_audit_retains_nothing_once_its_report_is_dropped():
    """Run in a fresh interpreter, so nothing the session built counts:
    once a census audit's report is dropped, its structures, keys and
    generators are freed with it.  Only the memos of the index algebra
    stay, as their domains are finite: S4 and pair-map algebra, the
    labeling census, ``VeblenConfig.apply``, ``star_triangles``, the axis
    ranks, the family tables and the axis and join triples of ``build``,
    about 4,880 allocated blocks.  No audit
    runs before the counted one: it would fill any cache keyed by
    structure with the very structures the counted audit asks for.  A
    memo of canonical searches keeps about 16,000 blocks, a memo of free
    K5 subgraphs about 24,600, and a list of the built structures about
    146,000."""
    src = str(Path(classify.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_GATE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 6000


class TestCarriedSearch:
    """One spec of each criterion orbit is searched, and its labeling gives
    the center's orbit label too; every other spec shares its record along
    a checked map.  This keeps the keys, group orders and center labels a
    search of every spec would give."""

    def test_carried_keys_and_groups_match_a_search(self, monkeypatch, census):
        runs = 0
        real = iso._Canonicalizer.run

        def counting(self):
            nonlocal runs
            runs += 1
            return real(self)

        monkeypatch.setattr(iso._Canonicalizer, "run", counting)
        structures = classify._Structures()
        specs = enumerate_family(SkewFamily.PERM, census) + enumerate_family(
            SkewFamily.PERM_KAPPA, census
        )
        carried = [(spec, structures.record(spec)) for spec in specs]
        assert runs == 69
        for spec, r in carried:
            assert r[:3] == searched_record(structures[spec]), spec_text(spec)
        assert runs == 69 + 1440

    def test_census_specs_share_one_record_per_orbit(self, census):
        structures = classify._Structures()
        specs = enumerate_family(SkewFamily.PERM, census) + enumerate_family(
            SkewFamily.PERM_KAPPA, census
        )
        records = {id(r): r for r in map(structures.record, specs)}
        assert (len(specs), len(records)) == (1440, 69)
        for r in records.values():
            assert structures.record(r.source) is r, spec_text(r.source)

    def test_carried_free_k5_match_a_search(self, monkeypatch, census):
        searched = []
        real = psts._free_cliques

        def recording(s, n):
            searched.append(s)
            return real(s, n)

        monkeypatch.setattr(psts, "_free_cliques", recording)
        structures = classify._Structures()
        specs = enumerate_family(SkewFamily.PERM, census) + enumerate_family(
            SkewFamily.PERM_KAPPA, census
        )
        assert len(specs) == 1440
        for spec in specs:
            structures.record(spec)
        carried = {spec: structures[spec].free_k5 for spec in specs}
        # the 69 searched specs alone searched theirs
        assert len(searched) == 69
        for spec, cliques in carried.items():
            assert cliques == real(structures[spec], 5), spec_text(spec)


def swap_entries(monkeypatch, x, y):
    """Patch ``image_perm`` to swap the images of the points named x and y."""
    real = classify.image_perm
    i, j = POINTS.index(x), POINTS.index(y)

    def swapped(spec, phi, case):
        m = list(real(spec, phi, case))
        m[i], m[j] = m[j], m[i]
        return tuple(m)

    monkeypatch.setattr(classify, "image_perm", swapped)


def swap_two_c_points(monkeypatch):
    swap_entries(monkeypatch, c_name(PAIRS[0]), c_name(PAIRS[-1]))


def move_the_center(monkeypatch):
    swap_entries(monkeypatch, CENTER, "a1")


FAULTS = [
    pytest.param(swap_two_c_points, "is no isomorphism", id="map"),
    pytest.param(move_the_center, "map .* moves the center", id="map-moves-center"),
]


class TestCarriedSearchFaults:
    """A carrying map that fails its check is a program bug: the audit
    raises instead of searching."""

    @pytest.mark.parametrize("fault,message", FAULTS)
    def test_audit_raises(self, monkeypatch, fault, message):
        fault(monkeypatch)
        with pytest.raises(OracleInconsistencyError, match=message):
            classify.audit_claims("census")

    @pytest.mark.parametrize("fault,message", FAULTS)
    def test_cli_exits_70(self, monkeypatch, capsys, fault, message):
        fault(monkeypatch)
        code = cli.main(["audit", "--axes", "census"])
        out, err = capsys.readouterr()
        assert code == cli.EX_SOFTWARE == 70
        assert out == ""
        assert err.startswith("internal oracle inconsistency: ")
        assert re.search(message, err)


@pytest.fixture(scope="module")
def transitive_victim(perm_specs):
    """The one center-fixing representative of the plain family whose
    plain class has an earlier representative, and that representative:
    only their plain witness backs the plain partition beyond the
    center-fixing one."""
    structures = classify._Structures()
    fixing, plain = {}, {}
    for s in perm_specs:
        r = structures.record(s)
        fixing.setdefault((r.key, r.center), s)
        plain.setdefault(r.key, s)
    assert (len(fixing), len(plain)) == (44, 43)
    (victim,) = set(fixing.values()) - set(plain.values())
    return victim, plain[structures.record(victim).key]


class TestTransitiveWitnessFault:
    """Plain witnesses by transitivity: every member has a checked
    center-fixing map onto its orbit's searched spec, and those need plain
    witnesses onto their plain class representative's.  A search that
    finds none for the one that is not a plain representative fails the
    audit."""

    @staticmethod
    def _patch(monkeypatch, victim):
        real = classify.find_isomorphism
        victim_built = build(victim)

        def fake(x, y, fix=None):
            return None if fix is None and x == victim_built else real(x, y, fix=fix)

        monkeypatch.setattr(classify, "find_isomorphism", fake)

    def test_audit_raises(self, monkeypatch, transitive_victim):
        victim, rep = transitive_victim
        self._patch(monkeypatch, victim)
        with pytest.raises(OracleInconsistencyError, match="no witness") as e:
            classify.audit_claims("canonical")
        assert f"{spec_text(victim)} vs {spec_text(rep)}" in str(e.value)

    def test_cli_exits_70(self, monkeypatch, capsys, transitive_victim):
        victim, rep = transitive_victim
        self._patch(monkeypatch, victim)
        code = cli.main(["audit", "--axes", "canonical"])
        out, err = capsys.readouterr()
        assert code == cli.EX_SOFTWARE == 70
        assert out == ""
        assert err.startswith("internal oracle inconsistency: equal keys but no witness: ")
        assert f"{spec_text(victim)} vs {spec_text(rep)}" in err


class TestRepresentativeRefutationFaults:
    """The witness search refutes every pair of plain representatives with
    no point fixed, and every pair of class representatives across the two
    families, so neither the 43 plain classes nor lemma 4.3's "collisions:
    0" rests on canonical keys alone.  A search that finds a map between
    two representatives fails the audit."""

    @pytest.fixture(params=["plain", "cross-family"])
    def pair(self, request, perm_classes, kappa_classes):
        if request.param == "plain":
            # only a map with no fixed point: the center-fixing search
            # still refutes the pair
            return perm_classes[0].representative, perm_classes[1].representative, True
        return perm_classes[0].representative, kappa_classes[0].representative, False

    @staticmethod
    def _patch(monkeypatch, pair):
        r1, r2, plain_only = pair
        built = {build(r1), build(r2)}
        real = classify.find_isomorphism

        def hit(x, y, fix):
            return {x, y} == built and (fix is None or not plain_only)

        monkeypatch.setattr(
            classify,
            "find_isomorphism",
            lambda x, y, fix=None: tuple(range(len(x.points))) if hit(x, y, fix) else real(x, y, fix=fix),
        )
        return f"witness found but keys differ: {spec_text(r1)} vs {spec_text(r2)}"

    def test_claim_raises(self, monkeypatch, pair, perm_specs, kappa_specs):
        message = self._patch(monkeypatch, pair)
        structures = classify._Structures()
        perm = partition_into_classes(perm_specs, structures=structures)
        kappa = partition_into_classes(kappa_specs, structures=structures)
        with pytest.raises(OracleInconsistencyError, match="keys differ") as e:
            classify._check_partitions(structures, perm, kappa, perm_specs)
        assert message in str(e.value)

    def test_cli_exits_70(self, monkeypatch, capsys, pair):
        message = self._patch(monkeypatch, pair)
        code = cli.main(["audit", "--axes", "canonical"])
        out, err = capsys.readouterr()
        assert code == cli.EX_SOFTWARE == 70
        assert out == ""
        assert err == f"internal oracle inconsistency: {message}\n"


class TestCenterMovingAutomorphismFault:
    """Corollary 4.2 is decided on each complementing orbit's searched
    spec: the center alone in its cell of the witness refinement, or every
    point that shares the cell refuted as the center's image.  A source
    whose center shares a cell with q, and whose search finds a self-map
    sending the center to q, turns the claim into a MISMATCH for its whole
    orbit."""

    def test_claim_names_the_spec(self, monkeypatch, kappa_classes):
        victim = kappa_classes[0].representative
        victim_built = build(victim)
        q = 0  # not the center
        assert q != CENTER_INDEX
        moved = list(range(len(POINTS)))
        moved[CENTER_INDEX], moved[q] = q, CENTER_INDEX
        real_refined, real_find = classify._refined, classify.find_isomorphism

        def refined(s, fix):
            cert, colors = real_refined(s, fix)
            if fix is None and s == victim_built:
                colors = tuple(colors[CENTER_INDEX] if i == q else c for i, c in enumerate(colors))
            return cert, colors

        def find(x, y, fix=None):
            if fix == (CENTER_INDEX, q) and x == y == victim_built:
                return tuple(moved)
            return real_find(x, y, fix=fix)

        monkeypatch.setattr(classify, "_refined", refined)
        monkeypatch.setattr(classify, "find_isomorphism", find)
        f = classify.audit_claims("canonical").finding("cor_4_2")
        assert f.verdict == "MISMATCH"
        assert f.computed["center_moved"] == len(kappa_classes[0].members)
        assert f.witnesses[0] == f"{spec_text(victim)}: an automorphism moves the center"


class TestPublishedData:
    def test_entry_counts(self):
        assert len(THEOREM_3_4_ENTRIES) == PUBLISHED_PERM_CLASS_COUNT == 42
        assert len(THEOREM_4_9_ENTRIES) == PUBLISHED_KAPPA_CLASS_COUNT == 20
        assert PUBLISHED_TOTAL_COUNT == 62

    def test_entries_parse(self):
        for _, _, cycles in THEOREM_3_4_ENTRIES + THEOREM_4_9_ENTRIES:
            parse_spec_text(f"perm:{cycles}@G2")

    def test_published_lemma_2_3_counts(self):
        assert {k.value: len(v) for k, v in LEMMA_2_3_PUBLISHED.items()} == {
            "G2": 5, "B2": 10, "V5": 7,
        }

    def test_published_aut_orders(self):
        assert {k.value: n for k, n in FACT_2_2_PUBLISHED_ORDERS.items()} == {
            "G2": 24, "G2_STAR": 24, "B2": 4, "V4": 4, "V5": 6, "V6": 6,
        }


class TestAudit:
    def test_verdicts(self, census_audit):
        got = {f.claim_id: f.verdict for f in census_audit.findings}
        assert got == EXPECTED_VERDICTS
        assert not census_audit.all_match

    def test_every_mismatch_carries_witnesses(self, census_audit):
        for f in census_audit.findings:
            if f.verdict == "MISMATCH":
                assert f.witnesses, f.claim_id

    def test_finding_lookup(self, census_audit):
        assert census_audit.finding("lemma_3_1").verdict == "MATCH"
        with pytest.raises(KeyError):
            census_audit.finding("nope")

    def test_theorem_3_4_details(self, census_audit):
        f = census_audit.finding("theorem_3_4")
        assert f.computed["classes"] == 43
        assert f.computed["entries"] == 42
        assert f.computed["entries_in_distinct_classes"] is True
        assert f.computed["classes_without_entry"] == 1
        assert f.computed["unmatched"] == ["perm:(1,2)@B2"]
        assert any("perm:(1,2)@B2" in w for w in f.witnesses)

    def test_theorem_3_4_labels_cover_the_list(self, census_audit):
        labels = [
            c.published_label
            for c in census_audit.perm_classes
            if c.published_label is not None
        ]
        assert len(labels) == 42 and len(set(labels)) == 42

    def test_unlabeled_perm_class_is_new(self, census_audit):
        orphans = [
            c for c in census_audit.perm_classes if c.published_label is None
        ]
        assert len(orphans) == 1
        rep = orphans[0].representative
        assert spec_text(rep) == "perm:(1,2)@B2"
        for _, kind, cycles in THEOREM_3_4_ENTRIES:
            entry = parse_spec_text(f"perm:{cycles}@{kind.value}")
            assert find_isomorphism(build(rep), build(entry)) is None

    def test_theorem_4_9_details(self, census_audit):
        f = census_audit.finding("theorem_4_9")
        assert f.computed["classes"] == 25
        assert f.computed["entries"] == 20
        assert f.computed["entries_in_distinct_classes"] is True
        assert f.computed["classes_without_entry"] == 5
        assert sorted(f.computed["unmatched"]) == [
            "kappa:(1,2,3,4)@V6",
            "kappa:(1,2,4)@V6",
            "kappa:(1,3,2,4)@B2",
            "kappa:(2,3)@B2",
            "kappa:(2,3,4)@V6",
        ]

    def test_fact_2_2_divergence(self, census_audit):
        f = census_audit.finding("fact_2_2")
        assert f.computed == {
            "G2": 24, "G2_STAR": 24, "B2": 4, "V4": 4, "V5": 3, "V6": 3,
        }
        assert f.published == {
            "G2": 24, "G2_STAR": 24, "B2": 4, "V4": 4, "V5": 6, "V6": 6,
        }

    def test_lemma_2_3_v5_divergence(self, census_audit):
        f = census_audit.finding("lemma_2_3_v5")
        assert f.computed["classes"] == 10
        assert f.published["classes"] == 7

    def test_total_count(self, census_audit):
        f = census_audit.finding("total_count")
        assert f.computed["total"] == 68
        assert f.published["total"] == 62

    def test_census_mode_notes(self, census_audit):
        f34 = census_audit.finding("theorem_3_4")
        f49 = census_audit.finding("theorem_4_9")
        assert f34.computed["classes_beyond_canonical_axes"] == 0
        assert f49.computed["classes_beyond_canonical_axes"] == 0

    def test_oracle_inconsistency_is_internal(self):
        assert issubclass(OracleInconsistencyError, RuntimeError)
        assert not issubclass(OracleInconsistencyError, ValueError)


class TestRendering:
    def test_text_shape(self, census_audit):
        text = render_text(census_audit)
        assert "43 classes" in text and "25 classes" in text
        assert text.count("verdict:") == 1
        assert "5 MISMATCH" in text
        for claim_id in EXPECTED_VERDICTS:
            assert claim_id in text

    def test_structured_loads(self, census_audit):
        doc = json.loads(render_structured(census_audit))
        assert doc["census_size"] == 30
        assert len(doc["families"]["perm"]["classes"]) == 43
        assert len(doc["families"]["kappa"]["classes"]) == 25
        by_id = {f["id"]: f for f in doc["findings"]}
        assert by_id["theorem_4_9"]["verdict"] == "MISMATCH"

    def test_rendering_is_deterministic(self, census_audit):
        assert render_text(census_audit) == render_text(census_audit)
        assert render_structured(census_audit) == render_structured(census_audit)

    def test_census_report_bytes(self, census_audit):
        digest = hashlib.sha256(render_text(census_audit).encode()).hexdigest()
        assert digest == "8d4c6cad82db229d194ae7895372d093b7881450a224d71980e37c5b781c3bdc"

    def test_census_structured_bytes(self, census_audit):
        digest = hashlib.sha256(render_structured(census_audit).encode()).hexdigest()
        assert digest == "f42f9f011a113681e694230c664373021db127f63203c6c537ad16e364f405a6"

    def test_class_key_digests(self, perm_classes, kappa_classes):
        # every key of the canonical-axes partition, frozen as one digest
        joined = " ".join(c.key.digest for c in perm_classes + kappa_classes)
        digest = hashlib.sha256(joined.encode()).hexdigest()
        assert digest == "c91088feb571b91e195565d95940cbcc262d2cb686a61a6658e4b55fc83ea61c"
