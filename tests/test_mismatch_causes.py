"""Why the audit reports its five MISMATCHes, traced to their causes in
the census audit's own classes.

The published side comes only from ``THEOREM_3_4_ENTRIES``,
``THEOREM_4_9_ENTRIES`` and ``LEMMA_2_3_PUBLISHED`` (and the audit's own
record of Fact 2.2); every other number is computed here, from the classes
or from ``veblen``.  Two causes explain all five:

* V5's automorphism group has order 3, not the 6 that Fact 2.2 prints.
  Lemma 2.3's V5 list is a transversal of S4 under the order-6 stabilizer
  of the point that V5's group fixes, so it names 7 classes where V5's own
  group gives 10 (``fact_2_2``, ``lemma_2_3_v5``).
* Some of Lemma 2.3's representatives reach no entry of the theorems.

Complementing family, 25 classes against 20 (``theorem_4_9``): every class
spans one partner pair of canonical axes and cuts each axis into Lemma
2.3's classes, 5 + 10 + 10.  Its B2 list skips two of Lemma 2.3's B2
representatives, and its V5 list is Lemma 2.3's, which misses three V5
classes.  Plain family, 43 against 42 (``theorem_3_4``): on V5 and V6 the
plain classes are the order-6 group's 7, so those lists are right; the
other axes give Lemma 2.3's classes; one class spans B2 and G2; and the B2
list skips Lemma 2.3's (1,2).  The total, 68 against 62, adds the two.

The report does not change when a check here fails: the explanation is
then wrong, not the audit.  Corrected by exactly these causes, the
publication passes the audit: ``verdict: ALL MATCH`` and exit 0."""

import pytest

from skewpersp import classify, cli
from skewpersp.classify import (
    FACT_2_2_PUBLISHED_ORDERS,
    LEMMA_2_3_PUBLISHED,
    THEOREM_3_4_ENTRIES,
    THEOREM_4_9_ENTRIES,
)
from skewpersp.indices import ALL_PERMS, conjugacy_classes_under, parse_cycles, render_cycles
from skewpersp.perspective import KAPPA, PERM, decode_spec, encode_spec, spec_text
from skewpersp.veblen import PARTNER, CanonicalKind, aut_perms, canonical, lemma23_representatives

K = CanonicalKind
KIND_OF_AXIS = {canonical(kind): kind for kind in K}


def on_axis(classes, kind):
    """The partition of S4 that the classes cut on the canonical axis of
    ``kind``: the perms of each class's members there."""
    axis = canonical(kind)
    cells = (frozenset(p for _, p, v in map(decode_spec, c.members) if v == axis) for c in classes)
    return {cell for cell in cells if cell}


def lemma_classes(kind):
    return {frozenset(cls) for cls in lemma23_representatives(kind)}


def kinds(c):
    """The canonical kinds of a class's members' axes."""
    axes = {decode_spec(m)[2] for m in c.members}
    return {KIND_OF_AXIS[v] for v in axes if v in KIND_OF_AXIS}


def class_of(classes, family, kind, perm):
    spec = encode_spec(family, perm, canonical(kind))
    return next(c for c in classes if spec in c.members)


def entry_perms(entries, kind):
    return {parse_cycles(phi) for _, k, phi in entries if k is kind}


def printed(kind):
    """Lemma 2.3's printed representatives for the axis of ``kind``."""
    return {parse_cycles(phi) for phi in LEMMA_2_3_PUBLISHED[kind]}


def unmatched(report, claim_id, classes):
    """The classes that the audit finds no entry for, checked against the
    classes that no entry is a member of."""
    texts = report.finding(claim_id).computed["unmatched"]
    family = decode_spec(classes[0].representative)[0]
    entries = THEOREM_3_4_ENTRIES if family == PERM else THEOREM_4_9_ENTRIES
    reached = {class_of(classes, family, kind, parse_cycles(phi)).class_id for _, kind, phi in entries}
    assert len(reached) == len(entries)
    missed = [c for c in classes if c.class_id not in reached]
    assert texts == [spec_text(c.representative) for c in missed]
    return {c.class_id for c in missed}


@pytest.fixture(scope="module")
def v5_stabilizer():
    """S4's stabilizer of the points that V5's automorphism group fixes."""
    fixed = [i for i in range(1, 5) if all(ALL_PERMS[g][i - 1] == i for g in aut_perms(canonical(K.V5)))]
    return frozenset(p for p, img in enumerate(ALL_PERMS) if all(img[i - 1] == i for i in fixed))


def test_v5_lemma_list_follows_the_printed_group_order(census_audit, v5_stabilizer):
    fact = census_audit.finding("fact_2_2")
    assert len(aut_perms(canonical(K.V5))) == fact.computed["V5"] < fact.published["V5"]
    assert set(aut_perms(canonical(K.V5))) < v5_stabilizer and len(v5_stabilizer) == fact.published["V5"]
    reps = printed(K.V5)
    wider = conjugacy_classes_under(v5_stabilizer)
    assert sorted(len(reps & set(cls)) for cls in wider) == [1] * len(reps)
    missing = [cls for cls in lemma23_representatives(K.V5) if not reps & set(cls)]
    assert len(lemma_classes(K.V5)) - len(reps) == len(missing)
    assert census_audit.finding("lemma_2_3_v5").witnesses == tuple(
        f"class of {render_cycles(cls[0])} (size {len(cls)}) has no printed representative" for cls in missing
    )


class TestComplementingFamily:
    def test_each_class_spans_one_partner_pair(self, census_audit):
        classes = census_audit.kappa_classes
        spans = [kinds(c) for c in classes]
        assert all(span == {kind, PARTNER[kind]} for span in spans for kind in span)
        for kind in (K.G2, K.B2, K.V5):
            assert spans.count({kind, PARTNER[kind]}) == len(lemma_classes(kind))

    @pytest.mark.parametrize("kind", list(K), ids=str)
    def test_each_axis_is_cut_into_lemma_2_3_classes(self, census_audit, kind):
        assert on_axis(census_audit.kappa_classes, kind) == lemma_classes(kind)

    def test_unmatched_classes_are_skipped_b2_and_missing_v5_representatives(self, census_audit):
        classes = census_audit.kappa_classes
        kappa = KAPPA
        skipped = printed(K.B2) - entry_perms(THEOREM_4_9_ENTRIES, K.B2)
        listed = entry_perms(THEOREM_4_9_ENTRIES, K.V5)
        assert listed == printed(K.V5)
        missing = [cls for cls in lemma23_representatives(K.V5) if not listed & set(cls)]
        b2 = {class_of(classes, kappa, K.B2, p) for p in skipped}
        v5 = {class_of(classes, kappa, K.V5, cls[0]) for cls in missing}
        assert {spec_text(c.representative) for c in b2} == {"kappa:(2,3)@B2", "kappa:(1,3,2,4)@B2"}
        # the report names each V5 class by its member over V6
        assert all(decode_spec(c.representative)[2] == canonical(K.V6) for c in v5) and len(v5) == 3
        assert unmatched(census_audit, "theorem_4_9", classes) == {c.class_id for c in b2 | v5}
        assert len(classes) - len(THEOREM_4_9_ENTRIES) == len(b2 | v5)


class TestPlainFamily:
    @pytest.mark.parametrize("kind", [K.G2, K.G2_STAR, K.B2, K.V4], ids=str)
    def test_axes_of_larger_groups_are_cut_into_lemma_2_3_classes(self, census_audit, kind):
        assert on_axis(census_audit.perm_classes, kind) == lemma_classes(kind)

    @pytest.mark.parametrize("kind", [K.V5, K.V6], ids=str)
    def test_v5_and_v6_are_cut_by_the_order_6_group(self, census_audit, v5_stabilizer, kind):
        cells = on_axis(census_audit.perm_classes, kind)
        assert cells == {frozenset(cls) for cls in conjugacy_classes_under(v5_stabilizer)}
        assert len(cells) < len(lemma_classes(kind))
        # so Theorem 3.4's list for the axis names each of its classes once
        entries = entry_perms(THEOREM_3_4_ENTRIES, kind)
        assert sorted(len(entries & cell) for cell in cells) == [1] * len(cells)

    def test_one_class_spans_two_axes(self, census_audit):
        classes = census_audit.perm_classes
        spanning = [c for c in classes if len(kinds(c)) > 1]
        assert len(spanning) == 1 and kinds(spanning[0]) == {K.B2, K.G2}
        assert {"perm:id@B2", "perm:(3,4)@G2"} <= {spec_text(m) for m in spanning[0].members}
        assert sum(len(on_axis(classes, kind)) for kind in K) - 1 == len(classes)

    def test_the_unmatched_class_is_lemma_2_3s_b2_representative_1_2(self, census_audit):
        classes = census_audit.perm_classes
        perm = PERM
        # B2's cells without a B2 entry, less those an entry over another axis reaches
        cells = [cell for cell in on_axis(classes, K.B2) if not entry_perms(THEOREM_3_4_ENTRIES, K.B2) & cell]
        others = {
            class_of(classes, perm, kind, parse_cycles(phi))
            for _, kind, phi in THEOREM_3_4_ENTRIES
            if kind is not K.B2
        }
        missed = {class_of(classes, perm, K.B2, min(cell)) for cell in cells} - others
        assert [spec_text(c.representative) for c in missed] == ["perm:(1,2)@B2"]
        assert parse_cycles("(1,2)") in printed(K.B2)
        assert unmatched(census_audit, "theorem_3_4", classes) == {c.class_id for c in missed}
        assert len(classes) - len(THEOREM_3_4_ENTRIES) == len(missed)


def test_the_total_adds_the_two_families(census_audit):
    total = census_audit.finding("total_count")
    assert total.published["total"] == len(THEOREM_3_4_ENTRIES) + len(THEOREM_4_9_ENTRIES)
    gap = total.computed["total"] - total.published["total"]
    theorems = ("theorem_3_4", "theorem_4_9")
    assert gap == sum(len(census_audit.finding(t).computed["unmatched"]) for t in theorems)
    assert [f.claim_id for f in census_audit.findings if f.verdict == "MISMATCH"] == [
        "fact_2_2", "lemma_2_3_v5", "theorem_3_4", "theorem_4_9", "total_count",
    ]


@pytest.fixture
def erratum(monkeypatch):
    """The publication corrected by the causes traced above, patched into
    ``classify`` for one test; the paper's constants stay as printed."""
    missing_v5 = [cls[0] for cls in lemma23_representatives(K.V5) if not printed(K.V5) & set(cls)]
    skipped_b2 = sorted(printed(K.B2) - entry_perms(THEOREM_4_9_ENTRIES, K.B2))
    v5_order = len(aut_perms(canonical(K.V5)))
    added = [(K.B2, p) for p in skipped_b2] + [(K.V5, p) for p in missing_v5]
    kappa = THEOREM_4_9_ENTRIES + tuple((f"e{n}", kind, render_cycles(p)) for n, (kind, p) in enumerate(added, 1))
    plain = THEOREM_3_4_ENTRIES + (("e1", K.B2, "(1,2)"),)
    corrected = {
        "FACT_2_2_PUBLISHED_ORDERS": {**FACT_2_2_PUBLISHED_ORDERS, K.V5: v5_order, K.V6: v5_order},
        "LEMMA_2_3_PUBLISHED": {
            **LEMMA_2_3_PUBLISHED,
            K.V5: LEMMA_2_3_PUBLISHED[K.V5] + tuple(map(render_cycles, missing_v5)),
        },
        "THEOREM_3_4_ENTRIES": plain,
        "THEOREM_4_9_ENTRIES": kappa,
        "PUBLISHED_PERM_CLASS_COUNT": len(plain),
        "PUBLISHED_KAPPA_CLASS_COUNT": len(kappa),
        "PUBLISHED_TOTAL_COUNT": len(plain) + len(kappa),
    }
    assert (len(plain), len(kappa)) == (43, 25)
    for name, value in corrected.items():
        monkeypatch.setattr(classify, name, value)


def test_the_audit_accepts_the_corrected_publication(erratum, capsys):
    code = cli.main(["audit", "--axes", "census"])
    out = capsys.readouterr().out
    assert (code, out.splitlines()[-1]) == (cli.EX_OK, "verdict: ALL MATCH")
    assert "MISMATCH" not in out
    assert classify.audit_claims("census").all_match
