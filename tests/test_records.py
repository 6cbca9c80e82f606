"""The package's records are tuples: each is equal, ordered and hashed as
the tuple of its fields, as the frozen dataclasses they replace were, so
no set or dict order can move, and each checks its fields however it is
built."""

import hashlib
import itertools

import pytest

from skewpersp.indices import ALL_PERMS, INDICES, PAIRS, parse_cycles
from skewpersp.perspective import PerspectiveSpec, SkewFamily
from skewpersp.veblen import CanonicalKind, VeblenConfig, canonical, enumerate_labelings


def field_hash(x):
    """``hash(x)``, or ``TypeError`` when a field (a dict) is unhashable."""
    try:
        return hash(x)
    except TypeError:
        return TypeError


def records(report):
    """One instance of each of the six records, by name."""
    perm = parse_cycles("(1,2,3)")
    axis = canonical(CanonicalKind.V5)
    spec = PerspectiveSpec(SkewFamily.PERM_KAPPA, perm, axis)
    spec.sid  # the cached id sits beside the fields, outside the tuple
    iso_class = report.kappa_classes[-1]
    return {
        "VeblenConfig": axis,
        "PerspectiveSpec": spec,
        "CanonicalKey": iso_class.key,
        "IsoClass": iso_class,
        "Finding": report.findings[0],
        "ClassificationReport": report,
    }


def test_each_record_hashes_and_compares_as_its_field_tuple(census_audit):
    found = records(census_audit)
    assert sorted(found) == sorted(type(x).__name__ for x in found.values())
    for name, record in found.items():
        fields = tuple(getattr(record, f) for f in record._fields)
        assert record == fields, name
        assert field_hash(record) == field_hash(fields), name
    assert field_hash(found["Finding"]) is TypeError  # its computed values are a dict


def test_enumeration_orders_are_kept():
    assert list(ALL_PERMS) == sorted(itertools.permutations(INDICES))
    assert list(ALL_PERMS) == sorted(ALL_PERMS)
    assert list(PAIRS) == sorted(PAIRS) == list(itertools.combinations(INDICES, 2))
    keys = [v.sort_key() for v in enumerate_labelings()]
    assert keys == sorted(keys) and len(set(keys)) == 30
    assert hashlib.sha256(repr(keys).encode()).hexdigest()[:12] == "4ce43a62f77a"


@pytest.mark.parametrize(
    "build",
    [
        lambda: canonical(CanonicalKind.G2)._replace(lines=canonical(CanonicalKind.G2).lines[:3]),
    ],
    ids=["veblen-replace"],
)
def test_every_way_of_building_a_record_checks_it(build):
    with pytest.raises(ValueError):
        build()


def test_replace_keeps_the_normal_form():
    g2 = canonical(CanonicalKind.G2)
    assert g2._replace(lines=tuple(reversed(g2.lines))) == g2
    assert isinstance(g2._replace(lines=g2.lines), VeblenConfig)
