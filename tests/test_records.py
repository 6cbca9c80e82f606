"""The package's records are tuples: each is equal, ordered and hashed as
the tuple of its fields, as the frozen dataclasses they replace were, so
no set or dict order can move."""

import hashlib
import itertools

from skewpersp.indices import ALL_PERMS, INDICES, PAIRS
from skewpersp.veblen import enumerate_labelings


def field_hash(x):
    """``hash(x)``, or ``TypeError`` when a field (a dict) is unhashable."""
    try:
        return hash(x)
    except TypeError:
        return TypeError


def records(report):
    """One instance of each of the four records, by name."""
    iso_class = report.kappa_classes[-1]
    return {
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
        assert not hasattr(record, "__dict__"), name  # nothing beside the fields
        assert field_hash(record) == field_hash(fields), name
    assert field_hash(found["Finding"]) is TypeError  # its computed values are a dict


def test_enumeration_orders_are_kept():
    assert list(ALL_PERMS) == sorted(itertools.permutations(INDICES))
    assert list(ALL_PERMS) == sorted(ALL_PERMS)
    assert list(PAIRS) == sorted(PAIRS) == list(itertools.combinations(INDICES, 2))
    keys = list(enumerate_labelings())
    assert keys == sorted(keys) and len(set(keys)) == 30
    assert hashlib.sha256(repr(keys).encode()).hexdigest()[:12] == "4ce43a62f77a"
