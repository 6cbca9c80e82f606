"""Shared fixtures.

The full-census audit is the single most expensive object the suite needs,
so it is computed once per session and shared; everything downstream treats
the report as read-only.
"""

import pytest

from skewpersp.classify import (
    FamilyTag,
    audit_claims,
    canonical_axes,
    enumerate_family,
    partition_into_classes,
)
from skewpersp.psts import Psts
from skewpersp.veblen import PAIR_NAMES, enumerate_labelings


def relabel(s, mapping):
    """``s`` with every point renamed through ``mapping``."""
    return Psts([mapping[x] for x in s.points], [[mapping[x] for x in ln] for ln in s.lines])


def axis_psts(v):
    """The labeling ``v`` as a structure on the pair points c12 .. c34,
    the names an axis file uses."""
    return Psts(PAIR_NAMES.values(), [[PAIR_NAMES[u] for u in ln] for ln in v.lines])


@pytest.fixture(scope="session")
def census():
    return enumerate_labelings()


@pytest.fixture(scope="session")
def axes():
    return canonical_axes()


@pytest.fixture(scope="session")
def perm_specs(axes):
    return enumerate_family(FamilyTag.PERM_FAMILY, axes)


@pytest.fixture(scope="session")
def kappa_specs(axes):
    return enumerate_family(FamilyTag.KAPPA_FAMILY, axes)


@pytest.fixture(scope="session")
def perm_classes(perm_specs):
    return partition_into_classes(perm_specs)


@pytest.fixture(scope="session")
def kappa_classes(kappa_specs):
    return partition_into_classes(kappa_specs)


@pytest.fixture(scope="session")
def census_audit():
    return audit_claims(axes_mode="census")
