"""The mutant catalogue in ``tests/mutants.py`` stays applicable: each
snippet occurs exactly once in ``src/``, in the file its entry names, and
each listed test exists.  No mutant runs here; ``python tests/mutants.py``
runs them."""

from pathlib import Path

import pytest
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_once_in_src(mutant):
    counts = {
        str(p.relative_to(ROOT)): p.read_text().count(mutant.snippet)
        for p in (ROOT / "src").rglob("*.py")
    }
    assert counts[mutant.path] == 1
    assert sum(counts.values()) == 1
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_listed_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        text = (ROOT / path).read_text()
        for name in names[:-1]:
            assert f"class {name}" in text, node
        assert f"def {names[-1].partition('[')[0]}(" in text, node
