"""A catalogue of hand-made mutants of ``src/skewpersp``, and a runner that
reports which of them the tests kill.

Each entry names a file under ``src/``, an exact snippet that occurs once
in all of ``src/``, its replacement, and the test ids expected to fail.
The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, applies one mutant there, and runs pytest on the
copy, so the working tree is never touched:

    python tests/mutants.py          # each mutant against its listed tests
    python tests/mutants.py --all    # each mutant against the whole suite

A mutant is killed when a test fails on it.  With ``--all`` the suite runs
once unmutated first, and only a test that passes there and fails on the
mutant kills it, so a test that fails by design kills nothing.  The
catalogue's own gate, ``tests/test_mutants.py``, is left out of these
runs: a mutated copy no longer holds its snippet, so the gate would kill
every mutant.  The exit status is 0 when every mutant is killed and 1 when
one survives.

This module is not a test module: pytest does not collect it.
``tests/test_mutants.py`` checks on every run, without running a mutant,
that each snippet still occurs exactly once, so an entry breaks loudly
when its code moves.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids expected to fail


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "orbit-label-without-minimum",
        "src/skewpersp/iso.py",
        "return min(labeling[i] for i in _orbit(x, gens))",
        "return labeling[x]",
        ("tests/test_iso.py::TestCanonicalKey::test_pinned_keys_decide_fixed_isomorphism",),
    ),
    Mutant(
        "constant-center-label",
        "src/skewpersp/classify.py",
        "orbit_label(labeling, gens, CENTER_INDEX), spec)",
        "0, spec)",
        (
            "tests/test_classify.py::TestCarriedSearch::test_carried_keys_and_groups_match_a_search",
            "tests/test_acceptance.py::test_criterion_06_plain_family_criterion_vs_oracle",
        ),
    ),
    Mutant(
        "center-fixing-classes-by-key-alone",
        "src/skewpersp/classify.py",
        "[(r.key, r.center) for r in map(structures.record, perm_specs)]",
        "[r.key for r in map(structures.record, perm_specs)]",
        (
            "tests/test_classify.py::TestAudit::test_verdicts",
            "tests/test_acceptance.py::test_criterion_06_plain_family_criterion_vs_oracle",
        ),
    ),
    Mutant(
        "carried-record-names-the-member",
        "src/skewpersp/classify.py",
        "return self._records[(source.family, source.sid)]",
        "return self._records[(source.family, source.sid)]._replace(source=spec)",
        (
            "tests/test_classify.py::TestWitnessRefutations::test_refinement_refutes_before_backtracking[census]",
            "tests/test_classify.py::TestWitnessRefutations::test_refinement_refutes_before_backtracking[canonical]",
        ),
    ),
    Mutant(
        "carry-without-center-check",
        "src/skewpersp/classify.py",
        "moves = m[CENTER_INDEX] != CENTER_INDEX",
        "moves = False",
        (
            "tests/test_classify.py::TestCarriedSearchFaults::test_audit_raises[map-moves-center]",
            "tests/test_classify.py::TestCarriedSearchFaults::test_cli_exits_70[map-moves-center]",
        ),
    ),
    Mutant(
        "carry-without-line-check",
        "src/skewpersp/classify.py",
        "if moves or not _is_isomorphism(t, s, m):",
        "if moves:",
        ("tests/test_classify.py::TestCarriedSearchFaults::test_audit_raises[map]",),
    ),
    Mutant(
        "cor-4-2-refutes-no-point",
        "src/skewpersp/classify.py",
        "if c == colors[CENTER_INDEX] and q != CENTER_INDEX",
        "if False",
        ("tests/test_classify.py::TestCenterMovingAutomorphismFault::test_claim_names_the_spec",),
    ),
    Mutant(
        "digest-with-swapped-fields",
        "src/skewpersp/iso.py",
        "repr((self.point_count, self.line_count, self.encoding))",
        "repr((self.line_count, self.point_count, self.encoding))",
        (
            "tests/test_classify.py::TestRendering::test_class_key_digests",
            "tests/test_iso.py::TestCanonicalKey::test_digest_matches_hashlib_on_the_class_keys",
        ),
    ),
    Mutant(
        "pruned-ignores-path",
        "src/skewpersp/iso.py",
        "usable = [g for g in self.auts if all(g[v] == v for v in path)]",
        "usable = self.auts",
        ("tests/test_iso.py::TestPruning::test_only_path_fixing_automorphisms_prune",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(root: Path, m: Mutant) -> None:
    path = root / m.path
    text = path.read_text()
    if text.count(m.snippet) != 1:
        raise SystemExit(f"{m.name}: the snippet occurs {text.count(m.snippet)} times in {m.path}")
    path.write_text(text.replace(m.snippet, m.replacement))


def _pytest(root: Path, args: list[str]) -> tuple[int, set[str]]:
    """Exit code of pytest on the copy at ``root``, and the ids of the
    tests that failed or errored there."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args,
         "--ignore", "tests/test_mutants.py"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = set()
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    return proc.returncode, failed


def run(mutants: tuple[Mutant, ...], whole_suite: bool) -> bool:
    """Run each mutant on a fresh copy and print one line per mutant;
    True when every one was killed."""
    all_killed = True
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        baseline: set[str] = set()
        if whole_suite:
            base = Path(tmp) / "unmutated"
            _copy(base)
            _, baseline = _pytest(base, [])
        for m in mutants:
            root = Path(tmp) / m.name
            _copy(root)
            _apply(root, m)
            code, failed = _pytest(root, [] if whole_suite else list(m.tests))
            if code not in (0, 1):
                raise SystemExit(f"{m.name}: pytest exited {code}; check the listed test ids")
            killers = sorted(failed - baseline)
            missed = [t for t in m.tests if t not in failed]
            all_killed = all_killed and bool(killers)
            print(f"{m.name}: {'killed' if killers else 'SURVIVED'} ({len(killers)} failed)")
            for t in killers:
                print(f"  failed: {t}")
            for t in missed:
                print(f"  listed but passed: {t}")
    return all_killed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutant catalogue against the tests.")
    parser.add_argument("--all", action="store_true", help="run the whole suite against each mutant")
    args = parser.parse_args(argv)
    return 0 if run(MUTANTS, args.all) else 1


if __name__ == "__main__":
    sys.exit(main())
