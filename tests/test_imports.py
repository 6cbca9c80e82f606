"""Every top-level import of the package and of the tests is used."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "skewpersp").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that no
    name or attribute base in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nfrom a.b import c, d\nprint(d)\n") == [
        "os",
        "system",
        "c",
    ]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_no_unused_top_level_imports():
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path.read_text()) for path in FILES}
    assert {path: names for path, names in found.items() if names} == {}


def package_imports(source: str) -> set[str]:
    """The package modules ``source`` imports from anywhere in it, by bare
    name: ``from .psts import Psts``, ``from . import psts`` and
    ``import skewpersp.psts`` all give ``psts``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["skewpersp" if node.level else None, node.module]))
            if module == "skewpersp":
                found.update(alias.name for alias in node.names)
            elif module.startswith("skewpersp."):
                found.add(module.removeprefix("skewpersp."))
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("skewpersp.") for a in node.names if a.name.startswith("skewpersp."))
    return found


def test_the_package_scan_sees_every_form():
    source = "import os\nfrom . import iso\nfrom .psts import Psts\nimport skewpersp.veblen\n" + (
        "def f():\n    from skewpersp.indices import PAIRS\n    from skewpersp import cli\n"
    )
    assert package_imports(source) == {"iso", "psts", "veblen", "indices", "cli"}


def test_the_oracles_import_only_the_psts_core():
    """The isomorphism oracles see structures as incidence data only: the
    family criteria they are audited against live in ``perspective``."""
    assert package_imports((ROOT / "src" / "skewpersp" / "iso.py").read_text()) == {"psts"}


def point_reads(source: str) -> list[int]:
    """The lines of ``source`` that read an attribute ``points`` other than
    as the one argument of ``len(...)``, in order, once per read."""
    tree = ast.parse(source)
    counted = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "points" and id(node) not in counted
    )


def test_the_points_scan_sees_every_read():
    source = (
        "n = len(s.points)\nname = s.points[0]\nk = len(s.points[1:])\n"
        "i = s.points.index(x)\nfor p in zip(x.points, y.points):\n    pass\nm = len(points)\n"
    )
    assert point_reads(source) == [2, 3, 4, 5, 5]


def test_the_oracles_read_no_point_name():
    """``iso`` counts a structure's points and never reads them: maps cross
    its boundary as index tuples, and the CLI names them when it prints."""
    assert point_reads((ROOT / "src" / "skewpersp" / "iso.py").read_text()) == []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of ``sources`` (file name ->
    source) that no code in any of them reads, by name or as an attribute,
    outside the definition itself; as ``file:name``."""
    reads = []  # (top-level statement, the names it reads)
    defined = []
    for path, source in sources.items():
        for node in ast.parse(source).body:
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
            }
            reads.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path, node))
    return [
        f"{path}:{node.name}"
        for path, node in defined
        if not any(node.name in names for other, names in reads if other is not node)
    ]


def test_the_definition_scan_sees_self_and_dead_references():
    sources = {
        "a.py": "def used():\n    pass\n\ndef recursive():\n    return recursive()\n\nclass Dead:\n    pass\n",
        "b.py": "from a import used\n\ndef shadowed():\n    shadowed = 1\n\nused()\n",
    }
    assert unreferenced_definitions(sources) == ["a.py:recursive", "a.py:Dead", "b.py:shadowed"]


def test_every_definition_in_the_package_is_used_in_the_package():
    """What neither the CLI nor the audit uses goes: a function or class
    that only tests call is not kept in ``src``."""
    sources = {path.name: path.read_text() for path in sorted((ROOT / "src" / "skewpersp").glob("*.py"))}
    assert unreferenced_definitions(sources) == []


def reads_through_calls(source: str, name: str) -> set[str]:
    """The names and attributes that the top-level definition ``name`` of
    ``source`` reads, with everything read by the module's other top-level
    definitions that it reads, and so on."""
    reads = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            reads[node.name] = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
            }
    found, todo = set(), [name]
    while todo:
        for read in reads[todo.pop()] - found:
            found.add(read)
            if read in reads:
                todo.append(read)
    return found


def test_the_read_scan_follows_calls():
    source = "def a():\n    return b(x.free_k5)\n\ndef b(y):\n    return c\n\nclass C:\n    def m(self):\n        return a()\n"
    assert reads_through_calls(source, "a") == {"b", "x", "free_k5", "c"}
    assert reads_through_calls(source, "C") >= {"a", "b", "free_k5"}


def test_the_two_oracles_keep_their_seeds_and_refinements_apart():
    """The witness search and the canonical search share the ``Psts`` core,
    the pair pack, the ranking and the line check, but no seed and no
    refinement: a bug in one of those can fool one oracle only."""
    source = (ROOT / "src" / "skewpersp" / "iso.py").read_text()
    canonical = {"free_k5", "_seed_colors", "_refine", "_Canonicalizer"}
    witness = {"pasch", "triangles", "_pasch_seed", "_signatures", "_refined"}
    for name in ("_pasch_seed", "_refined", "_search"):
        assert not reads_through_calls(source, name) & canonical, name
    for name in ("_seed_colors", "_refine", "_Canonicalizer", "orbit_label", "automorphism_group"):
        assert not reads_through_calls(source, name) & witness, name


ORACLE_COMMANDS = textwrap.dedent(
    """
    import sys
    from skewpersp import cli
    first, second = sys.argv[1:]
    assert cli.main(["iso", first, second]) == 0
    assert cli.main(["aut", first]) == 0
    print("hashlib" in sys.modules, "_hashlib" in sys.modules)
    print(*(m in sys.modules for m in ("dataclasses", "inspect", "json")))
    print(*sorted(m for m in sys.modules if m.partition(".")[0] == "skewpersp"))
    """
)


def test_iso_and_aut_on_files_load_only_the_oracle_core(tmp_path):
    """``iso`` and ``aut`` on PSTS files need neither the perspectives nor
    the Veblen labelings: run in a fresh interpreter, they load the CLI,
    the oracles and the ``Psts`` core, and no other module of the package.
    Nor do they load ``hashlib`` or OpenSSL's ``_hashlib``, nor
    ``dataclasses`` with the ``inspect`` it pulls in, nor ``json``."""
    first, second = tmp_path / "fano.psts", tmp_path / "copy.psts"
    first.write_text("psts 7 7\n0 1 2 3 4 5 6\n0 1 3\n1 2 4\n2 3 5\n3 4 6\n0 4 5\n1 5 6\n0 2 6\n")
    second.write_text("psts 7 7\na b c d e f g\ng f d\nf e c\ne d b\nd c a\ng c b\nf b a\ng e a\n")
    proc = subprocess.run(
        [sys.executable, "-c", ORACLE_COMMANDS, str(first), str(second)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *_, hashlib_loaded, heavy_loaded, loaded = proc.stdout.splitlines()
    assert loaded.split() == ["skewpersp", "skewpersp.cli", "skewpersp.iso", "skewpersp.psts"]
    assert hashlib_loaded == "False False"
    assert heavy_loaded == "False False False"


def test_the_cli_and_the_census_load_no_dataclasses():
    """Importing the CLI and enumerating the 30 labelings, the start that
    ``perfbench`` times as ``setup_s``, loads no ``dataclasses``: the
    package's records are tuples."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, skewpersp.cli\nfrom skewpersp import veblen\nveblen.enumerate_labelings()\n"
            "print('dataclasses' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def last_printed(code: str, report: str) -> list[str]:
    """The words of the last line that ``code`` followed by ``report``
    prints, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def package_modules_loaded(code: str) -> list[str]:
    """The package modules that ``code`` has loaded when it ends, run in a
    fresh interpreter, sorted."""
    return last_printed(code, "import sys\nprint(*sorted(m for m in sys.modules if m.partition('.')[0] == 'skewpersp'))")


def test_the_start_loads_only_the_labelings():
    """The start that ``perfbench`` times as ``setup_s``, importing the CLI
    and enumerating the 30 labelings, loads neither oracle nor ``psts``."""
    code = "import skewpersp.cli\nfrom skewpersp import veblen\nveblen.enumerate_labelings()"
    assert package_modules_loaded(code) == [
        "skewpersp",
        "skewpersp.cli",
        "skewpersp.indices",
        "skewpersp.veblen",
    ]


CLI_RUN = textwrap.dedent(
    """
    import contextlib, io
    from skewpersp import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main({argv!r}) == 0
    """
)


def test_census_loads_neither_oracle_nor_psts():
    """Nor ``perspective``: ``census`` reads its orbits and automorphism
    orders off ``veblen.action_table``."""
    loaded = package_modules_loaded(CLI_RUN.format(argv=["census"]))
    assert "skewpersp.veblen" in loaded
    assert not {"skewpersp.iso", "skewpersp.psts", "skewpersp.perspective"} & set(loaded)


def test_build_on_spec_text_loads_no_oracle():
    """``build`` writes a structure and never decides isomorphism."""
    loaded = package_modules_loaded(CLI_RUN.format(argv=["build", "perm:(1,2)@V5", "--levi"]))
    assert "skewpersp.perspective" in loaded
    assert not {"skewpersp.iso", "skewpersp.classify"} & set(loaded)


DIGESTING_COMMAND = textwrap.dedent(
    """
    import contextlib, io, sys
    from skewpersp import cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["classify", "perm", "--axes", "canonical", "--format", "structured"]) == 0
    assert out.getvalue().count('"key": ') == 43
    print("hashlib" in sys.modules, "_hashlib" in sys.modules)
    """
)


def test_key_digests_load_no_openssl():
    """The structured class table prints the key digest of every class;
    run in a fresh interpreter, it loads neither ``hashlib`` nor OpenSSL's
    ``_hashlib``: the digest comes from CPython's own SHA-256 module."""
    proc = subprocess.run(
        [sys.executable, "-c", DIGESTING_COMMAND],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports from anywhere
    in it, relative imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


def test_the_module_scan_sees_every_form():
    source = "import os.path\nfrom . import iso\nfrom .psts import Psts\n" + (
        "def f():\n    import ssl as tls\n    from _hashlib import new\n    from json.decoder import x\n"
    )
    assert imported_modules(source) == {"os", "ssl", "_hashlib", "json"}


def test_the_package_imports_no_openssl():
    """Nothing in the package imports OpenSSL's bindings: key digests come
    from CPython's own SHA-256, and nothing else needs a hash."""
    found = {
        path.name: imported_modules(path.read_text()) & {"hashlib", "_hashlib", "ssl"}
        for path in sorted((ROOT / "src" / "skewpersp").glob("*.py"))
    }
    assert {name: modules for name, modules in found.items() if modules} == {}


def test_the_package_imports_no_dataclasses():
    """The package's records are tuples: no module imports ``dataclasses``,
    whose import (with ``inspect``, ``ast`` and ``dis``) and generated
    methods would cost every command its start."""
    found = [
        path.name
        for path in sorted((ROOT / "src" / "skewpersp").glob("*.py"))
        if "dataclasses" in imported_modules(path.read_text())
    ]
    assert found == []


def apply_readers(source: str) -> set[str]:
    """The top-level definitions of ``source`` that read ``apply``, called
    or not, by name: the name ``apply``, any name that ``apply`` is
    imported as, or an attribute ``apply``; ``<module>`` for a read outside
    every definition."""
    tree = ast.parse(source)
    names = {"apply"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "apply" and alias.asname
    }
    found = set()
    for node in tree.body:
        if any(
            isinstance(n, ast.Name) and n.id in names or isinstance(n, ast.Attribute) and n.attr == "apply"
            for n in ast.walk(node)
        ):
            is_definition = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            found.add(node.name if is_definition else "<module>")
    return found


def test_the_apply_scan_sees_every_read():
    source = (
        "from .veblen import apply, apply as move\nx = apply(v, m)\n"
        "def f():\n    return [apply(w, m) for w in census]\n"
        "def g():\n    return list(map(apply, census, maps))\n"
        "def h():\n    return move(v, m)\n"
        "class C:\n    def k(self):\n        return veblen.apply(v, m)\n"
        "def local():\n    from skewpersp.veblen import apply as shift\n\ndef late():\n    return shift(v, m)\n"
        "def quiet():\n    return v.apply_line(ln), v.applied, applied(v), moved(v, m)\n"
    )
    assert apply_readers(source) == {"<module>", "f", "g", "h", "C", "late"}


#: where ``veblen.apply`` may be read outside ``veblen``: the claims that
#: move a labeling by a pair map themselves
APPLY_READERS = {"classify.py": {"_eq_2", "_fact_2_2", "_lemma_4_4", "_cor_4_6"}}


def test_only_veblen_and_the_object_level_claims_apply_a_map():
    """How the 48 candidate maps move the labelings is read from
    ``veblen.action_table``; no second scan over the maps comes back
    unnoticed."""
    found = {
        path.name: apply_readers(path.read_text()) - APPLY_READERS.get(path.name, set())
        for path in sorted((ROOT / "src" / "skewpersp").glob("*.py"))
        if path.name != "veblen.py"
    }
    assert {name: readers for name, readers in found.items() if readers} == {}


def package_importers(source: str) -> set[str]:
    """The top-level definitions of ``source`` that import from the
    package, by name; ``<module>`` for an import outside every
    definition."""
    return {
        getattr(node, "name", "<module>")
        for node in ast.parse(source).body
        if "skewpersp" in imported_modules(ast.unparse(node))
    }


def test_the_importer_scan_sees_every_form():
    source = (
        "import itertools\nimport skewpersp\ndef f():\n    from skewpersp.veblen import census_index\n"
        "def g():\n    from skewpersp import veblen\ndef h():\n    import itertools\n"
    )
    assert package_importers(source) == {"<module>", "f", "g"}


def test_the_derivation_reads_the_package_only_to_compare():
    """The objects re-derived from the paper's definitions are computed
    from ``itertools`` alone; only the comparison with the package
    imports it."""
    source = (ROOT / "tests" / "test_derivation.py").read_text()
    assert imported_modules(source) == {"itertools", "skewpersp"}
    assert package_importers(source) == {"test_they_are_the_maps_of_the_action_table"}


#: how many census indexes, action tables and sets of S4 tables (0 or 1
#: each) have been built
TABLES_BUILT = (
    "from skewpersp import indices, veblen\n"
    "print(veblen.census_index.cache_info().currsize, veblen.action_table.cache_info().currsize,\n"
    "      indices.s4_tables.cache_info().currsize)"
)


def test_the_start_builds_neither_index_nor_table():
    """The start that ``perfbench`` times as ``setup_s`` enumerates the
    labelings and no more."""
    start = "import skewpersp.cli\nfrom skewpersp import veblen\nveblen.enumerate_labelings()"
    assert last_printed(start, TABLES_BUILT) == ["0", "0", "0"]


def test_build_on_a_census_axis_builds_no_table():
    """``build`` reads a census axis by its position and moves no labeling."""
    assert last_printed(CLI_RUN.format(argv=["build", "perm:(1,2)@census:7"]), TABLES_BUILT)[1] == "0"


def test_census_reads_the_action_table():
    assert last_printed(CLI_RUN.format(argv=["census"]), TABLES_BUILT) == ["1", "1", "0"]


def test_the_start_loads_no_argparse():
    """Only ``main`` builds a parser, so the start that ``perfbench`` times
    as ``setup_s`` imports no ``argparse``."""
    start = "import skewpersp.cli\nfrom skewpersp import veblen\nveblen.enumerate_labelings()"
    assert last_printed(start, "import sys\nprint('argparse' in sys.modules)") == ["False"]
