"""Command-line front end.

Subcommands:

* ``build``      construct a perspective and write it in PSTS text (or as a
                 Levi incidence graph in DOT),
* ``census``     the labeling census with its orbit table,
* ``iso``        decide isomorphism of two structures, printing a witness,
* ``aut``        the exact order of the automorphism group and a generating
                 set found by the canonical search; each generator lies
                 outside the group of those before it, so the identity is
                 never printed,
* ``classify``   isomorphism classes of one family,
* ``audit``      the full published-claim audit report.

Structures are given either as spec text (``perm:<cycles>@<axis>`` or
``kappa:<cycles>@<axis>``, axis a canonical kind name, ``census:<n>``, or a
PSTS file path) or as a PSTS file path directly.

Exit codes: 0 success (for ``iso``: isomorphic), 1 proven non-isomorphic,
2 audit found a MISMATCH, 64 usage, 65 bad data (an input file that is not
UTF-8 among it), 66 missing or unreadable input file,
70 internal error (an oracle inconsistency or any other unexpected failure,
never reported as a verdict), 74 output write failure (to ``--out`` or to
stdout).  stdout carries data; diagnostics go to stderr.

Each command imports only the modules it uses: ``census`` loads ``veblen``
and ``indices``; ``build`` adds ``perspective`` and ``psts``; ``iso`` and
``aut`` on PSTS files load only ``iso`` and ``psts``, and name the index
maps the oracles hand back when they print, while a spec-text operand adds
what ``build`` loads; ``classify`` and ``audit`` load the classification,
and with it all of these.

``classify`` and ``audit`` accept ``--jobs N`` and ignore it: they run in
one process, and their output never depended on it.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .psts import Psts

EX_OK = 0
EX_NONISO = 1
EX_MISMATCH = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_SOFTWARE = 70
EX_IOERR = 74

_JOBS_HELP = "accepted and ignored: the work runs in one process"


class _UsageError(Exception):
    pass


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_psts(path: str, missing: str, bad: str, convert=lambda s: s):
    """The structure in the PSTS file at ``path``, passed through
    ``convert``.  A missing file, or one that cannot be read, exits 66;
    bytes that are not UTF-8, bad PSTS text or a ValueError from
    ``convert`` exit 65.  Each message names the path."""
    from .psts import from_text

    p = Path(path)
    if not p.is_file():
        raise _CliError(EX_NOINPUT, f"{missing}: {path}")
    try:
        return convert(from_text(p.read_text()))
    except OSError as e:
        raise _CliError(EX_NOINPUT, f"cannot read {path}: {e}") from e
    except ValueError as e:  # UnicodeDecodeError and PstsError among them
        raise _CliError(EX_DATAERR, f"{bad} {path}: {e}") from e


def _load_axis_file(path: str):
    from .veblen import from_psts

    return _read_psts(path, "axis file not found", "bad axis file", from_psts)


def parse_spec(text: str):
    """Spec text to its spec, a position 0-1439, resolving file-path axes."""
    from .perspective import parse_spec_text

    try:
        return parse_spec_text(text, load_axis=_load_axis_file)
    except ValueError as e:
        raise _CliError(EX_DATAERR, str(e)) from e


def _load_structure(text: str) -> Psts:
    if text.startswith(("perm:", "kappa:")):
        from .perspective import build

        return build(parse_spec(text))
    return _read_psts(text, "no such file (and not spec text)", "bad PSTS file")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as e:
            # the buffer still holds the text; with fd 1 on the null device
            # the flush at shutdown neither fails nor reports a second time
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
            raise _CliError(EX_IOERR, f"cannot write to stdout: {e}") from e
        return
    try:
        Path(out).write_text(text)
    except OSError as e:
        raise _CliError(EX_IOERR, f"cannot write {out}: {e}") from e


def emit_levi_dot(s: Psts, roles: Mapping[str, str] | None = None) -> str:
    """Bipartite point/line incidence graph in DOT, deterministic order.
    A point named in ``roles`` carries its label as a ``role`` attribute."""
    rows = ["graph levi {", "  node [fontsize=10];"]
    for x in s.points:
        attrs = ['shape=circle']
        if roles and x in roles:
            attrs.append(f'role="{roles[x]}"')
        rows.append(f'  "{x}" [{", ".join(attrs)}];')
    for k, ln in enumerate(s.lines, 1):
        rows.append(f'  "L{k:02d}" [shape=box, label="{" ".join(ln)}"];')
    for k, ln in enumerate(s.lines, 1):
        for x in ln:
            rows.append(f'  "{x}" -- "L{k:02d}";')
    rows.append("}")
    return "\n".join(rows) + "\n"


def _cmd_build(args) -> int:
    from .perspective import ROLE_LABELS, build
    from .psts import to_text

    s = build(parse_spec(args.spec))
    _emit(emit_levi_dot(s, ROLE_LABELS) if args.levi else to_text(s), args.out)
    return EX_OK


def _cmd_census(args) -> int:
    from .veblen import (
        CanonicalKind,
        aut_perms,
        canonical,
        census_orbits,
        star_triangles,
    )

    ext, full = census_orbits(False), census_orbits(True)
    orbit_of = {v: orbit for orbit in ext for v in orbit}  # each labeling to its orbit
    rows = [f"census: {len(orbit_of)} labelings of the six pairs"]
    rows.append(f"{'kind':<8} {'orbit':>5} {'star_triangles':>14} {'aut_order':>9}")
    for kind in CanonicalKind:
        v = canonical(kind)
        rows.append(
            f"{str(kind):<8} {len(orbit_of[v]):>5} {len(star_triangles(v)):>14} {len(aut_perms(v)):>9}"
        )
    rows.append(f"orbit sizes under the 24 extended maps: {sorted(map(len, ext))}")
    rows.append(f"orbit sizes under all 48 candidate maps: {sorted(map(len, full))}")
    covered = {w for kind in CanonicalKind for w in orbit_of[canonical(kind)]}
    rows.append(f"coverage: {len(covered)} of {len(orbit_of)} labelings in canonical orbits")
    _emit("\n".join(rows) + "\n", args.out)
    return EX_OK


def _cmd_iso(args) -> int:
    from .iso import find_isomorphism

    x = _load_structure(args.first)
    y = _load_structure(args.second)
    witness = find_isomorphism(x, y)
    if witness is None:
        print("not isomorphic", file=sys.stderr)
        return EX_NONISO
    # one 'x -> y' row per point of x, in the sorted order of its names
    _emit("\n".join(f"{p} -> {y.points[j]}" for p, j in zip(x.points, witness)) + "\n", args.out)
    return EX_OK


def _point_perm_cycles(names: Sequence[str], g: Sequence[int]) -> str:
    """The index map ``g`` in disjoint cycles of the sorted ``names``, each
    from its least point, or ``id``."""
    seen: set[int] = set()
    parts = []
    for start in range(len(g)):
        if start in seen or g[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(names[x])
            x = g[x]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) if parts else "id"


def _cmd_aut(args) -> int:
    from .iso import automorphism_group

    s = _load_structure(args.structure)
    gens, order = automorphism_group(s)
    rows = [f"order {order}"]
    rows.extend(f"generator: {_point_perm_cycles(s.points, g)}" for g in gens)
    _emit("\n".join(rows) + "\n", args.out)
    return EX_OK


def _cmd_classify(args) -> int:
    from . import classify as cls
    from .perspective import FAMILIES, spec_text
    from .veblen import enumerate_labelings

    axes = cls.canonical_axes() if args.axes == "canonical" else tuple(range(len(enumerate_labelings())))
    classes = cls.partition_into_classes(cls.enumerate_family(FAMILIES.index(args.family), axes))
    if args.format == "structured":
        import json

        doc = {
            "family": args.family,
            "axes": args.axes,
            "classes": [c.to_dict() for c in classes],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        title = (
            "plain family (perm)" if args.family == "perm" else "boolean-complementing family (kappa)"
        )
        rows = [f"{title}, {args.axes} axes: {len(classes)} classes"]
        rows.append(f"{'id':<5} {'representative':<24} {'size':>4} {'k5':>3} {'aut':>4} br")
        for c in classes:
            rows.append(
                f"{c.class_id:<5} {spec_text(c.representative):<24} {len(c.members):>4} "
                f"{c.free_k5_count:>3} {c.aut_order:>4} {c.branch}"
            )
        _emit("\n".join(rows) + "\n", args.out)
    return EX_OK


def _cmd_audit(args) -> int:
    from . import classify as cls

    report = cls.audit_claims(axes_mode=args.axes)
    text = (
        cls.render_structured(report)
        if args.format == "structured"
        else cls.render_text(report)
    )
    _emit(text, args.out)
    return EX_OK if report.all_match else EX_MISMATCH


def _build_parser():
    import argparse  # here, as only ``main`` parses: the start loads none

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse default exits with 2; we want 64
            raise _UsageError(message)

        def _print_message(self, message, file=None):
            # argparse swallows a failed write; help on stdout goes through _emit
            if file is sys.stdout:
                _emit(message, None)
            else:
                super()._print_message(message, file)

    p = _Parser(
        prog="skewpersp",
        description="construction, isomorphism and classification of skew perspectives between two tetrahedra",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a perspective and print it as PSTS text")
    b.add_argument("spec", help="perm:<cycles>@<axis> or kappa:<cycles>@<axis>")
    b.add_argument("--levi", action="store_true", help="emit the Levi incidence graph in DOT instead")
    b.add_argument("--out", default=None, help="write to a file instead of stdout")
    b.set_defaults(fn=_cmd_build)

    c = sub.add_parser("census", help="labeling census and orbit table")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_census)

    i = sub.add_parser("iso", help="isomorphism test; exit 0 with witness, 1 if none")
    i.add_argument("first", help="spec text or PSTS file")
    i.add_argument("second", help="spec text or PSTS file")
    i.add_argument("--out", default=None)
    i.set_defaults(fn=_cmd_iso)

    a = sub.add_parser("aut", help="automorphism group generators and order")
    a.add_argument("structure", help="spec text or PSTS file")
    a.add_argument("--out", default=None)
    a.set_defaults(fn=_cmd_aut)

    k = sub.add_parser("classify", help="isomorphism classes of one family")
    k.add_argument("family", choices=("perm", "kappa"))
    k.add_argument("--axes", choices=("canonical", "census"), default="canonical")
    k.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    k.add_argument("--format", choices=("text", "structured"), default="text")
    k.add_argument("--out", default=None)
    k.set_defaults(fn=_cmd_classify)

    d = sub.add_parser("audit", help="full audit of the published classification claims")
    d.add_argument("--axes", choices=("canonical", "census"), default="census")
    d.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    d.add_argument("--format", choices=("text", "structured"), default="text")
    d.add_argument("--out", default=None)
    d.set_defaults(fn=_cmd_audit)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except Exception as e:
        # the code that raised an oracle or PSTS error has imported its module
        from .iso import OracleInconsistencyError
        from .psts import PstsError

        if isinstance(e, OracleInconsistencyError):
            print(f"internal oracle inconsistency: {e}", file=sys.stderr)
            return EX_SOFTWARE
        if isinstance(e, PstsError):
            print(f"invalid structure: {e}", file=sys.stderr)
            return EX_DATAERR
        # any other failure is a bug, and exit 1 would read as a verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_SOFTWARE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
