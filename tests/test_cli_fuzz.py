"""Exit codes that do not lie: ``cli.main`` driven in process over all six
commands with generated argv and input files.  Each generated case knows
whether its input is well formed.  Malformed input must exit 64, 65 or 66
with no traceback; exit 0, 1 and 2 must come from well-formed input only;
exit 70, which means a bug, must never come from input data."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from skewpersp.cli import EX_DATAERR, EX_MISMATCH, EX_NOINPUT, EX_NONISO, EX_OK, EX_USAGE, main
from skewpersp.indices import ALL_PERMS, render_cycles
from skewpersp.veblen import CanonicalKind

VERDICTS = {EX_OK, EX_NONISO, EX_MISMATCH}
INPUT_ERRORS = {EX_USAGE, EX_DATAERR, EX_NOINPUT}

#: a placeholder in generated argv for the directory the files are written to
DIR = "{dir}"

#: well-formed structures: one line, the Pasch configuration, the Fano plane
STRUCTURES = (
    (("a", "b", "c"), (("a", "b", "c"),)),
    (tuple("pqrstu"), (("p", "q", "r"), ("p", "s", "t"), ("q", "s", "u"), ("r", "t", "u"))),
    (tuple("0123456"), tuple(tuple(str((i + d) % 7) for d in (0, 1, 3)) for i in range(7))),
)
#: a labeling of the six pair points, as an axis file gives it: the four tops
AXIS = (
    ("c12", "c13", "c14", "c23", "c24", "c34"),
    (("c23", "c24", "c34"), ("c13", "c14", "c34"), ("c12", "c14", "c24"), ("c12", "c13", "c23")),
)

ARABIC_INDIC = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


def header_variants(n: str, m: str) -> list[list[str]]:
    """Headers that are not 'psts <points> <lines>' in ASCII digits."""
    return [
        ["PSTS", n, m],
        ["psts", n],
        ["psts", n, m, "0"],
        ["psts", n.translate(ARABIC_INDIC), m],
        ["psts", n, m + "²"],
        ["psts", "+" + n, m],
        ["psts", "x", m],
    ]


@st.composite
def psts_file(draw, points, lines, malformed: bool) -> bytes:
    """The structure as PSTS text in a well-formed spelling (row and name
    order, spacing, CRLF, blank rows), with one defect when ``malformed``."""
    rows = [
        ["psts", str(len(points)), str(len(lines))],
        list(draw(st.permutations(points))),
        *(list(draw(st.permutations(ln))) for ln in draw(st.permutations(lines))),
    ]
    defect = draw(
        st.sampled_from(
            [
                "count", "header", "repeated-point", "line-size", "unknown-point",
                "duplicate-line", "bad-name", "not-utf8", "bom", "empty",
            ]
        )
        if malformed
        else st.none()
    )
    if defect == "count":
        k = draw(st.sampled_from([1, 2]))
        rows[0][k] = str(int(rows[0][k]) + draw(st.sampled_from([1, -1, 10**30])))
    elif defect == "header":
        rows[0] = draw(st.sampled_from(header_variants(*rows[0][1:])))
    elif defect == "repeated-point":
        rows[1][-1] = rows[1][0]
    elif defect == "line-size":
        rows[2] = rows[2][:2] if draw(st.booleans()) else [*rows[2], rows[2][0] + "x"]
    elif defect == "unknown-point":
        rows[2][draw(st.integers(0, 2))] = "zz"
    elif defect == "duplicate-line":
        rows.append(list(rows[2]))
        rows[0][2] = str(len(rows) - 2)
    elif defect == "bad-name":
        rows[1][0] = draw(st.sampled_from(["a-b", "é", "x.y"]))
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(sep.join(r) for r in rows) + draw(st.sampled_from(["", end, end * 3]))
    data = text.encode()
    if defect == "not-utf8":
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[k:]
    elif defect == "bom":
        data = b"\xef\xbb\xbf" + data
    elif defect == "empty":
        data = draw(st.sampled_from([b"", b"\n", b" \r\n\t\n"]))
    return data


@st.composite
def structure_file(draw, files: dict, name: str):
    """A PSTS file written as ``name``, and whether it is well formed."""
    ok = draw(st.booleans())
    points, lines = draw(st.sampled_from(STRUCTURES))
    files[name] = draw(psts_file(points, lines, malformed=not ok))
    return f"{DIR}/{name}", ok


@st.composite
def axis_token(draw, files: dict, name: str):
    ok = draw(st.booleans())
    if ok:
        kind = draw(st.sampled_from(["kind", "census", "file"]))
        if kind == "kind":
            return draw(st.sampled_from([k.value for k in CanonicalKind])), True
        if kind == "census":
            return "census:" + draw(st.sampled_from(["0", "7", "07", "29"])), True
        files[name] = draw(psts_file(*AXIS, malformed=False))
        return f"{DIR}/{name}", True
    kind = draw(st.sampled_from(["token", "file", "labeling", "missing"]))
    if kind == "token":
        bad = ["census:30", f"census:{10**30}", "census:-1", "census:", "census:３", "census:٣", "XX", "g2"]
        return draw(st.sampled_from(bad)), False
    if kind == "file":
        files[name] = draw(psts_file(*AXIS, malformed=True))
    elif kind == "labeling":
        # a well-formed structure that is no labeling of the six pair points
        points, lines = draw(st.sampled_from([*STRUCTURES, (AXIS[0], AXIS[1][:3])]))
        files[name] = draw(psts_file(points, lines, malformed=False))
    return f"{DIR}/{name}", False


BAD_CYCLES = [
    "(1,2", "(1,5)", "(0,1)", "(1,2,2)", "(1,2)(2,3)", "()", "(1,x)", "id2", "(١,٢)", "(1,²)", f"(1,{10**30})",
]


@st.composite
def spec(draw, files: dict, name: str):
    """Spec text, and whether it is well formed."""
    family = draw(st.sampled_from(["perm", "kappa"]))
    cycles = render_cycles(draw(st.sampled_from(range(len(ALL_PERMS)))))
    axis, ok = draw(axis_token(files, name))
    defect = draw(st.sampled_from([None, None, "family", "cycles", "at"]))
    if defect == "family":
        family = draw(st.sampled_from(["perms", "PERM", "kap", ""]))
    elif defect == "cycles":
        cycles = draw(st.sampled_from(BAD_CYCLES))
    elif defect == "at":
        axis = ""
    return f"{family}:{cycles}@{axis}", ok and defect is None


@st.composite
def operand(draw, files: dict, name: str):
    """An operand of ``iso`` or ``aut``: spec text, a PSTS file or a path
    to nothing."""
    kind = draw(st.sampled_from(["spec", "file", "missing"]))
    if kind == "spec":
        return draw(spec(files, name + "-axis.psts"))
    if kind == "file":
        return draw(structure_file(files, name + ".psts"))
    return f"{DIR}/{name}-missing.psts", False


#: the options of ``classify`` and ``audit``, with well-formed values and a
#: bad one; --jobs takes any int and ignores it (``cli._JOBS_HELP``)
OPTIONS = {
    "--axes": (["canonical", "census"], "all"),
    "--format": (["text", "structured"], "json"),
    "--jobs": (["1", "-3", str(10**30)], "two"),
}

#: each command as often as its weight: a well-formed audit takes about
#: 0.1 s, the others a few milliseconds
COMMANDS = ["build"] * 3 + ["iso"] * 3 + ["aut"] * 3 + ["census", "classify", "classify", "audit"]


@st.composite
def options(draw):
    """Options of ``classify`` and ``audit``, and whether each is well formed."""
    argv, ok = [], True
    for flag, (good, bad) in OPTIONS.items():
        pick = draw(st.sampled_from(["omit", "good", "bad"]))
        if pick == "good":
            argv += [flag, draw(st.sampled_from(good))]
        elif pick == "bad":
            argv += draw(st.sampled_from([[flag, bad], [flag]]))
            ok = False
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(["--frobnicate", "extra", "-j"])))
        ok = False
    return argv, ok


@st.composite
def cases(draw):
    """An argv for one of the six commands, the files it reads, and whether
    the input is well formed."""
    files: dict[str, bytes] = {}
    command = draw(st.sampled_from(COMMANDS))
    if command == "build":
        text, ok = draw(spec(files, "axis.psts"))
        argv = ["build", text, *draw(st.sampled_from([[], ["--levi"]]))]
    elif command == "census":
        ok = draw(st.booleans())
        argv = ["census"] if ok else ["census", draw(st.sampled_from(["extra", "--axes", "--levi"]))]
    elif command == "iso":
        (first, ok1), (second, ok2) = draw(operand(files, "x")), draw(operand(files, "y"))
        argv, ok = ["iso", first, second], ok1 and ok2
    elif command == "aut":
        first, ok = draw(operand(files, "x"))
        argv = ["aut", first]
    else:
        argv, ok = [command], True
        if command == "classify":
            family = draw(st.sampled_from(["perm", "kappa", "both", "PERM"]))
            argv.append(family)
            ok = family in ("perm", "kappa")
        extra, ok_options = draw(options())
        argv += extra
        ok = ok and ok_options
    return argv, files, ok


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(cases())
def test_exit_codes_follow_the_input(case):
    argv, files, ok = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace(DIR, tmp) for a in argv])
    assert "Traceback" not in err.getvalue()
    assert code in (VERDICTS if ok else INPUT_ERRORS), (argv, files, code, err.getvalue())
