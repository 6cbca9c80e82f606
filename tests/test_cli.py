"""Command-line interface, driven in-process through ``main(argv)``.

Exit codes, output formats, file loading and the --out path are all covered
here; the audit content itself is exercised in test_classify.  One canonical
audit run (the slow part) is shared module-wide.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import axis_psts

from skewpersp import cli, iso, psts, veblen
from skewpersp.cli import (
    EX_DATAERR,
    EX_IOERR,
    EX_MISMATCH,
    EX_NOINPUT,
    EX_NONISO,
    EX_OK,
    EX_SOFTWARE,
    EX_USAGE,
    emit_levi_dot,
    main,
)
from skewpersp.iso import OracleInconsistencyError, _is_isomorphism
from skewpersp.perspective import ROLE_LABELS, build, parse_spec_text
from skewpersp.veblen import CanonicalKind, canonical


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------- build


class TestBuild:
    def test_stdout_parses_back(self, capsys):
        code, out, err = run(capsys, "build", "perm:id@G2")
        assert code == EX_OK and err == ""
        s = psts.from_text(out)
        assert len(s.points) == 15 and len(s.lines) == 20
        assert s == build(parse_spec_text("perm:id@G2"))

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g2.psts"
        code, out, _ = run(capsys, "build", "kappa:(1,2,3)@V5", "--out", str(target))
        assert code == EX_OK and out == ""
        s = psts.from_text(target.read_text())
        assert len(s.lines) == 20

    def test_levi_counts(self, capsys):
        code, out, _ = run(capsys, "build", "perm:(1,2)@B2", "--levi")
        assert code == EX_OK
        assert out.startswith("graph levi {")
        node_rows = [r for r in out.splitlines() if "shape=" in r]
        edge_rows = [r for r in out.splitlines() if " -- " in r]
        assert len(node_rows) == 15 + 20
        assert len(edge_rows) == 20 * 3

    @pytest.mark.parametrize(
        "spec, digest",
        [
            ("perm:(1,2)@B2", "defb4fa62be0fad66e63e62c62aafe013e25a12dabb481c023f68e8de4c4604b"),
            (
                "kappa:(1,2,3)@census:17",
                "cab4ed0c1cee942292aa3bc173fac6020f7e4099d63f167c654f77c7b10ed41d",
            ),
        ],
        ids=["perm", "kappa"],
    )
    def test_levi_pinned(self, capsys, spec, digest):
        code, out, _ = run(capsys, "build", spec, "--levi")
        assert code == EX_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_levi_roles(self, capsys):
        _, out, _ = run(capsys, "build", "perm:(1,2)@B2", "--levi")
        rows = out.splitlines()
        assert '  "p" [shape=circle, role="center"];' in rows
        assert '  "a2" [shape=circle, role="A2"];' in rows
        assert '  "c12" [shape=circle, role="C12"];' in rows
        for spec in ("perm:(1,2)@B2", "kappa:(1,2,3)@census:17"):
            assert set(ROLE_LABELS) == set(build(parse_spec_text(spec)).points)

    def test_levi_deterministic(self, capsys):
        a = run(capsys, "build", "kappa:id@B2", "--levi")
        b = run(capsys, "build", "kappa:id@B2", "--levi")
        assert a == b

    def test_levi_of_axis_structure(self):
        dot = emit_levi_dot(axis_psts(canonical(CanonicalKind.V5)))
        node_rows = [r for r in dot.splitlines() if "shape=" in r]
        edge_rows = [r for r in dot.splitlines() if " -- " in r]
        assert len(node_rows) == 6 + 4
        assert len(edge_rows) == 4 * 3

    def test_axis_from_file(self, capsys, tmp_path):
        axis = tmp_path / "axis.psts"
        axis.write_text(psts.to_text(axis_psts(canonical(CanonicalKind.B2))))
        code, out, _ = run(capsys, "build", f"perm:id@{axis}")
        ref_code, ref_out, _ = run(capsys, "build", "perm:id@B2")
        assert code == ref_code == EX_OK
        assert out == ref_out

    def test_axis_file_missing(self, capsys):
        code, _, err = run(capsys, "build", "perm:id@/no/such/axis.psts")
        assert code == EX_NOINPUT
        assert "axis file not found" in err

    def test_axis_file_malformed(self, capsys, tmp_path):
        bad = tmp_path / "bad.psts"
        bad.write_text("psts 3 1\nhello\n")
        code, _, err = run(capsys, "build", f"perm:id@{bad}")
        assert code == EX_DATAERR
        assert "bad axis file" in err

    def test_axis_file_is_no_labeling(self, capsys, tmp_path):
        """A well-formed PSTS on the six pair points, three of the four
        tops, is bad data, not read as some labeling."""
        bad = tmp_path / "tops.psts"
        bad.write_text("psts 6 3\nc12 c13 c14 c23 c24 c34\nc12 c14 c24\nc13 c14 c34\nc23 c24 c34\n")
        code, out, err = run(capsys, "build", f"perm:id@{bad}")
        assert (code, out) == (EX_DATAERR, "")
        assert err.startswith(f"error: bad axis file {bad}: not one of the 30 labelings")


# ---------------------------------------------------------------- census


class TestCensus:
    def test_text(self, capsys):
        code, out, err = run(capsys, "census")
        assert code == EX_OK and err == ""
        assert "census: 30 labelings of the six pairs" in out
        assert "orbit sizes under the 24 extended maps: [1, 1, 6, 6, 8, 8]" in out
        assert "orbit sizes under all 48 candidate maps: [2, 12, 16]" in out
        assert "coverage: 30 of 30 labelings in canonical orbits" in out
        # one row per kind
        for kind in ("G2", "G2_STAR", "B2", "V4", "V5", "V6"):
            assert any(r.startswith(kind + " ") for r in out.splitlines()), kind

    def test_output_bytes(self, capsys):
        code, out, _ = run(capsys, "census")
        assert code == EX_OK
        digest = "6f71ec28935f509ab016fb5ab37d329fbe0f6cb3e059a9a02eb14564a21eea2b"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_coverage_is_computed(self, capsys, monkeypatch):
        # with V6 set to V5's labeling, V6's orbit of 8 is no longer covered
        monkeypatch.setitem(veblen._CANONICAL, CanonicalKind.V6, veblen._CANONICAL[CanonicalKind.V5])
        code, out, _ = run(capsys, "census")
        assert code == EX_OK
        assert "coverage: 22 of 30 labelings in canonical orbits" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "census.txt"
        code, out, _ = run(capsys, "census", "--out", str(target))
        assert code == EX_OK and out == ""
        assert "census: 30" in target.read_text()


# ---------------------------------------------------------------- iso / aut


class TestIso:
    def test_witness_verifies(self, capsys):
        code, out, err = run(capsys, "iso", "perm:(1,2,4)@V5", "perm:(1,4,2)@V5")
        assert code == EX_OK and err == ""
        mapping = {}
        for row in out.splitlines():
            src, _, dst = row.partition(" -> ")
            mapping[src] = dst
        x = build(parse_spec_text("perm:(1,2,4)@V5"))
        y = build(parse_spec_text("perm:(1,4,2)@V5"))
        # one row per point of x, in sorted order, onto the points of y
        assert list(mapping) == list(x.points) and sorted(mapping.values()) == list(y.points)
        assert _is_isomorphism(x, y, tuple(y.points.index(mapping[p]) for p in x.points))

    def test_non_isomorphic(self, capsys):
        code, out, err = run(capsys, "iso", "perm:(1,2)@B2", "perm:(3,4)@B2")
        assert code == EX_NONISO
        assert out == ""
        assert "not isomorphic" in err

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "x.psts"
        f.write_text(psts.to_text(build(parse_spec_text("kappa:id@G2"))))
        code, out, _ = run(capsys, "iso", str(f), "kappa:id@G2")
        assert code == EX_OK
        assert " -> " in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "iso", "/no/such/file.psts", "perm:id@G2")
        assert code == EX_NOINPUT
        assert "no such file" in err

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "junk.psts"
        f.write_text("psts 2 1\nnot a structure\n")
        code, _, err = run(capsys, "aut", str(f))
        assert code == EX_DATAERR
        assert "bad PSTS file" in err

    def test_missing_points_row(self, capsys, tmp_path):
        f = tmp_path / "headless.psts"
        f.write_text("psts 2 0\n")
        code, _, err = run(capsys, "aut", str(f))
        assert code == EX_DATAERR
        assert "no points row" in err

    def test_empty_structure_with_itself(self, capsys, tmp_path):
        f = tmp_path / "empty.psts"
        f.write_text(psts.to_text(psts.Psts([], [])))
        code, _, err = run(capsys, "iso", str(f), str(f))
        assert code == EX_OK and err == ""

    def test_non_decimal_count_is_bad_data(self, capsys, tmp_path):
        f = tmp_path / "superscript.psts"
        f.write_text("psts \u00b2 0\n")
        code, _, err = run(capsys, "aut", str(f))
        assert code == EX_DATAERR
        assert "bad header" in err

    def test_non_ascii_count_is_bad_data(self, capsys, tmp_path):
        # an Arabic-Indic 3: a decimal digit that int() would read
        f = tmp_path / "arabic.psts"
        f.write_text("psts \u0663 1\na b c\na b c\n")
        code, _, err = run(capsys, "aut", str(f))
        assert code == EX_DATAERR
        assert "bad header" in err


class TestAut:
    def test_order_and_generators(self, capsys):
        code, out, err = run(capsys, "aut", "kappa:id@V5")
        assert code == EX_OK and err == ""
        rows = out.splitlines()
        assert rows[0] == "order 3"
        gens = [r for r in rows[1:] if r.startswith("generator: ")]
        assert len(gens) >= 1

    def test_order_of_perm_id_b2(self, capsys):
        # the order line comes first; test_iso covers the identity-only group
        code, out, _ = run(capsys, "aut", "perm:id@B2")
        assert code == EX_OK
        assert out.splitlines()[0] == "order 8"

    def test_empty_structure(self, capsys, tmp_path):
        f = tmp_path / "empty.psts"
        f.write_text(psts.to_text(psts.Psts([], [])))
        code, out, err = run(capsys, "aut", str(f))
        assert (code, out, err) == (EX_OK, "order 1\n", "")


# ---------------------------------------------------------------- classify


class TestClassify:
    def test_text_header(self, capsys):
        code, out, err = run(capsys, "classify", "perm")
        assert code == EX_OK and err == ""
        assert out.splitlines()[0] == "plain family (perm), canonical axes: 43 classes"
        assert out.splitlines()[1].split() == ["id", "representative", "size", "k5", "aut", "br"]

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "classify", "kappa", "--format", "structured")
        assert code == EX_OK
        doc = json.loads(out)
        assert doc["family"] == "kappa" and doc["axes"] == "canonical"
        assert len(doc["classes"]) == 25
        first = doc["classes"][0]
        assert set(first) >= {"id", "representative", "size", "key", "free_k5", "aut_order", "branch"}
        assert sum(c["size"] for c in doc["classes"]) == 144

    def test_jobs_flag_same_output(self, capsys):
        a = run(capsys, "classify", "perm", "--jobs", "1")
        b = run(capsys, "classify", "perm", "--jobs", "2")
        assert a == b

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("classify", "perm", "--axes", "census"),
                "0610b41b6b6a1521270b940fb08caf6c32bfd8d0fed564bd22e4b48b072674cf",
            ),
            (
                ("classify", "kappa", "--axes", "census", "--format", "structured"),
                "ddad927f818757b10f32f1e417b19fd6baf181293519fcd1774b6b9d9f492f76",
            ),
        ],
        ids=["perm-text", "kappa-structured"],
    )
    def test_census_output_bytes(self, capsys, argv, digest):
        # the census classes key most specs along carried maps
        code, out, err = run(capsys, *argv)
        assert code == EX_OK and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------- audit

# one canonical-axes audit run per format shared by the assertions below
# (they only read the emitted text, so module-scoped captures run each once)


def run_canonical_audit(tmp_path_factory, *fmt):
    target = tmp_path_factory.mktemp("audit") / "report"
    code = main(["audit", "--axes", "canonical", *fmt, "--out", str(target)])
    return code, target.read_text()


@pytest.fixture(scope="module")
def audit_run(tmp_path_factory):
    return run_canonical_audit(tmp_path_factory)


@pytest.fixture(scope="module")
def structured_audit_run(tmp_path_factory):
    return run_canonical_audit(tmp_path_factory, "--format", "structured")


class TestAudit:
    def test_exit_code_flags_divergence(self, audit_run):
        code, _ = audit_run
        assert code == EX_MISMATCH

    def test_verdict_line(self, audit_run):
        _, text = audit_run
        assert text.rstrip().endswith("verdict: 5 MISMATCH")

    def test_claims_present(self, audit_run):
        _, text = audit_run
        for cid in ("fact_2_1", "lemma_3_3", "prop_4_5", "theorem_3_4", "theorem_4_9"):
            assert cid in text, cid

    def test_canonical_report_bytes(self, audit_run, structured_audit_run):
        # nearly every key of this report is carried along a checked map
        for (code, text), digest in (
            (audit_run, "590cbb50f8d9c29c6534d5a47342422bc125c8ba0acf893eda2a8f67d9588cff"),
            (structured_audit_run, "698fae44d1c8fb70ae0397e616fa8869b65186d9a02845ab710e8f26c784b4de"),
        ):
            assert code == EX_MISMATCH
            assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------- errors


#: PSTS text whose points row holds bytes that are not UTF-8
NOT_UTF8 = b"psts 3 1\n\xff\xfe a b\na b c\n"

#: each command that reads a PSTS file, with the file's place in its argv
#: and the word its error message gives the file
FILE_OPERANDS = {
    "iso-first": (("iso", "{f}", "perm:id@G2"), "bad PSTS file"),
    "iso-second": (("iso", "perm:id@G2", "{f}"), "bad PSTS file"),
    "aut": (("aut", "{f}"), "bad PSTS file"),
    "build-axis": (("build", "perm:id@{f}"), "bad axis file"),
}


class TestInputFiles:
    """One reader serves every PSTS file the commands take: bytes that are
    not UTF-8 are bad data (65), and a file that exists but cannot be read
    is missing input (66), with the path in the message.  Neither reaches
    exit 70, which means a bug."""

    @pytest.mark.parametrize("argv,bad", FILE_OPERANDS.values(), ids=FILE_OPERANDS)
    def test_not_utf8_is_bad_data(self, capsys, tmp_path, argv, bad):
        f = tmp_path / "latin.psts"
        f.write_bytes(NOT_UTF8)
        code, out, err = run(capsys, *(a.format(f=f) for a in argv))
        assert code == EX_DATAERR and out == ""
        assert err.startswith(f"error: {bad} {f}: ") and "internal error" not in err

    @pytest.mark.parametrize("argv,bad", FILE_OPERANDS.values(), ids=FILE_OPERANDS)
    def test_read_failure_is_missing_input(self, capsys, monkeypatch, tmp_path, argv, bad):
        # file permissions cannot show this to a superuser, so the read fails
        # in process
        f = tmp_path / "fano.psts"
        f.write_text("psts 7 7\n0 1 2 3 4 5 6\n0 1 3\n1 2 4\n2 3 5\n3 4 6\n0 4 5\n1 5 6\n0 2 6\n")

        def unreadable(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", unreadable)
        code, out, err = run(capsys, *(a.format(f=f) for a in argv))
        assert code == EX_NOINPUT and out == ""
        assert err.startswith(f"error: cannot read {f}: ") and "Permission denied" in err


class TestErrors:
    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == EX_USAGE
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == EX_USAGE

    def test_bad_spec_text(self, capsys):
        code, _, err = run(capsys, "build", "perm:(1,2@G2")
        assert code == EX_DATAERR

    def test_unknown_axis(self, capsys):
        # bare word that is neither a kind, census token, nor a file
        code, _, err = run(capsys, "build", "perm:id@XX")
        assert code in (EX_DATAERR, EX_NOINPUT)

    @pytest.mark.parametrize(
        "spec,code,message",
        [
            ("perm:(١,٢)@G2", EX_DATAERR, "malformed cycle text"),
            ("perm:(1,²)@G2", EX_DATAERR, "malformed cycle text"),
            # not a census token, so read as a path, as census:-1 is
            ("perm:id@census:３", EX_NOINPUT, "axis file not found"),
        ],
        ids=["arabic-indic-cycle", "superscript-cycle", "fullwidth-census-index"],
    )
    def test_spec_text_takes_ascii_digits_only(self, capsys, spec, code, message):
        """``int`` reads any Unicode decimal digit, so spec text must test
        for ASCII digits itself."""
        got, out, err = run(capsys, "build", spec)
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and message in err

    def test_internal_error_is_not_a_verdict(self, capsys, monkeypatch):
        def broken(x, y):
            raise RuntimeError("search fell over")

        monkeypatch.setattr(iso, "find_isomorphism", broken)
        code, out, err = run(capsys, "iso", "perm:id@G2", "perm:id@B2")
        assert code == EX_SOFTWARE
        assert out == ""
        assert err == "internal error: RuntimeError: search fell over\n"

    def test_internal_error_in_aut_is_not_a_verdict(self, capsys, monkeypatch):
        def broken(s):
            raise RuntimeError("canonical search fell over")

        monkeypatch.setattr(iso, "automorphism_group", broken)
        code, out, err = run(capsys, "aut", "perm:id@G2")
        assert code == EX_SOFTWARE
        assert out == ""
        assert err == "internal error: RuntimeError: canonical search fell over\n"

    def test_oracle_inconsistency_is_not_a_verdict(self, capsys, monkeypatch):
        def inconsistent(x, y):
            raise OracleInconsistencyError("the oracles disagree")

        monkeypatch.setattr(iso, "find_isomorphism", inconsistent)
        code, out, err = run(capsys, "iso", "perm:id@G2", "perm:id@B2")
        assert code == EX_SOFTWARE
        assert out == ""
        assert err == "internal oracle inconsistency: the oracles disagree\n"

    def test_malformed_psts_operand(self, capsys, tmp_path):
        f = tmp_path / "junk.psts"
        f.write_text("psts 3 1\na b c\na b\n")
        code, out, err = run(capsys, "iso", "perm:id@G2", str(f))
        assert code == EX_DATAERR
        assert out == ""
        assert err.startswith(f"error: bad PSTS file {f}: ")

    def test_invalid_structure_reaching_main_is_bad_data(self, capsys, monkeypatch):
        def invalid(s):
            raise psts.PstsError(["a line repeats"])

        monkeypatch.setattr(iso, "automorphism_group", invalid)
        code, out, err = run(capsys, "aut", "perm:id@G2")
        assert code == EX_DATAERR
        assert out == ""
        assert err == "invalid structure: a line repeats\n"

    def test_unwritable_out(self, capsys):
        code, _, err = run(capsys, "census", "--out", "/no/such/dir/census.txt")
        assert code == EX_IOERR
        assert "cannot write" in err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv,unbuffered",
        [
            (["census"], True),
            (["census"], False),
            (["--help"], True),
            (["--help"], False),
            (["audit", "--help"], True),
            (["audit", "--help"], False),
        ],
        ids=[
            "unbuffered",
            "buffered",
            "help-unbuffered",
            "help-buffered",
            "audit-help-unbuffered",
            "audit-help-buffered",
        ],
    )
    def test_unwritable_stdout(self, argv, unbuffered):
        """A full stdout is an output write failure: exit 74 with one error
        line, whether the write itself fails or only the flush would, and
        no second report when the interpreter shuts down.  argparse's help
        is output too."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "skewpersp.cli", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        assert proc.returncode == EX_IOERR
        assert proc.stderr.startswith("error: cannot write to stdout: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
