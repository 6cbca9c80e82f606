"""Run one ``skewpersp`` command in this process with its layer functions
wrapped, and write the spans they recorded.

    python3 perfbench/trace_op.py SPANS.json -- <skewpersp arguments>

The wrappers live here, outside the package: each named function is
replaced at every import binding inside ``skewpersp`` (``iso.find_isomorphism``
and ``classify.find_isomorphism`` alike), methods on their class.  Every
call records a span (function, parent span, start, end, outcome) in memory;
the spans are written as JSON when the command ends.  Standard output, the
exit code and an uncaught exception's traceback behave as under
``python3 -m skewpersp.cli``, so the command's output can be compared
byte for byte.

Only spans of this process are recorded.  With ``--jobs 2`` the pool
workers run the wrapped code too, but their spans are lost, so on those
runs the parent's time in a pool-using function is mostly waiting.

Cheap helpers (point-name helpers, ``indices`` algebra) are not wrapped:
a wrapper would cost more than the call.  ``micro.py`` times ``indices``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import traceback

#: "<module>.<qualname>" of every wrapped function.  Names missing from the
#: package under test are skipped and listed in the output.
WRAPPED = (
    "cli.main",
    "classify.audit_claims",
    "classify.partition_into_classes",
    "classify.enumerate_family",
    "classify.canonical_axes",
    "classify.render_text",
    "classify._construction",
    "classify._fact_2_1",
    "classify._eq_2",
    "classify._fact_2_2",
    "classify._lemma_2_3",
    "classify._lemma_3_1",
    "classify._lemma_3_3",
    "classify._prop_3_2",
    "classify._lemma_4_1",
    "classify._cor_4_2",
    "classify._lemma_4_3",
    "classify._lemma_4_4",
    "classify._prop_4_5",
    "classify._cor_4_6",
    "classify._lemma_4_8",
    "classify._theorem_finding",
    "iso.canonical_key",
    "iso.find_isomorphism",
    "iso.all_isomorphisms",
    "iso.automorphism_group",
    "iso.perm_family_iso",
    "iso.kappa_family_iso",
    "iso.verify_point_map",
    "iso.point_map_text",
    "iso._indexed",
    "perspective.build",
    "perspective.parse_spec_text",
    "perspective.spec_text",
    "perspective.predicted_free_k5",
    "psts.Psts.__init__",
    "psts.free_complete_subgraphs",
    "psts.validate_configuration",
    "psts.from_text",
    "veblen.VeblenConfig.apply",
    "veblen.enumerate_labelings",
    "veblen.canonical",
    "veblen.star_triangles",
    "veblen.aut_perms",
    "veblen.classify_labeling",
    "veblen.lemma23_representatives",
)

#: span outcome flags
CALL, HIT, MISS, RESUME = 0, 1, 2, 3
#: outcome of the cached functions, and of a witness search (HIT = found)
CACHED = ("iso.canonical_key", "iso._indexed")
SEARCH = "iso.find_isomorphism"


class Recorder:
    """Spans in memory: (function index, parent span, start, end, flag);
    parent -1 is the top level."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def open_span() -> tuple[int, int, float]:
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            return sid, parent, clock()

        def close_span(sid, parent, t0, flag) -> None:
            t1 = clock()
            stack.pop()
            spans[sid] = (idx, parent, t0, t1, flag)

        if inspect.isgeneratorfunction(fn):
            # one span per resume, so the consumer's work between items is
            # never charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                flag = CALL
                while True:
                    sid, parent, t0 = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(sid, parent, t0, flag)
                        flag = RESUME
                    yield item

            return gen_wrapper

        cached = name in CACHED
        search = name == SEARCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hits = fn.cache_info().hits if cached else 0
            sid, parent, t0 = open_span()
            flag = CALL
            try:
                result = fn(*args, **kwargs)
                if cached:
                    flag = HIT if fn.cache_info().hits > hits else MISS
                elif search:
                    flag = MISS if result is None else HIT
                return result
            finally:
                close_span(sid, parent, t0, flag)

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def install(recorder: Recorder) -> list[str]:
    """Wrap every function of WRAPPED at all its bindings inside the
    package; returns the names that do not exist."""
    modules = {
        m: importlib.import_module(f"skewpersp.{m}")
        for m in ("indices", "psts", "veblen", "perspective", "iso", "classify", "cli")
    }
    missing = []
    for name in WRAPPED:
        mod_name, _, qual = name.partition(".")
        owner = modules[mod_name]
        *cls_path, attr = qual.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(name)
            continue
        wrapped = recorder.wrap(name, fn)
        if cls_path:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    return missing


def aggregate(doc: dict) -> dict[str, dict]:
    """Per function: calls, self time, and calls and self time split by
    outcome.  Self time is a span's duration minus its child spans'."""
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    rows = {
        name: {"calls": 0, "self_s": 0.0, "hits": 0, "misses": 0, "hit_self_s": 0.0, "miss_self_s": 0.0}
        for name in names
    }
    for sid, (idx, _, t0, t1, flag) in enumerate(spans):
        row = rows[names[idx]]
        own = (t1 - t0) - child[sid]
        row["self_s"] += own
        if flag != RESUME:
            row["calls"] += 1
        if flag == HIT:
            row["hits"] += 1
            row["hit_self_s"] += own
        elif flag == MISS:
            row["misses"] += 1
            row["miss_self_s"] += own
    return rows


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_op.py SPANS.json -- <skewpersp arguments>", file=sys.stderr)
        return 64
    out, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    missing = install(recorder)
    cli = sys.modules["skewpersp.cli"]
    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    except Exception:  # noqa: BLE001 - report it as the interpreter would
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    doc = recorder.dump()
    doc.update(exit=code, wall_s=wall, missing=missing)
    with open(out, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
