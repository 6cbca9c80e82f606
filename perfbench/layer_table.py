"""Exact per-layer counts of each workload, checked to repeat.

    python3 perfbench/layer_table.py [--seed N]

Run from the root of a checkout.  Traces every workload twice in fresh
processes, fails unless every count (calls, cache hits and misses, witness
hits) is identical across the two runs, and prints a Markdown table of the
counts.  On ``audit-census-j2`` only the parent process is traced, so its
column shows the parent's share of the work.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
import trace_op

COUNTS = ("calls", "hits", "misses")


def traced_counts(workload: str, seed: int) -> dict[str, tuple[int, ...]]:
    span_dir = run.WORK / "trace" / f"table-{workload}"
    span_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + run.RUN_LIMIT_S
    result = run.run_pass(run.workload_ops(workload, seed), deadline, span_dir)
    for o in result.outcomes:
        if o.status != "ok":
            print(f"# {workload} {o.op.gate}: {o.status}", file=sys.stderr)
    counts: dict[str, tuple[int, ...]] = {}
    for path in sorted(span_dir.glob("*.json")):
        for name, row in trace_op.aggregate(run.json.loads(path.read_text())).items():
            old = counts.get(name, (0,) * len(COUNTS))
            counts[name] = tuple(a + row[k] for a, k in zip(old, COUNTS))
        path.unlink()
    return counts


def cell(name: str, c: tuple[int, ...]) -> str:
    calls, hits, misses = c
    if name in trace_op.CACHED:
        return f"{calls:,} ({hits:,} hit / {misses:,} miss)"
    if name == trace_op.SEARCH:
        return f"{calls:,} ({hits:,} found)"
    return f"{calls:,}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    table: dict[str, dict[str, tuple[int, ...]]] = {}
    repeat = True
    for w in run.WORKLOADS:
        first, second = traced_counts(w, args.seed), traced_counts(w, args.seed)
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            print(f"# {w}: counts differ between two runs: {diff}", file=sys.stderr)
            repeat = False
        table[w] = first
    names = [n for n in trace_op.WRAPPED if any(t.get(n, (0,))[0] for t in table.values())]
    print("# Exact per-layer counts\n")
    print(f"Written by `python3 perfbench/layer_table.py --seed {args.seed}`.  Calls per wrapped")
    print("function in one pass; cache hits and misses for the cached functions;")
    print("witnesses found for `iso.find_isomorphism`.  The j2 column counts the")
    print("parent process only: the pool workers' calls are not traced.\n")
    heads = [f"{w} (parent only)" if w.endswith("-j2") else w for w in run.WORKLOADS]
    print("| function | " + " | ".join(heads) + " |")
    print("|---|" + "---:|" * len(run.WORKLOADS))
    for n in names:
        cells = [cell(n, table[w].get(n, (0, 0, 0))) for w in run.WORKLOADS]
        print(f"| `{n}` | " + " | ".join(cells) + " |")
    print(f"\nseed {args.seed}; counts {'repeat exactly' if repeat else 'DIFFER'} across two traced runs")
    return 0 if repeat else 1


if __name__ == "__main__":
    sys.exit(main())
