#!/usr/bin/env python3
"""Run the full published-claim audit and write both report renderings.

Writes audit.txt and audit.json to --outdir (default: ./out), prints the
per-claim verdict table to stdout, and exits 2 when any claim diverges,
mirroring the CLI contract.  --jobs spreads the canonical keys of the
class partitions over worker processes without changing a byte of the
output.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from skewpersp.classify import audit_claims, render_structured, render_text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--axes", choices=("canonical", "census"), default="census")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    args = ap.parse_args()

    t0 = time.perf_counter()
    report = audit_claims(axes_mode=args.axes, jobs=args.jobs)
    elapsed = time.perf_counter() - t0

    args.outdir.mkdir(parents=True, exist_ok=True)
    (args.outdir / "audit.txt").write_text(render_text(report))
    (args.outdir / "audit.json").write_text(render_structured(report))

    width = max(len(f.claim_id) for f in report.findings)
    for f in report.findings:
        print(f"{f.claim_id:<{width}}  {f.verdict}")
    mismatches = sum(f.verdict != "MATCH" for f in report.findings)
    print(f"\n{len(report.findings)} claims audited in {elapsed:.1f}s "
          f"({args.axes} axes, jobs={args.jobs}); {mismatches} diverge")
    print(f"reports: {args.outdir / 'audit.txt'}, {args.outdir / 'audit.json'}")
    return 2 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
