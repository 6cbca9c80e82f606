"""Microbenchmark of the ``indices`` algebra and ``VeblenConfig.apply``.

    python3 perfbench/micro.py

These calls take a microsecond or less, too little for a call wrapper to
time honestly, so they are timed here in bulk: S4 ``compose``, ``inverse``
and ``conjugate_by`` over all of S4 (x S4), cached ``extend`` over S4, and
``apply`` over the closed 48 x 30 action (the 24 extended maps and their
complement composites, on every labeling of the census).  Prints one JSON
object: nanoseconds per call, the median of several repeats.  An operation
the package no longer has is left out.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

REPEATS = 7
TARGET_S = 0.05  # per repeat


def _time_per_call(batch, calls: int) -> float:
    """Median ns per call of ``batch()``, which makes ``calls`` calls."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            batch()
        if time.perf_counter() - t0 >= TARGET_S / 4 or loops >= 1 << 16:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            batch()
        samples.append((time.perf_counter() - t0) / (loops * calls))
    return statistics.median(samples) * 1e9


def main() -> int:
    from skewpersp.indices import ALL_PERMS, CORRELATION, extend
    from skewpersp.veblen import enumerate_labelings

    perms = list(ALL_PERMS)
    pairs = [(a, b) for a in perms for b in perms]
    maps = [extend(p) for p in perms] + [CORRELATION.compose(extend(p)) for p in perms]
    census = list(enumerate_labelings())
    action = [(v, m) for v in census for m in maps]

    cases = {
        "compose": (lambda: [a.compose(b) for a, b in pairs], len(pairs)),
        "inverse": (lambda: [a.inverse() for a in perms], len(perms)),
        "conjugate_by": (lambda: [a.conjugate_by(b) for a, b in pairs], len(pairs)),
        "extend": (lambda: [extend(a) for a in perms], len(perms)),
        "apply": (lambda: [v.apply(m) for v, m in action], len(action)),
    }
    out = {}
    for name, (batch, calls) in cases.items():
        try:
            out[name] = _time_per_call(batch, calls)
        except (AttributeError, TypeError) as e:
            print(f"micro: {name} not measured: {e}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
