"""Benchmark of the ``skewpersp`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it runs the package in ``src/`` of the
current directory and writes only under ``.perfbench/`` there.  NAME is one
of the workloads below or ``all``.

The benchmark is a closed loop with one client: it starts one command, waits
for it to exit, checks its output against ``gates.json`` and starts the
next.  The only parallelism is the program's own ``--jobs 2``.

``--trace 0`` times passes of the workload for about S seconds (at least
one pass) and reports the end-to-end metrics of ``BENCHMARK.json``:

* ``wall_s``       wall time of one pass, median over the passes
* ``cpu_s``        user + system CPU of one pass, pool workers included
* ``peak_rss_mb``  largest max-RSS of any process of the run
* ``setup_s``      median over fresh interpreters of the time to import
                   ``skewpersp.cli`` and run ``veblen.enumerate_labelings()``

``--trace 1`` runs one untraced pass and one pass under ``trace_op.py``,
then ``micro.py``, and reports the per-layer metrics: call counts and self
time of each wrapped function, cache hits, witness-search outcomes, the
``indices`` microbenchmark and the tracing overhead.

Every operation is checked, in both modes.  A crash (a traceback, a signal
or a timeout) or a wrong exit code, wrong bytes or an invalid witness counts
as failed; ``correct`` is false when an operation exited normally with a
wrong answer.  The last line of standard output is the JSON result; the
rest of the report goes to standard error and to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import trace_op  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"
GATES = json.loads((HERE / "gates.json").read_text())

RUN_LIMIT_S = 170.0  # every run ends well inside three minutes
TIMED_OUT = "crash: timed out"
SETUP_STARTS = 7
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import skewpersp.cli\n"
    "from skewpersp import veblen\n"
    "veblen.enumerate_labelings()\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, skewpersp.cli.__file__)\n"
)


@dataclass
class Op:
    gate: str
    argv: list[str]
    check: Callable[[int, bytes], str | None]  # (exit, stdout) -> what is wrong, or None


@dataclass
class Proc:
    code: int | None  # None: killed at the deadline
    out: bytes
    err: bytes
    wall: float
    cpu: float  # user + system, waited-for children included
    rss_mb: float  # max RSS of the process or any waited-for child


@dataclass
class Outcome:
    op: Op
    proc: Proc
    status: str  # "ok", "crash: ..." or "wrong: ..."


@dataclass
class Pass:
    outcomes: list[Outcome]

    @property
    def wall(self) -> float:
        return sum(o.proc.wall for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.proc.cpu for o in self.outcomes)

    @property
    def rss_mb(self) -> float:
        return max(o.proc.rss_mb for o in self.outcomes)


class RunError(Exception):
    pass


# ---------------------------------------------------------------------------
# workloads and their correctness gates


def _digest_check(gate: dict):
    def check(code: int, out: bytes):
        if code != gate["exit"]:
            return f"exit {code}, expected {gate['exit']}"
        mismatched = re.findall(rb"^(\w+): MISMATCH$", out, re.M)
        if "mismatch" in gate and sorted(m.decode() for m in mismatched) != sorted(gate["mismatch"]):
            return f"MISMATCH claims {[m.decode() for m in mismatched]}"
        if hashlib.sha256(out).hexdigest() != gate["sha256"]:
            return "report bytes differ from the gate digest"
        return None

    return check


def _aut_check(gate: dict, structure):
    def check(code: int, out: bytes):
        if code != gate["exit"]:
            return f"exit {code}, expected {gate['exit']}"
        rows = out.decode(errors="replace").splitlines()
        if not rows or rows[0] != f"order {gate['order']}":
            return f"first row {rows[:1]}, expected 'order {gate['order']}'"
        for row in rows[1:]:
            cycles = row.removeprefix("generator: ")
            try:
                g = inputs.parse_cycles(cycles, structure[0])
            except ValueError as e:
                return str(e)
            if row == cycles or not inputs.is_isomorphism(structure, structure, g):
                return f"not an automorphism: {row[:60]}"
        return None

    return check


def _iso_check(gate: dict, x, y):
    def check(code: int, out: bytes):
        if code != gate["exit"]:
            return f"exit {code}, expected {gate['exit']}"
        if code != 0:
            return "unexpected output" if out else None
        try:
            mapping = inputs.parse_point_map(out.decode(errors="replace").rstrip("\n"))
        except ValueError as e:
            return str(e)
        return None if inputs.is_isomorphism(x, y, mapping) else "witness is not an isomorphism"

    return check


def workload_ops(workload: str, seed: int) -> list[Op]:
    if workload.startswith("audit-census-j"):
        jobs = workload.removeprefix("audit-census-j")
        argv = ["audit", "--axes", "census", "--jobs", jobs]
        return [Op("audit_census", argv, _digest_check(GATES["audit_census"]))]
    if workload == "classify-census":
        return [
            Op(f"classify_{fam}_census", ["classify", fam, "--axes", "census"],
               _digest_check(GATES[f"classify_{fam}_census"]))
            for fam in ("perm", "kappa")
        ]
    if workload == "oracle-large":
        paths = inputs.write_inputs(WORK / "inputs" / f"seed{seed}", seed)
        s = {role: inputs.from_text(p.read_text()) for role, p in paths.items()}

        def iso(gate, x, y):
            return Op(gate, ["iso", str(paths[x]), str(paths[y])], _iso_check(GATES[gate], s[x], s[y]))

        return [
            Op("aut_pg32", ["aut", str(paths["pg32"])], _aut_check(GATES["aut_pg32"], s["pg32"])),
            iso("iso_pg32_copy", "pg32", "pg32_copy"),
            iso("iso_pg32_pasch_switched", "pg32", "pasch_switched"),
            iso("iso_triangles_copy", "triangles", "triangles_copy"),
        ]
    raise RunError(f"unknown workload {workload!r}")


WORKLOADS = ("audit-census-j1", "audit-census-j2", "classify-census", "oracle-large")


# ---------------------------------------------------------------------------
# running commands


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cmd(cmd: list[str], deadline: float) -> Proc:
    """Run to completion or to the deadline, when the whole process group
    is killed.  ``os.wait4`` gives the usage of this process alone."""
    io_dir = WORK / "io"
    io_dir.mkdir(parents=True, exist_ok=True)
    killed = []

    def kill_group(pid: int) -> None:
        killed.append(pid)
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(io_dir / "stdout", "w+b") as out, open(io_dir / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(
            None if killed else proc.returncode, out.read(), err.read(), wall,
            ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
        )


def run_op(op: Op, deadline: float, spans: Path | None = None) -> Outcome:
    if spans is None:
        cmd = [sys.executable, "-m", "skewpersp.cli", *op.argv]
    else:
        cmd = [sys.executable, str(HERE / "trace_op.py"), str(spans), "--", *op.argv]
    p = run_cmd(cmd, deadline)
    if p.code is None:
        status = TIMED_OUT
    elif p.code < 0:
        status = f"crash: signal {-p.code}"
    elif b"Traceback (most recent call last)" in p.err:
        last = p.err.decode(errors="replace").strip().splitlines()[-1]
        status = f"crash: exit {p.code}, {last[:120]}"
    else:
        reason = op.check(p.code, p.out)
        status = "ok" if reason is None else f"wrong: {reason}"
    return Outcome(op, p, status)


def run_pass(ops: list[Op], deadline: float, span_dir: Path | None = None) -> Pass:
    outcomes = []
    for k, op in enumerate(ops):
        spans = None if span_dir is None else span_dir / f"{k}-{op.gate}.json"
        outcomes.append(run_op(op, deadline, spans))
        if outcomes[-1].status == TIMED_OUT:
            break
    return Pass(outcomes)


def measure_setup(deadline: float) -> float:
    """Median over fresh interpreters of the import-plus-census time, as
    each child measures it; also proves the package comes from ``src/``."""
    samples = []
    for _ in range(SETUP_STARTS):
        p = run_cmd([sys.executable, "-c", SETUP_CODE], deadline)
        if p.code != 0:
            raise RunError(f"cannot import skewpersp from {SRC}: {p.err.decode(errors='replace')[-300:]}")
        seconds, origin = p.out.decode().split(maxsplit=1)
        if not Path(origin.strip()).resolve().is_relative_to(SRC.resolve()):
            raise RunError(f"skewpersp imported from {origin.strip()}, not from {SRC}")
        samples.append(float(seconds))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# metrics


def machine() -> dict:
    model = ""
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                model = row.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def layer_metrics(tables: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the aggregated span tables of one pass."""
    rows: dict[str, dict] = {}
    for table in tables:
        for name, row in table.items():
            acc = rows.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
    metrics: dict[str, float] = {}
    for name, row in rows.items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
        if name in trace_op.CACHED:
            metrics[f"{name}.cache_hits"] = row["hits"]
            metrics[f"{name}.cache_misses"] = row["misses"]
        if name == trace_op.SEARCH:
            metrics[f"{name}.hits"] = row["hits"]
            metrics[f"{name}.hit_self_s"] = row["hit_self_s"]
            metrics[f"{name}.miss_self_s"] = row["miss_self_s"]
            metrics[f"{name}.hit_ratio"] = row["hits"] / row["calls"] if row["calls"] else 0.0
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = workload_ops(workload, seed)
    report: dict = {"workload": workload, "seed": seed, "trace": int(trace), "machine": machine()}
    passes: list[Pass] = []
    metrics: dict[str, float] = {}

    if not trace:
        metrics["setup_s"] = measure_setup(deadline)
        t0 = time.monotonic()
        while True:
            passes.append(run_pass(ops, deadline))
            elapsed = time.monotonic() - t0
            typical = statistics.median(p.wall for p in passes)
            if elapsed + typical > seconds or time.monotonic() + typical > deadline:
                break
        metrics["wall_s"] = statistics.median(p.wall for p in passes)
        metrics["cpu_s"] = statistics.median(p.cpu for p in passes)
        metrics["peak_rss_mb"] = statistics.median(p.rss_mb for p in passes)
    else:
        span_dir = WORK / "trace" / workload
        span_dir.mkdir(parents=True, exist_ok=True)
        for stale in span_dir.glob("*.json"):
            stale.unlink()
        passes.append(run_pass(ops, deadline))
        passes.append(run_pass(ops, deadline, span_dir))
        tables, span_count = [], 0
        for path in sorted(span_dir.glob("*.json")):
            doc = json.loads(path.read_text())
            tables.append(trace_op.aggregate(doc))
            span_count += len(doc["spans"])
            path.unlink()
        metrics.update(layer_metrics(tables))
        metrics["trace.spans"] = span_count
        metrics["trace.overhead_ratio"] = passes[1].wall / passes[0].wall - 1
        report["bytes_match_untraced"] = [
            a.proc.out == b.proc.out for a, b in zip(passes[0].outcomes, passes[1].outcomes)
        ]
        micro = run_cmd([sys.executable, str(HERE / "micro.py")], deadline)
        if micro.code == 0:
            for name, ns in json.loads(micro.out).items():
                module = "veblen" if name == "apply" else "indices"
                metrics[f"micro.{module}.{name}_ns"] = ns
        else:
            print(f"micro.py failed: {micro.err.decode(errors='replace')[-300:]}", file=sys.stderr)

    outcomes = [o for p in passes for o in p.outcomes]
    mismatched_bytes = not all(report.get("bytes_match_untraced", [True]))
    report["machine"]["loadavg_after"] = list(os.getloadavg())
    report["passes"] = [
        {"wall_s": p.wall, "cpu_s": p.cpu, "rss_mb": p.rss_mb,
         "ops": [{"op": o.op.gate, "wall_s": o.proc.wall, "cpu_s": o.proc.cpu, "status": o.status}
                 for o in p.outcomes]}
        for p in passes
    ]
    names = spec["per_layer" if trace else "end_to_end"]
    result = {
        "correct": not mismatched_bytes and not any(o.status.startswith("wrong") for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in names},
    }
    report["metrics"] = metrics
    report["result"] = result
    WORK.mkdir(exist_ok=True)
    (WORK / f"last-{workload}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1) + "\n")
    _print_report(report, names)
    return result


def _print_report(report: dict, names: list[dict]) -> None:
    m = report["machine"]
    print(
        f"# {report['workload']} seed {report['seed']} trace {report['trace']}: "
        f"nproc {m['nproc']}, {m['cpu_model']}, Python {m['python']}, "
        f"load {m['loadavg'][0]:.2f} -> {m['loadavg_after'][0]:.2f}",
        file=sys.stderr,
    )
    for k, p in enumerate(report["passes"]):
        for o in p["ops"]:
            if o["status"] != "ok":
                print(f"#   pass {k} {o['op']}: FAILED {o['status']}", file=sys.stderr)
    for spec in names:
        value = report["result"]["metrics"][spec["name"]]["value"]
        print(f"{spec['name']:<48} {value:>14.6g} {spec['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "skewpersp" / "cli.py").is_file():
            raise RunError(f"no package at {SRC / 'skewpersp'}; run from the root of a checkout")
        spec = json.loads(BENCHMARK.read_text())
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        else:
            results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
    except (RunError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
