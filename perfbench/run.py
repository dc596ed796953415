"""End-to-end benchmark of the unideal CLI.

    python3 perfbench/run.py --workload lowrank --seed 1 --seconds 56 --trace 0

Builds the workload's instance files from --seed under .perfbench/ in the
checkout, then calls `unideal.cli.main([..., "--json"])` in this process on
every operation of the list, pass after pass, for at most --seconds (and
at least four passes).
Answers are checked against the oracles in oracles.py after the timed
region.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs the list three
times plainly and three times under the wrappers of layers.py, alternating,
requires byte-identical answers and written files, and reports the per-layer
metrics.  Exit code 2 when the checkout has no src/unideal to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Metric names and units live in BENCHMARK.json alone.
END_TO_END = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
TRACE_PAIRS = 3
FASTEST = 4  # passes per operation pooled for op_tail_s


class Clock:
    """Accumulates the time spent inside `with clock:` blocks (oracle work)."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0


@dataclass
class Result:
    wall: float
    cpu: float
    rc: object  # exit code, or the exception text when the CLI raised
    out: str
    written: str | None  # text of the file the op wrote, read after the timed call


def run_pass(cli, ops, tracer=None) -> list:
    results = []
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = idx
        buf = io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(op.argv + ["--json"])
        except (Exception, SystemExit):  # a traceback or usage exit is a failed op
            rc = traceback.format_exc(limit=-3)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        written = None
        if op.writes:
            with contextlib.suppress(OSError):
                written = Path(op.writes).read_text(encoding="utf-8")
        results.append(Result(wall, cpu, rc, buf.getvalue(), written))
    return results


def judge(ops, passes, clock) -> list:
    """Per pass and op: True when the answer, and any file the op wrote, match the oracle."""
    checked = {}  # (op index, file text) -> verdict; passes mostly write the same text

    def file_ok(i, text):
        if (i, text) not in checked:
            checked[i, text] = text is not None and ops[i].check(text)
        return checked[i, text]

    with clock:
        expected = [op.expect() for op in ops]
        verdicts = []
        for results in passes:
            row = []
            for i, (res, want) in enumerate(zip(results, expected)):
                try:
                    got = json.loads(res.out)
                except ValueError:
                    got = {}
                row.append(res.rc == 0
                           and all(got.get(k) == v for k, v in want.items())
                           and (ops[i].check is None or file_ok(i, res.written)))
            verdicts.append(row)
    return verdicts


def tail_percentile(samples):
    """The 11th-largest sample: the highest percentile with 10 samples above it."""
    xs = sorted(samples)
    return 100 * (len(xs) - 10) / len(xs), xs[-11]


def import_seconds() -> float:
    """Time from spawning a fresh interpreter to its import of the CLI.

    The child reads the system-wide monotonic clock once the import is done;
    timing the parent's wait instead would add the 50 ms polling steps of
    `subprocess.run(..., timeout=...)`.
    """
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); import unideal.cli; print(time.perf_counter())"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          check=True, capture_output=True, text=True, timeout=120)
    return float(proc.stdout) - t0


def set_up(workload, seed, workdir, clock):
    """One set-up: a fresh interpreter's import of the CLI, then building and
    writing the instance files.  Returns (instances, seconds); oracle work done
    while choosing instances is timed by `clock` and left out.
    """
    from workloads import build

    seconds = import_seconds()
    t0, oracle0 = time.perf_counter(), clock.total
    inst = build(workload, seed, clock)
    for name, text in inst.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return inst, seconds + time.perf_counter() - t0 - (clock.total - oracle0)


def environment(traced: bool) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    head = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        head = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mpmath": version("mpmath"),
        "numpy": version("numpy"),
        "git_head": head,
        "traced": traced,
    }


def measure(cli, ops, first_setup, workload, seed, seconds, workdir, clock):
    """Passes over the list, each after a set-up, until one more pass would
    end past `seconds` from the start (at least FASTEST passes).  Returns
    (passes, set-up seconds)."""
    passes, setups = [], [first_setup]
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops))
        elapsed = time.perf_counter() - t0
        if len(passes) >= FASTEST and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, setups
        setups.append(set_up(workload, seed, workdir, clock)[1])


def end_to_end(passes, setups) -> tuple:
    """End-to-end metrics of one run.

    A shared VM has slow spells of seconds to minutes that make every
    operation up to 90% slower, in CPU time too, so a higher reading of the
    same operation is interference (the rule `timeit` follows).  Every time
    is therefore taken from each operation's fastest passes: `wall_s`,
    `cpu_s` and `op_p50_s` from its fastest one, `op_tail_s` from its
    FASTEST fastest ones, pooled so that 10 samples lie above it.  Set-ups
    are spread over the run, one before each pass.
    """
    per_op = list(zip(*passes))
    walls = [sorted(r.wall for r in rs) for rs in per_op]
    best = [ws[0] for ws in walls]
    fastest = [w for ws in walls for w in ws[:FASTEST]]
    pct, tail = tail_percentile(fastest)
    values = {
        "wall_s": sum(best),
        "cpu_s": sum(min(r.cpu for r in rs) for rs in per_op),
        "op_p50_s": statistics.median(best),
        "op_tail_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "op_tail_percentile": pct,
        "op_samples": len(fastest),
        "op_wall_s": [[r.wall for r in rs] for rs in per_op],  # per op, one sample per pass
        "op_cpu_s": [[r.cpu for r in rs] for rs in per_op],
        "setup_samples_s": setups,
    }
    return {name: values[name] for name in END_TO_END}, info


def traced_run(cli, ops, workload, seed):
    """TRACE_PAIRS alternating plain and traced passes.

    Per-layer metrics are medians over the traced passes (counts agree
    exactly), and the tracing overhead is the median over pairs of traced
    minus plain pass time, so a slow spell of the machine hits both sides.
    """
    from layers import Tracer

    plains, traceds, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        plains.append(run_pass(cli, ops))
        tracer = Tracer()
        tracer.install()
        try:
            traceds.append(run_pass(cli, ops, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    reference = [(r.rc, r.out, r.written) for r in plains[0]]
    plain_s = [sum(r.wall for r in p) for p in plains]
    traced_s = [sum(r.wall for r in p) for p in traceds]
    info = {
        "identical_answers": all([(r.rc, r.out, r.written) for r in p] == reference for p in plains + traceds),
        "wrappers_left": Tracer.leftovers(),
        "missing_targets": tracers[0].missing,
        "plain_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "overhead_s": statistics.median(t - p for t, p in zip(traced_s, plain_s)),
    }
    spans_file = OUT / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps([
        {"pass": i, "name": n, "op": o, "parent": p, "start": s, "end": e}
        for i, t in enumerate(tracers) for n, o, p, s, e in t.spans
    ]))
    info["spans_file"] = str(spans_file.relative_to(ROOT))
    per_pass = [t.metrics() for t in tracers]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    return plains + traceds, metrics, info


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=56)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "unideal" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'unideal'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import unideal.cli as cli

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    clock = Clock()
    here = os.getcwd()
    try:
        inst, setup_s = set_up(args.workload, args.seed, workdir, clock)
        os.chdir(workdir)  # the ops name their files relative to the work dir
        if args.trace:
            passes, metrics, info = traced_run(cli, inst.ops, args.workload, args.seed)
            from layers import METRICS as units
        else:
            passes, setups = measure(cli, inst.ops, setup_s, args.workload, args.seed,
                                     args.seconds, workdir, clock)
            metrics, info = end_to_end(passes, setups)
            units = END_TO_END
        verdicts = judge(inst.ops, passes, clock)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(row) for row in verdicts)
    failed = sum(not ok for row in verdicts for ok in row)
    correct = failed == 0 and (not args.trace or (info["identical_answers"] and not info["wrappers_left"]))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "instance_sha256": inst.digest(),
        "ops_per_pass": len(inst.ops),
        "passes": len(passes),
        "failed_frac": failed / attempted,
        "failed_ops": sorted({inst.ops[i].label for row in verdicts for i, ok in enumerate(row) if not ok}),
        "oracle_s": clock.total,
        "op_best_s": {
            f"{i:02d} {op.label}": min(results[i].wall for results in passes)
            for i, op in enumerate(inst.ops)
        },
        "environment": environment(bool(args.trace)),
        **info,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"instances={report['instance_sha256'][:16]} passes={len(passes)} ops/pass={len(inst.ops)}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':<30} {report['failed_frac']:.6g} ratio ({failed}/{attempted})")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
