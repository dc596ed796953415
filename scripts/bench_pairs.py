#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench/run.py, written as one JSON file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_N.json

The parent revision is exported with `git archive` into a scratch directory,
and the working tree's `src/`, `perfbench/` and `BENCHMARK.json` are copied
beside it, so both sides run from sibling directories outside the checkout
(where a checkout sits moves setup_s and peak_rss_mb by itself).  An export
leaves nothing registered in the repository if the script is killed, which a
`git worktree` would.  The workloads and the run length T are the ones
`BENCHMARK.json` declares (`workloads`, `run_seconds`).  For every workload,
pair i runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` on
the parent first when i is even and on the change first when i is odd; the
default seeds, 9001 and 1-9, give ten pairs per workload.  The output keeps
the commits, the seeds, the machine and every run's end-to-end metrics, and
per workload and metric each side's median and inclusive quartiles, the
change/parent ratio of the medians and the pairs the change won.
`--trace-seed S` adds one `--trace 1` run per side and workload at seed S and
keeps the per-layer metrics that are nonzero on either side.  The scratch
directory is removed at the end; nothing under perfbench/ is written.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout.strip()


def export(parent: str, scratch: Path) -> dict:
    """Both sides' checkouts under `scratch`: the parent revision and a copy of the working tree."""
    dirs = {side: scratch / side for side in SIDES}
    dirs["parent"].mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dirs["parent"])], input=archive, check=True)
    dirs["change"].mkdir()
    skip = shutil.ignore_patterns("__pycache__", ".perfbench", "*.egg-info")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dirs["change"] / name, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", dirs["change"] / "BENCHMARK.json")
    return dirs


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its JSON verdict, with the pass count and environment of its report."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    verdict = json.loads(lines[-1])
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
    return {
        "attempted": verdict["attempted"],
        "correct": verdict["correct"],
        "failed": verdict["failed"],
        "metrics": {name: m["value"] for name, m in verdict["metrics"].items()},
        "passes": len(report["op_wall_s"][0]) if report.get("op_wall_s") else None,
        "environment": report["environment"],
    }


def summarize(pairs, metrics) -> dict:
    """Per metric (all lower-is-better): each side's median and quartiles, the ratio and the wins."""
    out = {}
    for name in metrics:
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        row = {}
        for side in SIDES:
            xs = values[side]
            q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
            row[side] = {"median": med, "q1": q1, "q3": q3}
        par = row["parent"]["median"]
        row["change_over_parent_median"] = row["change"]["median"] / par if par else None
        row["change_wins"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
        row["ties"] = sum(c == p for p, c in zip(values["parent"], values["change"]))
        out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare the working tree with")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", nargs="+", type=int, default=[9001, *range(1, 10)])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--scratch", type=Path, default=None, help="directory for the two checkouts (default: a temp dir)")
    args = ap.parse_args(argv)

    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench", "BENCHMARK.json"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    result = {
        "commits": commits,
        "description": f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                       f"{len(args.seeds)} pairs per workload alternating which side runs first (parent first "
                       "at the even pair indices); values are each run's end-to-end metrics",
        "seeds": args.seeds,
    }
    if dirty:
        result["note"] = "The change side is the working tree, with uncommitted changes on top of the change commit."
    try:
        dirs = export(args.parent, scratch)
        workloads = {}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0], "seed": seed}
                for side in order:
                    pair[side] = run(dirs[side], workload, seed, seconds, 0)
                    print(f"{workload} seed={seed} {side}: wall_s={pair[side]['metrics']['wall_s']:.4f} "
                          f"failed={pair[side]['failed']}", file=sys.stderr, flush=True)
                pairs.append(pair)
            result.setdefault("machine", {k: pairs[0]["parent"]["environment"][k]
                                          for k in ("cpu_model", "nproc", "python")})
            for pair in pairs:
                for side in SIDES:
                    del pair[side]["environment"]
            workloads[workload] = {
                "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
                "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
                "pairs": pairs,
                "summary": summarize(pairs, metrics),
            }
            if args.trace_seed is not None:
                traced = {side: run(dirs[side], workload, args.trace_seed, seconds, 1)["metrics"]
                          for side in SIDES}
                result[f"trace_{workload}_seed{args.trace_seed}"] = {
                    name: {side: traced[side].get(name, 0) for side in SIDES}
                    for name in sorted(set(traced["parent"]) | set(traced["change"]))
                    if traced["parent"].get(name) or traced["change"].get(name)
                }
        result["workloads"] = workloads
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for workload, w in result["workloads"].items():
        s = w["summary"]["wall_s"]
        print(f"{workload}: wall_s parent {s['parent']['median']:.4f} -> change {s['change']['median']:.4f} "
              f"({s['change_over_parent_median']:.3f}x, change won {s['change_wins']}/{len(w['pairs'])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
