#!/usr/bin/env python3
"""Compare the CLI's answers on every benchmark op between a parent revision and the working tree.

    python3 scripts/cli_outputs.py --parent HEAD~1 [--seeds 9001 1 2]

Both sides are checked out by `bench_pairs.export`: the parent revision with
`git archive`, the working tree as a copy of `src/`, `perfbench/` and
`BENCHMARK.json`.  For every workload `BENCHMARK.json` declares and every
seed, each side builds the instance set with its own
`perfbench/workloads.py` in a fresh child interpreter and runs every op
through `unideal.cli.main`, once plain and once with `--json`, in list order
(a `--verify` op reads the certificate that the `--search` op before it
wrote).  Each run records its exit code (or the exception it raised), its
stdout and the text of the file the op writes.  Every op whose record
differs between the sides is printed, and the exit code is 1 if any does,
0 otherwise.  Nothing under perfbench/ is written, and the scratch directory
is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, SIDES, export

# Runs in the child, in an empty work directory: argv is (checkout, workload, seed).
CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
checkout = Path(sys.argv[1])
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
from workloads import build
from unideal.cli import main
inst = build(sys.argv[2], int(sys.argv[3]), contextlib.nullcontext())
for name, text in inst.files.items():
    Path(name).write_text(text, encoding="utf-8")
records = []
for op in inst.ops:
    for flags in ([], ["--json"]):
        if op.writes:
            Path(op.writes).unlink(missing_ok=True)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main(op.argv + flags)
        except SystemExit as exc:
            rc = f"exit {exc.code}"
        except Exception as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
        written = Path(op.writes).read_text(encoding="utf-8") if op.writes and Path(op.writes).exists() else None
        records.append({"op": " ".join([op.label] + flags), "rc": rc, "stdout": out.getvalue(), "written": written})
print(json.dumps(records))
"""


def outputs(checkout: Path, workload: str, seed: int, scratch: Path) -> list:
    """Every op's record on one side, for one workload and seed."""
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-{seed}-", dir=scratch))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout), workload, str(seed)],
                          cwd=work, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"building or running {workload} seed={seed} in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare the working tree with")
    ap.add_argument("--seeds", nargs="+", type=int, default=[9001, 1, 2])
    args = ap.parse_args(argv)

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    scratch = Path(tempfile.mkdtemp(prefix="cli-outputs-"))
    differing = compared = 0
    try:
        dirs = export(args.parent, scratch)
        for workload in workloads:
            for seed in args.seeds:
                got = {side: outputs(dirs[side], workload, seed, scratch) for side in SIDES}
                if [r["op"] for r in got["parent"]] != [r["op"] for r in got["change"]]:
                    print(f"{workload} seed={seed}: the two sides run different op lists")
                    differing += 1
                    continue
                for old, new in zip(got["parent"], got["change"]):
                    compared += 1
                    fields = [key for key in ("rc", "stdout", "written") if old[key] != new[key]]
                    if fields:
                        differing += 1
                        print(f"{workload} seed={seed} {old['op']}:")
                        for key in fields:
                            print(f"  {key}: parent {_short(old[key])}\n  {' ' * len(key)}  change {_short(new[key])}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{compared} runs compared, {differing} differ "
          f"({', '.join(workloads)}; seeds {' '.join(map(str, args.seeds))}; parent {args.parent})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
