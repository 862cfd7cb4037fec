"""Run every workload, untraced and then traced, each in a fresh process.

    python3 perfbench/all.py --seed 1 --seconds 48 [--out perfbench/BENCH_baseline.json]

Prints each workload's end-to-end metrics by name and unit (with the
failure listing), then the traced per-layer metrics and the tracing
overhead.  With ``--out`` it also writes every run's final report as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["modules", "census"]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=48)
    ap.add_argument("--out", help="write the reports of every run to this JSON file")
    args = ap.parse_args(argv)
    reports: dict = {"seed": args.seed, "seconds": args.seconds, "untraced": {}, "traced": {}}
    for trace, key in ((0, "untraced"), (1, "traced")):
        for workload in WORKLOADS:
            lines, report = run(workload, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            reports[key][workload] = {"report": report, "lines": lines}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
