"""commvar benchmark: one workload in this process, closed loop, one client.

    python3 perfbench/run.py --workload modules --seed 1 --seconds 48 --trace 0

Set-up imports commvar from ``src/`` of this checkout, generates the
workload's inputs from the seed and writes them as module documents.  The
run then sends one operation at a time to ``commvar.cli.run_command``,
making a fixed number of passes over the workload's operation list, about
``--seconds`` long at the reference speed (setting up again before each
pass; ``setup_s`` is the median), and checks every report with the oracles
in this directory.  Times are reported in reference seconds (calib.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the run makes one untraced and one traced pass over the list
(a fixed amount of work, so counts repeat) and prints the per-layer
metrics.  Lines before it list the figures by name and every failed
operation by seed, kind and input.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys

import oracles
import workloads
from calib import REFERENCE_S, Calibrator
from spans import PER_LAYER, Tracer, shares

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INITIAL_SETUPS = 5
RANK_WINDOW = 0.05
# one pass over the operation list, in reference seconds (calib.py)
PASS_S = {"modules": 16.0, "census": 12.0}

END_TO_END = {
    "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


def load_program():
    """Import commvar afresh from this checkout's src/ (a module purge first,
    so repeated set-ups each pay the import)."""
    for name in [m for m in sys.modules if m == "commvar" or m.startswith("commvar.")]:
        del sys.modules[name]
    cli = importlib.import_module("commvar.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"commvar imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: str):
    """Import the program, generate the inputs and write the documents."""
    cli = load_program()
    shutil.rmtree(workdir, ignore_errors=True)
    return cli, workloads.build(workload, seed, workdir)


class Tally:
    """Oracle outcomes of every operation run, with failures listed by input."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.unexpected = 0
        self.failures: dict[str, int] = {}
        self.classified: dict[tuple, int] = {}  # census operation -> tuples it classified

    def run(self, cli, ops, cal: Calibrator) -> list[tuple[float, float, float]]:
        """One pass over ``ops``, one operation at a time: each operation's
        start, end and time less the kernels in it (``Calibrator.timed``).
        Each operation starts with the garbage of the ones before it
        collected, as it would in a process of its own."""
        timings = []
        for op in ops:
            gc.collect()
            (code, out), *timing = cal.timed(cli.run_command, op.argv)
            timings.append(timing)
            self.check(op, code, out)
        return timings

    def check(self, op, code: int, out: str) -> None:
        try:
            report = json.loads(out)
            status, detail = op.check(code, report)
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            report, status, detail = None, "fail", f"unreadable report: {type(e).__name__}: {e}"
        self.attempted += 1
        if status != "ok":
            self.unexpected += status == "fail"
            line = f"{status} seed={self.seed} op={op.kind} input=[{op.label}]: {detail}"
            self.failures[line] = self.failures.get(line, 0) + 1
        elif op.kind.startswith(("census", "orbit")):
            self.classified[op.kind, op.label] = oracles.classified_tuples(report)

    @property
    def tuples(self) -> int:
        """Commuting tuples one pass classifies, summed over the checked
        census operations."""
        return sum(self.classified.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def emit(self, summary: list[str], metrics: dict) -> None:
        summary.append(f"  failed_frac {self.failed / self.attempted:.4f} "
                       f"({self.failed} of {self.attempted}, {self.unexpected} unexpected)")
        summary += [f"  {line} (x{k})" for line, k in self.failures.items()]
        print("\n".join(summary))
        print(json.dumps({
            "correct": self.unexpected == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))


def at_rank(s: list[float], k: int) -> float:
    """The latency ranked ``k`` in the sorted ``s``, smoothed: the mean of
    the latencies ranked within RANK_WINDOW of the operation count (at
    least one) on either side.  The operations near one rank differ in kind,
    so a single rank jumps with small changes of machine speed or inputs."""
    m = max(1, round(RANK_WINDOW * len(s)))
    return statistics.mean(s[max(0, k - m):k + m + 1])


def tail(s: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile with at least ten samples above
    it (the maximum when there are ten or fewer), and that percentile."""
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return at_rank(s, k), 100.0 * (k + 1) / len(s)


def passes(workload: str, seconds: float) -> int:
    """Passes over the operation list in a run of about ``seconds`` at the
    reference speed.  A fixed number for given arguments, so that every run
    attempts the same operations."""
    return max(1, int(seconds / PASS_S[workload]))


def measure(args, workdir: str) -> None:
    """Make the run's passes over the operation list, setting up again
    before each; report reference seconds (see calib.py)."""
    tally = Tally(args.seed)
    setups: list[float] = []
    per_op: list[list[float]] = []
    with Calibrator() as cal:
        for k in range(INITIAL_SETUPS + passes(args.workload, args.seconds)):
            (cli, ops), *timing = cal.timed(setup, args.workload, args.seed, workdir)
            setups.append(cal.ref_seconds(*timing))
            if k < INITIAL_SETUPS:
                continue
            per_op = per_op or [[] for _ in ops]
            for samples, timing in zip(per_op, tally.run(cli, ops, cal)):
                samples.append(cal.ref_seconds(*timing))
    # an operation's latency is the median of its passes
    latency = sorted(statistics.median(samples) for samples in per_op)
    wall = sum(latency)
    tail_s, tail_pct = tail(latency)
    values = {
        "wall_s": wall,
        "op_p50_ms": at_rank(latency, len(latency) // 2) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    speed = REFERENCE_S * len(cal.took) / sum(cal.took)
    summary = [
        f"workload {args.workload} seed {args.seed}: {len(per_op[0])} passes of {len(per_op)} "
        f"operations, closed loop, one client",
        f"  wall_s {wall:.4f} s (one pass, in reference seconds; the machine ran at "
        f"{speed:.3f} of the reference speed, by {len(cal.took)} kernels)",
        f"  op_p50_ms {values['op_p50_ms']:.3f} ms over {len(latency)} operations",
        f"  op_tail_ms {values['op_tail_ms']:.3f} ms at p{tail_pct:.1f}",
        f"  setup_s {values['setup_s']:.4f} s (median of {len(setups)})",
        f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB",
    ]
    if args.workload == "census":
        summary.append(f"  tuples_per_s {tally.tuples / wall:.1f} 1/s")
    tally.emit(summary, {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()})


def measure_traced(args, workdir: str) -> None:
    """One untraced and one traced pass over the operation list: a fixed
    amount of work, so every count repeats for a seed.  The overhead of
    tracing compares the two passes in reference seconds.  Kernels that ran
    inside a span count in its time, as they count in the traced wall time
    the shares divide by; they fall evenly in time, so the shares hold."""
    tally = Tally(args.seed)
    cli, ops = setup(args.workload, args.seed, workdir)
    tracer = Tracer()
    with Calibrator() as cal:
        untraced = tally.run(cli, ops, cal)
        tracer.install()
        try:
            traced = tally.run(cli, ops, cal)
        finally:
            tracer.uninstall()
    traced_wall = sum(t1 - t0 for t0, t1, _ in traced)
    untraced, traced = (sum(cal.ref_seconds(*t) for t in timings) for timings in (untraced, traced))
    figures = tracer.aggregate(traced_wall, traced / untraced - 1)
    figures["census.tuples"] = tally.tuples
    values = shares(figures)
    summary = [
        f"workload {args.workload} seed {args.seed}: traced pass of {len(ops)} operations, "
        f"{len(tracer.name)} spans, wall_s {untraced:.4f} untraced and {traced:.4f} traced, "
        f"in reference seconds",
    ]
    summary += [f"  {k} {v:.6g} s" for k, v in figures.items() if k.endswith("_s")]
    summary += [f"  {k} {values[k]:.6g} {PER_LAYER[k][0]}" for k in PER_LAYER]
    tally.emit(summary, {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "commvar", "cli.py")):
        print(f"error: no commvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        (measure_traced if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
