"""The benchmark's own checks: per-layer counts repeat exactly for one seed,
and another seed gives other inputs with the same mix of operation kinds.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

WORKLOADS = ["modules", "census"]


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    first, second = traced(workload, 5), traced(workload, 5)
    counts = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts, "no count metrics"
    for k in sorted(counts):
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def documents(ops) -> list:
    out = []
    for op in ops:
        texts = []
        for arg in op.argv:
            if arg.endswith(".json"):
                with open(arg, encoding="utf-8") as fh:
                    texts.append(fh.read())
            else:
                texts.append(arg)
        out.append(texts)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_changes_inputs_not_mix(workload, tmp_path):
    a = workloads.build(workload, 1, str(tmp_path / "a"))
    b = workloads.build(workload, 2, str(tmp_path / "b"))
    again = workloads.build(workload, 1, str(tmp_path / "again"))
    assert collections.Counter(op.kind for op in a) == collections.Counter(op.kind for op in b)
    assert documents(a) != documents(b)
    assert documents(a) == documents(again)
