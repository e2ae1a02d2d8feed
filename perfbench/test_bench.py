"""The benchmark's own test.

    python3 -m pytest perfbench/test_bench.py -q

Checks metric naming, that a tiny run of every workload prints every
metric BENCHMARK.json names, and that the oracle comparison rejects a
wrong count.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "layers.json")) as f:
    LAYERS = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_mapped():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.fullmatch(n) and len(n) <= 64, n
    # every layer metric names the end-to-end metrics and workloads it should move
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert set(LAYERS) == {m["name"] for m in BENCH["per_layer"]}
    for name, target in LAYERS.items():
        assert set(target["moves"]) <= e2e and set(target["on"]) <= set(WORKLOADS), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    lines = p.stdout.splitlines()
    out = json.loads(lines[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} ") for line in lines), m["name"]
    assert max(len(line) for line in lines[:-1]) < 200


def _counts_result(want):
    return SimpleNamespace(counts=dict(want["counts"]), row_count=want["rows"],
                           valid=want["valid"])


def test_oracle_rejects_a_wrong_count(tmp_path):
    from workloads import InterleavedDocs, LandRun

    docs = InterleavedDocs(str(tmp_path), seed=5, scale=0.01)
    docs.generate()
    want = docs.oracle()
    res = _counts_result(want)
    assert docs.check(res, want) == []
    key = next(iter(want["counts"]))
    res.counts[key] += 1
    assert docs.check(res, want)

    land = LandRun(str(tmp_path), seed=5, scale=0.01)
    land.generate()
    want = land.oracle()
    manifests = [
        SimpleNamespace(
            source_path=os.path.join(land.root, "land", fname), valid=exp["valid"],
            row_count=exp["rows"], counts={f"{c}::{t}": n for (c, t), n in exp["counts"].items()},
            archived_path=os.path.join(land.root, "pass" if exp["valid"] else "fail",
                                       exp["table"], fname),
        )
        for fname, exp in want["files"].items()
    ]
    assert land.check(SimpleNamespace(manifests=manifests), want) == []
    bad = next(m for m in manifests if m.counts)
    bad.counts[next(iter(bad.counts))] -= 1
    assert land.check(SimpleNamespace(manifests=manifests), want)
