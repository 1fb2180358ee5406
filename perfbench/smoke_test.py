#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json with `--tiny` (the Last.fm stand-in at
scale 0.1 as every input) for two seconds, untraced and traced, and checks
that each run exits 0 with a correct result, that the result line has
exactly the contract's keys, that every metric BENCHMARK.json names appears
with its unit, and that in the traced run the pipeline stages plus
`unattributed_s` add up to the job wall.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGES = [
    "core.fit_s", "models.attr_sample_s", "models.edge_sample_s", "models.rewire_s",
    "graph.freeze_s", "eval.score_s", "service.store_write_s",
]


def run(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
               "--seconds", "2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = json.loads(lines[-2])["env"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    for key in ("git_rev", "nproc", "scale", "seed", "sampling_threads"):
        assert key in env, f"environment header lacks {key}"
    return result["metrics"]


def check_names(metrics, declared, label):
    assert set(metrics) == {m["name"] for m in declared}, f"{label}: {sorted(metrics)}"
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} in {got['unit']}, declared {m['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in bench["workloads"]]:
        untraced = run(workload, 0)
        check_names(untraced, bench["end_to_end"], f"{workload} untraced")
        assert all(v["value"] > 0 for v in untraced.values()), untraced
        traced = run(workload, 1)
        check_names(traced, bench["per_layer"], f"{workload} traced")
        wall = traced["trace.job_wall_s"]["value"]
        staged = sum(traced[s]["value"] for s in STAGES) + traced["unattributed_s"]["value"]
        assert wall > 0 and abs(staged - wall) <= 1e-9 * wall, f"{workload}: stages {staged} vs wall {wall}"
        share = traced["unattributed_share"]["value"]
        assert abs(share - traced["unattributed_s"]["value"] / wall) <= 1e-9, share
        print(f"ok {workload}: {len(untraced)} end-to-end and {len(traced)} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
