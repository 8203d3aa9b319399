#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size. Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that an untraced and two traced runs complete
with correct outputs, that metric names use only [A-Za-z0-9_.-], that the
traced job's self times sum to no more than its wall time, that the work
counts repeat exactly between the two traced runs, and that layers report
as absent exactly where they do not run. It also checks that the benchmark
fails, without a result, when the botdetect sources are missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SEED = 3
# Metrics that must be zero (absent) on a workload because its layer is idle.
ABSENT = {
    "tweet-train": ("resample.knn_calls", "resample.rows_in", "baselines.forest_nodes",
                    "baselines.boost_stumps", "introspect.forward_calls"),
    "account-table": ("lstm.forward_calls", "lstm.steps", "nnet.adam_steps",
                      "tokenizer.calls"),
    "tweet-score": ("resample.knn_calls", "baselines.forest_nodes", "nnet.adam_steps",
                    "persist.bytes"),
}


def run(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result_of(workload: str, trace: int) -> dict:
    code, out = run(workload, trace)
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit code {code}")
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} trace {trace}: outputs failed their checks\n{out}")
    bad = [name for name in result["metrics"] if not NAME.match(name)]
    if bad:
        raise AssertionError(f"{workload}: metric names outside [A-Za-z0-9_.-]: {bad}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_workload(workload: str) -> None:
    result_of(workload, 0)
    first, second = result_of(workload, 1), result_of(workload, 1)
    # One traced job per tiny run, so the reported self times are that job's:
    # they cover its wall time exactly when cli.self_s (the rest) is >= 0.
    selves = [first[m] for m in tracing.SELF_TIME] + [first["cli.self_s"]]
    if min(selves) < -1e-9:
        raise AssertionError(f"{workload}: self times exceed the job's wall time")
    counts = [m for m, (unit, _) in tracing.PER_LAYER.items() if unit == "count"]
    moved = {m: (first[m], second[m]) for m in counts
             if m != "layer.errors" and first[m] != second[m]}
    if moved:
        raise AssertionError(f"{workload}: counts differ between two runs: {moved}")
    present = [m for m in ABSENT[workload] if first[m] != 0]
    if present:
        raise AssertionError(f"{workload}: idle layers reported work: {present}")
    if workload == "account-table":
        if not first["resample.rows_out"] < first["resample.rows_in"]:
            raise AssertionError("account-table: ENN removed no rows")
        if not first["baselines.forest_nodes"] > 2 * first["baselines.forest_trees"]:
            raise AssertionError("account-table: the forest grew only single splits")
    print(f"ok  {workload}: lstm.steps {first['lstm.steps']:g}, resample.knn_calls "
          f"{first['resample.knn_calls']:g}, baselines.forest_nodes "
          f"{first['baselines.forest_nodes']:g}")


def check_fails_without_sources() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, out = run("tweet-train", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    if code == 0 or out.strip():
        raise AssertionError("the benchmark ran without the botdetect sources")
    print(f"ok  without sources: exit code {code}, no result")


def main() -> int:
    for workload in ABSENT:
        check_workload(workload)
    check_fails_without_sources()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
