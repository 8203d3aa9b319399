#!/usr/bin/env python3
"""Benchmark for botdetect: three workloads run through the `botdetect` CLI.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tweet-train --seed 1 --seconds 30 --trace 0

Set-up writes the workload's inputs from the seed. Jobs then run one at a
time (a closed loop with one client), each in its own process that calls
`botdetect.cli.main` with the argv a user would type, until --seconds have
passed and at least three jobs ran. Every job's outputs are checked. The
run and its jobs are pinned to one CPU, and end-to-end times are calibrated
by a reference kernel timed around every set-up and job (calibrate.py). With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1, traced and untraced jobs alternate and the JSON holds the
per-layer metrics derived from the traced jobs' spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

WORKLOAD_NAMES = ("tweet-train", "account-table", "tweet-score")
DEFAULT_SEED = 1
# One BLAS thread per process: jobs run one at a time, so this stays within
# nproc, and it keeps timings steady on a shared machine.
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_JOBS = 3
JOB_TIMEOUT_S = 150.0


def environment_stamp() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = 0
    for folder, _, files in os.walk(os.path.join(SRC, "botdetect")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_botdetect_lines": lines,
    }


def git_commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unavailable (not a git checkout)"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unresolved ({ref})"


def run_job(spec: dict, cwd: str, log_path: str) -> tuple[float, float, int, str]:
    """Run one job process; (wall s, peak RSS MiB, exit code, last stderr line)."""
    spec_path = log_path + ".spec.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE)
    with open(log_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "job.py"), spec_path],
                                cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        tail = [line.strip() for line in fh if line.strip()]
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, tail[-1] if tail else ""


@dataclass
class Job:
    wall: float
    calibrated: float  # wall time at the reference host speed (calibrate.py)
    rss_mb: float
    traced: bool
    reason: str  # why the job failed; empty when it passed every check
    outcome: workloads.Outcome | None  # None when the job failed
    spans: dict | None  # the traced job's span record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "botdetect", "cli.py")):
        print(f"error: no botdetect sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # One CPU for the run and every job it starts: the reference kernel then
    # times the CPU the jobs run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    # Imported only now: numpy must load after the BLAS thread count is set.
    import calibrate
    import tracing
    import workloads

    work = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        print(f"workload {args.workload}  seed {args.seed} (default {DEFAULT_SEED})  "
              f"size {args.size}  seconds {args.seconds:g}  trace {args.trace}")
        print("env " + json.dumps(environment_stamp()))
        result = measure(args, workloads.WORKLOADS[args.workload],
                         workloads.SIZES[args.size], work, tracing, workloads,
                         calibrate.Calibration())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def set_up(args, workload, size, work, problems, calibration):
    """Set up SETUP_REPEATS times (once when tracing), with a calibration
    group before and after each; return the inputs of the first set-up and
    every set-up's wall and calibrated duration."""
    walls, times = [], []
    calibration.take()
    for i in range(1 if args.trace else SETUP_REPEATS):
        root = os.path.join(work, f"setup-{i}")
        os.makedirs(root)
        start = time.perf_counter()
        inputs = workload.setup(root, args.seed, size)
        walls.append(time.perf_counter() - start)
        calibration.take()
        times.append(calibration.calibrated(walls[-1]))
        for name in inputs.files:
            with open(os.path.join(work, "setup-0", name), "rb") as first, \
                    open(os.path.join(root, name), "rb") as this:
                if first.read() != this.read():
                    problems.append(f"set-up is not deterministic: {name} differs")
    return inputs, walls, times


def run_jobs(args, workload, inputs, root, work, workloads, calibration) -> list[Job]:
    """Closed loop: one job at a time until --seconds have passed and at least
    MIN_JOBS ran, with a calibration group after each. When tracing,
    untraced and traced jobs alternate and the loop ends on a pair."""
    jobs: list[Job] = []
    reference = None
    begin = time.perf_counter()
    while True:
        n = len(jobs)
        traced = bool(args.trace) and n % 2 == 1
        out = os.path.join(root, workloads.JOB_OUT)
        shutil.rmtree(out, ignore_errors=True)
        spans_path = os.path.join(work, f"spans-{n}.json") if traced else None
        spec = {"commands": inputs.commands, "job": n, "spans": spans_path}
        wall, rss, code, last_err = run_job(spec, root, os.path.join(work, f"job-{n}.log"))
        kernel = calibration.take()
        job = Job(wall, calibration.calibrated(wall), rss, traced, "", None, None)
        if code != 0:
            job.reason = f"exit code {code}: {last_err}"
        else:
            try:
                job.outcome = workload.check(out)
            except workloads.CheckFailed as exc:
                job.reason = str(exc)
        if job.outcome is not None:
            reference = reference or job.outcome.artifacts
            for name, data in job.outcome.artifacts.items():
                if reference.get(name) != data:
                    job.reason = f"{name} differs from the first repetition"
                    job.outcome = None
                    break
        if traced and os.path.isfile(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                job.spans = json.load(fh)
        jobs.append(job)
        print(f"job {n}: {'traced' if traced else 'untraced'} {wall:.4f} s, calibrated "
              f"{job.calibrated:.4f} s, kernel {kernel:.4f} s, peak rss "
              f"{rss:.1f} MiB, {'FAILED: ' + job.reason if job.reason else 'ok'}")

        timed_out = time.perf_counter() - begin >= args.seconds
        if timed_out and len(jobs) >= MIN_JOBS and not (args.trace and n % 2 == 0):
            return jobs


def measure(args, workload, size, work, tracing, workloads, calibration) -> dict:
    problems: list[str] = []
    inputs, setup_walls, setup_times = set_up(args, workload, size, work, problems,
                                              calibration)
    print(f"setup wall  {tracing.describe(setup_walls, 's')}  items per job {inputs.items}")
    print(f"setup_s  {tracing.describe(setup_times, 's')} (calibrated)")
    jobs = run_jobs(args, workload, inputs, os.path.join(work, "setup-0"), work, workloads,
                    calibration)

    failed = [j for j in jobs if j.reason]
    print(f"failed_frac  {len(failed)}/{len(jobs)} = {len(failed) / len(jobs):.4f}")
    for job in failed:
        print(f"  failure: {job.reason}")
    good = [j for j in jobs if not j.reason] or jobs
    untraced = [j for j in good if not j.traced] or good
    walls = [j.wall for j in untraced]
    job_times = [j.calibrated for j in untraced]
    print(f"job wall  {tracing.describe(walls, 's')}")
    print(f"reference kernel  {tracing.describe(calibration.readings, 's')}")
    print(f"job_s  {tracing.describe(job_times, 's')} (calibrated)")

    if not args.trace:
        outcome = next((j.outcome for j in good if j.outcome is not None), None)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "job_s": (statistics.median(job_times), "s"),
            "items_per_s": (statistics.median(inputs.items / t for t in job_times), "1/s"),
            "peak_rss_mb": (statistics.median(j.rss_mb for j in untraced), "MiB"),
            "auc_min": (outcome.auc_min if outcome else 0.0, "ratio"),
            "bot_recall_min": (outcome.recall_min if outcome else 0.0, "ratio"),
        }
    else:
        metrics = layer_metrics(jobs, job_times, tracing)
    for name, (value, unit) in metrics.items():
        print(f"{name}  {value!r} {unit}")
    for problem in problems:
        print(f"problem: {problem}")
    return {
        "correct": not failed and not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(jobs, untraced_times, tracing) -> dict:
    """Median over the traced jobs of each per-layer metric; the tracing
    overhead compares calibrated job times."""
    traced = [j for j in jobs if j.traced and j.spans is not None]
    per_job, absent, tail = [], [], None
    for job in traced:
        values, calls, tail = tracing.job_metrics(job.spans, job.wall)
        per_job.append(values)
        absent = tracing.absent_metrics(calls)
    if traced:
        print(f"traced job_s  {tracing.describe([j.calibrated for j in traced], 's')} "
              "(calibrated)")
    print("lstm.forward_call_ms.tail is "
          + (f"p{tail:g}" if tail else "p50 (too few calls for a higher percentile)"))
    print("absent (the layer does not run in this workload; reported as 0): "
          + (", ".join(absent) if absent else "none"))
    print("time waited: not applicable; each job is single-threaded and has no queues")
    metrics = {}
    for name, (unit, _) in tracing.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = (statistics.median(j.calibrated for j in traced)
                     - statistics.median(untraced_times)) if traced else 0.0
        else:
            value = statistics.median(v[name] for v in per_job) if per_job else 0.0
        metrics[name] = (value, unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
