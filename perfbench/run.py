#!/usr/bin/env python3
"""Sweep benchmark: end-to-end wall-clock of perigee_sweep, per-layer replay.

Usage (from the repository root):
    python3 perfbench/run.py --workload learn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload learn --seed 1 --seconds 30 --trace 1

The first call configures and builds perfbench/CMakeLists.txt (the perigee
library, perigee_sweep and perfbench_trace, Release) into
.bench_build/perfbench; later calls only rebuild what changed.

--trace 0 times the real perigee_sweep CLI as a black-box child process
with one worker, repeated until --seconds have passed, and reports the
medians of its CPU seconds and peak RSS (both from wait4, so they describe
the measured process itself), plus the median in-process set-up CPU time
of the workload's jobs. Every repetition's output, with its "meta" block
stripped, must hash to the digest recorded in perfbench/digests.json for
that seed, or, for a
seed with no recorded digest, to the same digest as the run's other
repetitions; a repetition that differs or exits nonzero counts as failed.

--trace 1 runs perfbench_trace, which replays every job one at a time and
times each layer call from outside (perfbench/replay.hpp), checks each job's
λ bytes against core::run_cell_curves, and writes the replayed grid; its
digest must equal one perigee_sweep --metrics run's, whose counters are
reported as exact counts.

The last line of stdout is the result object; the line before it is a
{"perfbench_meta": ...} object describing the run. perfbench/diff.py
compares two sets of traced results.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SWEEP = os.path.join(BUILD, "perigee", "perigee_sweep")
TRACE = os.path.join(BUILD, "perfbench_trace")

# perigee_sweep grid flags per workload; perfbench/replay.cpp's
# workload_spec builds the same grids (the digest check ties the two).
WORKLOADS = {
    "learn": ["--figure", "baseline", "--churn", "0,0.05", "--seeds", "2"],
    "large-n": ["--algorithms", "perigee-subset", "--nodes", "2500",
                "--rounds", "3", "--seeds", "1"],
    "congestion": ["--figure", "congestion", "--seeds", "2"],
}

# Layer metric stems, in perfbench/replay.hpp's order.
LAYERS = [
    "scenario.build", "topo.initial", "scenario.churn", "sim.observe_begin",
    "net.csr", "mining.sample", "sim.relax", "sim.egress", "sim.record",
    "core.select", "metrics.lambda", "metrics.lambda_egress", "metrics.ideal",
    "runner.checkpoint", "runner.json",
]

# perigee_sweep --metrics counters reported as exact per-layer counts.
COUNTERS = {
    "sim.bucket_pops": "engine.bucket.pops",
    "sim.bucket_empty_skips": "engine.bucket.empty_skips",
    "sim.egress_events": "egress.events",
    "sim.egress_tokens_exhausted": "egress.tokens_exhausted",
    "net.csr_patches": "csr.cache.patches",
    "net.csr_rebuilds": "csr.cache.rebuilds",
    "runner.checkpoint_writes": "sweep.checkpoint_writes",
}

CHILD_TIMEOUT_S = 150
MIN_SWEEP_REPS = 3
# Set-up time can differ by 30% between two processes timing the same
# seed, so it is timed in several processes and the median one reported.
SETUP_PROCESSES = 9
SETUP_SECONDS = 0.15
SETUP_MIN_REPS = 5


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"no perigee sources at {ROOT}")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
              "configure")
    check(["cmake", "--build", BUILD, "-j", jobs, "--target",
           "perigee_sweep", "perfbench_trace"], "build")


def check(cmd, what):
    # Build chatter goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError(f"{what} failed: {' '.join(cmd)}")


def run_measured(cmd, stderr_path):
    """Runs cmd to completion; returns (exit code, wall s, rusage)."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:  # interrupted before it was reaped
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return proc.returncode, wall, usage


def digest(path):
    """sha256 of the result JSON without its provenance "meta" member."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc.pop("meta", None)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def run_sweep(args, jobs, work, extra=()):
    out = os.path.join(work, "sweep.json")
    stderr_path = os.path.join(work, "sweep.stderr")
    cmd = [SWEEP, *WORKLOADS[args.workload], "--seed", str(args.seed),
           "--jobs", str(jobs), "--json", out, *extra]
    code, wall, usage = run_measured(cmd, stderr_path)
    rep = {
        "exit": code,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "digest": digest(out) if code == 0 and os.path.isfile(out) else None,
    }
    with open(stderr_path, encoding="utf-8") as handle:
        rep["stderr"] = handle.read()
    if code != 0:
        log(f"perigee_sweep exited {code}: {rep['stderr'].strip()[-500:]}")
    return rep


def run_driver(args, mode, seconds, work, min_reps):
    cmd = [TRACE, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--min-reps", str(min_reps), "--work-dir", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else None
    return proc.returncode, doc


def judge(reps, reference):
    """Marks each repetition ok when it exited 0 with the reference digest."""
    failed = 0
    for rep in reps:
        rep["ok"] = rep["exit"] == 0 and rep["digest"] == reference
        failed += not rep["ok"]
    return failed


def end_to_end(args, jobs, work, meta):
    setup_medians = []
    for _ in range(SETUP_PROCESSES):
        code, setup = run_driver(args, "setup", SETUP_SECONDS, work,
                                 SETUP_MIN_REPS)
        if code != 0 or setup is None:
            raise BenchError("perfbench_trace --mode setup failed")
        setup_medians.append(statistics.median(setup["setup_s"]))
    meta["build"] = setup["meta"]
    meta["setup_s_per_process"] = setup_medians
    reps = []
    start = time.perf_counter()
    # Start another repetition only while it should end within --seconds.
    while len(reps) < MIN_SWEEP_REPS or time.perf_counter() - start + \
            statistics.median(r["wall_s"] for r in reps) <= args.seconds:
        reps.append(run_sweep(args, jobs, work))
    reference = expected_digest(args.workload, args.seed) or reps[0]["digest"]
    failed = judge(reps, reference)
    meta["digest"] = reference
    meta["reps"] = [{k: v for k, v in rep.items() if k != "stderr"}
                    for rep in reps]
    metrics = {
        "sweep_cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setup_medians), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
    }
    return len(reps), failed, metrics


def scrape_counters(stderr_text):
    counters = {}
    for line in stderr_text.splitlines():
        name, sep, value = line.strip().partition(" = ")
        if sep and value.lstrip("-").isdigit():
            counters[name] = int(value)
    return counters


def traced(args, jobs, work, meta):
    code, doc = run_driver(args, "trace", args.seconds, work, 1)
    if doc is None:
        raise BenchError("perfbench_trace --mode trace printed nothing")
    meta["build"] = doc["meta"]
    rep = run_sweep(args, jobs, work, ["--metrics"])
    reference = expected_digest(args.workload, args.seed) or rep["digest"]
    trace_digest = digest(doc["output"]) if code == 0 else None
    if trace_digest != reference:
        log(f"replay exited {code}; its grid digest {trace_digest} != "
            f"{reference}")
    attempted = 2
    failed = judge([rep], reference) + (trace_digest != reference)
    meta["digest"] = reference
    meta["reps"] = [{k: v for k, v in rep.items() if k != "stderr"}]

    passes = doc["passes"]
    meta["trace_passes"] = len(passes)
    metrics = {}

    def median_of(fn):
        return statistics.median(fn(p) for p in passes)

    for stem in LAYERS:
        key = stem + "_s"
        metrics[key] = (median_of(lambda p: p["layers"][key]), "s")
        metrics[stem + "_share"] = (
            median_of(lambda p: p["layers"][key] / p["pass_s"]), "share")
    metrics["trace.pass_s"] = (median_of(lambda p: p["pass_s"]), "s")
    metrics["trace.residue_share"] = (median_of(
        lambda p: 1.0 - sum(p["layers"].values()) / p["pass_s"]), "share")
    metrics["trace.overhead_share"] = (median_of(
        lambda p: p["replay_s"] / p["reference_s"] - 1.0), "share")
    metrics["runner.parallel_eff"] = (
        rep["cpu_s"] / (rep["wall_s"] * jobs), "ratio")

    counters = scrape_counters(rep["stderr"])
    for name, counter in COUNTERS.items():
        metrics[name] = (counters.get(counter, 0), "count")
    pops = counters.get("engine.bucket.pops", 0)
    metrics["sim.bucket_stale_share"] = (
        counters.get("engine.bucket.stale_pops", 0) / pops if pops else 0.0,
        "share")
    metrics["sim.sources"] = (counters.get("engine.bucket.sources", 0) +
                              counters.get("engine.heap.sources", 0) +
                              counters.get("egress.sources", 0), "count")
    reuses = counters.get("sweep.scenario_reuses", 0)
    metrics["runner.scenario_reuse_share"] = (reuses / doc["jobs"], "share")
    metrics["failed_share"] = (failed / attempted, "share")
    return attempted, failed, metrics


def git_facts():
    # Stop git from adopting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*argv):
        try:
            proc = subprocess.run(["git", "--no-optional-locks", *argv],
                                  cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "--short", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return sha or "unknown", (bool(status) if status is not None else None)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = os.path.join(BUILD, f"work-{args.workload}-{os.getpid()}")
    try:
        build()
        cpus = len(os.sched_getaffinity(0))
        # The timed sweep runs one worker and is measured in CPU seconds: on
        # a shared host, wall-clock and extra workers measure the other
        # tenants (two sets of ten 3-worker runs spread 25-33% in
        # wall-clock). The traced pass's one --metrics run uses up to four
        # workers, so runner.parallel_eff describes sweep-level parallelism.
        jobs = min(4, cpus) if args.trace else 1
        sha, dirty = git_facts()
        meta = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "sweep_flags": WORKLOADS[args.workload], "jobs": jobs,
                "nproc": cpus, "cpu_model": cpu_model(), "git_sha": sha,
                "git_dirty": dirty}
        os.makedirs(work, exist_ok=True)
        measure = traced if args.trace else end_to_end
        attempted, failed, metrics = measure(args, jobs, work, meta)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"error: {err}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"perfbench_meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
