#!/usr/bin/env python3
"""Regenerate the gated BENCH_*.json perf anchors from one build tree.

Usage:
    python3 scripts/make_bench_anchors.py --build-dir build-o2 [--out-dir .]
        [--min-time 0.2] [--skip-sweeps]

PROCESSES micro_bench runs (JSON format) of REPETITIONS repetitions each
feed every anchor: a process reports google-benchmark's median aggregate
over its repetitions, and the anchor keeps the median over processes of
each entry field and of each speedup ratio, under the plain benchmark name
the gates read. Repetitions inside one process do not remove the spread
between processes, which the gates (scripts/check_bench_regression.py)
likewise take the median over. The sweep instrument is invoked
separately for the block that is not a google-benchmark entry. The emitted files keep the exact
`perigee-bench-snapshot-v1` shape the soft gates consume
(scripts/check_bench_regression.py), including the benchmark `context`:
google-benchmark's own `library_build_type` (the system .so's build flavor,
NOT perigee's) plus the perigee_* custom-context keys micro_bench injects —
`perigee_build_type`, the one the gates trust, `perigee_compiler`,
`perigee_cxx_flags` and `perigee_git_sha` (see ARCHITECTURE.md, "Release
perf truth") — plus `perigee_git_dirty`, which this script records from
`git status` because the configure-time sha cannot show a dirty tree.

Anchor regeneration policy: run this ONLY from a Release (-O2) tree when
refreshing the checked-in anchors.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# google-benchmark entry keys the anchors keep (drop run metadata noise).
ENTRY_KEYS = ("name", "iterations", "real_time", "cpu_time", "time_unit",
              "items_per_second")
# context keys carried into every anchor: hardware facts, the library's own
# build flavor, and the perigee_* custom context describing this binary.
CONTEXT_KEYS = ("num_cpus", "mhz_per_cpu", "library_build_type",
                "perigee_build_type", "perigee_compiler", "perigee_cxx_flags",
                "perigee_git_sha")

SCHEMA = "perigee-bench-snapshot-v1"

# --benchmark_repetitions of each micro_bench run, and how many runs (one
# process each) an anchor takes the median over.
REPETITIONS = 5
PROCESSES = 3

NOTES = {
    "incremental_csr": (
        "Incremental-CSR anchor: per-round topology refresh as a full "
        "flat-graph recompile vs the mutation-journal patch path "
        "(net::CsrCache apply_deltas), refresh isolated from the mutations "
        "themselves. incremental_csr_speedup is the churn-epoch round shape "
        "(2% seeded churn, the scenario sweeps' common case; a few hundred "
        "journaled deltas at n=1000): patch/rebuild items_per_second, "
        "acceptance bar at the fig3a grid size (n=1000) >= 3x; it explains "
        "the net.csr perfbench layer. "
        "full_rewire_refresh_speedup is the heaviest shape (every node "
        "replaces 2 of dout=8 out-edges per round, ~4n deltas) where the "
        "patch touches nearly every row and the win compresses toward the "
        "saved latency-model resolutions (4x fewer); recorded for "
        "transparency, no bar. adaptive_round_speedup and sweep_wallclock "
        "record the end-to-end |B|=100 adaptive round / sweep win, small by "
        "construction because one compile already amortizes over 100 blocks "
        "(PR2); |B|=1 (UCB) and churn-driven rounds are where the refresh "
        "dominates. Measured single-threaded."),
    "queuing": (
        "Queuing-engine anchor for the egress transmission DES "
        "(sim/egress.hpp, docs/TRANSMISSION_MODEL.md). "
        "egress_unlimited_speedup is BM_BroadcastEgressUnlimited / "
        "BM_RelaxInnerLoop items_per_second: the event loop in its ∞-rate "
        "parity corner computes the exact delay-only arrivals of the "
        "single-source delay path (the batched engine as a batch of one; "
        "byte parity pinned by tests/sim_engine_diff_test.cpp), so the ratio "
        "prices the DES against the relaxation it replaces — (time, seq) "
        "events in the same monotone fixed-point bucket queue, ordered by "
        "(qkey, time bits, seq), plus per-sender scheduler state, and every "
        "Ready node walks its control segment. It explains the sim.egress and "
        "metrics.lambda_egress perfbench layers. The soft gate bars "
        "regressions of this ratio at n=1000, not the absolute value. "
        "egress_queue_speedup is the finite-rate congestion workload (200 KB "
        "blocks + 1 KB INV chatter over 33 Mbit/s profile rates), gated the "
        "same way: serializing payloads add one SendDone event each (a "
        "sender's control run is one event), which pushes the event count "
        "per broadcast from O(n) toward O(edges) and is why the congestion "
        "grid is sized at n=200. Every entry and ratio is the median over "
        f"{PROCESSES} micro_bench processes of each one's median of "
        f"{REPETITIONS} repetitions."),
}

# The micro_bench subset each anchor records (exact benchmark names).
MICRO_SLICES = {
    "incremental_csr": [
        "BM_CsrRoundRefreshRebuild/200", "BM_CsrRoundRefreshRebuild/1000",
        "BM_CsrRoundRefreshPatch/200", "BM_CsrRoundRefreshPatch/1000",
        "BM_CsrChurnRefreshRebuild/200", "BM_CsrChurnRefreshRebuild/1000",
        "BM_CsrChurnRefreshPatch/200", "BM_CsrChurnRefreshPatch/1000",
        "BM_AdaptiveRoundRebuild/200", "BM_AdaptiveRoundRebuild/1000",
        "BM_AdaptiveRoundPatched/200", "BM_AdaptiveRoundPatched/1000",
    ],
    "queuing": [
        "BM_RelaxInnerLoop/200", "BM_RelaxInnerLoop/1000",
        "BM_RelaxInnerLoop/4000",
        "BM_BroadcastEgressUnlimited/200", "BM_BroadcastEgressUnlimited/1000",
        "BM_BroadcastEgressUnlimited/4000",
        "BM_BroadcastEgress/200", "BM_BroadcastEgress/1000",
        "BM_BroadcastEgress/4000",
    ],
}


def run(cmd, **kwargs):
    print("+", " ".join(cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, check=True, **kwargs)


def micro_filter():
    names = sorted({n.split("/")[0] for s in MICRO_SLICES.values() for n in s})
    return "^(" + "|".join(names) + ")(/|$)"


def run_micro_bench(build_dir, min_time):
    exe = os.path.join(build_dir, "micro_bench")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    run([exe, f"--benchmark_filter={micro_filter()}",
         # No "s" suffix: benchmark 1.7.x rejects suffixed durations
         # (1.8+ accepts both spellings).
         f"--benchmark_min_time={min_time}",
         f"--benchmark_repetitions={REPETITIONS}",
         "--benchmark_report_aggregates_only=true",
         f"--benchmark_out={out_path}", "--benchmark_out_format=json"],
        stdout=subprocess.DEVNULL)
    with open(out_path) as fh:
        data = json.load(fh)
    os.unlink(out_path)
    return data


def entry_map(micro_json):
    """Median aggregate of every benchmark, keyed and named by its plain
    run name (e.g. BM_RelaxInnerLoop/1000, not ..._median)."""
    entries = {}
    for bench in micro_json["benchmarks"]:
        if bench.get("aggregate_name") != "median":
            continue
        name = bench["run_name"]
        entries[name] = {k: bench[k] for k in ENTRY_KEYS if k in bench}
        entries[name]["name"] = name
    return entries


def median_entries(maps):
    """Per benchmark, the median over processes of every numeric field."""
    entries = {}
    for name in set.intersection(*(set(m) for m in maps)):
        first = maps[0][name]
        entries[name] = {
            k: (statistics.median(m[name][k] for m in maps)
                if isinstance(v, (int, float)) else v)
            for k, v in first.items()}
    return entries


def git_dirty():
    """True when tracked files differ from HEAD. perigee_git_sha is fixed
    when CMake configures, so it cannot show an anchor built from a dirty
    tree; this records that fact at anchor time. None outside a checkout."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=repo, check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(out.strip())


def context_block(micro_json):
    ctx = micro_json["context"]
    block = {k: ctx[k] for k in CONTEXT_KEYS if k in ctx}
    block["perigee_git_dirty"] = git_dirty()
    return block


def speedup(maps, fast, slow, sizes):
    """Median over processes of each process's fast/slow ratio."""
    return {f"n{s}": round(statistics.median(
        m[f"{fast}/{s}"]["items_per_second"] /
        m[f"{slow}/{s}"]["items_per_second"] for m in maps), 3)
        for s in sizes}


def slice_entries(entries, anchor):
    missing = [n for n in MICRO_SLICES[anchor] if n not in entries]
    if missing:
        raise SystemExit(f"micro_bench run is missing {missing} for {anchor}")
    return [entries[n] for n in MICRO_SLICES[anchor]]


def timed_sweep(build_dir, json_path, incremental=True):
    cmd = [os.path.join(build_dir, "perigee_sweep"), "--figure", "baseline",
           "--seeds", "2", "--jobs", "1", "--json", json_path]
    if not incremental:
        cmd.append("--incremental-csr=false")
    start = time.monotonic()
    run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.monotonic() - start


def sweep_wallclock_block(build_dir, scratch_dir, runs=3):
    patched, rebuild = [], []
    path = os.path.join(scratch_dir, "wallclock.json")
    for _ in range(runs):  # interleaved to share thermal/noise conditions
        patched.append(timed_sweep(build_dir, path, incremental=True))
        rebuild.append(timed_sweep(build_dir, path, incremental=False))
    med_p = statistics.median(patched)
    med_r = statistics.median(rebuild)
    return {
        "note": ("perigee_sweep --figure baseline --seeds 2 --jobs 1, median "
                 f"of {2 * runs} interleaved runs, --incremental-csr=false "
                 "vs default; output JSON byte-identical either way"),
        "baseline_patched_s": round(med_p, 2),
        "baseline_rebuild_s": round(med_r, 2),
        "baseline_win": round(med_r / med_p, 3),
    }


def write_anchor(out_dir, stem, payload):
    path = os.path.join(out_dir, f"BENCH_{stem}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", required=True,
                    help="build tree holding micro_bench/perigee_sweep")
    ap.add_argument("--out-dir", default=".",
                    help="where BENCH_*.json land (repo root)")
    ap.add_argument("--min-time", default="0.2",
                    help="google-benchmark --benchmark_min_time seconds")
    ap.add_argument("--skip-sweeps", action="store_true",
                    help="keep the existing sweep_wallclock block (only "
                         "micro entries + speedups are refreshed)")
    args = ap.parse_args()

    micros = [run_micro_bench(args.build_dir, args.min_time)
              for _ in range(PROCESSES)]
    maps = [entry_map(micro) for micro in micros]
    entries = median_entries(maps)
    ctx = context_block(micros[0])

    def previous(stem, key, fallback=None):
        path = os.path.join(args.out_dir, f"BENCH_{stem}.json")
        if os.path.exists(path):
            with open(path) as fh:
                return json.load(fh).get(key, fallback)
        return fallback

    with tempfile.TemporaryDirectory() as scratch:
        # --- BENCH_incremental_csr ---
        if args.skip_sweeps:
            wallclock = previous("incremental_csr", "sweep_wallclock", {})
        else:
            wallclock = sweep_wallclock_block(args.build_dir, scratch)
        write_anchor(args.out_dir, "incremental_csr", {
            "schema": SCHEMA,
            "note": NOTES["incremental_csr"],
            "context": ctx,
            "incremental_csr_speedup": speedup(
                maps, "BM_CsrChurnRefreshPatch", "BM_CsrChurnRefreshRebuild",
                (200, 1000)),
            "full_rewire_refresh_speedup": speedup(
                maps, "BM_CsrRoundRefreshPatch", "BM_CsrRoundRefreshRebuild",
                (200, 1000)),
            "adaptive_round_speedup": speedup(
                maps, "BM_AdaptiveRoundPatched", "BM_AdaptiveRoundRebuild",
                (200, 1000)),
            "sweep_wallclock": wallclock,
            "micro_bench": slice_entries(entries, "incremental_csr"),
        })

        # --- BENCH_queuing ---
        write_anchor(args.out_dir, "queuing", {
            "schema": SCHEMA,
            "note": NOTES["queuing"],
            "context": ctx,
            "egress_unlimited_speedup": speedup(
                maps, "BM_BroadcastEgressUnlimited", "BM_RelaxInnerLoop",
                (200, 1000, 4000)),
            "egress_queue_speedup": speedup(
                maps, "BM_BroadcastEgress", "BM_RelaxInnerLoop",
                (200, 1000, 4000)),
            "micro_bench": slice_entries(entries, "queuing"),
        })


if __name__ == "__main__":
    main()
