#!/usr/bin/env python3
"""Soft perf gate: compare a fresh micro_bench JSON run against a checked-in
BENCH_*.json anchor.

The anchored quantity is a *speedup ratio* between a fast-path benchmark and
its baseline (items_per_second of --fast-bench/N divided by
--baseline-bench/N), which is largely machine-independent — comparing raw ns
across CI runners would be noise. Anchor pairs today, each explaining one
perfbench layer (ARCHITECTURE.md, "Release perf truth"):

  BENCH_incremental_csr.json incremental_csr_speedup BM_CsrChurnRefreshPatch /
                                                    BM_CsrChurnRefreshRebuild
  BENCH_queuing.json         egress_unlimited_speedup BM_BroadcastEgressUnlimited /
                                                    BM_RelaxInnerLoop
  BENCH_queuing.json         egress_queue_speedup     BM_BroadcastEgress /
                                                    BM_RelaxInnerLoop

The ratio of one micro_bench process spreads more than any repetition
count inside it can remove (four clean processes once gave 0.143-0.212 for
an anchor of 0.254), so the gate takes one or more current runs, one file
per process, and compares the median of their per-file ratios. If that
median falls more than --max-regression below the anchor's ratio, a GitHub
Actions ::warning:: annotation is emitted.

This gate is deliberately soft: it never fails the build (exit code 0 unless
the inputs are unreadable), because shared CI runners are too noisy for a
hard perf wall. It exists to make a real fast-path regression loud in the PR
checks without blocking unrelated work.

Usage:
  check_bench_regression.py <current_benchmark.json>... <BENCH_anchor.json>
      --key egress_unlimited_speedup --baseline-bench BM_RelaxInnerLoop
      --fast-bench BM_BroadcastEgressUnlimited [--max-regression 0.25]
      [--sizes 1000]
"""

import argparse
import json
import statistics
import sys


def items_per_second(entries, name):
    for entry in entries:
        if entry.get("name") == name:
            ips = entry.get("items_per_second")
            if ips:
                return float(ips)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current",
        nargs="+",
        help="benchmark --benchmark_format=json outputs, one per micro_bench "
        "process; the gate reads the median of their ratios",
    )
    parser.add_argument("anchor", help="checked-in BENCH_*.json anchor")
    parser.add_argument(
        "--key",
        required=True,
        help="anchor object holding the per-size speedup ratios "
        '(e.g. {"n1000": 1.8})',
    )
    parser.add_argument(
        "--baseline-bench",
        required=True,
        help="benchmark name of the baseline (denominator), without /size",
    )
    parser.add_argument(
        "--fast-bench",
        required=True,
        help="benchmark name of the fast path (numerator), without /size",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="warn when the speedup ratio drops by more than this fraction",
    )
    parser.add_argument(
        "--sizes",
        default="1000",
        help="comma-separated benchmark Arg sizes to check (default: the "
        "fig3a grid size 1000)",
    )
    parser.add_argument(
        "--current-build-type",
        default=None,
        help="build type of the current run (e.g. Debug); defaults to the "
        "current run's context.perigee_build_type (micro_bench injects it); "
        "warns when it differs from the anchor's context.perigee_build_type, "
        "since ratios anchored in one build mode are not comparable in "
        "another",
    )
    parser.add_argument(
        "--strict-build-type",
        action="store_true",
        help="hard-fail (exit 2) on a build-type mismatch, or when either "
        "side's build type cannot be determined — the Release perf lane "
        "must never silently compare against a debug-era anchor",
    )
    args = parser.parse_args()

    try:
        runs = []
        for path in args.current:
            with open(path) as f:
                runs.append(json.load(f))
        with open(args.anchor) as f:
            anchor = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"::error::perf gate cannot read inputs: {e}")
        return 1

    current = runs[0]
    anchor_speedups = anchor.get(args.key, {})

    # perigee_build_type is the *perigee* library's CMake build type (not
    # google-benchmark's context.library_build_type, which reports how the
    # benchmark .so itself was compiled — see ARCHITECTURE.md "Release perf
    # truth"). micro_bench injects it as custom context, so the anchor
    # carries it from its own run and the current run self-reports it;
    # --current-build-type overrides the current side. The other context
    # keys (perigee_git_sha, perigee_git_dirty, ...) are provenance only and
    # never gate.
    anchor_build_type = (anchor.get("context") or {}).get("perigee_build_type")
    current_build_type = args.current_build_type or (
        current.get("context") or {}
    ).get("perigee_build_type")
    if current_build_type and anchor_build_type and (
        current_build_type != anchor_build_type
    ):
        message = (
            f"current run is {current_build_type} but {args.anchor} was "
            f"anchored under {anchor_build_type}; speedup ratios are not "
            "comparable across build modes — re-anchor or fix the lane's "
            "build type"
        )
        if args.strict_build_type:
            print(f"::error title=Bench build-type mismatch::{message}")
            return 2
        print(f"::warning title=Bench build-type mismatch::{message}")
    elif args.strict_build_type and not (
        current_build_type and anchor_build_type
    ):
        print(
            "::error title=Bench build-type unknown::--strict-build-type "
            f"needs both sides' build types (current: {current_build_type}, "
            f"anchor: {anchor_build_type}); pass --current-build-type or "
            "regenerate the anchor with scripts/make_bench_anchors.py"
        )
        return 2

    warned = False
    checked = 0
    for size in args.sizes.split(","):
        size = size.strip()
        anchor_ratio = anchor_speedups.get(f"n{size}")
        ratios = []
        for run in runs:
            entries = run.get("benchmarks", [])
            baseline = items_per_second(
                entries, f"{args.baseline_bench}/{size}"
            )
            fast = items_per_second(entries, f"{args.fast_bench}/{size}")
            if baseline is not None and fast is not None:
                ratios.append(fast / baseline)
        if anchor_ratio is None or len(ratios) != len(runs):
            print(
                f"::notice::perf gate: n={size} missing from a current run or "
                "the anchor; skipped"
            )
            continue
        checked += 1
        ratio = statistics.median(ratios)
        drop = 1.0 - ratio / anchor_ratio
        spread = (
            f", median of {len(ratios)} runs "
            f"{min(ratios):.3f}-{max(ratios):.3f}x"
            if len(ratios) > 1
            else ""
        )
        line = (
            f"{args.fast_bench}/{size} speedup ratio {ratio:.3f}x "
            f"(anchor {anchor_ratio:.3f}x, change {-drop:+.1%}{spread})"
        )
        if drop > args.max_regression:
            print(
                f"::warning title={args.fast_bench} perf regression::{line} "
                f"— regressed more than {args.max_regression:.0%} vs "
                f"{args.anchor}; re-anchor or investigate the fast path"
            )
            warned = True
        else:
            print(f"perf gate OK: {line}")

    if checked == 0:
        print("::notice::perf gate: nothing compared (no overlapping sizes)")
    # Soft gate: warnings annotate the run but never fail it.
    del warned
    return 0


if __name__ == "__main__":
    sys.exit(main())
