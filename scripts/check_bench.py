#!/usr/bin/env python3
"""Compare a bench JSON artifact against its committed baseline.

Stdlib-only gate used by the perf workflow.  Two input formats are
auto-detected:

  * google-benchmark JSON (micro_kernels --benchmark_out): entries under
    "benchmarks", keyed by "name", with optional "counters";
  * the repo's own row JSON (bench_parallel, figK_kway_direct,
    figL_incremental, figM_coarsening): entries under "rows", keyed by
    "threads" (thread sweeps), "churn_pct" (churn sweeps), "strategy"
    (coarsening-engine sweeps) or "k" (k sweeps), plus an optional
    "sequential" baseline object.

What is gated (machine-independent by design, so a laptop-generated
baseline holds on CI runners):

  * quality metrics — "cut", "final_cut", "cut_vs_seq", "cut_rb",
    "cut_vs_rb", "cut_scratch", "cut_vs_scratch" — within
    --cut-tolerance (default 1%) of the baseline; the partitions are
    deterministic for a pinned seed/scale/threads environment, so these
    should normally match exactly;
  * counter metrics — "steady_allocs", "allocations" — a baseline of zero
    must stay exactly zero (the zero-allocation guarantees are exact);
    nonzero baselines get a loose 3x bound, because absolute allocation
    counts track the standard library's small-buffer thresholds (which vary
    across toolchains) while still catching a lost workspace-reuse path,
    which inflates counts by orders of magnitude;
  * work counts — "gathers" (the k-way refiner's connectivity gathers),
    "match_rounds" and "match_proposals" (the pooled matcher's proposal
    rounds and proposals) — must not exceed the baseline: each count is a
    pure function of the pinned input and the code, so any rise is more
    work, not noise;
  * ratio metrics — "speedup_vs_1t", "speedup_vs_seq",
    "speedup_vs_scratch" — no more than --tolerance below the baseline's
    ratio.  "speedup_vs_seq" compares the pooled pipeline with the
    sequential one in the same run, so it fails when the pool loses the
    lead its baseline recorded, which "speedup_vs_1t" (the pool against
    itself) cannot see.  A ratio gate is refused (reported as a failure)
    on a row whose "threads" exceeds the baseline's "host.nproc", or when
    the baseline has no host block: a speedup recorded with more threads
    than cores measures oversubscription, not the code.

Absolute wall-clock fields (real_time, cpu_time, *_seconds) are reported
but NOT gated by default: they track the machine, not the code.  Pass
--gate-times to include them (useful when baseline and run share hardware).

Usage:
    scripts/check_bench.py CURRENT.json BASELINE.json
        [--tolerance=0.15] [--cut-tolerance=0.01] [--gate-times]

Exit code 0 when every gated metric passes, 1 with per-metric messages
otherwise (2 for usage/format errors).  Entries present in only one file
are reported as failures: a vanished benchmark is a silent regression.
"""

import json
import sys
from pathlib import Path

CUT_METRICS = ("cut", "final_cut", "cut_vs_seq", "cut_rb", "cut_vs_rb",
               "cut_scratch", "cut_vs_scratch")
COUNTER_METRICS = ("steady_allocs", "allocations")
WORK_METRICS = ("gathers", "match_rounds", "match_proposals")
ALLOC_FACTOR = 3.0  # bound for nonzero allocation-count baselines
RATIO_METRICS = ("speedup_vs_1t", "speedup_vs_seq", "speedup_vs_scratch")
TIME_METRICS = ("real_time", "cpu_time", "coarsen_seconds", "kway_seconds",
                "rb_seconds", "direct_seconds", "incr_seconds",
                "scratch_seconds")


def load_entries(path):
    """Returns (format_name, {key: {metric: value}}, host nproc or None)."""
    data = json.loads(Path(path).read_text())
    nproc = data.get("host", {}).get("nproc")
    entries = {}
    if "benchmarks" in data:
        for b in data["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            metrics = {}
            for m in TIME_METRICS:
                if m in b:
                    metrics[m] = b[m]
            for name, value in b.items():
                if name in CUT_METRICS + COUNTER_METRICS + WORK_METRICS + RATIO_METRICS:
                    metrics[name] = value
            # google-benchmark puts user counters at the top level of each
            # entry in recent versions and under "counters" in older ones.
            for name, value in b.get("counters", {}).items():
                metrics[name] = value
            entries[b["name"]] = metrics
        return "google-benchmark", entries, nproc
    if "rows" in data:
        for row in data["rows"]:
            # bench_parallel sweeps thread counts, figL_incremental sweeps
            # churn levels, figM_coarsening sweeps coarsening strategies,
            # figK_kway_direct sweeps k.
            if "threads" in row:
                axis = "threads"
            elif "churn_pct" in row:
                axis = "churn_pct"
            elif "strategy" in row:
                axis = "strategy"
            else:
                axis = "k"
            key = f"{axis}={row[axis]}"
            entries[key] = {k: v for k, v in row.items() if k != axis}
        if "sequential" in data:
            entries["sequential"] = dict(data["sequential"])
        return data.get("bench", "rows"), entries, nproc
    raise ValueError(f"{path}: neither 'benchmarks' nor 'rows' present")


def check_entry(key, cur, base, tol, cut_tol, gate_times, nproc, errors,
                infos):
    threads = int(key.split("=", 1)[1]) if key.startswith("threads=") else 0
    for metric in sorted(set(cur) | set(base)):
        if metric not in base:
            continue  # new metric: nothing to compare against
        if metric not in cur:
            errors.append(f"{key}: metric {metric!r} missing from current run")
            continue
        c, b = cur[metric], base[metric]
        if not isinstance(c, (int, float)) or not isinstance(b, (int, float)):
            continue
        if metric in CUT_METRICS:
            bound = abs(b) * cut_tol
            if abs(c - b) > bound:
                errors.append(
                    f"{key}.{metric}: {c} vs baseline {b} "
                    f"(tolerance {cut_tol:.0%})")
        elif metric in COUNTER_METRICS:
            if b == 0:
                if c != 0:
                    errors.append(
                        f"{key}.{metric}: {c} allocations, baseline is "
                        f"exactly 0")
            elif c > b * ALLOC_FACTOR:
                errors.append(
                    f"{key}.{metric}: {c} vs baseline {b} "
                    f"(more than {ALLOC_FACTOR:g}x)")
        elif metric in WORK_METRICS:
            if c > b:
                errors.append(
                    f"{key}.{metric}: {c} vs baseline {b} (a work count "
                    f"may not rise)")
        elif metric in RATIO_METRICS:
            if threads and not (nproc and threads <= nproc):
                errors.append(
                    f"{key}.{metric}: ratio gate refused: the row runs "
                    f"{threads} threads, the baseline's host.nproc is {nproc}")
            elif c < b * (1 - tol):
                errors.append(
                    f"{key}.{metric}: {c:.3f} vs baseline {b:.3f} "
                    f"(-{(1 - c / b):.0%} > {tol:.0%})")
        elif metric in TIME_METRICS:
            if b > 0:
                delta = c / b - 1
                line = f"{key}.{metric}: {c:.4g} vs baseline {b:.4g} ({delta:+.0%})"
                if gate_times and delta > tol:
                    errors.append(line + f" > {tol:.0%}")
                else:
                    infos.append(line)


def main(argv):
    paths, tol, cut_tol, gate_times = [], 0.15, 0.01, False
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tol = float(arg.split("=", 1)[1])
        elif arg.startswith("--cut-tolerance="):
            cut_tol = float(arg.split("=", 1)[1])
        elif arg == "--gate-times":
            gate_times = True
        elif arg.startswith("-"):
            print(f"unknown option: {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        cur_fmt, current, _ = load_entries(paths[0])
        base_fmt, baseline, nproc = load_entries(paths[1])
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if cur_fmt != base_fmt:
        print(f"error: format mismatch: {paths[0]} is {cur_fmt}, "
              f"{paths[1]} is {base_fmt}", file=sys.stderr)
        return 2

    errors, infos = [], []
    for key in sorted(baseline):
        if key not in current:
            errors.append(f"{key}: present in baseline, missing from current run")
            continue
        check_entry(key, current[key], baseline[key], tol, cut_tol,
                    gate_times, nproc, errors, infos)

    for line in infos:
        print(f"  info {line}")
    if errors:
        for e in errors:
            print(f"FAIL {paths[0]}: {e}", file=sys.stderr)
        return 1
    print(f"OK {paths[0]}: {len(baseline)} entries within tolerance of "
          f"{paths[1]} (format: {cur_fmt})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
