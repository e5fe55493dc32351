#!/usr/bin/env python3
"""Benchmark of the overlay simulator's host speed (see README.md here).

    python3 perfbench/run.py --workload random_rw --seed 1 --seconds 20 --trace 0

Builds the workload runner (perfbench/workloads.cc plus the simulator
libraries from src/) into .bench_build/ at the checkout root, runs one
workload in its own process and prints the metrics, one per line, then one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_workloads")

WORKLOADS = ("random_rw", "fork_overlay", "sweep_warm")
RUN_TIMEOUT_S = 170

# name -> unit, in the order they are printed. Row cost is gated once, as
# p90 row latency: the rates derived from it would move with it exactly.
# On a shared host whose speed switches between two levels every few
# seconds, p90 stays on the slower level while the median and the mean
# move with the share of time spent on each (see README.md); those are
# printed but not gated.
END_TO_END = {
    "row_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ticks_per_access": "ticks/access",
}

PER_LAYER = {
    "system.access_batch_s": "s",
    "system.access_s": "s",
    "system.fork_s": "s",
    "system.destroy_s": "s",
    "system.tlb_walks_per_kaccess": "count",
    "system.overlaying_writes": "count",
    "system.overlay_line_reads": "count",
    "vm.setup_s": "s",
    "vm.frames_allocated": "count",
    "vm.frames_freed": "count",
    "vm.retained_kb_per_fork": "KB",
    "tlb.l1_miss_ratio": "ratio",
    "tlb.l2_miss_ratio": "ratio",
    "tlb.coherence_updates": "count",
    "cache.l1_hit_ratio": "ratio",
    "cache.l2_hit_ratio": "ratio",
    "cache.l3_hit_ratio": "ratio",
    "cache.prefetch_useful_ratio": "ratio",
    "cache.mem_reads_per_kaccess": "count",
    "dram.row_hit_ratio": "ratio",
    "dram.read_latency_mean_ticks": "ticks",
    "dram.drains": "count",
    "dram.read_drain_stall_cycles": "cycles",
    "overlay.omt_cache_hit_ratio": "ratio",
    "overlay.omt_walks": "count",
    "overlay.oms_allocations": "count",
    "overlay.oms_migrations": "count",
    "overlay.ore_messages": "count",
    "sim.snapshot_bytes": "bytes",
    "sim.parallel_busy_share": "ratio",
    "workload.warm_prepare_s": "s",
    "workload.job_s": "s",
    "workload.restore_share": "ratio",
    "workload.sim_cpi": "cycles/instr",
    "trace_overhead_share": "ratio",
}

# A percentile is reported only with at least this many rows beyond it.
MIN_ROWS_BEYOND = 10


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def percentile(values, pct):
    """Nearest-rank percentile of @values; refuses one with fewer than
    MIN_ROWS_BEYOND samples above it."""
    if not values:
        raise BenchError("no rows were measured")
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)  # ceil
    rank = max(1, int(rank))
    beyond = len(ordered) - rank
    if pct < 100 and beyond < MIN_ROWS_BEYOND:
        raise BenchError(
            f"p{pct} of {len(ordered)} rows has only {beyond} rows beyond it"
            f" (needs {MIN_ROWS_BEYOND})")
    return ordered[rank - 1]


# Set-up times are averaged in this many interleaved groups, and the
# median of the group means is reported.
SETUP_GROUPS = 4


def median_of_means(values, groups=SETUP_GROUPS):
    """Median over @groups interleaved groups of @values of each group's
    mean. On a host whose speed switches between two levels, set-ups fall
    on either level, and a plain median jumps between the levels from run
    to run; the group means blend them."""
    if len(values) < groups:
        raise BenchError(f"{len(values)} set-ups cannot form {groups} groups")
    return statistics.median(statistics.mean(values[g::groups]) for g in range(groups))


def ratio(num, den):
    return num / den if den else 0.0


def summed_stats(dumps):
    """Adds the component statistics of several dumps. Group names lose
    their machine prefix ("system.caches.l1" -> "caches.l1")."""
    total = {}
    for dump in dumps:
        for group, values in dump.items():
            name = group.split(".", 1)[1] if "." in group else ""
            into = total.setdefault(name, {})
            for stat, value in values.items():
                if isinstance(value, dict):  # histogram: keep count and sum
                    n = value.get("samples", 0)
                    agg = into.setdefault(stat, {"samples": 0, "sum": 0.0})
                    agg["samples"] += n
                    agg["sum"] += n * (value.get("mean") or 0.0)
                elif value is not None:
                    into[stat] = into.get(stat, 0) + value
    return total


def end_to_end(raw):
    return {
        "row_s_p90": percentile(raw["row_s"], 90),
        "setup_s": median_of_means(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "sim_ticks_per_access": ratio(raw["sim_ticks"], raw["sim_accesses"]),
    }


def per_layer(raw):
    s = summed_stats(raw["stats"])

    def stat(group, name):
        return s.get(group, {}).get(name, 0)

    def hit_ratio(group):
        return ratio(stat(group, "hits"), stat(group, "hits") + stat(group, "misses"))

    def miss_ratio(group):
        return ratio(stat(group, "misses"), stat(group, "hits") + stat(group, "misses"))

    def per_call(timer):
        t = raw["timers"][timer]
        return ratio(t["seconds"], t["calls"])

    accesses = stat("", "accesses")
    dram_rows = sum(stat("dramCtrl.dram", k) for k in ("rowHits", "rowClosed", "rowConflicts"))
    latency = s.get("dramCtrl", {}).get("readLatency", {"samples": 0, "sum": 0})
    pf_hits = sum(stat(f"caches.{lvl}", "prefetchHits") for lvl in ("l1", "l2", "l3"))
    par = raw["timers"]["parallel"]
    return {
        "system.access_batch_s": per_call("access_batch"),
        "system.access_s": per_call("access"),
        "system.fork_s": per_call("fork"),
        "system.destroy_s": per_call("destroy"),
        "system.tlb_walks_per_kaccess": 1000 * ratio(stat("", "tlbWalks"), accesses),
        "system.overlaying_writes": stat("", "overlayingWrites"),
        "system.overlay_line_reads": stat("", "overlayLineReads"),
        "vm.setup_s": median_of_means(raw["vm_setup_s"]),
        "vm.frames_allocated": stat("physMem", "framesAllocated"),
        "vm.frames_freed": stat("physMem", "framesFreed"),
        "vm.retained_kb_per_fork": raw["retained_kb_per_row"],
        "tlb.l1_miss_ratio": miss_ratio("tlb0.l1"),
        "tlb.l2_miss_ratio": miss_ratio("tlb0.l2"),
        "tlb.coherence_updates": stat("tlb0.l1", "coherenceUpdates") + stat("tlb0.l2", "coherenceUpdates"),
        "cache.l1_hit_ratio": hit_ratio("caches.l1"),
        "cache.l2_hit_ratio": hit_ratio("caches.l2"),
        "cache.l3_hit_ratio": hit_ratio("caches.l3"),
        "cache.prefetch_useful_ratio": ratio(pf_hits, stat("caches.pf", "issued")),
        "cache.mem_reads_per_kaccess": 1000 * ratio(stat("caches", "memReads"), accesses),
        "dram.row_hit_ratio": ratio(stat("dramCtrl.dram", "rowHits"), dram_rows),
        "dram.read_latency_mean_ticks": ratio(latency["sum"], latency["samples"]),
        "dram.drains": stat("dramCtrl", "drains"),
        "dram.read_drain_stall_cycles": stat("dramCtrl", "readDrainStallCycles"),
        "overlay.omt_cache_hit_ratio": hit_ratio("overlay.omtCache"),
        "overlay.omt_walks": stat("overlay", "omtWalks"),
        "overlay.oms_allocations": stat("overlay.oms", "allocations"),
        "overlay.oms_migrations": stat("overlay", "migrations"),
        "overlay.ore_messages": stat("overlay", "oreMessages"),
        "sim.snapshot_bytes": raw["snapshot_bytes"],
        "sim.parallel_busy_share": ratio(raw["timers"]["job"]["seconds"],
                                         raw["workers"] * par["seconds"]),
        "workload.warm_prepare_s": median_of_means(raw["warm_prepare_s"]),
        "workload.job_s": per_call("job"),
        "workload.restore_share": ratio(raw["restore_s"], per_call("job")),
        "workload.sim_cpi": raw["sim_cpi"],
        # Rate of the traced rows relative to the plain rows of one run.
        "trace_overhead_share": ratio(statistics.mean(raw["row_s"]),
                                      statistics.mean(raw["traced_row_s"])),
    }


def result(raw, trace):
    """The benchmark's result object from the runner's raw measurements."""
    metrics = per_layer(raw) if trace else end_to_end(raw)
    units = PER_LAYER if trace else END_TO_END
    attempted = int(raw["rows_attempted"])
    failed = int(raw["rows_failed"])
    return {
        "correct": failed == 0 and raw["sim_accesses"] > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def report(res, raw):
    """Human-readable lines printed before the result line."""
    lines = [f"workload {raw['workload']} seed {raw['seed']}: "
             f"{res['attempted']} rows, fail_share "
             f"{ratio(res['failed'], res['attempted']):.4g} "
             f"({res['failed']}/{res['attempted']})"]
    extra = {}
    if not raw["trace"]:
        rows = raw["row_s"]
        extra["row_s_p50"] = (percentile(rows, 50), "s")
        extra["maccess_per_s"] = (raw["accesses"] / sum(rows) / 1e6, "Maccess/s")
        extra["jobs_per_s"] = (raw["jobs_per_row"] * len(rows) / sum(rows), "jobs/s")
        if raw["workload"] == "sweep_warm":
            extra["sim_cpi"] = (raw["sim_cpi"], "cycles/instr")
    items = [(n, m["value"], m["unit"]) for n, m in res["metrics"].items()]
    for name, value, unit in items + [(n, v, u) for n, (v, u) in extra.items()]:
        lines.append(f"  {name:32s} {value:.6g} {unit}")
    return "\n".join(lines)


def build():
    """Configures (once) and builds the workload runner; build output goes
    to standard error so standard output carries only the result."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_workloads(args, extra=()):
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                         timeout=RUN_TIMEOUT_S)
    return json.loads(out.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        raw = run_workloads(args)
        res = result(raw, args.trace)
    except (subprocess.SubprocessError, OSError, ValueError, BenchError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(report(res, raw))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
