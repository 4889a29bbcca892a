#!/usr/bin/env python3
"""Gate a fresh demos-bench-throughput-v1 run against the committed baseline.

Modes:
  smoke  -- PR leg: assert the parallel-vs-sequential messages/sec ratio at
            4 shards is within --tolerance of the baseline's.  The ratio is
            used (not absolute rates) because PR runs execute at reduced
            --scale; both engines shrink together.
  full   -- nightly/dispatch leg: the smoke check, plus an absolute
            parallel@4 messages/sec floor and, when the runner actually has
            >= 4 cores, the scaling contract (parallel >= sequential at 2+
            shards, parallel@8 >= 2.5x parallel@1).

Hard rule shared by both modes: a run and a baseline recorded on hosts with
different core counts are NOT comparable.  The gate refuses with an error --
never a silent skip, never a plausible-looking pass -- because a 1-core
baseline makes every scaling number meaningless on a 4-core runner and vice
versa.  Fix: dispatch the bench-trajectory workflow with
update_baseline=true on the runner class CI actually uses.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "demos-bench-throughput-v1":
        sys.exit(f"{path}: schema is {data.get('schema')!r}, "
                 "want demos-bench-throughput-v1")
    return data


def msgs_per_sec(data, engine, shards):
    for r in data["results"]:
        if (r["engine"] == engine and r["phase"] == "messages"
                and r["shards"] == shards):
            return r["messages_per_sec"]
    sys.exit(f"{engine}@{shards} shards missing from results")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="JSON written by this run (--json=...)")
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_throughput.json")
    parser.add_argument("--mode", choices=["smoke", "full"], required=True)
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    cur_cores = current["host"]["hardware_concurrency"]
    base_cores = baseline["host"]["hardware_concurrency"]
    print(f"host cores: run {cur_cores}, baseline {base_cores}")
    if cur_cores != base_cores:
        sys.exit(
            f"refusing to compare: run used a {cur_cores}-core host but the "
            f"baseline was recorded on {base_cores} cores -- the numbers are "
            "not comparable. Re-baseline on the runner class CI uses: "
            "dispatch bench-trajectory with update_baseline=true.")

    cur_ratio = current["derived"]["parallel_vs_sequential_4"]
    base_ratio = baseline["derived"]["parallel_vs_sequential_4"]
    floor_ratio = base_ratio * (1.0 - args.tolerance)
    if cur_ratio < floor_ratio:
        sys.exit(f"ratio was {cur_ratio:.3f}, baseline {base_ratio:.3f}")
    print(f"parallel-vs-sequential msgs/sec @4 shards: ratio {cur_ratio:.3f}, "
          f"baseline {base_ratio:.3f}, floor {floor_ratio:.3f} -- ok")

    # sync_overhead_ratio: sync-on vs free-running parallel msgs/sec at 4
    # shards.  Additive field -- absent in a baseline recorded before the
    # bench had a --sync axis: record the fresh value, don't fail; the next
    # re-baseline picks it up.  Absent in the *current* run only when the run
    # skipped a sync axis (--sync=off/on), which is fine for ad-hoc runs but
    # means the gate has nothing to check.
    cur_sync = current["derived"].get("sync_overhead_ratio")
    base_sync = baseline["derived"].get("sync_overhead_ratio")
    if cur_sync is None:
        print("sync_overhead_ratio: absent from this run (sync axis skipped) "
              "-- nothing to gate")
    elif base_sync is None:
        print(f"sync_overhead_ratio: {cur_sync:.3f} (field absent in baseline "
              "-- recorded, not gated; re-baseline to start enforcing)")
    else:
        sync_floor = base_sync * (1.0 - args.tolerance)
        if cur_sync < sync_floor:
            sys.exit(f"sync overhead regressed: sync-on/sync-off ratio "
                     f"{cur_sync:.3f} < floor {sync_floor:.3f} "
                     f"(baseline {base_sync:.3f})")
        print(f"sync-on vs sync-off msgs/sec @4 shards: ratio {cur_sync:.3f}, "
              f"baseline {base_sync:.3f}, floor {sync_floor:.3f} -- ok")

    if args.mode == "smoke":
        print("bench gate (smoke): ok")
        return

    base_rate = msgs_per_sec(baseline, "parallel", 4)
    cur_rate = msgs_per_sec(current, "parallel", 4)
    floor_rate = (1.0 - args.tolerance) * base_rate
    print(f"parallel msgs/sec @4 shards: current {cur_rate:.0f}, "
          f"baseline {base_rate:.0f}, floor {floor_rate:.0f}")
    if cur_rate < floor_rate:
        sys.exit(f"throughput regression >{args.tolerance:.0%}: "
                 f"{cur_rate:.0f} < {floor_rate:.0f} (baseline {base_rate:.0f})")

    if cur_cores >= 4:
        # The scaling contract is judged on this run's own numbers only --
        # cross-host comparisons already passed the core-count check above.
        for shards in (2, 4):
            par = msgs_per_sec(current, "parallel", shards)
            seq = msgs_per_sec(current, "sequential", shards)
            print(f"@{shards} shards: parallel {par:.0f} vs sequential {seq:.0f}")
            if par < seq:
                sys.exit(f"parallel engine slower than sequential at {shards} "
                         f"shards on a {cur_cores}-core host: "
                         f"{par:.0f} < {seq:.0f}")
        par1 = msgs_per_sec(current, "parallel", 1)
        par8 = msgs_per_sec(current, "parallel", 8)
        scaling = par8 / par1 if par1 > 0 else 0.0
        print(f"parallel 8-vs-1 shard scaling: {scaling:.2f}x")
        if scaling < 2.5:
            sys.exit(f"parallel engine does not scale: {scaling:.2f}x < 2.5x "
                     f"at 8 shards on a {cur_cores}-core host")
    else:
        print(f"runner has {cur_cores} core(s) < 4: scaling contract not "
              "measurable here (core-count gate still enforced above)")

    print("bench gate (full): ok")


if __name__ == "__main__":
    main()
