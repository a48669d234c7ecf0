#!/usr/bin/env python3
"""Validate a BENCH_*.json run report (schema halcyon.run_report.v5).

Checks, per file:
  - required top-level fields and the schema id
  - per-node stats sum to the aggregate stats, counter by counter
  - dead_letter_causes sum to dead_letters (and respect --max-dead-letters
    when given)
  - per-probe invariants: count == sum of bucket counts, min <= p50 <= p90
    <= p99 <= max, and every listed bucket is non-empty with a power-of-two
    (or zero) lower bound
  - at least --min-populated probes carry samples
  - the hal::check buffer audit is clean: no leaked buffers, no
    double-retires, no poison hits (HAL_CHECK=1 builds; a HAL_CHECK=0
    build reports all-zero audit fields, which passes trivially)

Usage: check_report.py [--min-populated N] [--allow-buffer-leaks]
       [--max-dead-letters N] report.json [report.json ...]

stdlib only; exits non-zero on the first failing file.
"""
import argparse
import json
import sys

# Schema versions this validator understands. A report carrying any other
# id (e.g. a future v6 emitted by a newer runtime) must fail loudly here:
# silently "validating" fields whose meaning changed is worse than failing.
# v5 added the wire-batching counters (wire_frames, coalesced_msgs,
# wire_flush_*) and the frame_fill_msgs probe; the structural checks below
# cover them like any other stat/histogram.
KNOWN_SCHEMAS = {"halcyon.run_report.v5"}
TOP_FIELDS = [
    "schema",
    "machine",
    "nodes",
    "workers",
    "seed",
    "makespan_ns",
    "dead_letters",
    "dead_letter_causes",
    "buffers",
    "stats",
    "per_node_stats",
    "probes",
]
DEAD_LETTER_CAUSES = ["unknown_actor", "stale_descriptor", "shutdown_drain"]
BUFFER_FIELDS = [
    "acquired",
    "retired",
    "adopted",
    "escaped",
    "in_flight",
    "leaked",
    "double_retires",
    "poison_hits",
]
HIST_FIELDS = ["unit", "count", "sum", "min", "max", "p50", "p90", "p99", "buckets"]


def fail(path, msg):
    print(f"{path}: FAIL: {msg}", file=sys.stderr)
    return False


def check_histogram(path, name, h):
    for f in HIST_FIELDS:
        if f not in h:
            return fail(path, f"probe {name} missing field '{f}'")
    bucket_total = sum(count for _, count in h["buckets"])
    if bucket_total != h["count"]:
        return fail(
            path,
            f"probe {name}: bucket counts sum to {bucket_total}, "
            f"count says {h['count']}",
        )
    for lower, count in h["buckets"]:
        if count <= 0:
            return fail(path, f"probe {name}: empty bucket listed at {lower}")
        if lower != 0 and (lower & (lower - 1)) != 0:
            return fail(
                path, f"probe {name}: bucket lower {lower} is not a power of two"
            )
    if h["count"] > 0:
        order = [h["min"], h["p50"], h["p90"], h["p99"], h["max"]]
        # Quantiles are bucket lower bounds, so p50 may round below min;
        # clamp the comparison to the quantile chain itself plus max.
        chain = order[1:]
        if any(a > b for a, b in zip(chain, chain[1:])):
            return fail(path, f"probe {name}: quantiles out of order {order}")
        if h["min"] > h["max"] or h["sum"] < h["max"]:
            return fail(path, f"probe {name}: inconsistent min/max/sum")
    return True


def check_buffers(path, b, allow_leaks):
    for f in BUFFER_FIELDS:
        if f not in b:
            return fail(path, f"buffers missing field '{f}'")
        if not isinstance(b[f], int) or b[f] < 0:
            return fail(path, f"buffers.{f} = {b[f]!r} is not a count")
    # Ledger conservation: every acquired buffer is retired, escaped to user
    # code, or still accounted for (in flight / leaked) at report time.
    accounted = b["retired"] + b["escaped"] + b["in_flight"] + b["leaked"]
    if accounted != b["acquired"]:
        return fail(
            path,
            f"buffers: acquired {b['acquired']} != retired {b['retired']} "
            f"+ escaped {b['escaped']} + in_flight {b['in_flight']} "
            f"+ leaked {b['leaked']}",
        )
    for f in ("double_retires", "poison_hits"):
        if b[f] != 0:
            return fail(path, f"buffers.{f} = {b[f]} (lifecycle violation)")
    if b["leaked"] != 0 and not allow_leaks:
        return fail(
            path,
            f"buffers.leaked = {b['leaked']} "
            "(pass --allow-buffer-leaks to waive)",
        )
    return True


def check_dead_letters(path, d, max_dead_letters):
    causes = d["dead_letter_causes"]
    for f in DEAD_LETTER_CAUSES:
        if f not in causes:
            return fail(path, f"dead_letter_causes missing field '{f}'")
        if not isinstance(causes[f], int) or causes[f] < 0:
            return fail(path, f"dead_letter_causes.{f} = {causes[f]!r}")
    cause_sum = sum(causes[f] for f in DEAD_LETTER_CAUSES)
    if cause_sum != d["dead_letters"]:
        return fail(
            path,
            f"dead_letter_causes sum to {cause_sum}, "
            f"dead_letters says {d['dead_letters']}",
        )
    if max_dead_letters is not None and d["dead_letters"] > max_dead_letters:
        return fail(
            path,
            f"dead_letters = {d['dead_letters']} exceeds "
            f"--max-dead-letters {max_dead_letters}",
        )
    return True


def check(path, min_populated, allow_leaks, max_dead_letters):
    try:
        with open(path) as f:
            d = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable: {e}")

    for f in TOP_FIELDS:
        if f not in d:
            return fail(path, f"missing top-level field '{f}'")
    if d["schema"] not in KNOWN_SCHEMAS:
        return fail(
            path,
            f"unknown schema version '{d['schema']}' "
            f"(this validator understands: {', '.join(sorted(KNOWN_SCHEMAS))}); "
            "refusing to validate fields whose meaning may have changed",
        )
    if d["machine"] not in ("sim", "mn"):
        return fail(path, f"unknown machine '{d['machine']}'")
    if d["nodes"] < 1:
        return fail(path, f"nodes = {d['nodes']}")
    if d["workers"] < 1 or d["workers"] > d["nodes"]:
        return fail(
            path, f"workers = {d['workers']} outside [1, nodes={d['nodes']}]"
        )
    if len(d["per_node_stats"]) != d["nodes"]:
        return fail(
            path,
            f"{len(d['per_node_stats'])} per-node stat blocks for "
            f"{d['nodes']} nodes",
        )

    if not check_dead_letters(path, d, max_dead_letters):
        return False

    if not check_buffers(path, d["buffers"], allow_leaks):
        return False

    for counter, total in d["stats"].items():
        node_sum = sum(blk.get(counter, 0) for blk in d["per_node_stats"])
        if node_sum != total:
            return fail(
                path,
                f"stat {counter}: per-node sum {node_sum} != aggregate {total}",
            )

    populated = 0
    for name, h in d["probes"].items():
        if not check_histogram(path, name, h):
            return False
        if h["count"] > 0:
            populated += 1
    if populated < min_populated:
        return fail(
            path,
            f"only {populated} populated probes, expected >= {min_populated}",
        )

    print(
        f"{path}: ok ({d['machine']}, {d['nodes']} nodes, "
        f"{d['workers']} workers, makespan {d['makespan_ns']} ns, "
        f"{populated} populated probes)"
    )
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-populated", type=int, default=5)
    ap.add_argument(
        "--allow-buffer-leaks",
        action="store_true",
        help="do not fail on buffers.leaked != 0",
    )
    ap.add_argument(
        "--max-dead-letters",
        type=int,
        default=None,
        help="fail when dead_letters exceeds this (fault-smoke passes 0)",
    )
    ap.add_argument("reports", nargs="+")
    args = ap.parse_args()
    for path in args.reports:
        if not check(
            path,
            args.min_populated,
            args.allow_buffer_leaks,
            args.max_dead_letters,
        ):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
