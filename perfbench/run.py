#!/usr/bin/env python3
"""Real-core benchmark of the halcyon actor runtime.

Runs one of three workloads (fib, storm, rpc) on MnMachine with 4 workers,
repeatedly for --seconds, each run in its own process under a watchdog.
Checks every result exactly, gates on SimMachine reproducing the workload
bit for bit, and prints one JSON object as its last line of output.

  python3 perfbench/run.py --workload fib --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics. --trace 1 runs the per-layer
ledger and a traced run of the workload instead, prints the per-layer
metrics, and writes a Chrome trace of every span it recorded. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing outside the build directory

import pbstats  # noqa: E402

WORKLOADS = ("fib", "storm", "rpc")
# Watchdog: a run that has not reached quiescence by then is killed and
# counted as failed. The slowest workload run takes about 1.5 s.
REP_TIMEOUT_S = 20
# A 2-node msg run takes well under 0.1 s; about 1 in 60 reply runs stalls.
MSG_TIMEOUT_S = 5
SIM_TIMEOUT_S = 60
LEDGER_TIMEOUT_S = 60
# Everything after the build ends within this many seconds, stalls included.
CALL_LIMIT_S = 165
MIN_REPS = 5
# One end-to-end sample is a batch of consecutive runs whose run() times
# add up to at least BATCH_S; each metric is the median over the batches
# of the batch's mean. A single run of storm or fib lands in one of two
# schedules about 30% apart, so a median over single runs jumps between
# them while a median over batch means does not.
BATCH_S = 4.0
MIN_BATCHES = 3
MSG_RUNS = 5
FIB_REFERENCE_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("msgs_per_s", "msgs/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("sim_makespan_vms", "vms"),
    ("rss_mb", "MiB"),
)

LEDGER = (
    "common.mpsc_push_pop_ns", "common.mpsc_3to1_ns",
    "common.wsdeque_push_pop_ns", "common.wsdeque_steal_ns",
    "common.pool_acquire_release_64_ns", "common.pool_acquire_release_4k_ns",
    "common.ring_push_take_ns", "am.frame_add_ns", "am.frame_decode_ns",
    "am.runtoken_cycle_ns", "am.park_wake_ns", "am.clock_now_ns",
    "am.link_seq_ack_ns", "name.resolve_home_ns", "name.resolve_foreign_ns",
    "runtime.static_dispatch_ns", "runtime.generic_send_ns",
    "runtime.spawn_ns", "runtime.join_fill_ns", "runtime.dispatcher_ns",
)
MSG_KINDS = ("local", "remote", "reply")
# Layers a remote message crosses, each timed in isolation by the ledger;
# msg.unattributed_ns is msg.remote_ns minus their sum.
REMOTE_PATH = (
    ("runtime.generic_send_ns", 1), ("name.resolve_foreign_ns", 1),
    ("am.frame_add_ns", 1), ("am.frame_decode_ns", 1),
    ("common.mpsc_push_pop_ns", 1), ("common.pool_acquire_release_4k_ns", 1),
    ("am.runtoken_cycle_ns", 1), ("am.clock_now_ns", 2),
)
PROBES = (
    "remote_delivery_ns", "frame_fill_msgs", "dispatch_batch_items",
    "mailbox_residency_ns", "join_round_trip_ns", "fir_round_trip_ns",
    "migration_ns", "steal_round_trip_ns",
)
COUNTERS = (
    "am.msgs_per_frame", "am.flush_timer_share", "am.flush_idle_share",
    "am.flush_fill_share", "am.worker_steals", "runtime.steal_success",
    "runtime.actors_created", "runtime.joins_created", "name.cache_hit_share",
    "name.lookups_per_msg", "name.fir_per_migration",
    "name.parked_per_migration",
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = [(name, "ns") for name in LEDGER]
    out += [("msg.%s_ns" % kind, "ns") for kind in MSG_KINDS]
    out += [("msg.unattributed_ns", "ns"), ("baseline.ws_fib_s", "s"),
            ("baseline.fib_vs_pool", "ratio")]
    units = {"am.worker_steals": "count", "runtime.actors_created": "count",
             "runtime.joins_created": "count"}
    out += [(name, units.get(name, "ratio")) for name in COUNTERS]
    for probe in PROBES:
        unit = probe.rsplit("_", 1)[1]
        out += [("probe.%s.p50" % probe, unit), ("probe.%s.p99" % probe, unit)]
    out += [("tail.lat_p99_us", "us"), ("trace.overhead_frac", "ratio")]
    return out


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_times():
    """Host-wide CPU time counters from /proc/stat (None where absent)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_times() readings: wall-clock metrics slow down by about as much."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return pbstats.ratio(delta[7], sum(delta))


class Spans:
    """Spans the benchmark records around each process it runs; the
    processes add their own spans (calls into each layer) to `path`."""

    def __init__(self, enabled, path):
        self.enabled = enabled
        self.path = path
        self.own = []

    def child_args(self, run):
        return ["--spans", self.path, "--run", run] if self.enabled else []

    def record(self, run, name, start_ns, end_ns):
        if self.enabled:
            self.own.append({"run": run, "name": name, "id": 0, "parent": -1,
                             "start_ns": start_ns, "end_ns": end_ns})

    def write_chrome_trace(self, out_path):
        spans = list(self.own)
        if os.path.exists(self.path):
            with open(self.path) as f:
                spans += [json.loads(line) for line in f if line.strip()]
            os.remove(self.path)
        runs = {}
        for s in spans:
            runs.setdefault(s["run"], len(runs) + 1)
        events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                   "args": {"name": run}} for run, pid in runs.items()]
        for s in spans:
            events.append({
                "name": s["name"], "ph": "X", "pid": runs[s["run"]], "tid": 0,
                "ts": s["start_ns"] / 1e3,
                "dur": max(s["end_ns"] - s["start_ns"], 0) / 1e3,
                "args": {"run": s["run"], "span": s["id"],
                         "parent": s["parent"]}})
        with open(out_path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, f)
        return len(spans)


class Bench:
    def __init__(self, binary, spans):
        self.binary = binary
        self.spans = spans
        self.runs = 0
        self.deadline = time.monotonic() + CALL_LIMIT_S

    def time_left(self):
        return self.deadline - time.monotonic()

    def child(self, args, timeout, traced=False):
        """Run one perfbench process under the watchdog. Returns its JSON
        result, or None (with the reason logged) when it stalled, crashed or
        printed nothing."""
        self.runs += 1
        run = "%d: perfbench %s" % (self.runs, " ".join(args))
        extra = self.spans.child_args(run) if traced else []
        timeout = max(1, min(timeout, self.time_left()))
        start = time.monotonic_ns()
        try:
            proc = subprocess.run([self.binary] + args + extra,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            log("watchdog: `perfbench %s` did not finish within %.0f s; "
                "killed" % (" ".join(args), timeout))
            return None
        finally:
            self.spans.record(run, "perfbench %s%s" % (
                args[0], "" if traced else " (untraced)"), start,
                time.monotonic_ns())
        if proc.returncode != 0:
            log("`perfbench %s` exited with %d: %s" % (
                " ".join(args), proc.returncode, proc.stderr.strip()[-400:]))
            return None
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "runtime", "api.hpp")):
        raise RuntimeError("no halcyon sources next to perfbench/ (%s)" % ROOT)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def batches(reps):
    """Split consecutive runs into complete batches of >= BATCH_S run()
    time; a trailing incomplete batch is dropped."""
    out, cur, total = [], [], 0.0
    for r in reps:
        cur.append(r)
        total += r["run_s"]
        if total >= BATCH_S:
            out.append(cur)
            cur, total = [], 0.0
    return out


def measure_reps(bench, workload, seed, seconds, traced_too=False,
                 min_reps=MIN_REPS, min_batches=0):
    """Repeat the workload for `seconds` (at least `min_reps` times and
    until `min_batches` batches are complete). Returns (untraced results,
    traced results, attempted, failed, wrong)."""
    plain, traced = [], []
    attempted = failed = 0
    wrong = []
    deadline = time.monotonic() + seconds
    while (time.monotonic() < deadline or len(plain) < min_reps
           or len(batches(plain)) < min_batches
           or (traced_too and len(traced) < min_reps)):
        if bench.time_left() < 1:
            log("call time limit reached: workload %s seed %d" % (workload,
                                                                  seed))
            break
        use_trace = traced_too and len(traced) < len(plain)
        attempted += 1
        r = bench.child(["rep", "--workload", workload, "--seed", str(seed)],
                        REP_TIMEOUT_S, traced=use_trace)
        if r is None:
            failed += 1
            log("failed run: workload %s seed %d" % (workload, seed))
            continue
        if not r["exact"]:
            wrong.append(r["error"])
            log("wrong result: workload %s seed %d: %s"
                % (workload, seed, r["error"]))
        (traced if use_trace else plain).append(r)
    return plain, traced, attempted, failed, wrong


def end_to_end(bench, args):
    sim = bench.child(["sim", "--workload", args.workload, "--seed",
                       str(args.seed)], SIM_TIMEOUT_S)
    plain, _, attempted, failed, wrong = measure_reps(
        bench, args.workload, args.seed, args.seconds,
        min_batches=MIN_BATCHES)
    attempted += 1
    if sim is None:
        failed += 1
    elif not sim["exact"]:
        wrong.append("SimMachine gate: " + sim["error"])
    if not plain or sim is None:
        return None, attempted, failed, wrong
    header(args, plain[0], sim)
    groups = batches(plain) or [plain]

    def batched(value):
        return pbstats.median([sum(value(r) for r in g) / len(g)
                               for g in groups])

    metrics = {
        "setup_s": pbstats.median([r["setup_s"] for r in plain]),
        "wall_s": batched(lambda r: r["run_s"]),
        "msgs_per_s": pbstats.median(
            [sum(r["delivered"] for r in g) / sum(r["run_s"] for r in g)
             for g in groups]),
        "lat_p50_us": batched(lambda r: r["lat_p50_ns"]) / 1e3,
        "lat_p90_us": batched(lambda r: r["lat_p90_ns"]) / 1e3,
        "sim_makespan_vms": sim["makespan_ms"],
        "rss_mb": pbstats.median([r["rss_mb"] for r in plain]),
    }
    print("# %d runs (%d failed) in %d batches; latency samples per run: "
          "%d, %d beyond p90" % (
              attempted - 1, attempted - 1 - len(plain), len(groups),
              plain[0]["lat_count"], plain[0]["lat_beyond_p90"]))
    return metrics, attempted, failed, wrong


def counters(rep):
    """Per-layer ratios from one traced run's RunReport totals."""
    s = rep["stats"]
    frames = s["wire_frames"]
    migrations = s["migrations_out"]
    return {
        "am.msgs_per_frame": pbstats.ratio(s["coalesced_msgs"], frames),
        "am.flush_timer_share": pbstats.ratio(s["wire_flush_timer"], frames),
        "am.flush_idle_share": pbstats.ratio(s["wire_flush_idle"], frames),
        "am.flush_fill_share": pbstats.ratio(s["wire_flush_fill"], frames),
        "am.worker_steals": rep["worker_steals"],
        "runtime.steal_success": pbstats.ratio(s["steal_requests_served"],
                                               s["steal_requests_sent"]),
        "runtime.actors_created": s["actors_created_local"]
        + s["actors_created_remote"],
        "runtime.joins_created": s["join_continuations_created"],
        "name.cache_hit_share": pbstats.ratio(s["descriptor_cache_hits"],
                                              s["messages_sent_remote"]),
        "name.lookups_per_msg": pbstats.ratio(s["name_table_lookups"],
                                              s["messages_delivered"]),
        "name.fir_per_migration": pbstats.ratio(s["fir_sent"], migrations),
        "name.parked_per_migration": pbstats.ratio(s["messages_parked"],
                                                   migrations),
    }


def per_layer(bench, args):
    attempted = failed = 0
    wrong = []
    metrics = {}

    attempted += 1
    ledger = bench.child(["ledger"], LEDGER_TIMEOUT_S, traced=True)
    if ledger is None:
        failed += 1
        return None, attempted, failed, wrong
    metrics.update({name: ledger[name] for name in LEDGER})

    for kind in MSG_KINDS:
        values = []
        for i in range(MSG_RUNS):
            attempted += 1
            r = bench.child(["msg", "--kind", kind, "--seed",
                             str(args.seed + i)], MSG_TIMEOUT_S, traced=True)
            if r is None:
                failed += 1
                log("failed run: msg %s seed %d" % (kind, args.seed + i))
            elif not r["exact"]:
                wrong.append("msg %s: wrong hop count" % kind)
            else:
                values.append(r["ns_per_msg"])
        if not values:
            return None, attempted, failed, wrong
        metrics["msg.%s_ns" % kind] = pbstats.median(values)
    metrics["msg.unattributed_ns"] = metrics["msg.remote_ns"] - sum(
        metrics[name] * times for name, times in REMOTE_PATH)

    attempted += 1
    pool = bench.child(["pool"], REP_TIMEOUT_S * 3, traced=True)
    if pool is None:
        return None, attempted, failed + 1, wrong
    if not pool["exact"]:
        return None, attempted, failed, wrong + ["WorkStealPool fib value"]
    metrics["baseline.ws_fib_s"] = pool["ws_fib_s"]

    plain, traced, n, f, w = measure_reps(bench, args.workload, args.seed,
                                          args.seconds, traced_too=True)
    attempted += n
    failed += f
    wrong += w
    if not plain or not traced:
        return None, attempted, failed, wrong
    header(args, plain[0], None)
    fib_wall = [r["run_s"] for r in plain]
    if args.workload != "fib":
        fib, _, n, f, w = measure_reps(bench, "fib", args.seed, 0,
                                       min_reps=FIB_REFERENCE_REPS)
        attempted += n
        failed += f
        wrong += w
        if not fib:
            return None, attempted, failed, wrong
        fib_wall = [r["run_s"] for r in fib]
    metrics["baseline.fib_vs_pool"] = (pbstats.median(fib_wall)
                                       / metrics["baseline.ws_fib_s"])

    per_rep = [counters(r) for r in traced]
    for name in COUNTERS:
        metrics[name] = pbstats.median([c[name] for c in per_rep])
    for probe in PROBES:
        for q in ("p50", "p99"):
            metrics["probe.%s.%s" % (probe, q)] = pbstats.median(
                [r["probes"][probe][q] for r in traced])
    # The p99 moves with the host's preemption of the workers (on rpc from
    # ≈51 µs to ≈100 µs with two vCPUs contended), too far for a bound.
    metrics["tail.lat_p99_us"] = pbstats.median(
        [r["lat_p99_ns"] for r in plain]) / 1e3
    print("# latency samples per run: %d, %d beyond p99"
          % (plain[0]["lat_count"], plain[0]["lat_beyond_p99"]))
    metrics["trace.overhead_frac"] = (
        pbstats.median([r["run_s"] for r in traced])
        / pbstats.median([r["run_s"] for r in plain]) - 1.0)
    return metrics, attempted, failed, wrong


def header(args, rep, sim):
    print("# workload %s: executor %s, %d nodes, %d workers, seed %d"
          % (args.workload, rep["machine"], rep["nodes"], rep["workers"],
             args.seed))
    if sim is not None:
        print("# SimMachine gate: %d nodes, CM-5 cost model, two runs "
              "byte-identical: %s" % (sim["nodes"], sim["exact"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: cannot build the benchmark: %s" % e)
        return 2
    spans = Spans(args.trace == 1, os.path.join(
        build_dir, "spans-%d.jsonl" % os.getpid()))
    bench = Bench(binary, spans)
    info = bench.child(["info"], 30)
    if info is None:
        return 2
    print("# host: nproc %d, compiler %s, build %s"
          % (info["nproc"], info["compiler"], info["build_type"]))
    cpu_before = cpu_times()

    if args.trace == 0:
        metrics, attempted, failed, wrong = end_to_end(bench, args)
        units = dict(END_TO_END)
    else:
        metrics, attempted, failed, wrong = per_layer(bench, args)
        units = dict(per_layer_metrics())
        trace_path = os.path.join(build_dir, "perfbench-trace-%s-%d.json"
                                  % (args.workload, args.seed))
        count = spans.write_chrome_trace(trace_path)
        print("# Chrome trace: %s (%d spans)" % (trace_path, count))
    steal = steal_share(cpu_before, cpu_times())
    if steal is not None:
        print("# host CPU time stolen by other guests during the call: %.1f%%"
              % (100 * steal))
    if metrics is None:
        log("perfbench: no run of workload %s completed" % args.workload)
        return 1
    for name, value in metrics.items():
        print("# %-34s %16.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
