#!/usr/bin/env python3
"""Check that the SimMachine bench reports still match bench/baseline/.

SimMachine output is exact: every charge, schedule decision and probe stamp
shows in a report, and two runs of one build write the same bytes. This
script runs the bench binaries whose reports are committed under
bench/baseline/, each at its default scale, in a fresh directory with every
HAL_* variable removed from the environment, and compares each
BENCH_<name>.json byte for byte with its baseline. The `buffers` block is
dropped from both sides first: only HAL_CHECK builds fill it.

Usage: bench_compare.py BENCH_BIN_DIR BASELINE_DIR

Exits 0 when every report matches. A mismatch names the file and the first
differing byte, and the fresh reports stay in the directory the script
prints: a change that moves SimMachine output on purpose copies them over
the baseline and lists the moved outputs.

stdlib only.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# The SimMachine benches at default scale. mn_scaling and caf_storms run on
# MnMachine's wall clock and are left out.
BENCHES = [
    "table1_cholesky",
    "table2_primitives",
    "table3_dispatch",
    "table4_fib",
    "table5_matmul",
    "futurework_pagerank",
    "ablation_aliases",
    "ablation_flowcontrol",
    "ablation_namecache",
    "ablation_broadcast",
    "ablation_network",
    "ablation_interp",
    "ablation_faults",
    "msgpath_alloc",
]

# table2 and table3 end with google-benchmark host timings that are not part
# of their reports; a filter that matches nothing skips them.
EXTRA_ARGS = {
    "table2_primitives": ["--benchmark_filter=__none__"],
    "table3_dispatch": ["--benchmark_filter=__none__"],
}

CONTEXT = 60


def without_buffers(data: bytes) -> bytes:
    """The report without its flat `buffers` block."""
    at = data.find(b',"buffers":{')
    if at < 0:
        return data
    end = data.find(b"}", at)
    return data[:at] + data[end + 1:]


def first_difference(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: bench_compare.py BENCH_BIN_DIR BASELINE_DIR",
              file=sys.stderr)
        return 2
    bin_dir = Path(argv[1]).resolve()
    baseline_dir = Path(argv[2]).resolve()
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAL_")}
    work = Path(tempfile.mkdtemp(prefix="bench_compare."))
    failures = 0
    for name in BENCHES:
        report = f"BENCH_{name}.json"
        cmd = [str(bin_dir / name)] + EXTRA_ARGS.get(name, [])
        run = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, check=False)
        if run.returncode != 0:
            print(f"FAIL {name}: exit {run.returncode}\n"
                  f"{run.stdout.decode(errors='replace')}")
            failures += 1
            continue
        baseline_path = baseline_dir / report
        if not baseline_path.is_file():
            print(f"FAIL {report}: no baseline at {baseline_path}")
            failures += 1
            continue
        actual_path = work / report
        if not actual_path.is_file():
            print(f"FAIL {report}: {name} wrote no report")
            failures += 1
            continue
        actual = without_buffers(actual_path.read_bytes())
        golden = without_buffers(baseline_path.read_bytes())
        if actual == golden:
            print(f"ok   {report}")
            continue
        at = first_difference(actual, golden)
        lo = max(0, at - CONTEXT)
        print(f"FAIL {report}: differs from the baseline at byte {at} "
              f"(buffers block removed)\n"
              f"  baseline: ...{golden[lo:at + CONTEXT].decode(errors='replace')}\n"
              f"  actual:   ...{actual[lo:at + CONTEXT].decode(errors='replace')}")
        failures += 1
    if failures:
        print(f"{failures} of {len(BENCHES)} reports differ or are missing; "
              f"the fresh reports are in {work}")
        return 1
    shutil.rmtree(work)
    print(f"all {len(BENCHES)} SimMachine reports match {baseline_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
