#!/usr/bin/env bash
# Build and run the tier-1 suite under a sanitizer.
#
#   scripts/sanitize.sh thread   [ctest args...]   # TSan
#   scripts/sanitize.sh address  [ctest args...]   # ASan + UBSan
#
# The concurrency stress tests (test_stress, test_mn_machine, plus the
# MnMachine halves of the parameterized suites) are the reason this script
# exists: MnMachine's termination detector, wakeup handshake, run-token
# deques and MPSC mailboxes are only trustworthy if this passes clean. CI
# runs both modes on every PR; run
#   scripts/sanitize.sh thread --repeat until-fail:50 -R 'Stress|MnMachine|Bulk|Fault'
# to reproduce the 50-iteration race soak locally.
set -euo pipefail

mode="${1:?usage: scripts/sanitize.sh thread|address [ctest args...]}"
shift || true

case "$mode" in
  thread)
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
    ;;
  address)
    export ASAN_OPTIONS="${ASAN_OPTIONS:-strict_string_checks=1:detect_stack_use_after_return=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
    ;;
  *)
    echo "unknown sanitizer '$mode' (want: thread | address)" >&2
    exit 2
    ;;
esac

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-$mode"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B "$build" -S "$root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHAL_SANITIZE="$mode" \
  -DHAL_BUILD_BENCH=OFF \
  -DHAL_BUILD_EXAMPLES=OFF
cmake --build "$build" -j "$jobs"
ctest --test-dir "$build" --output-on-failure -j "$jobs" "$@"
