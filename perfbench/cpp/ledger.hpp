// The per-layer ledger: each layer's public functions timed in isolation at
// steady state, the per-message cost of a 2-node MnMachine run, and the
// WorkStealPool fib comparator.
#pragma once

#include <string>

#include "support.hpp"

namespace pb {

/// Time every isolated ledger entry; returns one JSON object mapping entry
/// name to nanoseconds per call (median over timed batches).
std::string run_ledger(SpanLog& spans);

/// One 2-node, 2-worker MnMachine run that sends messages of `kind`
/// ("local", "remote" or "reply") back and forth; returns a JSON object with
/// the end-to-end nanoseconds per message, or "" for an unknown kind.
std::string run_msg(const std::string& kind, std::uint64_t seed,
                    SpanLog& spans);

/// fib(kFibN) with the benchmark's cutoff on baseline::WorkStealPool with
/// the fib workload's worker count, 7 times after a warm-up; returns a JSON
/// object with the median wall seconds.
std::string run_pool(SpanLog& spans);

/// Self-tests of the percentile helper and the exact checks; returns the
/// process exit code.
int selftest();

}  // namespace pb
