// Self-tests of the benchmark's own helpers: the percentile summary and the
// exact checks must accept the right answer and reject every wrong one.
#include <cmath>
#include <cstdio>
#include <vector>

#include "ledger.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
  }
}

void test_percentile() {
  std::vector<std::uint32_t> none;
  expect(percentile(none, 0.5).value == 0, "empty percentile is 0");

  std::vector<std::uint32_t> v;
  for (std::uint32_t i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(percentile(v, 0.50).value == 50, "p50 of 1..100 is 50");
  expect(percentile(v, 0.50).beyond == 50, "50 samples beyond p50");
  expect(percentile(v, 0.99).value == 99, "p99 of 1..100 is 99");
  expect(percentile(v, 0.99).beyond == 1, "one sample beyond p99");
  expect(percentile(v, 1.0).value == 100, "p100 is the maximum");

  std::vector<std::uint32_t> ties(1000, 7);
  ties.push_back(9);
  expect(percentile(ties, 0.99).value == 7, "p99 inside a run of ties");
  expect(percentile(ties, 0.99).beyond == 1, "ties are not beyond");

  std::vector<std::uint32_t> big;
  for (std::uint32_t i = 1; i <= 2000; ++i) big.push_back(i);
  const LatencySummary s = summarize(big);
  expect(s.count == 2000 && s.p50_ns == 1000 && s.p90_ns == 1800 &&
             s.p99_ns == 1980 && s.beyond_p90 == 200 && s.beyond_p99 == 20,
         "summary of 1..2000: count, p50, p90, p99 and the counts beyond");
}

void test_bucket_quantile() {
  hal::obs::Log2Histogram empty;
  expect(bucket_quantile(empty, 0.5) == 0.0, "empty histogram quantile is 0");

  hal::obs::Log2Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  // Rank 50 is the 19th of the 32 samples in bucket [32, 64).
  expect(bucket_quantile(h, 0.50) == 32.0 + 32.0 * 19.0 / 32.0,
         "p50 interpolated inside its log2 bucket");
  // Rank 99 is the 36th of the 37 samples in [64, 128), clamped to max 100.
  expect(std::abs(bucket_quantile(h, 0.99) - (64.0 + 36.0 * 36.0 / 37.0)) <
             1e-9,
         "p99 interpolated and clamped to the maximum");

  hal::obs::Log2Histogram one;
  one.record(5000);
  expect(bucket_quantile(one, 0.99) == 5000.0,
         "a single sample is its own quantile");
}

void test_fib_check() {
  expect(fib_value(10) == 55, "fib(10) = 55");
  expect(fib_value(32) == 2178309, "fib(32) = 2178309");
  expect(check_fib(fib_value(kFibN), 0).empty(), "right fib passes");
  expect(!check_fib(fib_value(kFibN) + 1, 0).empty(), "wrong fib fails");
  expect(!check_fib(fib_value(kFibN), 1).empty(), "dead letter fails fib");
}

void test_storm_check() {
  const std::uint64_t seed = 42;
  const std::uint64_t n = kStormSenders * kStormPerSender;
  const std::uint64_t sum = storm_expected_sum(seed);
  expect(check_storm(seed, sum, n, 0).empty(), "right storm passes");
  expect(!check_storm(seed, sum + 1, n, 0).empty(), "wrong sum fails");
  expect(!check_storm(seed, sum, n - 1, 0).empty(), "lost message fails");
  expect(!check_storm(seed, sum, n, 2).empty(), "dead letters fail storm");
  expect(storm_expected_sum(1) != storm_expected_sum(2),
         "storm inputs depend on the seed");
  expect(rpc_expected_total(1) != rpc_expected_total(2),
         "rpc inputs depend on the seed");
}

void test_rpc_check() {
  const std::uint64_t seed = 7;
  RpcOutcome ok;
  ok.server_total = rpc_expected_total(seed);
  ok.server_count = kRpcClients * kRpcPerClient;
  ok.migrations = ok.server_count / kRpcMigrateEvery;
  ok.clients_done = kRpcClients;
  expect(check_rpc(seed, ok).empty(), "right rpc passes");

  RpcOutcome bad = ok;
  bad.server_total += 1;
  expect(!check_rpc(seed, bad).empty(), "wrong server total fails");
  bad = ok;
  bad.server_count -= 1;
  expect(!check_rpc(seed, bad).empty(), "lost request fails");
  bad = ok;
  bad.migrations -= 1;
  expect(!check_rpc(seed, bad).empty(), "missed migration fails");
  bad = ok;
  bad.clients_done -= 1;
  expect(!check_rpc(seed, bad).empty(), "unfinished client fails");
  bad = ok;
  bad.bad_replies = 1;
  expect(!check_rpc(seed, bad).empty(), "wrong reply fails");
  bad = ok;
  bad.dead_letters = 1;
  expect(!check_rpc(seed, bad).empty(), "dead letter fails rpc");
}

void test_json() {
  JsonObject o;
  o.str("a\"b", "x\\y\n").num("n", std::uint64_t{3}).boolean("t", true);
  expect(o.done() == "{\"a\\\"b\":\"x\\\\y\\n\",\"n\":3,\"t\":true}",
         "json escaping");
}

}  // namespace

int selftest() {
  test_percentile();
  test_bucket_quantile();
  test_fib_check();
  test_storm_check();
  test_rpc_check();
  test_json();
  std::printf("{\"selftest_failures\":%d}\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace pb
