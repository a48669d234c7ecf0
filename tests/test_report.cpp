// Tests for the observability layer: Log2Histogram quantiles, RunReport
// aggregation and JSON determinism, and RuntimeConfig validation.
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/histogram.hpp"
#include "obs/probe_recorder.hpp"
#include "obs/run_report.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

// --- Log2Histogram ------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  using H = obs::Log2Histogram;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(1023), 10u);
  EXPECT_EQ(H::bucket_of(1024), 11u);
  EXPECT_EQ(H::bucket_lower(0), 0u);
  EXPECT_EQ(H::bucket_lower(1), 1u);
  EXPECT_EQ(H::bucket_lower(11), 1024u);
  // Every value maps into the bucket whose range contains it.
  for (std::uint64_t v : {1ull, 7ull, 63ull, 4096ull, 1ull << 40}) {
    const std::size_t b = H::bucket_of(v);
    EXPECT_GE(v, H::bucket_lower(b));
    EXPECT_LT(v, H::bucket_lower(b + 1));
  }
}

TEST(Histogram, QuantilesExactOnBucketLowerBounds) {
  // Samples that are exact bucket lower bounds are returned verbatim by
  // quantile(): 10 samples, ranks 1..10.
  obs::Log2Histogram h;
  for (int i = 0; i < 5; ++i) h.record(16);   // ranks 1-5
  for (int i = 0; i < 4; ++i) h.record(256);  // ranks 6-9
  h.record(4096);                             // rank 10
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 5u * 16 + 4u * 256 + 4096);
  EXPECT_EQ(h.min(), 16u);
  EXPECT_EQ(h.max(), 4096u);
  EXPECT_EQ(h.quantile(0.5), 16u);    // rank 5
  EXPECT_EQ(h.quantile(0.9), 256u);   // rank 9
  EXPECT_EQ(h.quantile(0.99), 4096u); // rank 10
  EXPECT_EQ(h.quantile(1.0), 4096u);
}

TEST(Histogram, ZeroIsItsOwnBucket) {
  obs::Log2Histogram h;
  h.record(0);
  h.record(0);
  h.record(1);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1u);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  obs::Log2Histogram a, b, both;
  for (std::uint64_t v : {1ull, 32ull, 900ull}) {
    a.record(v);
    both.record(v);
  }
  for (std::uint64_t v : {0ull, 32ull, 1ull << 50}) {
    b.record(v);
    both.record(v);
  }
  a += b;
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), both.quantile(q));
  }
}

TEST(ProbeRecorder, SpanSaturatesAtZero) {
  obs::ProbeRecorder r;
  r.record_span(obs::Probe::kRemoteDelivery, 100, 40);  // racing clocks
  EXPECT_EQ(r.histogram(obs::Probe::kRemoteDelivery).max(), 0u);
  EXPECT_EQ(r.histogram(obs::Probe::kRemoteDelivery).count(), 1u);
}

// --- A small mixed workload used by the report tests --------------------------

class Wanderer : public ActorBase {
 public:
  void on_add(Context& ctx, std::int64_t v) {
    sum_ += v;
    ctx.charge_ns(100);
  }
  void on_hop(Context& ctx, NodeId next, std::int64_t remaining) {
    if (remaining > 0) {
      const auto after = static_cast<NodeId>((next + 1) % ctx.node_count());
      ctx.send<&Wanderer::on_hop>(ctx.self(), after, remaining - 1);
      ctx.migrate_to(next);
    }
  }
  void on_ask(Context& ctx) { ctx.reply(sum_); }
  HAL_BEHAVIOR(Wanderer, &Wanderer::on_add, &Wanderer::on_hop,
               &Wanderer::on_ask)

  bool migratable() const override { return true; }
  void pack_state(ByteWriter& w) const override { w.write(sum_); }
  void unpack_state(ByteReader& r) override { sum_ = r.read<std::int64_t>(); }

 private:
  std::int64_t sum_ = 0;
};

class Pinger : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress target, std::int64_t count) {
    for (std::int64_t i = 0; i < count; ++i) {
      ctx.charge_ns(20000);
      ctx.send<&Wanderer::on_add>(target, std::int64_t{1});
    }
    ctx.request<&Wanderer::on_ask>(target, [](Context&, const JoinView&) {});
  }
  HAL_BEHAVIOR(Pinger, &Pinger::on_go)
};

obs::RunReport run_workload(MachineKind machine) {
  RuntimeConfig cfg;
  cfg.nodes = 4;
  cfg.machine = machine;
  Runtime rt(cfg);
  rt.load<Wanderer>();
  rt.load<Pinger>();
  const MailAddress w = rt.spawn<Wanderer>(0);
  rt.inject<&Wanderer::on_hop>(w, NodeId{1}, std::int64_t{8});
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    rt.inject<&Pinger::on_go>(rt.spawn<Pinger>(n), w, std::int64_t{16});
  }
  rt.run();
  return rt.report();
}

// --- RunReport ----------------------------------------------------------------

TEST(RunReport, JsonIsDeterministicAcrossSameSeedSimRuns) {
  const std::string a = run_workload(MachineKind::kSim).to_json();
  const std::string b = run_workload(MachineKind::kSim).to_json();
  EXPECT_EQ(a, b);  // byte-identical
  EXPECT_NE(a.find("\"schema\":\"halcyon.run_report.v5\""), std::string::npos);
  EXPECT_NE(a.find("\"workers\":1"), std::string::npos);  // sim: one stream
  EXPECT_NE(a.find("\"dead_letter_causes\":{\"unknown_actor\":"),
            std::string::npos);
  EXPECT_NE(a.find("\"buffers\":{\"acquired\":"), std::string::npos);
  EXPECT_NE(a.find("\"machine\":\"sim\""), std::string::npos);
}

TEST(RunReport, PerNodeStatsAndProbesSumToAggregate) {
  const obs::RunReport r = run_workload(MachineKind::kSim);
  ASSERT_EQ(r.per_node.size(), 4u);
  ASSERT_EQ(r.per_node_probes.size(), 4u);
  for (std::size_t s = 0; s < static_cast<std::size_t>(Stat::kCount); ++s) {
    std::uint64_t sum = 0;
    for (const StatBlock& blk : r.per_node) sum += blk.get(static_cast<Stat>(s));
    EXPECT_EQ(sum, r.total.get(static_cast<Stat>(s))) << kStatNames[s];
  }
  for (std::size_t p = 0; p < obs::kProbeCount; ++p) {
    std::uint64_t count = 0, sum = 0;
    for (const obs::ProbeRecorder& rec : r.per_node_probes) {
      count += rec.histogram(static_cast<obs::Probe>(p)).count();
      sum += rec.histogram(static_cast<obs::Probe>(p)).sum();
    }
    EXPECT_EQ(count, r.probes.histogram(static_cast<obs::Probe>(p)).count())
        << obs::kProbeNames[p];
    EXPECT_EQ(sum, r.probes.histogram(static_cast<obs::Probe>(p)).sum())
        << obs::kProbeNames[p];
  }
}

TEST(RunReport, MixedWorkloadPopulatesTheCoreProbes) {
  const obs::RunReport r = run_workload(MachineKind::kSim);
  using obs::Probe;
  for (Probe p : {Probe::kRemoteDelivery, Probe::kMigration,
                  Probe::kBulkTransfer, Probe::kMailboxResidency,
                  Probe::kMethodExecution, Probe::kJoinRoundTrip,
                  Probe::kDispatchBatch}) {
    EXPECT_GT(r.probes.histogram(p).count(), 0u)
        << obs::kProbeNames[static_cast<std::size_t>(p)];
  }
  EXPECT_GE(r.probes.populated(), 5u);
}

TEST(RunReport, MnMachineReportsWallTimeAndProbes) {
  const obs::RunReport r = run_workload(MachineKind::kMn);
  EXPECT_EQ(r.machine, "mn");
  EXPECT_EQ(r.nodes, 4u);
  EXPECT_GT(r.makespan_ns, 0u);
  EXPECT_GE(r.probes.populated(), 5u);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"machine\":\"mn\""), std::string::npos);
}

// --- RuntimeConfig validation ---------------------------------------------------

TEST(ConfigValidation, DefaultConfigIsValid) {
  EXPECT_FALSE(RuntimeConfig{}.validate().has_value());
}

TEST(ConfigValidation, ZeroNodesRejected) {
  RuntimeConfig cfg;
  cfg.nodes = 0;
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), ConfigErrorCode::kZeroNodes);
}

TEST(ConfigValidation, NodeCountBeyondWireEncodingRejected) {
  RuntimeConfig cfg;
  cfg.nodes = kMaxNodes + 1;
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), ConfigErrorCode::kTooManyNodes);
  cfg.nodes = kMaxNodes;  // the ceiling itself is fine
  EXPECT_FALSE(cfg.validate().has_value());
}

TEST(ConfigValidation, OversizedStackQuantumRejected) {
  RuntimeConfig cfg;
  cfg.max_stack_depth = kMaxStackDepth + 1;
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), ConfigErrorCode::kStackDepthTooLarge);
}

TEST(ConfigValidation, RuntimeConstructorThrowsTypedError) {
  RuntimeConfig cfg;
  cfg.nodes = 0;
  try {
    Runtime rt(cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ConfigErrorCode::kZeroNodes);
    EXPECT_NE(std::string(e.what()).find("nodes"), std::string::npos);
  }
}

}  // namespace
}  // namespace hal
