// Wire-batching semantics (PR 8 tentpole): destination-coalesced frames
// must be invisible to everything above the wire. Determinism (same-seed Sim
// runs stay byte-identical, batched results equal unbatched results),
// reliability (frames ride the link whole: exactly-once, in-order under
// loss), liveness (held frames force-flush at quiescence instead of waiting
// out the holdoff), and config validation.
//
// Suite names contain "Fault" where the CI sanitizer jobs should pick them
// up (-R 'Stress|MnMachine|Bulk|Fault').
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "am/mn_machine.hpp"
#include "am/sim_machine.hpp"
#include "am/wire_batch.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

// --- Runtime-level workload -----------------------------------------------------

/// Flood sink: sums everything (the exact-result check).
class Sink : public ActorBase {
 public:
  void on_add(Context&, std::uint64_t v) { sum += v; }
  HAL_BEHAVIOR(Sink, &Sink::on_add)
  std::uint64_t sum = 0;
};

/// Self-paced flood source (one chunk per dispatch).
class Source : public ActorBase {
 public:
  void on_init(Context&, MailAddress dst, std::uint64_t base) {
    dst_ = dst;
    next_ = base;
  }
  void on_flood(Context& ctx, std::uint64_t left) {
    const std::uint64_t chunk = left < 128 ? left : 128;
    for (std::uint64_t i = 0; i < chunk; ++i) {
      ctx.send<&Sink::on_add>(dst_, next_++);
    }
    if (left > chunk) ctx.send<&Source::on_flood>(ctx.self(), left - chunk);
  }
  HAL_BEHAVIOR(Source, &Source::on_init, &Source::on_flood)

 private:
  MailAddress dst_;
  std::uint64_t next_ = 0;
};

struct StormResult {
  std::uint64_t sum = 0;
  std::uint64_t dead = 0;
  obs::RunReport report;
};

/// 3:1 remote flood into node 0 under `cfg` (seeded Sim by default).
StormResult run_flood(RuntimeConfig cfg, std::uint64_t per_sender = 600) {
  cfg.nodes = 4;
  Runtime rt(cfg);
  rt.load<Sink>();
  rt.load<Source>();
  const MailAddress sink = rt.spawn<Sink>(0);
  for (NodeId s = 1; s < cfg.nodes; ++s) {
    const MailAddress f = rt.spawn<Source>(s);
    rt.inject<&Source::on_init>(f, sink, per_sender * s);
    rt.inject<&Source::on_flood>(f, per_sender);
  }
  rt.run();
  StormResult out;
  const auto* c = rt.find_behavior<Sink>(sink);
  out.sum = c != nullptr ? c->sum : 0;
  out.dead = rt.dead_letters();
  out.report = rt.report();
  return out;
}

std::uint64_t flood_expect(NodeId nodes, std::uint64_t per_sender) {
  std::uint64_t want = 0;
  for (NodeId s = 1; s < nodes; ++s) {
    const std::uint64_t base = per_sender * s;
    want += per_sender * base + per_sender * (per_sender - 1) / 2;
  }
  return want;
}

TEST(WireBatchFault, SimSameSeedReportsAreByteIdentical) {
  RuntimeConfig cfg;  // batching on by default, seeded Sim
  const StormResult a = run_flood(cfg);
  const StormResult b = run_flood(cfg);
  EXPECT_EQ(a.sum, flood_expect(4, 600));
  EXPECT_EQ(a.dead, 0u);
  // Coalescing actually happened, and the whole structured report — stats,
  // probes, the frame-fill histogram — replays byte-for-byte.
  EXPECT_GT(a.report.total.get(Stat::kWireFramesSent), 0u);
  EXPECT_GT(a.report.total.get(Stat::kWireMsgsCoalesced), 0u);
  EXPECT_EQ(a.report.to_json(), b.report.to_json());
}

TEST(WireBatchFault, SimBatchedMatchesUnbatchedResults) {
  RuntimeConfig on;
  RuntimeConfig off;
  off.batching.enabled = false;
  const StormResult rb = run_flood(on);
  const StormResult ru = run_flood(off);
  EXPECT_EQ(rb.sum, flood_expect(4, 600));
  EXPECT_EQ(rb.sum, ru.sum);
  EXPECT_EQ(rb.dead, 0u);
  EXPECT_EQ(ru.dead, 0u);
  EXPECT_EQ(ru.report.total.get(Stat::kWireFramesSent), 0u);
  // Every message arrived either way; the batched run moved (almost) all of
  // them inside frames.
  EXPECT_EQ(rb.report.total.get(Stat::kMessagesDelivered),
            ru.report.total.get(Stat::kMessagesDelivered));
}

// --- Machine-level: frames on the faulty wire -----------------------------------

class RecordingClient : public am::NodeClient {
 public:
  std::vector<am::Packet> received;
  void handle(am::Packet p) override { received.push_back(std::move(p)); }
  bool step() override { return false; }
  bool has_work() const override { return false; }
};

am::Packet tagged(NodeId src, NodeId dst, std::uint64_t tag) {
  am::Packet p;
  p.src = src;
  p.dst = dst;
  p.handler = 1;
  p.words[0] = tag;
  return p;
}

void expect_exactly_once_in_order(const RecordingClient& c,
                                  std::uint64_t count) {
  ASSERT_EQ(c.received.size(), count);
  for (std::uint64_t i = 0; i < count; ++i) {
    EXPECT_EQ(c.received[i].words[0], i) << "at position " << i;
  }
}

TEST(WireBatchFault, SimCoalescedFramesExactlyOnceInOrderUnderLoss) {
  am::SimMachine machine(2, am::CostModel::cm5());
  RecordingClient clients[2];
  machine.attach(0, &clients[0]);
  machine.attach(1, &clients[1]);
  machine.configure_batching(am::BatchConfig{});
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.05;  // the ISSUE's 5%-loss reliability bar
  fc.seed = 0xbadc;
  machine.configure_faults(fc);
  constexpr std::uint64_t kCount = 800;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    machine.send(tagged(0, 1, i));
  }
  machine.run();
  // Frames were lost and retransmitted whole; the decoded record stream is
  // still exactly the sent stream, in per-channel order.
  expect_exactly_once_in_order(clients[1], kCount);
  const am::LinkStats& s = *machine.link_stats(0);
  EXPECT_GT(s.drops_injected, 0u);
  EXPECT_GE(s.retransmits, s.drops_injected);
}

TEST(WireBatchFault, MnMachineCoalescedFramesSurviveLoss) {
  am::MnMachine machine(2, am::CostModel::cm5());
  RecordingClient clients[2];
  machine.attach(0, &clients[0]);
  machine.attach(1, &clients[1]);
  machine.configure_batching(am::BatchConfig{});
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.05;
  fc.seed = 23;
  fc.rto_ns = 500'000;  // soak-friendly recovery
  machine.configure_faults(fc);
  constexpr std::uint64_t kCount = 400;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    machine.send(tagged(0, 1, i));
  }
  machine.run();
  expect_exactly_once_in_order(clients[1], kCount);
}

// --- Forced flush at quiescence -------------------------------------------------

TEST(WireBatchFault, IdleTransitionFlushKeepsTerminationPrompt) {
  // A holdoff far beyond any reasonable run: if quiescence had to wait out
  // the timer, Sim's makespan would blow up (and MnMachine below would
  // stall for wall-clock seconds). The busy->idle flush must ship the held
  // frames instead.
  RuntimeConfig cfg;
  cfg.batching.holdoff_ns = 5'000'000'000;  // 5 s
  cfg.batching.holdoff_max_ns = 5'000'000'000;
  const StormResult r = run_flood(cfg, /*per_sender=*/40);
  EXPECT_EQ(r.sum, flood_expect(4, 40));
  EXPECT_EQ(r.dead, 0u);
  EXPECT_GT(r.report.total.get(Stat::kWireFlushIdle), 0u);
  EXPECT_EQ(r.report.total.get(Stat::kWireFlushTimer), 0u);
  // Virtual time stayed in the microsecond regime — nothing waited 5 s.
  EXPECT_LT(r.report.makespan_ns, cfg.batching.holdoff_ns);
}

TEST(WireBatchFault, MnMachineIdleFlushTerminatesWithHugeHoldoff) {
  RuntimeConfig cfg;
  cfg.machine = MachineKind::kMn;
  cfg.batching.holdoff_ns = 5'000'000'000;
  cfg.batching.holdoff_max_ns = 5'000'000'000;
  // Completion alone is the assertion: a missing idle flush would park this
  // run for ~5 s per held frame (and trip the suite's timeout).
  const StormResult r = run_flood(cfg, /*per_sender=*/40);
  EXPECT_EQ(r.sum, flood_expect(4, 40));
  EXPECT_EQ(r.dead, 0u);
}

// --- Config validation ----------------------------------------------------------

TEST(WireBatch, InvalidKnobsAreRejected) {
  RuntimeConfig cfg;
  cfg.batching.max_msgs = 1;  // a one-record "frame" is not coalescing
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), ConfigErrorCode::kBadBatchConfig);

  RuntimeConfig huge;
  huge.batching.max_frame_bytes = am::kBulkChunkBytes + 1;
  err = huge.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), ConfigErrorCode::kBadBatchConfig);

  RuntimeConfig inverted;
  inverted.batching.holdoff_ns = 10;
  inverted.batching.holdoff_min_ns = 100;
  err = inverted.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), ConfigErrorCode::kBadBatchConfig);

  // Disabled batching skips knob validation entirely (the knobs are inert).
  RuntimeConfig offcfg;
  offcfg.batching.enabled = false;
  offcfg.batching.max_msgs = 1;
  EXPECT_FALSE(offcfg.validate().has_value());
}

}  // namespace
}  // namespace hal
