// hal::check negative tests: every level-2 checker must demonstrably fire
// on a seeded violation (with correct node/component attribution), stay
// silent on clean runs, and compile to nothing when HAL_CHECK is off.
//
// The suite builds twice in CI — once per HAL_CHECK mode — and the #if
// blocks select which half runs: checker-firing tests need the violation
// handler, compile-out tests prove the release shells are inert and empty.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "am/packet.hpp"
#include "check/buffer_lifecycle.hpp"
#include "check/check.hpp"
#include "check/protocol.hpp"
#include "common/buffer_pool.hpp"
#include "common/termination.hpp"
#include "name/name_table.hpp"
#include "runtime/api.hpp"
#include "runtime/handlers.hpp"

namespace hal {
namespace {

// --- Workload actors ----------------------------------------------------------

class Sink : public ActorBase {
 public:
  void on_blob(Context&, Bytes data) { bytes_seen += data.size(); }
  void on_nop(Context&) {}
  void on_die(Context& ctx) { ctx.terminate(); }
  HAL_BEHAVIOR(Sink, &Sink::on_blob, &Sink::on_nop, &Sink::on_die)
  inline static std::size_t bytes_seen = 0;
};

class Blaster : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress target, std::int64_t count) {
    for (std::int64_t i = 0; i < count; ++i) {
      // Alternate inline-payload and bulk-protocol sends so the clean-run
      // audit covers both buffer paths.
      const std::size_t size = (i % 2 == 0) ? 256 : 2048;
      ctx.send<&Sink::on_blob>(target, Bytes(size, std::byte{0x5A}));
    }
  }
  HAL_BEHAVIOR(Blaster, &Blaster::on_go)
};

#if HAL_CHECK

// --- Violation capture ---------------------------------------------------------

std::vector<check::Violation> g_violations;

void capture_violation(const check::Violation& v) { g_violations.push_back(v); }

/// Installs the capturing handler for one test, restoring the previous
/// (panicking) handler on the way out so later tests fail loudly again.
struct HandlerScope {
  HandlerScope() {
    g_violations.clear();
    prev_ = check::set_violation_handler(&capture_violation);
  }
  ~HandlerScope() { check::set_violation_handler(prev_); }
  HandlerScope(const HandlerScope&) = delete;
  HandlerScope& operator=(const HandlerScope&) = delete;

 private:
  check::ViolationHandler prev_;
};

// --- Node affinity --------------------------------------------------------------

TEST(CheckAffinity, ForeignStreamTouchingAPoolIsAttributed) {
  RuntimeConfig cfg;
  cfg.nodes = 2;
  Runtime rt(cfg);
  HandlerScope hs;
  Bytes b;
  {
    // Node 1's execution stream reaches into node 0's buffer pool — the
    // cross-node touch the single-writer discipline forbids.
    check::ScopedExecutionNode scope(1);
    b = rt.kernel(0).pool().reserve(64);
  }
  ASSERT_EQ(g_violations.size(), 1u);
  const check::Violation& v = g_violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kNodeAffinity);
  EXPECT_STREQ(v.component, "BufferPool");
  EXPECT_EQ(v.owner, NodeId{0});
  EXPECT_EQ(v.actor_node, NodeId{1});
  {
    // Returning the buffer from the owning stream is clean.
    check::ScopedExecutionNode scope(0);
    rt.kernel(0).pool().release(std::move(b));
  }
  EXPECT_EQ(g_violations.size(), 1u);
}

TEST(CheckAffinity, UnboundStreamAndOwnerStreamPass) {
  RuntimeConfig cfg;
  cfg.nodes = 1;
  Runtime rt(cfg);
  HandlerScope hs;
  // Bootstrap thread (no scope): reads kInvalidNode, passes.
  Bytes a = rt.kernel(0).pool().reserve(64);
  {
    check::ScopedExecutionNode scope(0);
    rt.kernel(0).pool().release(std::move(a));
  }
  EXPECT_TRUE(g_violations.empty());
}

// --- Buffer lifecycle -----------------------------------------------------------

TEST(CheckBuffers, DoubleRetireIsDetected) {
  HandlerScope hs;
  check::BufferLifecycle lc;
  check::NodeAffinityGuard guard;  // unbound, standalone
  Bytes b;
  b.reserve(64);
  lc.note_idle(b, guard);
  EXPECT_TRUE(g_violations.empty());
  lc.note_idle(b, guard);  // same allocation retired twice
  ASSERT_EQ(g_violations.size(), 1u);
  EXPECT_EQ(g_violations.front().kind, check::ViolationKind::kDoubleRetire);
  EXPECT_STREQ(g_violations.front().component, "BufferPool");
  EXPECT_EQ(lc.double_retires(), 1u);
  EXPECT_EQ(lc.poison_hits(), 0u);
}

TEST(CheckBuffers, UseAfterRetireTripsThePoisonFill) {
  HandlerScope hs;
  BufferPool pool;  // standalone: unbound affinity, no ledger
  Bytes b = pool.acquire(64);
  std::byte* stale = b.data();
  pool.release(std::move(b));
  EXPECT_TRUE(g_violations.empty());
  stale[3] = std::byte{0x42};  // write through the dangling pointer
  Bytes reused = pool.reserve(64);
  ASSERT_EQ(g_violations.size(), 1u);
  const check::Violation& v = g_violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kUseAfterRetire);
  EXPECT_EQ(v.detail0, 3u);     // offset of the first corrupted byte
  EXPECT_EQ(v.detail1, 0x42u);  // the byte found instead of the poison
}

TEST(CheckBuffers, DroppedPoolBufferShowsUpAsALeak) {
  RuntimeConfig cfg;
  cfg.nodes = 1;
  Runtime rt(cfg);
  Bytes leaked;
  {
    check::ScopedExecutionNode scope(0);
    leaked = rt.kernel(0).pool().acquire(64);
  }
  // `leaked` is reachable from nowhere inside the runtime: the audit must
  // classify it as a leak, not as in-flight.
  obs::RunReport r = rt.report();
  EXPECT_EQ(r.buffers.acquired, 1u);
  EXPECT_EQ(r.buffers.retired, 0u);
  EXPECT_EQ(r.buffers.in_flight, 0u);
  EXPECT_EQ(r.buffers.leaked, 1u);
  {
    // Hand it back so the destructor-time ledger is clean again.
    check::ScopedExecutionNode scope(0);
    rt.kernel(0).pool().release(std::move(leaked));
  }
  EXPECT_EQ(rt.report().buffers.leaked, 0u);
}

// --- Protocol state -------------------------------------------------------------

TEST(CheckProtocol, DescriptorEpochRegressionIsDetected) {
  HandlerScope hs;
  StatBlock stats;
  NameTable nt(0, stats);
  const SlotId s = nt.allocate(LocalityDescriptor::make_remote(1, {}, 5));
  nt.update(s, LocalityDescriptor::make_remote(2, {}, 3));  // older epoch
  ASSERT_EQ(g_violations.size(), 1u);
  const check::Violation& v = g_violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kEpochRegression);
  EXPECT_STREQ(v.component, "NameTable");
  EXPECT_EQ(v.owner, NodeId{0});
  EXPECT_EQ(v.detail0, 5u);  // held epoch
  EXPECT_EQ(v.detail1, 3u);  // regressing update
  // Equal and newer epochs pass.
  nt.update(s, LocalityDescriptor::make_remote(2, {}, 3));
  nt.update(s, LocalityDescriptor::make_remote(2, {}, 7));
  EXPECT_EQ(g_violations.size(), 1u);
}

TEST(CheckProtocol, FirChainOverflowIsDetected) {
  RuntimeConfig cfg;
  cfg.nodes = 2;
  Runtime rt(cfg);
  rt.load<Sink>();
  const MailAddress a = rt.spawn<Sink>(1);
  HandlerScope hs;
  check::ScopedExecutionNode scope(0);
  // Forge FIR packets at node 0, which holds no descriptor for `a` and so
  // allocates a fallback forward pointer and relays the chase.
  am::Packet p;
  p.src = 1;
  p.dst = 0;
  p.handler = kHFir;
  p.words = {a.pack_word0(), a.pack_word1(), 0, 0, 0, 0};
  rt.kernel(0).handle(p);  // 1 hop on a 2-node machine: within bound
  EXPECT_TRUE(g_violations.empty());
  p.words[2] = 3;  // 4 hops, but an epoch-3 watermark licenses the revisits
  p.words[3] = 2;
  rt.kernel(0).handle(p);
  EXPECT_TRUE(g_violations.empty());
  p.words[2] = 5;  // 6 hops with a stalled watermark: a forwarding cycle
  p.words[3] = 0;
  rt.kernel(0).handle(p);
  ASSERT_EQ(g_violations.size(), 1u);
  const check::Violation& v = g_violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kFirChainOverflow);
  EXPECT_STREQ(v.component, "NodeManager");
  EXPECT_EQ(v.owner, NodeId{0});
  EXPECT_EQ(v.detail0, 6u);  // chain length
  EXPECT_EQ(v.detail1, 2u);  // node count + epoch watermark bound
}

TEST(CheckProtocol, BulkCreditWindowUnderflowIsDetected) {
  HandlerScope hs;
  check::CreditWindowAuditor audit;
  audit.configure(3, /*flow_control=*/true);
  audit.note_grant();  // spends the single credit
  EXPECT_TRUE(g_violations.empty());
  audit.note_grant();  // a second concurrent grant: window goes negative
  ASSERT_EQ(g_violations.size(), 1u);
  const check::Violation& v = g_violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kCreditUnderflow);
  EXPECT_STREQ(v.component, "BulkChannel");
  EXPECT_EQ(v.owner, NodeId{3});
  // Completions refund; a grant after a refund is clean again.
  audit.note_complete();
  audit.note_complete();
  audit.note_grant();
  EXPECT_EQ(g_violations.size(), 1u);
  // The flow-control ablation legitimately overlaps transfers: disarmed.
  check::CreditWindowAuditor off;
  off.configure(3, /*flow_control=*/false);
  off.note_grant();
  off.note_grant();
  off.note_grant();
  EXPECT_EQ(g_violations.size(), 1u);
}

TEST(CheckProtocol, TerminationCounterConservationIsDetected) {
  HandlerScope hs;
  TerminationDetector td(1);
  td.note_sent(0);
  td.note_handled(0);  // balanced
  EXPECT_TRUE(g_violations.empty());
  td.note_handled(0);  // handled (2) overtakes sent (1)
  ASSERT_EQ(g_violations.size(), 1u);
  const check::Violation& v = g_violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kCounterConservation);
  EXPECT_STREQ(v.component, "TerminationDetector");
  EXPECT_EQ(v.detail0, 2u);
  EXPECT_EQ(v.detail1, 1u);
}

TEST(CheckProtocol, UnsafeDescriptorReclaimIsDetected) {
  HandlerScope hs;
  // A local descriptor at epoch 0 with nothing waiting on it: safe.
  check::audit_descriptor_reclaim(2, /*local=*/true, /*epoch=*/0,
                                  /*fir_outstanding=*/false,
                                  /*waiting_work=*/false);
  EXPECT_TRUE(g_violations.empty());
  // Each hazard alone makes the release a violation.
  check::audit_descriptor_reclaim(2, false, 0, false, false);
  check::audit_descriptor_reclaim(2, true, 3, false, false);
  check::audit_descriptor_reclaim(2, true, 0, true, false);
  check::audit_descriptor_reclaim(2, true, 0, false, true);
  ASSERT_EQ(g_violations.size(), 4u);
  const std::uint64_t hazards[] = {
      check::kReclaimNotLocal, check::kReclaimMigrated,
      check::kReclaimFirPending, check::kReclaimWaitingWork};
  for (std::size_t i = 0; i < g_violations.size(); ++i) {
    const check::Violation& v = g_violations[i];
    EXPECT_EQ(v.kind, check::ViolationKind::kUnsafeReclaim);
    EXPECT_STREQ(check::violation_kind_name(v.kind), "unsafe-reclaim");
    EXPECT_STREQ(v.component, "Kernel");
    EXPECT_EQ(v.owner, NodeId{2});
    EXPECT_EQ(v.detail1, hazards[i]);
  }
  EXPECT_EQ(g_violations[1].detail0, 3u);  // the epoch
  // Actors that die where they were born release their descriptors, and
  // every release passes the audit.
  g_violations.clear();
  RuntimeConfig cfg;
  cfg.nodes = 2;
  Runtime rt(cfg);
  rt.load<Sink>();
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    rt.inject<&Sink::on_die>(rt.spawn<Sink>(n));
  }
  rt.run();
  EXPECT_EQ(rt.kernel(0).names().live_descriptors(), 0u);
  EXPECT_EQ(rt.kernel(1).names().live_descriptors(), 0u);
  EXPECT_TRUE(g_violations.empty());
}

#else  // !HAL_CHECK — prove the layer compiles away.

// The release shells are empty classes: no fields, no vtables, nothing for
// the per-node structures that embed them to carry.
static_assert(HAL_CHECK == 0);
static_assert(sizeof(check::NodeAffinityGuard) == 1);
static_assert(sizeof(check::BufferLifecycle) == 1);
static_assert(sizeof(check::BufferLedger) == 1);
static_assert(sizeof(check::CreditWindowAuditor) == 1);
static_assert(sizeof(check::ScopedExecutionNode) == 1);

TEST(CheckCompiledOut, ReportingLayerIsInert) {
  // No handler machinery exists: installs are swallowed and return nothing.
  EXPECT_EQ(check::set_violation_handler(nullptr), nullptr);
  check::ScopedExecutionNode scope(7);
  EXPECT_EQ(check::current_node(), kInvalidNode);
}

TEST(CheckCompiledOut, ViolatingSequencesRunSilently) {
  // Each sequence below fires a checker in HAL_CHECK builds; here the
  // probes are no-ops and nothing panics (the default handler would abort
  // the test if any check were still live).
  BufferPool pool;
  Bytes b = pool.acquire(64);
  std::byte* stale = b.data();
  pool.release(std::move(b));
  stale[0] = std::byte{0x42};  // would be use-after-retire
  Bytes reused = pool.reserve(64);
  EXPECT_EQ(reused.size(), 0u);

  StatBlock stats;
  NameTable nt(0, stats);
  const SlotId s = nt.allocate(LocalityDescriptor::make_remote(1, {}, 5));
  nt.update(s, LocalityDescriptor::make_remote(2, {}, 3));  // would regress

  check::CreditWindowAuditor audit;
  audit.configure(0, true);
  audit.note_grant();
  audit.note_grant();  // would underflow

  TerminationDetector td(1);
  td.note_handled(0);  // would break conservation
  EXPECT_EQ(td.handled(), 1u);
}

TEST(CheckCompiledOut, ReportBufferAuditStaysZero) {
  RuntimeConfig cfg;
  cfg.nodes = 2;
  Runtime rt(cfg);
  rt.load<Sink>();
  rt.load<Blaster>();
  const MailAddress sink = rt.spawn<Sink>(1);
  rt.inject<&Blaster::on_go>(rt.spawn<Blaster>(0), sink, std::int64_t{8});
  rt.run();
  const obs::RunReport r = rt.report();
  EXPECT_EQ(r.buffers.acquired, 0u);
  EXPECT_EQ(r.buffers.retired, 0u);
  EXPECT_EQ(r.buffers.leaked, 0u);
  EXPECT_EQ(r.buffers.in_flight, 0u);
}

#endif  // HAL_CHECK

// --- Clean-run + shutdown accounting (both build modes) -------------------------

TEST(CheckClean, MixedWorkloadReportsNoViolationsOrLeaks) {
#if HAL_CHECK
  HandlerScope hs;
#endif
  RuntimeConfig cfg;
  cfg.nodes = 4;
  Runtime rt(cfg);
  rt.load<Sink>();
  rt.load<Blaster>();
  const MailAddress sink = rt.spawn<Sink>(3);
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    rt.inject<&Blaster::on_go>(rt.spawn<Blaster>(n), sink, std::int64_t{12});
  }
  rt.run();
  const obs::RunReport r = rt.report();
  EXPECT_EQ(r.buffers.double_retires, 0u);
  EXPECT_EQ(r.buffers.poison_hits, 0u);
  EXPECT_EQ(r.buffers.in_flight, 0u);
  EXPECT_EQ(r.buffers.leaked, 0u);
  // Ledger conservation on a quiescent machine: every pooled acquisition
  // was retired or legitimately escaped to user code.
  EXPECT_EQ(r.buffers.retired + r.buffers.escaped, r.buffers.acquired);
  const DrainStats drained = rt.shutdown_drain();
  EXPECT_EQ(drained.messages, 0u);
  EXPECT_EQ(drained.payloads, 0u);
#if HAL_CHECK
  EXPECT_GT(r.buffers.acquired, 0u);  // the audit actually watched traffic
  EXPECT_TRUE(g_violations.empty());
#endif
}

TEST(CheckDrain, UndeliveredMailIsCountedAndDrainIsIdempotent) {
  RuntimeConfig cfg;
  cfg.nodes = 1;
  Runtime rt(cfg);
  rt.load<Sink>();
  const MailAddress a = rt.spawn<Sink>(0);
  rt.inject<&Sink::on_blob>(a, Bytes(600, std::byte{0x7F}));
  rt.inject<&Sink::on_nop>(a);
  // Never run: both messages are still buffered in the mailbox.
  const DrainStats d = rt.shutdown_drain();
  EXPECT_EQ(d.messages, 2u);
  EXPECT_EQ(d.payloads, 1u);  // only the blob message carried a buffer
  const DrainStats again = rt.shutdown_drain();
  EXPECT_EQ(again.messages, 0u);
  EXPECT_EQ(again.payloads, 0u);
  // Drained payloads were adopted by the pool, not leaked.
  const obs::RunReport r = rt.report();
  EXPECT_EQ(r.buffers.leaked, 0u);
  EXPECT_EQ(r.buffers.in_flight, 0u);
}

TEST(CheckDrain, DeadLetteredPayloadsAreRetiredNotLeaked) {
  Sink::bytes_seen = 0;
  RuntimeConfig cfg;
  cfg.nodes = 2;
  Runtime rt(cfg);
  rt.load<Sink>();
  const MailAddress a = rt.spawn<Sink>(1);
  rt.inject<&Sink::on_die>(a);
  rt.inject<&Sink::on_blob>(a, Bytes(600, std::byte{0x7F}));  // after death
  rt.run();
  EXPECT_EQ(rt.dead_letters(), 1u);
  EXPECT_EQ(Sink::bytes_seen, 0u);
  // The dead letter's payload buffer went back to a pool: clean ledger.
  const obs::RunReport r = rt.report();
  EXPECT_EQ(r.buffers.leaked, 0u);
  EXPECT_EQ(r.buffers.in_flight, 0u);
  EXPECT_EQ(r.buffers.double_retires, 0u);
  const DrainStats drained = rt.shutdown_drain();
  EXPECT_EQ(drained.messages, 0u);
  EXPECT_EQ(drained.payloads, 0u);
}

}  // namespace
}  // namespace hal
