// Tests: the Chrome trace — probe spans kept per node, their identity with
// the histograms, determinism, and serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "runtime/api.hpp"

namespace hal {
namespace {

class Busy : public ActorBase {
 public:
  void on_work(Context& ctx, std::int64_t units) {
    ctx.charge_work(static_cast<std::uint64_t>(units));
  }
  void on_wait(Context& ctx, std::int64_t ns) {
    ctx.charge_ns(static_cast<SimTime>(ns));
  }
  void on_hop(Context& ctx, NodeId target) { ctx.migrate_to(target); }
  HAL_BEHAVIOR(Busy, &Busy::on_work, &Busy::on_wait, &Busy::on_hop)
  bool migratable() const override { return true; }
  void pack_state(ByteWriter&) const override {}
  void unpack_state(ByteReader&) override {}
};

RuntimeConfig traced_cfg(NodeId nodes) {
  RuntimeConfig c;
  c.nodes = nodes;
  c.trace = true;
  return c;
}

/// A 1000-unit method on node 0, a hop to node 2, a 500-unit method there.
void load_busy_run(Runtime& rt) {
  rt.load<Busy>();
  const MailAddress b = rt.spawn<Busy>(0);
  rt.inject<&Busy::on_work>(b, std::int64_t{1000});
  rt.inject<&Busy::on_hop>(b, NodeId{2});
  rt.inject<&Busy::on_work>(b, std::int64_t{500});
}

std::vector<obs::Span> run_traced() {
  Runtime rt(traced_cfg(3));
  load_busy_run(rt);
  rt.run();
  return rt.trace_events();
}

std::size_t count_probe(const std::vector<obs::Span>& ev, obs::Probe p) {
  std::size_t n = 0;
  for (const auto& e : ev) {
    if (e.probe == p) ++n;
  }
  return n;
}

std::string chrome_json(const std::vector<obs::Span>& ev) {
  std::ostringstream out;
  obs::write_chrome_trace(out, ev);
  return out.str();
}

TEST(Trace, CapturesMethodsAndMigrations) {
  const auto ev = run_traced();
  EXPECT_GE(count_probe(ev, obs::Probe::kMethodExecution), 3u);
  EXPECT_EQ(count_probe(ev, obs::Probe::kMigration), 1u);
  // Method spans carry durations; the first on_work charged 1000 units.
  bool found_long_method = false;
  for (const auto& e : ev) {
    if (e.probe == obs::Probe::kMethodExecution && e.duration >= 50000) {
      found_long_method = true;
    }
    // The arrival side records the migration: its track is the target's.
    if (e.probe == obs::Probe::kMigration) {
      EXPECT_EQ(e.node, 2u);
    }
  }
  EXPECT_TRUE(found_long_method);
}

TEST(Trace, DisabledByDefault) {
  RuntimeConfig c;
  c.nodes = 2;
  Runtime rt(c);
  rt.load<Busy>();
  const MailAddress b = rt.spawn<Busy>(0);
  rt.inject<&Busy::on_work>(b, std::int64_t{10});
  rt.run();
  EXPECT_TRUE(rt.trace_events().empty());
  // The probes still sample; only the spans are not kept.
  EXPECT_EQ(
      rt.report().probes.histogram(obs::Probe::kMethodExecution).count(), 1u);
}

TEST(Trace, DeterministicUnderSim) {
  const auto a = run_traced();
  const auto b = run_traced();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].duration, b[i].duration);
    EXPECT_EQ(a[i].probe, b[i].probe);
    EXPECT_EQ(a[i].node, b[i].node);
  }
}

TEST(Trace, ChromeJsonIsWellFormed) {
  const auto ev = run_traced();
  const std::string json = chrome_json(ev);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  // One object per event; braces balance.
  std::int64_t depth = 0;
  std::size_t objects = 0;
  for (const char c : json) {
    if (c == '{') {
      if (depth == 0) ++objects;
      ++depth;
    } else if (c == '}') {
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(objects, ev.size());
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // durations
  EXPECT_EQ(json.find("\"ph\":\"i\""), std::string::npos);  // no instants
  EXPECT_NE(json.find("\"name\":\"migration_ns\""), std::string::npos);
}

TEST(Trace, EventNamesCoverAllKinds) {
  // Every probe writes under its report key, so a trace event and a
  // histogram of the same probe carry the same name.
  std::vector<obs::Span> ev;
  for (std::size_t i = 0; i < obs::kProbeCount; ++i) {
    ev.push_back(obs::Span{i, 1, 0, static_cast<obs::Probe>(i)});
  }
  const std::string json = chrome_json(ev);
  for (const std::string_view name : obs::kProbeNames) {
    ASSERT_FALSE(name.empty());
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
}

/// Every "<key>":<µs> value in `json`, back in ns. Fails the test if one
/// does not have exactly three decimals.
std::vector<std::uint64_t> microsecond_values(const std::string& json,
                                              const std::string& key) {
  std::vector<std::uint64_t> ns;
  const std::string tag = "\"" + key + "\":";
  for (std::size_t at = json.find(tag); at != std::string::npos;
       at = json.find(tag, at + 1)) {
    const std::size_t from = at + tag.size();
    const std::size_t dot = json.find('.', from);
    const std::size_t end = json.find_first_of(",}", from);
    EXPECT_EQ(end, dot + 4) << json.substr(at, 40);
    ns.push_back(std::stoull(json.substr(from, dot - from)) * 1000 +
                 std::stoull(json.substr(dot + 1, 3)));
  }
  return ns;
}

TEST(Trace, ChromeTimestampsKeepNanoseconds) {
  // A zero-length span stays a complete event.
  const std::string one = chrome_json(
      {obs::Span{1200092800, 0, 2, obs::Probe::kMethodExecution}});
  EXPECT_NE(one.find("\"tid\":2,\"ph\":\"X\",\"ts\":1200092.800,"
                     "\"dur\":0.000}"),
            std::string::npos)
      << one;
  EXPECT_NE(chrome_json({obs::Span{5, 1000000007, 0,
                                   obs::Probe::kRemoteDelivery}})
                .find("\"ts\":0.005,\"dur\":1000000.007}"),
            std::string::npos);

  // A 1.2 s virtual method on a 3-node run: every ts and dur reads back
  // to its span's exact ns.
  Runtime rt(traced_cfg(3));
  load_busy_run(rt);
  const MailAddress waiter = rt.spawn<Busy>(1);
  rt.inject<&Busy::on_wait>(waiter, std::int64_t{1200000000});
  rt.run();
  const auto ev = rt.trace_events();
  const std::string json = chrome_json(ev);
  const auto ts = microsecond_values(json, "ts");
  const auto dur = microsecond_values(json, "dur");
  ASSERT_EQ(ts.size(), ev.size());
  ASSERT_EQ(dur.size(), ev.size());
  bool long_method = false;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ts[i], ev[i].start) << i;
    EXPECT_EQ(dur[i], ev[i].duration) << i;
    if (ev[i].duration >= 1200000000) long_method = true;
  }
  EXPECT_TRUE(long_method);
}

TEST(Trace, WriteTraceToBadPathReportsFailure) {
  Runtime rt(traced_cfg(3));
  load_busy_run(rt);
  rt.run();
  const std::string missing_dir = ::testing::TempDir() + "hal-no-such-dir/";
  EXPECT_FALSE(rt.write_trace(missing_dir + "trace.json").has_value());
  // The spans stay: a good path still gets every one.
  const std::string path = ::testing::TempDir() + "hal-trace-test.json";
  const std::optional<std::size_t> written = rt.write_trace(path);
  ASSERT_TRUE(written.has_value());
  EXPECT_GE(*written, 3u);
  EXPECT_EQ(*written, rt.trace_events().size());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::size_t events = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, *written);
  std::remove(path.c_str());
}

// --- One pipeline: the trace events are the histogram samples -------------

class Wanderer : public ActorBase {
 public:
  void on_add(Context& ctx, std::int64_t v) {
    sum_ += v;
    ctx.charge_ns(100);
  }
  void on_blob(Context&, Bytes data) {
    sum_ += static_cast<std::int64_t>(data.size());
  }
  void on_hop(Context& ctx, NodeId next, std::int64_t remaining) {
    if (remaining > 0) {
      const auto after = static_cast<NodeId>((next + 1) % ctx.node_count());
      ctx.send<&Wanderer::on_hop>(ctx.self(), after, remaining - 1);
      ctx.migrate_to(next);
    }
  }
  void on_ask(Context& ctx) { ctx.reply(sum_); }
  HAL_BEHAVIOR(Wanderer, &Wanderer::on_add, &Wanderer::on_blob,
               &Wanderer::on_hop, &Wanderer::on_ask)

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
    ctx.send<&Wanderer::on_blob>(target, Bytes(2048));  // bulk path
    ctx.request<&Wanderer::on_ask>(target, [](Context&, const JoinView&) {});
  }
  HAL_BEHAVIOR(Pinger, &Pinger::on_go)
};

struct MixedRun {
  obs::RunReport report;
  std::vector<obs::Span> spans;
};

/// A migrating actor that pingers on every node send to, remotely, in
/// bulk, and with a request whose reply fills a join.
MixedRun run_mixed(MachineKind machine, bool trace) {
  RuntimeConfig cfg;
  cfg.nodes = 4;
  cfg.machine = machine;
  cfg.load_balancing = machine == MachineKind::kMn;
  cfg.trace = trace;
  Runtime rt(cfg);
  rt.load<Wanderer>();
  rt.load<Pinger>();
  const MailAddress w = rt.spawn<Wanderer>(0);
  rt.inject<&Wanderer::on_hop>(w, NodeId{1}, std::int64_t{8});
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    rt.inject<&Pinger::on_go>(rt.spawn<Pinger>(n), w, std::int64_t{16});
  }
  rt.run();
  return {rt.report(), rt.trace_events()};
}

/// For every probe, trace events == histogram samples, node by node; the
/// histogram-only probes (record, not record_span) have no events.
void expect_spans_match_histograms(const MixedRun& run) {
  const std::size_t nodes = run.report.per_node_probes.size();
  for (std::size_t p = 0; p < obs::kProbeCount; ++p) {
    const auto probe = static_cast<obs::Probe>(p);
    for (std::size_t n = 0; n < nodes; ++n) {
      std::size_t events = 0;
      for (const obs::Span& s : run.spans) {
        if (s.probe == probe && s.node == n) ++events;
      }
      const bool histogram_only = probe == obs::Probe::kDispatchBatch ||
                                  probe == obs::Probe::kFrameFill;
      EXPECT_EQ(events, histogram_only ? 0u
                                       : run.report.per_node_probes[n]
                                             .histogram(probe)
                                             .count())
          << obs::kProbeNames[p] << " on node " << n;
    }
  }
  for (const obs::Span& s : run.spans) EXPECT_LT(s.node, nodes);
}

TEST(Trace, SpansMatchHistograms) {
  const MixedRun traced = run_mixed(MachineKind::kSim, true);
  const MixedRun plain = run_mixed(MachineKind::kSim, false);
  expect_spans_match_histograms(traced);
  for (const obs::Probe p :
       {obs::Probe::kMigration, obs::Probe::kRemoteDelivery,
        obs::Probe::kBulkTransfer, obs::Probe::kJoinRoundTrip,
        obs::Probe::kMailboxResidency}) {
    EXPECT_GT(count_probe(traced.spans, p), 0u)
        << obs::kProbeNames[static_cast<std::size_t>(p)];
  }
  EXPECT_TRUE(plain.spans.empty());
  // Keeping the spans reads no clock and charges nothing.
  EXPECT_EQ(traced.report.to_json(), plain.report.to_json());
}

// Named under MnMachineRuntime so the race soak's MnMachine filter runs it:
// the per-node span lists take no lock.
TEST(MnMachineRuntime, TraceSpansMatchHistograms) {
  const MixedRun run = run_mixed(MachineKind::kMn, true);
  ASSERT_EQ(run.report.nodes, 4u);
  EXPECT_FALSE(run.spans.empty());
  expect_spans_match_histograms(run);
}

}  // namespace
}  // namespace hal
