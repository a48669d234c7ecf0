#include "runtime/runtime.hpp"

#include <chrono>
#include <fstream>
#include <unordered_set>
#include <utility>

#include "am/mn_machine.hpp"
#include "am/sim_machine.hpp"

namespace hal {

Runtime::Runtime(RuntimeConfig config) : config_(config) {
  if (auto err = config_.validate()) throw *err;
  switch (config_.machine) {
    case MachineKind::kSim: {
      auto sim = std::make_unique<am::SimMachine>(config_.nodes, config_.costs);
      sim->set_event_limit(config_.sim_event_limit);  // 0 = unlimited
      machine_ = std::move(sim);
      break;
    }
    case MachineKind::kMn:
      machine_ = std::make_unique<am::MnMachine>(config_.nodes, config_.costs,
                                                 config_.mn_workers);
      break;
  }
  HAL_ASSERT(machine_ != nullptr);
  kernels_.reserve(config_.nodes);
  for (NodeId n = 0; n < config_.nodes; ++n) {
    kernels_.push_back(
        std::make_unique<Kernel>(*machine_, n, registry_, config_));
    machine_->attach(n, kernels_[n].get());
    // One shared ledger: payload buffers recycle across nodes (the sender's
    // pool acquires, the receiver's retires), so the live set is global.
    kernels_[n]->pool().set_ledger(&ledger_);
  }
  // Node 0's kernel relays I/O requests to the front-end (Fig. 1).
  kernels_[0]->set_front_end(&front_end_);
  // After the kernels attach, so each link endpoint can borrow its node's
  // payload pool. A zero injector seed inherits the runtime seed: one knob
  // reproduces both the schedule and the fault pattern.
  am::FaultConfig faults = config_.faults;
  if (faults.seed == 0) faults.seed = config_.seed;
  machine_->configure_faults(faults);
  // After the kernels attach for the same reason: each aggregator's frame
  // buffers come from its node's payload pool. Single-node machines stay
  // unbatched (configure_batching is inert there).
  machine_->configure_batching(config_.batching);
}

Runtime::~Runtime() {
  // Retire whatever is still buffered (dead letters at teardown) so the
  // pools get their buffers back and held work tokens are returned.
  shutdown_drain();
}

DrainStats Runtime::shutdown_drain() {
  DrainStats total;
  // Open frames first (their records were never delivered), then the link:
  // retransmit masters and out-of-order buffers retire into the pools before
  // the kernels' own drain accounting runs.
  machine_->drain_wire();
  machine_->drain_links();
  for (auto& k : kernels_) {
    // The drain releases buffers into each kernel's pool; run it "as" that
    // node so the pools' affinity guards stay satisfied.
    check::ScopedExecutionNode scope(k->self());
    total += k->drain_in_flight();
  }
  return total;
}

void Runtime::run() {
  HAL_ASSERT(!ran_);
  ran_ = true;
  const auto t0 = std::chrono::steady_clock::now();
  machine_->run();
  const auto t1 = std::chrono::steady_clock::now();
  wall_ns_ = static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

obs::RunReport Runtime::report() {
  obs::RunReport r;
  r.machine = std::string(to_string(config_.machine));
  r.nodes = config_.nodes;
  r.workers = machine_->worker_count();
  r.seed = config_.seed;
  r.makespan_ns = config_.machine == MachineKind::kSim
                      ? static_cast<const am::SimMachine&>(*machine_).makespan()
                      : wall_ns_;
  r.dead_letters = dead_letters();
  for (const auto& k : kernels_) {
    for (std::size_t c = 0; c < r.dead_letter_causes.size(); ++c) {
      r.dead_letter_causes[c] +=
          k->dead_letters(static_cast<DeadLetterCause>(c));
    }
  }
  r.per_node.reserve(kernels_.size());
  r.per_node_probes.reserve(kernels_.size());
  for (NodeId n = 0; n < static_cast<NodeId>(kernels_.size()); ++n) {
    Kernel& k = *kernels_[n];
    k.flush_probes();  // close the final dispatch batch of each node
    StatBlock node_stats = k.stats();
    // The link endpoints live in the machine, not the kernel: fold their
    // wire counters into the owning node's block so per-node sums still
    // reconcile against the aggregate.
    if (const am::LinkStats* ls = machine_->link_stats(n)) {
      node_stats.bump(Stat::kLinkDropsInjected, ls->drops_injected);
      node_stats.bump(Stat::kLinkDuplicatesInjected, ls->duplicates_injected);
      node_stats.bump(Stat::kLinkDelaysInjected, ls->delays_injected);
      node_stats.bump(Stat::kLinkRetransmits, ls->retransmits);
      node_stats.bump(Stat::kLinkDupesSuppressed, ls->dupes_suppressed);
      node_stats.bump(Stat::kLinkAcksSent, ls->acks_sent);
    }
    // Likewise for the wire aggregators (batching layer).
    if (const am::WireStats* ws = machine_->wire_stats(n)) {
      node_stats.bump(Stat::kWireFramesSent, ws->frames_sent);
      node_stats.bump(Stat::kWireMsgsCoalesced, ws->msgs_coalesced);
      node_stats.bump(Stat::kWireFlushFill, ws->flush_fill);
      node_stats.bump(Stat::kWireFlushTimer, ws->flush_timer);
      node_stats.bump(Stat::kWireFlushIdle, ws->flush_idle);
      node_stats.bump(Stat::kWireFlushBarrier, ws->flush_barrier);
    }
    r.per_node.push_back(node_stats);
    // Histograms only: the trace's spans stay with the kernel.
    r.per_node_probes.emplace_back() += k.probes();
    r.total += node_stats;
    r.probes += k.probes();
  }
  if constexpr (HAL_CHECK != 0) {
    // Buffer audit: ledger totals, then separate "still reachable in some
    // queue" (in flight) from "reachable from nowhere" (leaked).
    r.buffers.acquired = ledger_.acquired();
    r.buffers.retired = ledger_.retired();
    r.buffers.adopted = ledger_.adopted();
    r.buffers.escaped = ledger_.escaped();
    std::uint64_t in_flight = 0;
    for (const auto& k : kernels_) {
      k->for_each_in_flight_payload([&](const Bytes& b) {
        if (b.capacity() != 0 && ledger_.contains(b.data())) ++in_flight;
      });
      r.buffers.double_retires += k->pool().check_double_retires();
      r.buffers.poison_hits += k->pool().check_poison_hits();
    }
    // Payloads parked inside the link layer (retransmit masters, buffered
    // out-of-order arrivals) are reachable, not leaked.
    machine_->for_each_link_payload([&](const Bytes& b) {
      if (b.capacity() != 0 && ledger_.contains(b.data())) ++in_flight;
    });
    // Frame buffers held open in the wire aggregators are reachable too.
    machine_->for_each_wire_payload([&](const Bytes& b) {
      if (b.capacity() != 0 && ledger_.contains(b.data())) ++in_flight;
    });
    const std::uint64_t outstanding = ledger_.outstanding();
    r.buffers.in_flight = in_flight;
    r.buffers.leaked = outstanding > in_flight ? outstanding - in_flight : 0;
  }
  return r;
}

std::uint64_t Runtime::dead_letters() const {
  std::uint64_t n = 0;
  for (const auto& k : kernels_) n += k->dead_letters();
  return n;
}

std::size_t Runtime::collect_garbage(std::span<const MailAddress> roots) {
  HAL_ASSERT(ran_);  // only a quiescent machine has a stable snapshot

  // Locate an address's current host by walking the forward chain (an
  // in-process shortcut: at quiescence the chains are stable).
  auto locate = [&](const MailAddress& addr) -> std::pair<NodeId, SlotId> {
    NodeId node = addr.home;
    if (node == kInvalidNode) return {kInvalidNode, {}};
    for (NodeId hops = 0; hops <= config_.nodes; ++hops) {
      Kernel& k = *kernels_[node];
      const SlotId ds = k.names().resolve(addr);
      if (!ds.valid()) return {kInvalidNode, {}};
      const LocalityDescriptor& d = k.names().descriptor(ds);
      if (d.local()) {
        return k.actor(d.actor) != nullptr
                   ? std::pair{node, d.actor}
                   : std::pair{kInvalidNode, SlotId{}};
      }
      node = d.remote_node;
    }
    return {kInvalidNode, {}};
  };

  auto key = [](NodeId node, SlotId slot) {
    return (static_cast<std::uint64_t>(node) << 32) | slot.index;
  };

  // Mark: BFS from the roots through held addresses.
  std::unordered_set<std::uint64_t> marked;
  std::vector<MailAddress> frontier(roots.begin(), roots.end());
  while (!frontier.empty()) {
    const MailAddress addr = frontier.back();
    frontier.pop_back();
    const auto [node, slot] = locate(addr);
    if (node == kInvalidNode) continue;
    if (!marked.insert(key(node, slot)).second) continue;
    kernels_[node]->actor(slot)->impl->trace_refs(
        [&frontier](const MailAddress& ref) { frontier.push_back(ref); });
  }

  // Sweep: reclaim every unmarked actor on every node.
  std::size_t reclaimed = 0;
  for (NodeId n = 0; n < config_.nodes; ++n) {
    std::vector<SlotId> dead;
    kernels_[n]->for_each_actor([&](SlotId slot, ActorRecord&) {
      if (!marked.contains(key(n, slot))) dead.push_back(slot);
    });
    for (const SlotId slot : dead) {
      kernels_[n]->reap_actor(slot);
      ++reclaimed;
    }
  }
  return reclaimed;
}

std::vector<obs::Span> Runtime::trace_events() const {
  std::vector<obs::Span> spans;
  for (const auto& k : kernels_) {
    const std::vector<obs::Span>& node = k->probes().spans();
    spans.insert(spans.end(), node.begin(), node.end());
  }
  return spans;
}

std::optional<std::size_t> Runtime::write_trace(const std::string& path) const {
  const std::vector<obs::Span> spans = trace_events();
  std::ofstream out(path);
  obs::write_chrome_trace(out, spans);
  out.close();
  if (out.fail()) return std::nullopt;  // not opened, or a write failed
  return spans.size();
}

}  // namespace hal
