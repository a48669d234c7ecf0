// Runtime facade: boots P kernels over a machine and runs to quiescence.
//
// Plays the role of the paper's front-end on the partition manager (Fig. 1):
// it "loads the program" (registers behaviours into the shared registry),
// seeds the initial actors, starts the machine, and detects termination.
//
// Typical use:
//
//   hal::RuntimeConfig cfg;
//   cfg.nodes = 8;
//   hal::Runtime rt(cfg);
//   rt.load<Worker>();
//   auto root = rt.spawn<Worker>(0);
//   rt.inject<&Worker::start>(root, 42);
//   rt.run();
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "am/machine.hpp"
#include "check/affinity.hpp"
#include "check/buffer_lifecycle.hpp"
#include "obs/run_report.hpp"
#include "runtime/context.hpp"
#include "runtime/front_end.hpp"
#include "runtime/kernel.hpp"
#include "runtime/registry.hpp"

namespace hal {

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// "Load the program": make behaviour B instantiable on every node.
  template <typename B>
  BehaviorId load() {
    HAL_ASSERT(!ran_);  // loading happens before execution, like the paper's
                        // front-end loading an executable into the kernels
    return registry_.register_behavior<B>();
  }

  // --- Bootstrap (before run()) ----------------------------------------------
  /// Create an actor of B on `node`; returns its ordinary mail address.
  template <typename B>
  MailAddress spawn(NodeId node = 0) {
    HAL_ASSERT(node < config_.nodes && !ran_);
    // Bootstrap runs on the caller's thread; for the affinity checker it is
    // executing "as" the target node until the machine starts.
    check::ScopedExecutionNode scope(node);
    return kernels_[node]->create_local(registry_.id_of<B>());
  }

  /// Send a message to `addr` invoking Method (usable only at bootstrap).
  template <auto Method, typename... Args>
  void inject(const MailAddress& addr, Args&&... args) {
    HAL_ASSERT(!ran_);
    Message m;
    m.dest = addr;
    m.selector = sel<Method>();
    check::ScopedExecutionNode scope(addr.home);
    codec::encode_args(m, std::forward<Args>(args)...);
    // Inject on the home node so bootstrap delivery is a local enqueue.
    kernels_[addr.home]->send_message(std::move(m));
  }

  // --- Untyped bootstrap (language front-ends) --------------------------------
  /// Mutable registry access for front-ends that register behaviours by
  /// name + factory (dynamic loading). Before run() only.
  BehaviorRegistry& registry() {
    HAL_ASSERT(!ran_);
    return registry_;
  }
  /// Spawn by behaviour id (registered via registry().register_factory).
  MailAddress spawn_id(BehaviorId behavior, NodeId node = 0) {
    HAL_ASSERT(node < config_.nodes && !ran_);
    check::ScopedExecutionNode scope(node);
    return kernels_[node]->create_local(behavior);
  }
  /// Inject a fully built message (selector/args already encoded).
  void inject_message(Message m) {
    HAL_ASSERT(!ran_ && m.dest.valid());
    const NodeId home = m.dest.home;
    check::ScopedExecutionNode scope(home);
    kernels_[home]->send_message(std::move(m));
  }

  /// Execute until quiescence (no messages in flight, all mailboxes empty,
  /// no outstanding continuations).
  void run();

  // --- Results ------------------------------------------------------------------
  /// The one results entry point: machine kind, node count, makespan,
  /// per-node + aggregate counters, and per-probe latency histograms, with
  /// deterministic JSON serialization (obs::RunReport::to_json). Makespan is
  /// virtual ns under SimMachine and measured wall ns of run() under
  /// MnMachine.
  obs::RunReport report();

  /// Count and retire everything still buffered inside the kernels
  /// (undelivered mail, parked messages, unfilled joins), releasing payload
  /// buffers back to the pools and returning held work tokens. Idempotent —
  /// the destructor calls it too — so a test can invoke it early to assert
  /// on the counts. After a clean run to quiescence both counts are zero.
  DrainStats shutdown_drain();

  std::uint64_t dead_letters() const;

  /// Console output collected by the front-end, ordered by virtual emission
  /// time (Context::print). Consumes the log.
  std::vector<FrontEnd::Line> console() { return front_end_.take_ordered(); }

  /// Distributed garbage collection (the paper's §9 future work, enabled by
  /// locality descriptors): mark every actor reachable from `roots` by
  /// following held mail addresses (ActorBase::trace_refs) across all
  /// nodes, then reclaim the rest — including cross-node cycles, which
  /// per-node reference counting could never collect. Callable only on a
  /// quiescent machine (after run()); returns the number of actors
  /// reclaimed. A reclaimed actor's descriptors are settled as on
  /// termination: released if it never left its birthplace and has no
  /// alias, kept as dead-letter sinks otherwise.
  std::size_t collect_garbage(std::span<const MailAddress> roots);

  /// The probe spans recorded so far (empty unless config.trace): node 0's
  /// in the order it recorded them, then node 1's, and so on.
  std::vector<obs::Span> trace_events() const;
  /// Write trace_events() as a Chrome trace (chrome://tracing / Perfetto,
  /// obs::write_chrome_trace). Returns the number of events written, or
  /// nothing when the file cannot be opened or written.
  std::optional<std::size_t> write_trace(const std::string& path) const;

  NodeId nodes() const noexcept { return config_.nodes; }
  const RuntimeConfig& config() const noexcept { return config_; }
  Kernel& kernel(NodeId node) {
    HAL_ASSERT(node < config_.nodes);
    return *kernels_[node];
  }
  am::Machine& machine() noexcept { return *machine_; }

  /// Test/inspection helper: locate an actor by following forward pointers
  /// from its home node and return its behaviour object, typed. Returns
  /// nullptr if it cannot be found or has another type. (In-process
  /// convenience only — actors are never shared across nodes at runtime.)
  template <typename B>
  B* find_behavior(const MailAddress& addr) {
    NodeId node = addr.home;
    for (NodeId hops = 0; hops <= config_.nodes; ++hops) {
      Kernel& k = *kernels_[node];
      const SlotId ds = k.names().resolve(addr);
      if (!ds.valid()) return nullptr;
      const LocalityDescriptor& d = k.names().descriptor(ds);
      if (d.local()) {
        ActorRecord* rec = k.actor(d.actor);
        return rec == nullptr ? nullptr : dynamic_cast<B*>(rec->impl.get());
      }
      node = d.remote_node;
    }
    return nullptr;
  }

 private:
  RuntimeConfig config_;
  BehaviorRegistry registry_;
  /// hal::check: process-wide payload-buffer ledger (empty shell when the
  /// checker is compiled out). Shared by every kernel's pool because buffers
  /// recycle across nodes (sender acquires, receiver retires).
  check::BufferLedger ledger_;
  std::unique_ptr<am::Machine> machine_;
  std::vector<std::unique_ptr<Kernel>> kernels_;
  FrontEnd front_end_;
  bool ran_ = false;
  SimTime wall_ns_ = 0;
};

}  // namespace hal
