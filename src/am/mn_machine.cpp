#include "am/mn_machine.hpp"

#include <algorithm>
#include <bit>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "check/affinity.hpp"

namespace hal::am {

thread_local int MnMachine::tl_worker_ = -1;

namespace {

std::uint32_t clamp_workers(std::uint32_t requested, NodeId nodes) {
  std::uint32_t w = requested;
  if (w == 0) {
    w = std::thread::hardware_concurrency();
    if (w == 0) w = 2;  // hardware_concurrency may be unknown
  }
  if (w > nodes) w = nodes;
  return w == 0 ? 1 : w;
}

/// Spin-wait hint between two search attempts: a few PAUSEs on x86-64
/// (they also yield the core's pipeline to an SMT sibling), a yield
/// elsewhere — the same portable-fallback shape as FastClock.
void search_pause() noexcept {
#if defined(__x86_64__)
  constexpr int kPauses = 8;
  for (int i = 0; i < kPauses; ++i) _mm_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

MnMachine::MnMachine(NodeId nodes, CostModel costs, std::uint32_t workers)
    : Machine(nodes, costs),
      workers_n_(clamp_workers(workers, nodes)),
      max_searchers_(std::max<std::uint32_t>(1, workers_n_ / 2)),
      slots_(nodes),
      exec_(*this, /*participants=*/workers_n_, /*mailboxes=*/true),
      epoch_(std::chrono::steady_clock::now()) {
  for (NodeId n = 0; n < nodes; ++n) {
    slots_[n].id = n;
    slots_[n].home = n % workers_n_;
  }
  // Each node holds at most one run token machine-wide, so a deque sized to
  // the node count can never overflow even if every token lands on one
  // worker.
  const std::size_t cap =
      std::bit_ceil(static_cast<std::size_t>(nodes) + 1);
  workers_.reserve(workers_n_);
  for (std::uint32_t w = 0; w < workers_n_; ++w) {
    workers_.push_back(std::make_unique<WorkerRec>(
        w, cap, 0x6d6e5eedULL ^ (static_cast<std::uint64_t>(w) << 32)));
  }
}

MnMachine::~MnMachine() = default;

void MnMachine::configure_faults(const FaultConfig& cfg) {
  FaultConfig scrubbed = cfg;
  scrubbed.delay = 0.0;
  Machine::configure_faults(scrubbed);
  std::lock_guard lock(timers_mutex_);
  timer_deadlines_.clear();
}

void MnMachine::send(Packet p) {
  check_packet(p);
  p.stamp = now(p.src);
  if (batch_eligible(p)) {
    // Coalesced path: accumulate in the per-destination frame. Runs on the
    // source node's execution stream (its current worker, or the bootstrap
    // thread before run()), so the aggregator needs no locking; the node's
    // own quantum flushes on fill, holdoff expiry and the busy->idle
    // transition (run_node).
    const SimTime t = p.stamp;
    batch_append(std::move(p), t);
    return;
  }
  // Unbatchable traffic flushes the channel's open frame first so
  // per-channel FIFO order holds across the batched/unbatched boundary.
  if (batching_active() && p.src != p.dst) batch_barrier(p.src, p.dst);
  if (links_active() && p.src != p.dst) {
    // Faulty wire: sequence + file a retransmit master; the link calls back
    // into link_transmit for every physical copy that survives the
    // injector. Runs on the source node's execution stream (its current
    // worker), so the endpoint needs no locking. The node's retransmission
    // deadline is published at the end of its quantum (update_link_timer);
    // bootstrap masters are covered by the priming sweep in run().
    const NodeId src = p.src;
    link(src).send_data(std::move(p), now(src), *this);
    return;
  }
  post_and_schedule(std::move(p));
}

void MnMachine::link_transmit(Packet p,
                              [[maybe_unused]] SimTime extra_delay_ns) {
  HAL_DASSERT(extra_delay_ns == 0);  // delay scrubbed in configure_faults
  post_and_schedule(std::move(p));
}

void MnMachine::link_deliver(Packet p) {
  // Frames decode into a burst of records here; plain packets pass through.
  const NodeId dst = p.dst;
  deliver_to_client(dst, std::move(p));
}

void MnMachine::post_and_schedule(Packet p) {
  // Mailbox push first (with its note_sent), then the run token: a consumer
  // that acquires the token is guaranteed to see the packet.
  const NodeId dst = p.dst;
  exec_.post(std::move(p), participant());
  schedule(dst);
}

void MnMachine::charge(NodeId node, SimTime /*ns*/) {
  HAL_ASSERT(node < node_count());
}

SimTime MnMachine::now(NodeId node) const {
  HAL_ASSERT(node < node_count());
  return static_cast<SimTime>(clock_.now_ns());
}

void MnMachine::schedule(NodeId node) {
  // The Idle/Queued/Running/RunningNotified transition logic lives in
  // RunTokenCell::publish (am/run_token.hpp); a true return means this
  // thread won the Idle→Queued race and owes the machine one enqueue.
  NodeSlot& s = slots_[node];
  if (s.token.publish()) enqueue(s);
}

void MnMachine::enqueue(NodeSlot& s) {
  // Run tokens are epoch-counted units exactly like packets: note_sent
  // before the token becomes visible, note_handled when its quantum ends
  // (run_node). sent == handled therefore proves no token hides in any run
  // queue — the detector's double scan stays exact at P >> N.
  exec_.detector().note_sent(participant());
  const int self = tl_worker_;
  if (self >= 0) {
    // On-pool: keep the node where its traffic originates (locality);
    // thieves rebalance from the top of the deque.
    workers_[static_cast<std::size_t>(self)]->local.push_bottom(&s);
    maybe_wake_thief();
  } else {
    // Off-pool (bootstrap sends before run()): hand the token to the node's
    // home worker through its MPSC inject queue.
    WorkerRec& rec = *workers_[s.home];
    rec.inject.push(s.id);
    wake_worker(rec);
  }
}

void MnMachine::wake_worker(WorkerRec& rec) noexcept {
  // The seq_cst RMW handshake (proof in am/park_handshake.hpp): the push
  // above this call is visible to the wait predicate, and a notify under
  // the mutex cannot land between predicate check and park.
  if (rec.sleeping.claim_wake()) {
    std::lock_guard lock(rec.mutex);
    rec.cv.notify_one();
  }
}

void MnMachine::maybe_wake_thief() noexcept {
  // Advisory only: a parked worker is roused to come steal. Correctness
  // never depends on this wake — a token in our own deque is consumed by us
  // if nobody steals it — so a missed counter or flag read costs
  // throughput, nothing else. A searcher is already polling every deque.
  if (searchers_.load(std::memory_order_relaxed) != 0) return;
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
  for (auto& rec : workers_) {
    // claim_wake is wake_worker's exchange: exactly one sender takes the
    // armed flag per park, and whoever takes it must notify (the sleeper's
    // predicate sees the bumped generation under the mutex).
    if (rec->sleeping.armed_hint() && rec->sleeping.claim_wake()) {
      {
        std::lock_guard lock(rec->mutex);
        ++rec->wake_gen;
      }
      rec->cv.notify_one();
      return;
    }
  }
}

void MnMachine::wake_hook() noexcept {
  // The global run state changed (stop, or the balancer's work hint went
  // positive — the kernel keeps that hint only when balancing is on).
  // Bump the wake epoch so idle nodes re-run on_idle (the balancer re-poll),
  // then wake every worker.
  wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
  for (auto& rec : workers_) {
    {
      std::lock_guard lock(rec->mutex);
      ++rec->wake_gen;
    }
    rec->cv.notify_all();
  }
}

std::uint64_t MnMachine::steals() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& rec : workers_) {
    sum += rec->steals.load(std::memory_order_relaxed);
  }
  return sum;
}

void MnMachine::count_steal(WorkerRec& rec) noexcept {
  // Only the owning worker writes its count: a plain load and store on its
  // own line, not an RMW on a line every thief shares.
  rec.steals.store(rec.steals.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
}

MnMachine::NodeSlot* MnMachine::next_runnable(WorkerRec& rec) {
  // Tokens injected off-pool surface into the owner's deque first so they
  // become stealable like everything else.
  while (auto n = rec.inject.pop()) {
    rec.local.push_bottom(&slots_[*n]);
  }
  if (NodeSlot* s = rec.local.pop_bottom()) return s;
  if (workers_n_ > 1) {
    // Random victims first (Kumar-style), then one deterministic sweep so
    // an available token is never missed by bad luck alone.
    for (std::uint32_t i = 0; i < workers_n_; ++i) {
      const auto v =
          static_cast<std::uint32_t>(rec.rng.below(workers_n_));
      if (v == rec.index) continue;
      if (NodeSlot* s = workers_[v]->local.steal_top()) {
        count_steal(rec);
        return s;
      }
    }
    for (std::uint32_t v = 0; v < workers_n_; ++v) {
      if (v == rec.index) continue;
      if (NodeSlot* s = workers_[v]->local.steal_top()) {
        count_steal(rec);
        return s;
      }
    }
  }
  return nullptr;
}

MnMachine::NodeSlot* MnMachine::search(WorkerRec& rec) {
  if (workers_n_ < 2) return nullptr;  // nobody to steal from
  std::uint32_t n = searchers_.load(std::memory_order_relaxed);
  do {
    if (n >= max_searchers_) return nullptr;
  } while (!searchers_.compare_exchange_weak(n, n + 1,
                                             std::memory_order_relaxed));
  // Still active in the detector's eyes, so termination waits for this
  // window to close; the window is clock-bounded, so it always does.
  const SimTime until = clock_.now_ns() + kSearchNs;
  NodeSlot* found = nullptr;
  while (!stop_requested() &&
         wake_epoch_.load(std::memory_order_acquire) == rec.sweep_epoch) {
    search_pause();
    found = next_runnable(rec);
    if (found != nullptr || clock_.now_ns() >= until) break;
  }
  // The last searcher to leave with a token wakes one sleeper: nobody else
  // is polling, and work that just fanned out may need another thief.
  if (searchers_.fetch_sub(1, std::memory_order_relaxed) == 1 &&
      found != nullptr) {
    maybe_wake_thief();
  }
  return found;
}

void MnMachine::run_node(NodeSlot& s, std::uint32_t w) {
  const NodeId n = s.id;
  s.token.begin_quantum();
  bool more;
  {
    // This worker IS node n for the duration of the quantum (one execution
    // stream per node); the seq_cst state RMWs carry the happens-before
    // edge from the previous owner, so every per-node structure is handed
    // over race-free.
    check::ScopedExecutionNode scope(n);
    NodeClient& c = client(n);
    c.on_quantum_begin();
    const std::size_t drained = exec_.drain(n, *this, w, kDrainQuantum);
    const std::size_t stepped = exec_.step_quantum(n, kStepQuantum);
    if (drained + stepped > 0) s.idle_notified = false;
    // Holdoff expiry rides the node's own quantum (the frame owner's
    // stream), like the link retransmission timer below; a frame never
    // outlives its deadline by more than one quantum of its runnable node.
    // Gated on an open frame existing: a busy receiver with nothing batched
    // must not pay a clock read per quantum.
    if (batching_active() && frame_deadline(n) != 0) {
      flush_due_frames(n, now(n));
    }
    // A due service deadline re-arms on_idle: the client asked to be
    // serviced at that time (e.g. the balancer's backed-off repoll).
    if (s.idle_notified) {
      const SimTime sd = c.service_deadline();
      if (sd != 0 && sd <= now(n)) s.idle_notified = false;
    }
    more = !exec_.mailbox_empty(n) || c.has_work();
    if (!more) {
      // Busy→idle: ship held frames before the node's run token is retired,
      // so a receiver never waits out a holdoff that outlived the sender's
      // burst — and so no idle node ever holds a frame (termination).
      if (batching_active()) flush_frames(n, FlushCause::kIdle);
      // Run on_idle once per idle spell, and once more per wake epoch
      // (work-hint edge) so the balancer re-polls.
      const std::uint64_t e = wake_epoch_.load(std::memory_order_acquire);
      if (!s.idle_notified || s.idle_epoch != e) {
        s.idle_notified = true;
        s.idle_epoch = e;
        c.on_idle();  // may send packets (load-balancer poll)
        // on_idle's own sends (a steal poll, say) must not sit in a frame
        // on an idle node either.
        if (batching_active()) flush_frames(n, FlushCause::kIdle);
        more = !exec_.mailbox_empty(n) || c.has_work();
      }
    }
    if (links_active()) {
      // Fire this node's retransmission timer if due (on its own stream, so
      // endpoint state stays single-threaded), then publish the next
      // deadline so idle workers know how long the machine still owes wire
      // work.
      const SimTime due = exec_.link_deadline(n);
      if (due != 0 && due <= now(n)) {
        exec_.fire_link_timer(n, now(n), *this);
      }
      update_link_timer(n);
    }
    // Publish/retire the node's service deadline so idle workers know when
    // an otherwise-idle client wants its on_idle re-run (backed-off repoll).
    update_service_timer(s, c);
  }
  if (more) {
    s.token.requeue();
    enqueue(s);
  } else if (s.token.retire_or_requeue()) {
    // A sender saw us running and flagged new work mid-quantum (the retire
    // CAS lost to kRunningNotified — see RunTokenCell): re-publish.
    enqueue(s);
  }
  exec_.detector().note_handled(w);  // the run token this quantum consumed
}

void MnMachine::sweep_home_nodes(WorkerRec& rec) {
  const bool prime = !rec.primed;
  rec.primed = true;
  // After priming, a sweep only matters while the work hint is positive
  // (idle nodes poll only then — their on_idle is a no-op otherwise, so
  // skipping the quanta entirely is behavior-equivalent and O(P) cheaper).
  if (!prime && work_hint() <= 0) return;
  for (NodeId n = rec.index; n < node_count();
       n += static_cast<NodeId>(workers_n_)) {
    if (prime || slots_[n].token.idle()) {
      schedule(n);
    }
  }
}

void MnMachine::update_link_timer(NodeId node) {
  const SimTime deadline = exec_.link_deadline(node);
  std::lock_guard lock(timers_mutex_);
  if (deadline == 0) {
    timer_deadlines_.erase(node);
  } else {
    timer_deadlines_[node] = deadline;
  }
}

SimTime MnMachine::earliest_link_deadline() {
  if (!links_active()) return 0;
  std::lock_guard lock(timers_mutex_);
  SimTime best = 0;
  for (const auto& [node, deadline] : timer_deadlines_) {
    if (best == 0 || deadline < best) best = deadline;
  }
  return best;
}

void MnMachine::update_service_timer(NodeSlot& s, NodeClient& c) {
  // The published flag is owned by the token holder, so quanta for clients
  // that never request servicing (the common case) skip the mutex entirely.
  const SimTime deadline = c.service_deadline();
  if (deadline == 0 && !s.service_published) return;
  std::lock_guard lock(timers_mutex_);
  if (deadline == 0) {
    service_deadlines_.erase(s.id);
    s.service_published = false;
  } else {
    service_deadlines_[s.id] = deadline;
    s.service_published = true;
  }
}

SimTime MnMachine::earliest_service_deadline() {
  std::lock_guard lock(timers_mutex_);
  SimTime best = 0;
  for (const auto& [node, deadline] : service_deadlines_) {
    if (best == 0 || deadline < best) best = deadline;
  }
  return best;
}

void MnMachine::schedule_due_service() {
  const SimTime t = now(0);
  std::vector<NodeId> due;
  {
    std::lock_guard lock(timers_mutex_);
    for (const auto& [node, deadline] : service_deadlines_) {
      if (deadline <= t) due.push_back(node);
    }
  }
  // The nodes' own quanta re-run on_idle (run_node clears idle_notified when
  // the deadline has passed) and refresh the table entries; schedule() is
  // idempotent while a token is pending.
  for (const NodeId n : due) schedule(n);
}

void MnMachine::schedule_due_links() {
  const SimTime t = now(0);
  std::vector<NodeId> due;
  {
    std::lock_guard lock(timers_mutex_);
    for (const auto& [node, deadline] : timer_deadlines_) {
      if (deadline <= t) due.push_back(node);
    }
  }
  // The nodes' own quanta fire the timers (and refresh the table entries);
  // schedule() is idempotent while a token is pending.
  for (const NodeId n : due) schedule(n);
}

void MnMachine::worker_loop(std::uint32_t w) {
  WorkerRec& rec = *workers_[w];
  tl_worker_ = static_cast<int>(w);
  TerminationDetector& detector = exec_.detector();
  while (!stop_requested()) {
    const std::uint64_t epoch = wake_epoch_.load(std::memory_order_acquire);
    if (epoch != rec.sweep_epoch) {
      rec.sweep_epoch = epoch;
      sweep_home_nodes(rec);
    }
    NodeSlot* s = next_runnable(rec);
    if (s == nullptr) s = search(rec);
    if (s != nullptr) {
      run_node(*s, w);
      continue;
    }

    // Idle transition. Snapshot the wake generation first: any wake that
    // fires from here on is caught by the wait predicates below.
    std::uint64_t gen;
    {
      std::lock_guard lock(rec.mutex);
      gen = rec.wake_gen;
    }
    if (!rec.inject.empty()) continue;
    if (wake_epoch_.load(std::memory_order_acquire) != rec.sweep_epoch) {
      continue;  // a wake epoch landed after our sweep: re-sweep, don't park
    }

    SimTime deadline = earliest_link_deadline();
    // A pending service deadline (backed-off repoll) bounds the park too, so
    // an idle node's deferred on_idle fires on time even under faults.
    const SimTime svc = earliest_service_deadline();
    if (deadline != 0) {
      if (svc != 0 && svc < deadline) deadline = svc;
      // Unacked retransmit masters somewhere: the machine still owes wire
      // work, so this worker must NOT join the idle set — staying active
      // keeps the detector's double scan returning kBusy, which is what
      // makes loss unable to fake quiescence (the unacked-master rule,
      // lifted from nodes to the worker pool). Park with the earliest
      // deadline; on timeout, reschedule the due nodes so their quanta fire
      // the retransmission timers on their own streams.
      sleepers_.fetch_add(1, std::memory_order_relaxed);
      park(rec, gen, deadline);
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      if (!stop_requested()) {
        schedule_due_links();
        schedule_due_service();
      }
      continue;
    }

    // Leave the active set, then ask the detector whether the whole machine
    // is done (the proof in termination.hpp: the last worker to deactivate
    // is guaranteed a passing double scan). kBusy is always safe: a token
    // or packet push wakes us through the inject/thief handshakes.
    detector.deactivate(w);
    switch (detector.check([this] { return tokens(); })) {
      case TerminationDetector::Verdict::kQuiescent:
        stop();  // wake_hook rouses every parked worker; they see stop
        return;
      case TerminationDetector::Verdict::kStalled:
        HAL_PANIC(
            "MnMachine: all workers idle with work tokens outstanding "
            "(protocol deadlock?)");
      case TerminationDetector::Verdict::kBusy:
        break;
    }
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    // Timed park when a service deadline is pending (backed-off balancer
    // repoll fires even with no other traffic), untimed otherwise.
    park(rec, gen, svc);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    detector.activate(w);
    if (!stop_requested()) schedule_due_service();
  }
}

void MnMachine::park(WorkerRec& rec, std::uint64_t gen, SimTime deadline) {
  std::unique_lock lock(rec.mutex);
  for (;;) {
    // Re-arm before EVERY predicate evaluation: the inject queue is a
    // Vyukov MPSC, so a completed push can be unreachable behind another
    // producer's half-finished one and a single post-wakeup check could read
    // "empty" with `sleeping` already cleared — the gap-closing producer
    // would then skip its notify and this worker would sleep over a live
    // run token. See am/park_handshake.hpp for the full happens-before
    // argument.
    rec.sleeping.arm();
    if (!rec.inject.empty() || stop_requested() || rec.wake_gen != gen) break;
    if (deadline != 0) {
      if (rec.cv.wait_until(lock,
                            epoch_ + std::chrono::nanoseconds(deadline)) ==
          std::cv_status::timeout) {
        break;  // deadline work (link timer, service poll) is due
      }
    } else {
      rec.cv.wait(lock);
    }
  }
  rec.sleeping.disarm();
}

void MnMachine::run() {
  std::vector<std::jthread> threads;
  threads.reserve(workers_n_);
  for (std::uint32_t w = 0; w < workers_n_; ++w) {
    threads.emplace_back([this, w] { worker_loop(w); });
  }
  // jthread joins on destruction; run() returns once every worker exits.
}

}  // namespace hal::am
