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
      detector_(workers_n_),
      epoch_(std::chrono::steady_clock::now()),
      due_(nodes, 0) {
  mailboxes_.reserve(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    mailboxes_.push_back(std::make_unique<MpscQueue<Packet>>());
    slots_[n].id = n;
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
    // deadline is published at the end of its quantum (run_node); bootstrap
    // masters are seen by the quantum run()'s priming sweep gives the node.
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

void MnMachine::post_and_schedule(Packet p) {
  // Mailbox push first, then the run token: a consumer that acquires the
  // token is guaranteed to see the packet. The send is counted before the
  // packet becomes visible, so a checker that reads sent == handled knows
  // no packet is hiding in a mailbox. Any wakeup stays with schedule().
  const NodeId dst = p.dst;
  detector_.note_sent(participant());
  mailboxes_[dst]->push(std::move(p));
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
  // Off-pool callers are the bootstrap thread before run() (Machine::send's
  // contract): their packets wait in the mailbox for the priming sweep.
  if (tl_worker_ < 0) return;
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
  HAL_DASSERT(tl_worker_ >= 0);
  const auto self = static_cast<std::uint32_t>(tl_worker_);
  detector_.note_sent(self);
  // Keep the node where its traffic originates (locality); thieves
  // rebalance from the top of the deque.
  workers_[self]->local.push_bottom(&s);
  maybe_wake_thief();
}

void MnMachine::maybe_wake_thief() noexcept {
  // Advisory only: a parked worker is roused to come steal. Correctness
  // never depends on this wake — a token in our own deque is consumed by us
  // if nobody steals it — so a missed counter or flag read costs
  // throughput, nothing else. A searcher is already polling every deque.
  if (searchers_.load(std::memory_order_relaxed) != 0) return;
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
  for (auto& rec : workers_) {
    // claim_wake: exactly one sender takes the armed flag per park, and
    // whoever takes it must notify (the sleeper's predicate sees the bumped
    // generation under the mutex).
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
    MpscQueue<Packet>& mailbox = *mailboxes_[n];
    std::size_t drained = 0;
    while (drained < kDrainQuantum) {
      auto p = mailbox.pop();
      if (!p.has_value()) break;
      dispatch_arrival(n, std::move(*p));
      // The handled epoch counts the *physical* packet whether or not the
      // link layer suppressed it as a duplicate, symmetric with the
      // note_sent in post_and_schedule.
      detector_.note_handled(w);
      ++drained;
    }
    std::size_t stepped = 0;
    while (stepped < kStepQuantum && c.step()) ++stepped;
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
    more = !mailbox.empty() || c.has_work();
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
        more = !mailbox.empty() || c.has_work();
      }
    }
    // When this node next needs a quantum although nothing is sent to it:
    // its client's service deadline (an idle client's on_idle re-run, e.g.
    // the balancer's backed-off repoll) or its link's next retransmission,
    // whichever is sooner.
    SimTime due = c.service_deadline();
    if (links_active()) {
      // Fire this node's retransmission timer if due (on its own stream, so
      // endpoint state stays single-threaded).
      LinkEndpoint& ep = link(n);
      SimTime retx = ep.next_deadline();
      if (retx != 0 && retx <= now(n)) retx = ep.on_timer(now(n), *this);
      // Unacked masters are one epoch-counted unit per node, sent before
      // its deadline is published and handled once every master is acked:
      // sent == handled then also proves no link owes a retransmission.
      const bool unacked = retx != 0;
      if (unacked && !s.link_unit) detector_.note_sent(w);
      if (!unacked && s.link_unit) detector_.note_handled(w);
      s.link_unit = unacked;
      if (unacked && (due == 0 || retx < due)) due = retx;
    }
    if (due != s.due) publish_due(s, due);
  }
  if (more) {
    s.token.requeue();
    enqueue(s);
  } else if (s.token.retire_or_requeue()) {
    // A sender saw us running and flagged new work mid-quantum (the retire
    // CAS lost to kRunningNotified — see RunTokenCell): re-publish.
    enqueue(s);
  }
  detector_.note_handled(w);  // the run token this quantum consumed
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

void MnMachine::publish_due(NodeSlot& s, SimTime at) {
  // The token holder's copy spares the mutex for quanta whose time did not
  // change (the common case: nothing pending at all).
  s.due = at;
  std::lock_guard lock(due_mutex_);
  due_[s.id] = at;
  // A later time leaves next_due_ early; the next fire_due recomputes it.
  const SimTime hint = next_due_.load(std::memory_order_relaxed);
  if (at != 0 && (hint == 0 || at < hint)) {
    next_due_.store(at, std::memory_order_relaxed);
  }
}

void MnMachine::fire_due() {
  const SimTime hint = next_due_.load(std::memory_order_relaxed);
  if (hint == 0 || hint > now(0)) return;
  std::lock_guard lock(due_mutex_);
  const SimTime t = now(0);
  SimTime next = 0;
  for (NodeId n = 0; n < node_count(); ++n) {
    const SimTime at = due_[n];
    if (at == 0) continue;
    // schedule() is idempotent while a token is pending. A scheduled node
    // keeps its entry until its quantum publishes again, so next_due_
    // stays no later than every entry.
    if (at <= t) schedule(n);
    if (next == 0 || at < next) next = at;
  }
  next_due_.store(next, std::memory_order_relaxed);
}

void MnMachine::worker_loop(std::uint32_t w) {
  WorkerRec& rec = *workers_[w];
  tl_worker_ = static_cast<int>(w);
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
    // fires from here on is caught by the park predicate.
    std::uint64_t gen;
    {
      std::lock_guard lock(rec.mutex);
      gen = rec.wake_gen;
    }
    if (wake_epoch_.load(std::memory_order_acquire) != rec.sweep_epoch) {
      continue;  // a wake epoch landed after our sweep: re-sweep, don't park
    }

    // Leave the active set, then ask the detector whether the whole machine
    // is done (the proof in termination.hpp: the last worker to deactivate
    // is guaranteed a passing double scan). kBusy is always safe: a token
    // is run by the worker whose deque holds it (a thief wake only speeds
    // that up), and a node that owes a retransmission keeps its link unit
    // outstanding and its time in next_due_, which bounds the park below.
    detector_.deactivate(w);
    switch (detector_.check([this] { return tokens(); })) {
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
    park(rec, gen, next_due_.load(std::memory_order_relaxed));
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    detector_.activate(w);
    if (!stop_requested()) fire_due();
  }
}

void MnMachine::park(WorkerRec& rec, std::uint64_t gen, SimTime deadline) {
  std::unique_lock lock(rec.mutex);
  for (;;) {
    // Re-arm before EVERY predicate evaluation (am/park_handshake.hpp): the
    // armed flag is how maybe_wake_thief finds a parked worker, and a
    // worker that waits again after a spurious wake-up must be findable.
    rec.sleeping.arm();
    if (stop_requested() || rec.wake_gen != gen) break;
    if (deadline != 0) {
      if (rec.cv.wait_until(lock,
                            epoch_ + std::chrono::nanoseconds(deadline)) ==
          std::cv_status::timeout) {
        break;  // a deadline (link timer, service poll) is due
      }
    } else {
      rec.cv.wait(lock);
    }
  }
  rec.sleeping.disarm();
}

void MnMachine::run() {
  HAL_ASSERT(!ran_);
  ran_ = true;
  std::vector<std::jthread> threads;
  threads.reserve(workers_n_);
  for (std::uint32_t w = 0; w < workers_n_; ++w) {
    threads.emplace_back([this, w] { worker_loop(w); });
  }
  // jthread joins on destruction; run() returns once every worker exits.
}

}  // namespace hal::am
