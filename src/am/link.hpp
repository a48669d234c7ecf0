// Reliable-link layer: sequence numbers, cumulative acks, retransmission,
// and duplicate suppression over a faulty wire (ROADMAP item 3).
//
// One `LinkEndpoint` per node, owned by the machine and touched only from
// that node's execution stream — no locks, same discipline as every other
// per-node structure. Each directed channel (self -> dst) numbers its data
// packets from 1 and keeps a pool-cloned *master* copy of every unacked
// packet; each (re)transmission ships a fresh clone so the wire can mangle
// its copy freely. The receiving endpoint delivers in sequence order,
// buffers early arrivals, suppresses duplicates (releasing their payloads
// back to the pool), and answers with cumulative acks. Acks themselves ride
// the faulty wire unsequenced: a lost ack is recovered when the retransmit
// arrives, is recognised as a duplicate, and is re-acked.
//
// The guarantee composes to effectively-once, in-order delivery per
// channel: at-least-once from retransmission, at-most-once from the
// sequence-layer dedupe. Layers above (`Kernel::handle` and everything it
// dispatches to — FIR chases, bulk grants, join continuations, the
// termination detector's epoch counts) therefore see the same perfect
// network they were written against.
//
// Buffer-ledger accounting is conservative on every path: masters and wire
// clones come from the owning node's pool (`NodeClient::link_pool`, or a
// private fallback for bare test clients) and every copy is released
// exactly once — at drop time on the sender, at dedupe time on the
// receiver, at ack time for masters, or by `drain()` at teardown.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "am/fault.hpp"
#include "am/packet.hpp"
#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace hal::am {

/// Per-endpoint wire counters, folded into the owning node's `StatBlock`
/// by `Runtime::report()`. Injection counters (drops/duplicates/delays)
/// tally what the fault plane did to outbound packets; retransmits,
/// suppressed duplicates, and acks tally the recovery work.
struct LinkStats {
  std::uint64_t drops_injected = 0;
  std::uint64_t duplicates_injected = 0;
  std::uint64_t delays_injected = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dupes_suppressed = 0;
  std::uint64_t acks_sent = 0;
};

/// How an endpoint reaches the wire and the client. `Machine` is the sink:
/// each executor implements `link_transmit`, which puts one physical copy
/// on the wire (Sim: a delivery event at now + wire latency + extra_delay;
/// Mn: a mailbox push with the sent-epoch bump), and the base's
/// `link_deliver` hands an in-order packet to the destination node's client
/// (`Machine::deliver_to_client`, which decodes frames into records).
class LinkSink {
 public:
  virtual void link_transmit(Packet p, SimTime extra_delay_ns) = 0;
  virtual void link_deliver(Packet p) = 0;

 protected:
  ~LinkSink() = default;
};

class LinkEndpoint {
 public:
  /// Sequence-space rules: link_seq 0 is reserved (it marks unsequenced
  /// control traffic), so the 64-bit counter wraps UINT64_MAX -> 1, and all
  /// ordering uses serial-number arithmetic (RFC 1982 style): `a` precedes
  /// `b` when the signed distance is negative. Exact as long as a channel's
  /// live window — unacked masters plus buffered early arrivals — spans
  /// less than 2^63 sequence numbers, which retransmission bounds and the
  /// in-order delivery contract guarantee by a wide margin.
  static constexpr std::uint64_t seq_next(std::uint64_t s) noexcept {
    return s + 1 == 0 ? 1 : s + 1;
  }
  static constexpr bool seq_before(std::uint64_t a,
                                   std::uint64_t b) noexcept {
    return static_cast<std::int64_t>(a - b) < 0;
  }
  /// Called once by `Machine::configure_faults`. `pool` is the node's
  /// payload pool (nullptr falls back to a private, unbound pool so
  /// machine-level tests work without a kernel).
  void configure(NodeId self, const FaultConfig& cfg, SimTime rto_ns,
                 BufferPool* pool);

  /// Sequence an outbound data packet, file its retransmit master, and put
  /// the first (faulty) transmission on the wire. Must run on the source
  /// node's stream. `now` anchors the retransmission deadline.
  void send_data(Packet p, SimTime now, LinkSink& sink);

  /// Process one physical arrival (data or ack) on the destination node's
  /// stream. May call `link_deliver` zero or more times (an in-order
  /// arrival also releases any buffered successors) and `link_transmit`
  /// for acks.
  void receive(Packet p, LinkSink& sink);

  /// Retransmit every master whose deadline has passed. Returns the next
  /// pending deadline, or 0 when nothing is in flight.
  SimTime on_timer(SimTime now, LinkSink& sink);

  /// Earliest retransmission deadline across all channels (0 = none).
  [[nodiscard]] SimTime next_deadline() const noexcept;

  /// True while any sent packet lacks a cumulative ack. A node with
  /// unacked masters still owes wire work and must not be treated as
  /// terminally idle.
  [[nodiscard]] bool has_unacked() const noexcept { return unacked_ != 0; }

  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }

  /// Release every held payload (retransmit masters, out-of-order buffer)
  /// back to the pool. Caller must be executing as the owning node.
  void drain();

  /// Visit payloads the endpoint still holds — the link layer's share of
  /// the buffer audit's in-flight walk.
  void for_each_pending_payload(
      const std::function<void(const Bytes&)>& fn) const;

  /// Test-only: pre-position a channel's sequence space as if traffic up
  /// to (but not including) `next_seq` had already been exchanged and
  /// acked. Lets tests/test_faults.cpp reach the wraparound point without
  /// 2^64 real sends. Must match on both ends of the channel.
  void preseed_out_for_test(NodeId dst, std::uint64_t next_seq) {
    out_[dst].next_seq = next_seq;
  }
  void preseed_in_for_test(NodeId src, std::uint64_t expect) {
    InChannel& ch = in_[src];
    ch.expect = expect;
    ch.last_delivered = expect == 1 ? 0 : expect - 1;
  }

 private:
  struct Master {
    Packet packet;         ///< pool-cloned payload; original send stamp
    SimTime deadline = 0;  ///< next retransmission due
    std::uint32_t retries = 0;
  };
  struct OutChannel {
    std::uint64_t next_seq = 1;
    std::uint64_t data_attempts = 0;  ///< transmissions, for drop_first
    std::map<std::uint64_t, Master> pending;
  };
  struct InChannel {
    std::uint64_t expect = 1;
    /// Highest in-order seq delivered; 0 = none yet. Kept explicitly
    /// because `expect - 1` is ambiguous once the space has wrapped
    /// (expect == 1 then means "last delivered was UINT64_MAX").
    std::uint64_t last_delivered = 0;
    std::map<std::uint64_t, Packet> buffered;  ///< early (out-of-order) data
  };

  BufferPool& pool() noexcept { return pool_ != nullptr ? *pool_ : fallback_; }
  [[nodiscard]] Bytes clone_payload(const Bytes& src);
  /// Apply the fault draws and put 0..2 physical copies on the wire.
  void transmit(const Packet& proto, Bytes payload, bool is_data,
                OutChannel* ch, LinkSink& sink);
  void send_ack(NodeId to, std::uint64_t cumulative, LinkSink& sink);
  void on_ack(NodeId from, std::uint64_t cumulative);
  [[nodiscard]] SimTime backoff(std::uint32_t retries) const noexcept;

  NodeId self_ = 0;
  FaultConfig cfg_{};
  SimTime rto_ = 0;
  BufferPool* pool_ = nullptr;
  BufferPool fallback_;
  Xoshiro256 rng_{0};
  // std::map (not unordered) so retransmission and drain order is
  // deterministic — SimMachine's byte-identical reports depend on it.
  std::map<NodeId, OutChannel> out_;
  std::map<NodeId, InChannel> in_;
  std::uint64_t unacked_ = 0;  ///< total masters across channels
  LinkStats stats_;
};

}  // namespace hal::am
