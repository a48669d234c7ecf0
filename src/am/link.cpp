#include "am/link.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace hal::am {
namespace {

/// Metadata-only copy: everything that goes on the wire except the payload,
/// which each transmission clones (or moves) separately. Copying the whole
/// Packet would deep-copy `Bytes` behind the pool ledger's back.
Packet wire_copy(const Packet& m) {
  Packet w;
  w.src = m.src;
  w.dst = m.dst;
  w.handler = m.handler;
  w.words = m.words;
  w.stamp = m.stamp;
  w.link_seq = m.link_seq;
  w.link_ack = m.link_ack;
  // Frames are sequenced and retransmitted whole; the flag must survive the
  // clone or a redelivered frame would be handled as a single packet.
  w.frame = m.frame;
  w.urgent = m.urgent;
  return w;
}

}  // namespace

void LinkEndpoint::configure(NodeId self, const FaultConfig& cfg,
                             SimTime rto_ns, BufferPool* pool) {
  self_ = self;
  cfg_ = cfg;
  rto_ = rto_ns;
  pool_ = pool;
  // Independent per-source stream: draws on node A never perturb node B's,
  // so MnMachine needs no locking and SimMachine's schedule alone
  // determines the draw sequence.
  rng_ = Xoshiro256(mix64(cfg.seed) ^ mix64(0x11bb5eedULL + self));
}

Bytes LinkEndpoint::clone_payload(const Bytes& src) {
  if (src.empty()) return {};
  Bytes b = pool().acquire(src.size());
  std::memcpy(b.data(), src.data(), src.size());
  return b;
}

SimTime LinkEndpoint::backoff(std::uint32_t retries) const noexcept {
  const std::uint32_t shift = std::min<std::uint32_t>(retries, 5);
  return rto_ << shift;
}

void LinkEndpoint::send_data(Packet p, SimTime now, LinkSink& sink) {
  HAL_DASSERT(p.src == self_ && p.dst != self_);
  OutChannel& ch = out_[p.dst];
  p.link_seq = ch.next_seq;
  ch.next_seq = seq_next(ch.next_seq);
  p.link_ack = false;
  p.retransmitted = false;

  Bytes payload = std::move(p.payload);
  Master m;
  m.packet = wire_copy(p);
  m.packet.payload = clone_payload(payload);
  m.deadline = now + rto_;
  ch.pending.emplace(p.link_seq, std::move(m));
  ++unacked_;

  transmit(p, std::move(payload), /*is_data=*/true, &ch, sink);
}

void LinkEndpoint::transmit(const Packet& proto, Bytes payload, bool is_data,
                            OutChannel* ch, LinkSink& sink) {
  if (is_data) {
    HAL_DASSERT(ch != nullptr);
    ++ch->data_attempts;
    if (ch->data_attempts <= cfg_.drop_first) {
      ++stats_.drops_injected;
      pool().release(std::move(payload));
      return;
    }
  }
  if (cfg_.drop > 0.0 && rng_.uniform() < cfg_.drop) {
    ++stats_.drops_injected;
    pool().release(std::move(payload));
    return;
  }
  int copies = 1;
  if (cfg_.duplicate > 0.0 && rng_.uniform() < cfg_.duplicate) {
    copies = 2;
    ++stats_.duplicates_injected;
  }
  for (int i = 0; i < copies; ++i) {
    Packet w = wire_copy(proto);
    w.retransmitted = proto.retransmitted;
    w.payload = i + 1 < copies ? clone_payload(payload) : std::move(payload);
    SimTime extra = 0;
    if (cfg_.delay > 0.0 && rng_.uniform() < cfg_.delay) {
      extra = cfg_.delay_ns;
      ++stats_.delays_injected;
    }
    sink.link_transmit(std::move(w), extra);
  }
}

void LinkEndpoint::send_ack(NodeId to, std::uint64_t cumulative,
                            LinkSink& sink) {
  if (cumulative == 0) return;  // nothing delivered yet: nothing to ack
  ++stats_.acks_sent;
  Packet a;
  a.src = self_;
  a.dst = to;
  a.link_ack = true;
  a.link_seq = cumulative;
  transmit(a, {}, /*is_data=*/false, nullptr, sink);
}

void LinkEndpoint::on_ack(NodeId from, std::uint64_t cumulative) {
  if (cumulative == 0) return;  // "nothing delivered": nothing to release
  const auto it = out_.find(from);
  if (it == out_.end()) return;  // ack for a channel we never opened: stale
  OutChannel& ch = it->second;
  // Full scan with serial compare: once the space wraps, the acked prefix
  // is not a prefix of the map's absolute key order (seq 1 post-wrap sorts
  // before the still-pending UINT64_MAX). The map stays small — it only
  // holds unacked masters.
  for (auto p = ch.pending.begin(); p != ch.pending.end();) {
    if (seq_before(cumulative, p->first)) {
      ++p;
      continue;
    }
    pool().release(std::move(p->second.packet.payload));
    p = ch.pending.erase(p);
    HAL_DASSERT(unacked_ > 0);
    --unacked_;
  }
}

void LinkEndpoint::receive(Packet p, LinkSink& sink) {
  HAL_DASSERT(p.dst == self_);
  if (p.link_ack) {
    on_ack(p.src, p.link_seq);
    return;
  }
  HAL_DASSERT(p.link_seq != 0);
  const NodeId src = p.src;
  InChannel& ch = in_[src];
  const std::uint64_t s = p.link_seq;

  if (seq_before(s, ch.expect) || ch.buffered.contains(s)) {
    // Duplicate (retransmit that crossed an ack, or an injected copy):
    // suppress before any layer above — the termination detector in
    // particular — can see it, and re-ack so the sender stops resending.
    ++stats_.dupes_suppressed;
    pool().release(std::move(p.payload));
    send_ack(src, ch.last_delivered, sink);
    return;
  }
  if (s != ch.expect) {
    // Early arrival (a predecessor was dropped or delayed): hold it, and
    // re-ack the prefix so far in case our previous ack was lost.
    ch.buffered.emplace(s, std::move(p));
    send_ack(src, ch.last_delivered, sink);
    return;
  }
  // In order: deliver, then flush any buffered successors it unblocks.
  sink.link_deliver(std::move(p));
  ch.last_delivered = ch.expect;
  ch.expect = seq_next(ch.expect);
  for (auto it = ch.buffered.find(ch.expect); it != ch.buffered.end();
       it = ch.buffered.find(ch.expect)) {
    Packet q = std::move(it->second);
    ch.buffered.erase(it);
    sink.link_deliver(std::move(q));
    ch.last_delivered = ch.expect;
    ch.expect = seq_next(ch.expect);
  }
  send_ack(src, ch.last_delivered, sink);
}

SimTime LinkEndpoint::on_timer(SimTime now, LinkSink& sink) {
  for (auto& [dst, ch] : out_) {
    for (auto& [seq, m] : ch.pending) {
      if (m.deadline > now) continue;
      if (m.retries >= cfg_.max_retries) {
        HAL_PANIC(
            "LinkEndpoint: retransmission limit exceeded — channel wedged "
            "(drop rate too high for max_retries, or an ack path is broken)");
      }
      ++m.retries;
      ++stats_.retransmits;
      m.deadline = now + backoff(m.retries);
      Packet w = wire_copy(m.packet);
      // Keep the original send stamp: the redelivery-latency probe measures
      // first-send to final-delivery, which is the latency the actor saw.
      w.retransmitted = true;
      transmit(w, clone_payload(m.packet.payload), /*is_data=*/true, &ch,
               sink);
    }
  }
  return next_deadline();
}

SimTime LinkEndpoint::next_deadline() const noexcept {
  SimTime best = 0;
  for (const auto& [dst, ch] : out_) {
    for (const auto& [seq, m] : ch.pending) {
      if (best == 0 || m.deadline < best) best = m.deadline;
    }
  }
  return best;
}

void LinkEndpoint::drain() {
  for (auto& [dst, ch] : out_) {
    for (auto& [seq, m] : ch.pending) {
      pool().release(std::move(m.packet.payload));
      HAL_DASSERT(unacked_ > 0);
      --unacked_;
    }
    ch.pending.clear();
  }
  for (auto& [src, ch] : in_) {
    for (auto& [seq, q] : ch.buffered) pool().release(std::move(q.payload));
    ch.buffered.clear();
  }
}

void LinkEndpoint::for_each_pending_payload(
    const std::function<void(const Bytes&)>& fn) const {
  for (const auto& [dst, ch] : out_) {
    for (const auto& [seq, m] : ch.pending) fn(m.packet.payload);
  }
  for (const auto& [src, ch] : in_) {
    for (const auto& [seq, q] : ch.buffered) fn(q.payload);
  }
}

}  // namespace hal::am
