#include "am/machine.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "check/affinity.hpp"
#include "obs/probe_recorder.hpp"

namespace hal::am {

void Machine::configure_faults(const FaultConfig& cfg) {
  HAL_ASSERT(cfg.probabilities_valid());
  faults_ = cfg;
  links_.clear();
  if (!cfg.enabled) return;
  const SimTime rto = cfg.rto_ns != 0 ? cfg.rto_ns : default_rto();
  links_.reserve(node_count());
  for (NodeId n = 0; n < node_count(); ++n) {
    auto ep = std::make_unique<LinkEndpoint>();
    ep->configure(n, cfg, rto,
                  clients_[n] != nullptr ? clients_[n]->link_pool() : nullptr);
    links_.push_back(std::move(ep));
  }
}

void Machine::drain_links() {
  for (NodeId n = 0; n < static_cast<NodeId>(links_.size()); ++n) {
    // Pool releases assert execution affinity; at shutdown drain the node
    // threads/streams are gone, so adopt each node's identity in turn.
    check::ScopedExecutionNode scope(n);
    links_[n]->drain();
  }
}

void Machine::for_each_link_payload(
    const std::function<void(const Bytes&)>& fn) const {
  for (const auto& ep : links_) ep->for_each_pending_payload(fn);
}

// --- Wire batching -----------------------------------------------------------

void Machine::configure_batching(const BatchConfig& cfg) {
  HAL_ASSERT(cfg.valid());
  batch_ = cfg;
  wire_.clear();
  // A single node has no remote channel to coalesce (loopback never
  // batches), so leave the layer inert rather than instantiating it.
  if (!cfg.enabled || node_count() < 2) return;
  wire_.reserve(node_count());
  for (NodeId n = 0; n < node_count(); ++n) {
    auto agg = std::make_unique<WireAggregator>();
    agg->configure(n, cfg,
                   clients_[n] != nullptr ? clients_[n]->link_pool() : nullptr);
    wire_.push_back(std::move(agg));
  }
}

bool Machine::batch_eligible(const Packet& p) const noexcept {
  if (wire_.empty()) return false;
  // Frames and link-control traffic are the layer's own output; loopback
  // bypasses the wire entirely; bulk chunks and oversized payloads must
  // keep the direct path (their records would not fit a frame).
  if (p.frame || p.link_ack || p.link_seq != 0) return false;
  // Latency-critical control packets keep the direct path (see Packet).
  if (p.urgent) return false;
  if (p.src == p.dst) return false;
  if (p.payload.size() > kMaxInlinePayload) return false;
  return frame_record_size(p) <= batch_.max_frame_bytes;
}

void Machine::emit_frame(WireAggregator& agg, FrameBuilder& fb, NodeId src,
                         NodeId dst, FlushCause cause) {
  WireStats& ws = agg.stats();
  switch (cause) {
    case FlushCause::kFill:
      ++ws.flush_fill;
      break;
    case FlushCause::kTimer:
      ++ws.flush_timer;
      break;
    case FlushCause::kIdle:
      ++ws.flush_idle;
      break;
    case FlushCause::kBarrier:
      ++ws.flush_barrier;
      break;
  }
  ++ws.frames_sent;
  if (obs::ProbeRecorder* probes =
          clients_[src] != nullptr ? clients_[src]->wire_probes() : nullptr) {
    probes->record(obs::Probe::kFrameFill, fb.count());
  }
  wire_inject(fb.close(src, dst, cause, agg.config()));
}

void Machine::batch_append(Packet p, SimTime now) {
  HAL_DASSERT(batch_eligible(p));
  WireAggregator& agg = *wire_[p.src];
  const NodeId src = p.src;
  const NodeId dst = p.dst;
  FrameBuilder& fb = agg.builder(dst);
  if (fb.open() && !fb.fits(p, agg.config())) {
    emit_frame(agg, fb, src, dst, FlushCause::kFill);
  }
  ++agg.stats().msgs_coalesced;
  fb.add(std::move(p), now, agg.config(), agg.pool());
  if (fb.count() >= agg.config().max_msgs) {
    emit_frame(agg, fb, src, dst, FlushCause::kFill);
  }
}

std::size_t Machine::batch_barrier(NodeId src, NodeId dst) {
  if (wire_.empty()) return 0;
  WireAggregator& agg = *wire_[src];
  FrameBuilder* fb = agg.find(dst);
  if (fb == nullptr || !fb->open()) return 0;
  emit_frame(agg, *fb, src, dst, FlushCause::kBarrier);
  return 1;
}

std::size_t Machine::flush_frames(NodeId src, FlushCause cause) {
  if (wire_.empty()) return 0;
  WireAggregator& agg = *wire_[src];
  std::size_t emitted = 0;
  for (auto& [dst, fb] : agg.frames()) {
    if (!fb.open()) continue;
    emit_frame(agg, fb, src, dst, cause);
    ++emitted;
  }
  return emitted;
}

std::size_t Machine::flush_due_frames(NodeId src, SimTime now) {
  if (wire_.empty()) return 0;
  WireAggregator& agg = *wire_[src];
  std::size_t emitted = 0;
  for (auto& [dst, fb] : agg.frames()) {
    if (!fb.open() || fb.deadline() > now) continue;
    emit_frame(agg, fb, src, dst, FlushCause::kTimer);
    ++emitted;
  }
  return emitted;
}

SimTime Machine::frame_deadline(NodeId src) const noexcept {
  return wire_.empty() ? 0 : wire_[src]->earliest_deadline();
}

void Machine::dispatch_arrival(NodeId node, Packet p) {
  if (links_active() && (p.link_seq != 0 || p.link_ack)) {
    // Physical arrival on the faulty wire: the endpoint dedupes, reorders
    // into sequence, acks, and calls link_deliver for each packet that
    // becomes deliverable.
    link(node).receive(std::move(p), *this);
  } else {
    deliver_to_client(node, std::move(p));
  }
}

void Machine::link_deliver(Packet p) {
  const NodeId dst = p.dst;
  deliver_to_client(dst, std::move(p));
}

void Machine::deliver_to_client(NodeId node, Packet p) {
  if (!p.frame) {
    client(node).handle(std::move(p));
    return;
  }
  // Frames only exist while the aggregation layer is configured; decode on
  // the receiving node's stream, one handler call per record, and retire
  // the frame buffer into the receiving node's pool (the same cross-node
  // recycling loop packet payloads use).
  HAL_ASSERT(!wire_.empty());
  BufferPool& pool = wire_[node]->pool();
  NodeClient& c = client(node);
  FrameReader reader(p);
  // One clock read for the whole burst: every record in the frame arrived
  // in the same physical packet, so they share a delivery timestamp.
  c.on_frame_begin(now(node), reader.expected());
  Packet record;
  while (reader.next(record, pool)) c.handle(std::move(record));
  c.on_frame_end();
  pool.release(std::move(p.payload));
}

void Machine::drain_wire() {
  for (NodeId n = 0; n < static_cast<NodeId>(wire_.size()); ++n) {
    // Same affinity adoption as drain_links: the node streams are gone at
    // shutdown drain, and pool releases assert execution affinity.
    check::ScopedExecutionNode scope(n);
    for (auto& [dst, fb] : wire_[n]->frames()) fb.abandon(wire_[n]->pool());
  }
}

void Machine::for_each_wire_payload(
    const std::function<void(const Bytes&)>& fn) const {
  for (const auto& agg : wire_) {
    for (const auto& [dst, fb] : agg->frames()) {
      if (fb.open()) fn(fb.pending_payload());
    }
  }
}

}  // namespace hal::am
