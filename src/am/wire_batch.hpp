// Destination-coalesced wire batching (ROADMAP item 4a).
//
// The paper's flow-control layer already tracks per-destination traffic;
// this extends it into an aggregation layer: a per-(source, destination)
// FrameBuilder packs many small packets into one bounded wire frame, so a
// burst of fine-grain sends to the same node pays the per-packet costs
// (header injection, link sequencing, wake handshake, dispatch entry) once
// per frame instead of once per message — the amortization CAF and Templet
// identify as the dominant lever once allocation is off the path (PR 3/5).
//
// Wire format of a frame (Packet::frame = true, words[0] = record count,
// payload = concatenated records, ≤ BatchConfig::max_frame_bytes):
//
//   record := handler   u32      | payload_len  u16 | nwords u8 | flags u8
//             stamp     u64      |                                  (16 B)
//             words     nwords×u64   (trailing zero words trimmed)
//             payload   payload_len bytes
//
// Frames travel as ordinary packets: LinkEndpoint sequences, retransmits
// and dedupes whole frames, so the fault plane (PR 6) composes unchanged,
// and the per-channel FIFO order of batched traffic is the frame order.
// Mixing unbatchable traffic (bulk chunks, loopback, oversized payloads)
// into a channel forces a barrier flush first, preserving send order.
//
// Flush policy (docs/perf.md):
//   fill    — the frame reached max_msgs records or max_frame_bytes
//   timer   — the per-destination holdoff deadline expired (machines ride
//             their existing timer plumbing: Sim schedules a coalesced
//             kFrameTimer event, Mn polls deadlines per quantum)
//   idle    — the source node transitioned busy → idle (termination
//             detection must never see a held frame)
//   barrier — an unbatchable packet needed the channel, or shutdown drain
//
// The holdoff adapts per destination on timer flushes: a nearly full frame
// doubles it (the channel is hot — wait for fuller frames), a near-empty
// frame halves it (latency-bound traffic), clamped to
// [holdoff_min_ns, holdoff_max_ns]. All decisions depend only on the
// deterministic flush sequence, so SimMachine reports stay byte-identical.
//
// Ownership: frame buffers come from the *sending* node's BufferPool
// (borrowed from NodeClient::link_pool, private fallback otherwise) and
// retire into the *receiving* node's pool after decode — the same
// cross-node recycling loop packet payloads use, keeping the message path
// at 0 allocs/msg in steady state (bench/msgpath_alloc).
#pragma once

#include <cstdint>
#include <cstring>
#include <map>

#include "common/assert.hpp"
#include "common/buffer_pool.hpp"
#include "common/bytes.hpp"
#include "common/lint_markers.hpp"
#include "common/types.hpp"

#include "am/packet.hpp"

namespace hal::am {

/// Bytes of fixed header per frame record (see the format comment above).
inline constexpr std::size_t kFrameRecordHeader = 16;

/// Smallest useful frame: one record header plus a full word set.
inline constexpr std::size_t kMinFrameBytes =
    kFrameRecordHeader + kPacketWords * sizeof(std::uint64_t);

/// Knobs for the aggregation layer. Like FaultConfig this rides
/// RuntimeConfig and is applied once, after clients attach and before
/// run(), via Machine::configure_batching.
struct BatchConfig {
  /// Master switch. Batching is on by default: coalescing is semantically
  /// invisible (per-channel order and exactly-once delivery preserved) and
  /// strictly cheaper on the wire. Disabled, sends take the historical
  /// one-packet-per-message path.
  bool enabled = true;
  /// Frame payload cap. Bounded by kBulkChunkBytes (the machine's hard
  /// per-packet cap); the default fills the pool's 4 KiB size class — a
  /// half-full 2 KiB frame would recycle through the same class, so
  /// capping below it only halves the amortization, never the footprint.
  std::uint32_t max_frame_bytes = 4096;
  /// Fill-flush threshold: a frame closes after this many records.
  std::uint32_t max_msgs = 64;
  /// Initial per-destination holdoff: how long the first record of a frame
  /// may wait for company before a timer flush (virtual ns under Sim, wall
  /// ns under Mn). Kept small: bursty channels double their way up
  /// adaptively, while pipelined dependency chains (one small message per
  /// hop, sender still busy) only ever pay this much extra latency.
  SimTime holdoff_ns = 2'000;
  /// Adaptive holdoff clamp range.
  SimTime holdoff_min_ns = 1'000;
  SimTime holdoff_max_ns = 100'000;

  bool valid() const noexcept {
    if (!enabled) return true;
    return max_frame_bytes >= kMinFrameBytes &&
           max_frame_bytes <= kBulkChunkBytes && max_msgs >= 2 &&
           holdoff_min_ns >= 1 && holdoff_ns >= holdoff_min_ns &&
           holdoff_ns <= holdoff_max_ns;
  }
};

/// Why a frame closed. Indexes the WireStats flush counters and drives the
/// adaptive holdoff.
enum class FlushCause : std::uint8_t { kFill, kTimer, kIdle, kBarrier };

/// Per-source-node aggregation counters, folded into RunReport (schema v5)
/// alongside the link stats.
struct WireStats {
  std::uint64_t frames_sent = 0;     ///< closed frames put on the wire
  std::uint64_t msgs_coalesced = 0;  ///< messages that traveled inside frames
  std::uint64_t flush_fill = 0;
  std::uint64_t flush_timer = 0;
  std::uint64_t flush_idle = 0;
  std::uint64_t flush_barrier = 0;
};

/// Number of trailing zero words a record can omit from the wire.
inline std::uint8_t frame_used_words(const Packet& p) noexcept {
  std::size_t n = kPacketWords;
  while (n > 0 && p.words[n - 1] == 0) --n;
  return static_cast<std::uint8_t>(n);
}

/// Encoded size of `p` as a frame record.
inline std::size_t frame_record_size(const Packet& p) noexcept {
  return kFrameRecordHeader +
         frame_used_words(p) * sizeof(std::uint64_t) + p.payload.size();
}

/// One open frame toward a single destination. The buffer is Owned while
/// records accumulate and handed off whole by close(); the drop-on-drain
/// path retires it instead (Machine::drain_wire).
class FrameBuilder {
  // Checked by hal-lint HL007: this protocol is *single-writer* — deadlines
  // and counts are plain fields whose safety comes from execution-stream
  // affinity, so introducing atomics (or memory orders) here would paper
  // over a design breach instead of fixing one.
  HAL_MEMORY_PROTOCOL("frame_deadlines");

 public:
  bool open() const noexcept { return count_ != 0; }
  std::uint32_t count() const noexcept { return count_; }
  /// Flush deadline of the open frame (0 when closed).
  SimTime deadline() const noexcept { return deadline_; }

  /// Would `p`'s record still fit under the frame byte cap?
  bool fits(const Packet& p, const BatchConfig& cfg) const noexcept {
    return buf_.size() + frame_record_size(p) <= cfg.max_frame_bytes;
  }

  /// Append `p` as a record. The first record arms the holdoff deadline and
  /// acquires the frame buffer from `pool`; `p`'s payload retires back into
  /// `pool` (both on the sending node's stream). Caller checked fits().
  void add(Packet p, SimTime now, const BatchConfig& cfg, BufferPool& pool);

  /// Close the frame into a wire packet (frame = true, words[0] = record
  /// count, payload = the record bytes) and adapt the holdoff from `cause`.
  Packet close(NodeId src, NodeId dst, FlushCause cause,
               const BatchConfig& cfg);

  /// Shutdown path: retire a still-open buffer without shipping it.
  void abandon(BufferPool& pool);

  /// Buffer-audit peek at the open frame bytes (empty shell when closed).
  const Bytes& pending_payload() const noexcept { return buf_; }

 private:
  Bytes buf_;
  std::uint32_t count_ = 0;
  SimTime deadline_ = 0;
  SimTime holdoff_ = 0;  // adaptive; seeded from cfg on first use
};

/// Iterate the records of a received frame, rehydrating each into a
/// standalone Packet whose payload comes from the *receiving* node's pool.
/// Takes the client/pool as concrete references — no type-erased callback
/// (hal-handler-purity: decode runs on the AM handler path).
class FrameReader {
 public:
  explicit FrameReader(const Packet& frame) noexcept
      : frame_(frame),
        expected_(static_cast<std::uint32_t>(frame.words[0])) {
    HAL_ASSERT(frame.frame);
  }

  /// Decode the next record into `out`. Returns false when exhausted;
  /// asserts the record count and byte bounds agree (a frame passed the
  /// link layer intact or not at all).
  bool next(Packet& out, BufferPool& pool);

  std::uint32_t expected() const noexcept { return expected_; }
  std::uint32_t decoded() const noexcept { return decoded_; }

 private:
  const Packet& frame_;
  std::uint32_t expected_;
  std::uint32_t decoded_ = 0;
  std::size_t pos_ = 0;
};

/// Per-source-node aggregation state: one FrameBuilder per destination the
/// node has batched toward (std::map for deterministic flush order; entries
/// are never erased, so steady-state batching allocates nothing), the
/// borrowed payload pool, and the wire counters. Single-writer: touched
/// only from the owning node's execution stream, like LinkEndpoint.
class WireAggregator {
 public:
  void configure(NodeId self, const BatchConfig& cfg, BufferPool* pool) {
    self_ = self;
    cfg_ = cfg;
    pool_ = pool;
    frames_.clear();
    stats_ = WireStats{};
  }

  const BatchConfig& config() const noexcept { return cfg_; }
  /// The node's payload pool (kernel-provided), or the private fallback
  /// for bare machine-level clients.
  BufferPool& pool() noexcept {
    return pool_ != nullptr ? *pool_ : fallback_pool_;
  }

  /// Builder toward `dst`, created on first use.
  FrameBuilder& builder(NodeId dst) { return frames_[dst]; }
  /// Builder toward `dst` if one was ever created, else nullptr (barriers
  /// must not instantiate builders for never-batched channels).
  FrameBuilder* find(NodeId dst) {
    const auto it = frames_.find(dst);
    return it == frames_.end() ? nullptr : &it->second;
  }

  std::map<NodeId, FrameBuilder>& frames() noexcept { return frames_; }
  const std::map<NodeId, FrameBuilder>& frames() const noexcept {
    return frames_;
  }

  /// Earliest holdoff deadline over open frames; 0 = none open.
  SimTime earliest_deadline() const noexcept {
    SimTime best = 0;
    for (const auto& [dst, fb] : frames_) {
      const SimTime d = fb.deadline();
      if (d != 0 && (best == 0 || d < best)) best = d;
    }
    return best;
  }

  WireStats& stats() noexcept { return stats_; }
  const WireStats& stats() const noexcept { return stats_; }

 private:
  NodeId self_ = kInvalidNode;
  BatchConfig cfg_{};
  BufferPool* pool_ = nullptr;
  BufferPool fallback_pool_;
  std::map<NodeId, FrameBuilder> frames_;
  WireStats stats_;
};

}  // namespace hal::am
