#include "am/wire_batch.hpp"

#include <algorithm>

namespace hal::am {

void FrameBuilder::add(Packet p, SimTime now, const BatchConfig& cfg,
                       BufferPool& pool) {
  if (count_ == 0) {
    HAL_ASSERT(buf_.empty());
    buf_ = pool.reserve(cfg.max_frame_bytes);
    if (holdoff_ == 0) holdoff_ = cfg.holdoff_ns;
    deadline_ = now + holdoff_;
  }
  const std::uint8_t nwords = frame_used_words(p);
  const auto plen = static_cast<std::uint16_t>(p.payload.size());
  const std::uint8_t flags = 0;
  const std::size_t off = buf_.size();
  buf_.resize(off + frame_record_size(p));  // within reserve: no allocation
  std::byte* out = buf_.data() + off;
  std::memcpy(out, &p.handler, sizeof(p.handler));
  out += sizeof(p.handler);
  std::memcpy(out, &plen, sizeof(plen));
  out += sizeof(plen);
  std::memcpy(out, &nwords, sizeof(nwords));
  out += sizeof(nwords);
  std::memcpy(out, &flags, sizeof(flags));
  out += sizeof(flags);
  std::memcpy(out, &p.stamp, sizeof(p.stamp));
  out += sizeof(p.stamp);
  if (nwords != 0) {
    std::memcpy(out, p.words.data(), nwords * sizeof(std::uint64_t));
    out += nwords * sizeof(std::uint64_t);
  }
  if (plen != 0) std::memcpy(out, p.payload.data(), plen);
  ++count_;
  // The record now carries the message; the packet's own payload buffer
  // retires immediately into the sending node's pool.
  pool.release(std::move(p.payload));
}

Packet FrameBuilder::close(NodeId src, NodeId dst, FlushCause cause,
                           const BatchConfig& cfg) {
  HAL_ASSERT(count_ != 0);
  if (cause == FlushCause::kTimer) {
    // Only timer flushes teach us anything: a fill flush closed before the
    // deadline mattered (raising the holdoff there would just tax the next
    // latency-critical singleton on a bursty channel), and idle/barrier
    // flushes are forced. A nearly-full timeout means the deadline was
    // slightly too short for the burst — wait longer and reach fill next
    // time; a near-empty timeout means the traffic is latency-bound — stop
    // making it wait.
    if (count_ >= cfg.max_msgs / 2) {
      holdoff_ = std::min<SimTime>(holdoff_ * 2, cfg.holdoff_max_ns);
    } else if (count_ < cfg.max_msgs / 4) {
      holdoff_ = std::max<SimTime>(holdoff_ / 2, cfg.holdoff_min_ns);
    }
  }
  Packet f;
  f.src = src;
  f.dst = dst;
  f.frame = true;
  f.words[0] = count_;
  f.payload = std::move(buf_);
  buf_ = Bytes{};
  count_ = 0;
  deadline_ = 0;
  return f;
}

void FrameBuilder::abandon(BufferPool& pool) {
  if (count_ == 0) return;
  pool.release(std::move(buf_));
  buf_ = Bytes{};
  count_ = 0;
  deadline_ = 0;
}

bool FrameReader::next(Packet& out, BufferPool& pool) {
  if (decoded_ == expected_) {
    // A frame is delivered whole or not at all (the link retransmits whole
    // frames), so the byte cursor must land exactly on the end.
    HAL_ASSERT(pos_ == frame_.payload.size());
    return false;
  }
  const Bytes& buf = frame_.payload;
  HAL_ASSERT(pos_ + kFrameRecordHeader <= buf.size());
  std::uint32_t handler = 0;
  std::uint16_t plen = 0;
  std::uint8_t nwords = 0;
  std::uint8_t flags = 0;
  SimTime stamp = 0;
  const std::byte* in = buf.data() + pos_;
  std::memcpy(&handler, in, sizeof(handler));
  in += sizeof(handler);
  std::memcpy(&plen, in, sizeof(plen));
  in += sizeof(plen);
  std::memcpy(&nwords, in, sizeof(nwords));
  in += sizeof(nwords);
  std::memcpy(&flags, in, sizeof(flags));
  in += sizeof(flags);
  std::memcpy(&stamp, in, sizeof(stamp));
  in += sizeof(stamp);
  HAL_ASSERT(nwords <= kPacketWords);
  HAL_ASSERT(flags == 0);
  const std::size_t body = nwords * sizeof(std::uint64_t) + plen;
  HAL_ASSERT(pos_ + kFrameRecordHeader + body <= buf.size());
  out = Packet{};
  out.src = frame_.src;
  out.dst = frame_.dst;
  out.handler = handler;
  out.stamp = stamp;
  // Redelivered frames redeliver every record: the kernel's redelivery
  // probe spans each record's original stamp to its final delivery.
  out.retransmitted = frame_.retransmitted;
  if (nwords != 0) {
    std::memcpy(out.words.data(), in, nwords * sizeof(std::uint64_t));
    in += nwords * sizeof(std::uint64_t);
  }
  if (plen != 0) {
    out.payload = pool.acquire(plen);
    std::memcpy(out.payload.data(), in, plen);
  }
  pos_ += kFrameRecordHeader + body;
  ++decoded_;
  return true;
}

}  // namespace hal::am
