// Active-message packet, modeled on CMAM [von Eicken et al. 92].
//
// A packet names a handler on the destination node and carries a small fixed
// number of argument words; the handler runs on the receiving node's
// execution stream ("the node manager steals the processor from the actor
// that is currently executing", §3). Packets are *not* buffered by the
// network layer beyond the destination endpoint queue — bulk data must go
// through the three-phase protocol in am/bulk.hpp, mirroring the paper's
// CMAM customization (§6.5).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace hal::am {

/// Number of argument words a packet carries (CMAM handlers take 4-5 words;
/// we use 6 so an actor-message header — destination address, selector,
/// continuation — fits in one packet).
inline constexpr std::size_t kPacketWords = 6;

/// Payload bytes allowed on a plain (non-bulk) packet. Larger actor-message
/// payloads must go through the three-phase bulk protocol — enforced by the
/// node manager at send time. 512 B models a short train of back-to-back
/// network packets, which is how the paper's communication module sends
/// medium actor messages.
inline constexpr std::size_t kMaxInlinePayload = 512;

/// Chunk size of the bulk-transfer DATA phase; also the hard per-packet
/// payload cap enforced by Machine::send.
inline constexpr std::size_t kBulkChunkBytes = 4096;

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t handler = 0;
  std::array<std::uint64_t, kPacketWords> words{};
  /// ≤ kMaxInlinePayload except for bulk DATA chunks. For actor messages
  /// the layout is Message::encode_body_into's: the inline argument words
  /// (count announced in the header's sel/argc word) followed directly by
  /// the bulk-argument bytes — no length word; the remainder of the buffer
  /// *is* the message payload, so an arg-only message costs zero payload
  /// bytes. Buffers come from the sending kernel's BufferPool and retire
  /// into the receiving kernel's pool after the handler runs.
  Bytes payload;
  /// Injection timestamp, stamped by Machine::send — virtual ns under
  /// SimMachine, wall ns under MnMachine. Feeds the delivery-latency
  /// probes; not part of the modeled wire format (the real CMAM packet has
  /// no room for it — a hardware implementation would timestamp at the NI).
  SimTime stamp = 0;
  /// Reliable-link sequence number on the (src, dst) channel, assigned by
  /// LinkEndpoint when fault injection is enabled. 0 = unsequenced: the
  /// packet bypassed the link layer (faults disabled, or loopback).
  std::uint64_t link_seq = 0;
  /// Link-control acknowledgement: link_seq carries the cumulative
  /// sequence received in order; no handler runs for these.
  bool link_ack = false;
  /// This physical copy is a retransmission. Retransmits keep the original
  /// `stamp`, so the kernel's redelivery probe spans first-send to
  /// final-delivery — the latency the destination actor actually saw.
  bool retransmitted = false;
  /// Destination-coalesced wire frame (am/wire_batch.hpp): words[0] is the
  /// record count, the payload is the concatenated records. Frames pass
  /// through the link layer as single packets (sequenced, retransmitted and
  /// deduped whole) and are decoded back into per-message handler calls by
  /// Machine::deliver_to_client on the receiving node's stream.
  bool frame = false;
  /// Latency-critical control traffic (e.g. the load balancer's steal
  /// request/deny round trip): never coalesced into a frame — a held deny
  /// would stretch the steal RTT by a whole holdoff. Urgent sends still
  /// flush the channel's open frame first, preserving per-channel FIFO.
  bool urgent = false;
};

}  // namespace hal::am
