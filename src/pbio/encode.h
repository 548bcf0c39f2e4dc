// PBIO message framing.
//
// Every PBIO message is a small header in front of a compact, padding-free
// payload in the sender's byte order. No up-translation happens on the send
// side — that is PBIO's "sender sends its own order, receiver makes right"
// discipline.
//
// Wire layout (header fields are always little-endian so the header itself
// is unambiguous; the PAYLOAD uses the sender's declared order):
//   [u64 format_id][u8 sender_byte_order][u32 payload_length][payload]
//
// The encoder (encode_value_message_chain, pbio/value_codec.h) writes its
// payload into a BufferChain in one walk; the header is then spliced in
// front of it as its own segment (frame_message), so the payload never has
// to be sized first.
#pragma once

#include "common/buffer_chain.h"
#include "common/bytes.h"
#include "pbio/format.h"

namespace sbq::pbio {

/// Fixed-size prefix of every PBIO message.
struct WireHeader {
  FormatId format_id = 0;
  ByteOrder sender_order = ByteOrder::kLittle;
  std::uint32_t payload_length = 0;

  static constexpr std::size_t kSize = 8 + 1 + 4;
};

/// Reads and validates the header, leaving `reader` at the payload. A
/// message held in one buffer is read as BufferChain::borrowing(message).
WireHeader read_header(ChainReader& reader);

/// Puts the header for `payload` (an encoded payload chain) in front of it:
/// one owned WireHeader::kSize-byte segment, with the payload's segments
/// spliced behind it uncopied.
BufferChain frame_message(FormatId format_id, ByteOrder sender_order, BufferChain&& payload);

}  // namespace sbq::pbio
