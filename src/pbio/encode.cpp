#include "pbio/encode.h"

#include "common/error.h"

namespace sbq::pbio {

WireHeader read_header(ChainReader& reader) {
  WireHeader h;
  h.format_id = reader.read_u64(ByteOrder::kLittle);
  const std::uint8_t order = reader.read_u8();
  if (order > 1) throw CodecError("bad byte-order tag in PBIO header");
  h.sender_order = static_cast<ByteOrder>(order);
  h.payload_length = reader.read_u32(ByteOrder::kLittle);
  if (h.payload_length > reader.remaining()) {
    throw CodecError("PBIO payload length exceeds message");
  }
  return h;
}

BufferChain frame_message(FormatId format_id, ByteOrder sender_order, BufferChain&& payload) {
  ByteBuffer header(WireHeader::kSize);
  header.append_u64(format_id, ByteOrder::kLittle);
  header.append_u8(static_cast<std::uint8_t>(sender_order));
  header.append_u32(static_cast<std::uint32_t>(payload.size()), ByteOrder::kLittle);
  BufferChain message;
  message.append(std::move(header));
  message.append(std::move(payload));
  return message;
}

}  // namespace sbq::pbio
