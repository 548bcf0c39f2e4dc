#include "core/message.h"

#include "common/error.h"

namespace sbq::core {

BufferChain encode_bin_message(const BinEnvelope& envelope,
                               BufferChain&& pbio_message) {
  if (envelope.operation.size() > 0xFFFF || envelope.message_type.size() > 0xFFFF) {
    throw CodecError("bin envelope name too long");
  }
  ByteBuffer header(64 + envelope.operation.size() + envelope.message_type.size());
  header.append_u16(static_cast<std::uint16_t>(envelope.operation.size()),
                    ByteOrder::kLittle);
  header.append(std::string_view{envelope.operation});
  header.append_u16(static_cast<std::uint16_t>(envelope.message_type.size()),
                    ByteOrder::kLittle);
  header.append(std::string_view{envelope.message_type});
  header.append_u64(envelope.timestamp_us, ByteOrder::kLittle);
  header.append_u64(envelope.echoed_timestamp_us, ByteOrder::kLittle);
  header.append_u64(envelope.server_prep_us, ByteOrder::kLittle);
  header.append_f64(envelope.reported_rtt_us, ByteOrder::kLittle);
  BufferChain out;
  out.append(std::move(header));
  out.append(std::move(pbio_message));
  return out;
}

DecodedBinChain decode_bin_message(const BufferChain& body) {
  ChainReader reader(body);
  DecodedBinChain out;
  out.envelope.operation = reader.read_string(reader.read_u16(ByteOrder::kLittle));
  out.envelope.message_type = reader.read_string(reader.read_u16(ByteOrder::kLittle));
  out.envelope.timestamp_us = reader.read_u64(ByteOrder::kLittle);
  out.envelope.echoed_timestamp_us = reader.read_u64(ByteOrder::kLittle);
  out.envelope.server_prep_us = reader.read_u64(ByteOrder::kLittle);
  out.envelope.reported_rtt_us = reader.read_f64(ByteOrder::kLittle);
  out.pbio_message = body.share_suffix(reader.position());
  out.bytes_copied = reader.bytes_copied();
  return out;
}

}  // namespace sbq::core
