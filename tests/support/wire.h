// Flat PBIO messages for tests.
//
// The library encodes into a BufferChain only. Tests that feed a decoder
// reading a BytesView, mutate bytes, or compare whole messages coalesce the
// chain with these helpers.
#pragma once

#include "common/bytes.h"
#include "pbio/encode.h"
#include "pbio/format.h"
#include "pbio/plan.h"
#include "pbio/value.h"
#include "pbio/value_codec.h"

namespace sbq::test {

/// Header + payload of a Value record, in one buffer.
inline Bytes value_wire(const pbio::Value& value, const pbio::FormatDesc& format,
                        ByteOrder order = host_byte_order()) {
  return pbio::encode_value_message_chain(value, format, order).coalesce();
}

/// Decodes a message held in one buffer, sent in `sender`'s format, into a
/// record of `receiver`'s fields through the plan `plans` holds for the
/// header's byte order (what ServiceRuntime and ClientStub run).
inline pbio::Value decode_wire(BytesView message, const pbio::FormatPtr& sender,
                               const pbio::FormatPtr& receiver, pbio::PlanCache& plans) {
  const BufferChain chain = BufferChain::borrowing(message);
  ChainReader reader(chain);
  const pbio::WireHeader header = pbio::read_header(reader);
  return plans.get(sender, receiver, header.sender_order)
      ->execute_value(reader, header.payload_length);
}

}  // namespace sbq::test
