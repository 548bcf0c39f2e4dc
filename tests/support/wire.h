// Flat PBIO messages for tests.
//
// The library encodes into a BufferChain only. Tests that feed a decoder
// reading a BytesView, mutate bytes, or compare whole messages coalesce the
// chain with these helpers.
#pragma once

#include "common/bytes.h"
#include "pbio/encode.h"
#include "pbio/format.h"
#include "pbio/value.h"
#include "pbio/value_codec.h"

namespace sbq::test {

/// Header + payload of a native record, in one buffer.
inline Bytes native_wire(const void* record, const pbio::FormatDesc& format,
                         ByteOrder order = host_byte_order()) {
  return pbio::encode_message_chain(record, format, order).coalesce();
}

/// Header + payload of a Value record, in one buffer.
inline Bytes value_wire(const pbio::Value& value, const pbio::FormatDesc& format,
                        ByteOrder order = host_byte_order()) {
  return pbio::encode_value_message_chain(value, format, order).coalesce();
}

}  // namespace sbq::test
