// Encoding dynamic Values to / from the PBIO wire format.
//
// The bytes produced here are identical to those the native-record encoder
// produces for a struct with the same content, so a native sender can talk
// to a dynamic receiver and vice versa — that is what lets the SOAP runtime
// (dynamic, WSDL-driven) interoperate with application code holding plain
// C++ structs.
//
// There is one encode walk and one decode walk: the encoder writes the
// payload into a BufferChain through a ChainWriter and frame_message puts
// the header in front (pbio/encode.h); the decoder reads through a
// ChainReader, so a message that arrived in segments is never flattened.
#pragma once

#include "common/buffer_chain.h"
#include "common/bytes.h"
#include "pbio/format.h"
#include "pbio/value.h"

namespace sbq::pbio {

/// Header + payload as a BufferChain, encoded in one walk: small fields
/// accumulate in the writer's staging segments and bulk blocks (strings,
/// char arrays) of ChainWriter::kDefaultBorrowThreshold bytes or more borrow
/// from `value`'s storage. Pass an `anchor` owning `value` when the chain
/// must outlive the caller's frame (e.g. server responses); request paths
/// where `value` outlives the round trip may leave it null. Missing record
/// fields throw CodecError — use `project_value` to build reduced messages
/// deliberately.
BufferChain encode_value_message_chain(const Value& value, const FormatDesc& format,
                                       ByteOrder wire_order = host_byte_order(),
                                       BufferChain::Anchor anchor = nullptr);

/// Decodes a payload known to use `format` into a Value record, consuming
/// exactly `payload_length` bytes from the reader. Bulk blocks that lie
/// inside one segment are read without flattening the message.
Value decode_value_payload(ChainReader& reader, std::size_t payload_length,
                           ByteOrder sender_order, const FormatDesc& format);

/// Decodes a full message (header + payload) held in one buffer.
Value decode_value_message(BytesView message, const FormatDesc& format);

/// Projects `value` onto `target` format: fields present in both are copied,
/// fields only in `target` are zero/empty-filled. This is the quality layer's
/// "copy the relevant fields and pad the rest with zeroes" primitive.
Value project_value(const Value& value, const FormatDesc& target);

/// As above, but field `name` of the result is `replacement`; the source's
/// field of that name is not copied. For quality handlers that reduce one
/// field (truncate, stride). A `name` absent from `target` drops it.
Value project_value(const Value& value, const FormatDesc& target, std::string_view name,
                    Value replacement);

/// A zero/empty Value skeleton for `format` (all scalars 0, arrays empty,
/// strings "").
Value zero_value(const FormatDesc& format);

}  // namespace sbq::pbio
