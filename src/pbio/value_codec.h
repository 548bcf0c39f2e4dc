// Encoding, projecting and zero-filling dynamic Values.
//
// This is the only PBIO encoder, one walk: it writes the payload into a
// BufferChain through a ChainWriter and frame_message puts the header in
// front (pbio/encode.h). Decoding is the compiled plan (pbio/plan.h,
// included here for decode_value_payload and decode_value_message).
#pragma once

#include "common/buffer_chain.h"
#include "common/bytes.h"
#include "pbio/format.h"
#include "pbio/plan.h"
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

/// The zero of one field, as zero_value() fills it: 0 of the decoded class,
/// "" for strings and var char arrays, `fixed_count` zeros for fixed arrays.
Value zero_field(const FieldDesc& field);

}  // namespace sbq::pbio
