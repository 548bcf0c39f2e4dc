#include "pbio/encode.h"

#include <cstring>

#include "common/error.h"

namespace sbq::pbio {

namespace {

/// Layout-compatible view of any VarArray<T>.
struct RawVarArray {
  std::uint32_t count;
  const void* data;
};
static_assert(sizeof(RawVarArray) == sizeof(VarArray<int>));
static_assert(offsetof(RawVarArray, count) == offsetof(VarArray<int>, count));
static_assert(offsetof(RawVarArray, data) == offsetof(VarArray<int>, data));

void append_scalar(const std::uint8_t* src, TypeKind kind, ChainWriter& out,
                   ByteOrder order) {
  switch (scalar_size(kind)) {
    case 1:
      out.append_u8(*src);
      break;
    case 4: {
      std::uint32_t v;
      std::memcpy(&v, src, 4);
      out.append_u32(v, order);
      break;
    }
    case 8: {
      std::uint64_t v;
      std::memcpy(&v, src, 8);
      out.append_u64(v, order);
      break;
    }
    default:
      throw CodecError("unsupported scalar size");
  }
}

void encode_record(const std::uint8_t* record, const FormatDesc& format,
                   ChainWriter& out, ByteOrder order);

void encode_elements(const std::uint8_t* base, const FieldDesc& field,
                     std::size_t count, ChainWriter& out, ByteOrder order) {
  const std::size_t elem = field.element_size();
  if (field.kind == TypeKind::kStruct) {
    for (std::size_t i = 0; i < count; ++i) {
      encode_record(base + i * elem, *field.struct_format, out, order);
    }
  } else if (order == host_byte_order() || elem == 1) {
    // Same-order scalar runs are a single block — the memcpy fast path that
    // makes PBIO arrays cheap to marshal: a borrowed view into the record's
    // own array once it is large enough (no copy at all).
    out.append_block(BytesView{base, count * elem});
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      append_scalar(base + i * elem, field.kind, out, order);
    }
  }
}

void encode_record(const std::uint8_t* record, const FormatDesc& format,
                   ChainWriter& out, ByteOrder order) {
  for (const FieldDesc& field : format.fields) {
    const std::uint8_t* src = record + field.offset;
    switch (field.arity) {
      case Arity::kScalar:
        if (field.kind == TypeKind::kString) {
          const char* s = nullptr;
          std::memcpy(&s, src, sizeof s);
          const std::uint32_t len =
              s == nullptr ? 0 : static_cast<std::uint32_t>(std::strlen(s));
          out.append_u32(len, order);
          if (len > 0) {
            out.append_block(BytesView{reinterpret_cast<const std::uint8_t*>(s), len});
          }
        } else if (field.kind == TypeKind::kStruct) {
          encode_record(src, *field.struct_format, out, order);
        } else {
          append_scalar(src, field.kind, out, order);
        }
        break;
      case Arity::kFixedArray:
        encode_elements(src, field, field.fixed_count, out, order);
        break;
      case Arity::kVarArray: {
        RawVarArray va;
        std::memcpy(&va, src, sizeof va);
        out.append_u32(va.count, order);
        if (va.count > 0) {
          if (va.data == nullptr) {
            throw CodecError("var array '" + field.name + "' has count " +
                             std::to_string(va.count) + " but null data");
          }
          encode_elements(static_cast<const std::uint8_t*>(va.data), field,
                          va.count, out, order);
        }
        break;
      }
    }
  }
}

}  // namespace

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

BufferChain encode_message_chain(const void* record, const FormatDesc& format,
                                 ByteOrder wire_order) {
  BufferChain payload;
  {
    ChainWriter writer(payload);
    encode_record(static_cast<const std::uint8_t*>(record), format, writer, wire_order);
  }
  return frame_message(format.format_id(), wire_order, std::move(payload));
}

}  // namespace sbq::pbio
