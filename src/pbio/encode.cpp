#include "pbio/encode.h"

#include <cstring>

#include "common/error.h"
#include "pbio/sink.h"

namespace sbq::pbio {

namespace {

using detail::CountingSink;
using detail::sink_block;

/// Layout-compatible view of any VarArray<T>.
struct RawVarArray {
  std::uint32_t count;
  const void* data;
};
static_assert(sizeof(RawVarArray) == sizeof(VarArray<int>));
static_assert(offsetof(RawVarArray, count) == offsetof(VarArray<int>, count));
static_assert(offsetof(RawVarArray, data) == offsetof(VarArray<int>, data));

template <typename Sink>
void append_scalar(const std::uint8_t* src, TypeKind kind, Sink& out,
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

template <typename Sink>
void encode_record(const std::uint8_t* record, const FormatDesc& format,
                   Sink& out, ByteOrder order);

template <typename Sink>
void encode_elements(const std::uint8_t* base, const FieldDesc& field,
                     std::size_t count, Sink& out, ByteOrder order) {
  const std::size_t elem = field.element_size();
  if (field.kind == TypeKind::kStruct) {
    for (std::size_t i = 0; i < count; ++i) {
      encode_record(base + i * elem, *field.struct_format, out, order);
    }
  } else if (order == host_byte_order() || elem == 1) {
    // Same-order scalar runs are a single block — the memcpy fast path that
    // makes PBIO arrays cheap to marshal, and on the chain path a borrowed
    // view into the record's own array (no copy at all).
    sink_block(out, BytesView{base, count * elem}, nullptr);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      append_scalar(base + i * elem, field.kind, out, order);
    }
  }
}

template <typename Sink>
void encode_record(const std::uint8_t* record, const FormatDesc& format,
                   Sink& out, ByteOrder order) {
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
            sink_block(out, BytesView{reinterpret_cast<const std::uint8_t*>(s), len},
                       nullptr);
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

template <typename Reader>
WireHeader read_header_impl(Reader& reader) {
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

}  // namespace

WireHeader read_header(ByteReader& reader) { return read_header_impl(reader); }

WireHeader read_header(ChainReader& reader) { return read_header_impl(reader); }

void encode_native(const void* record, const FormatDesc& format, ByteBuffer& out,
                   ByteOrder wire_order) {
  out.append_u64(format.format_id(), ByteOrder::kLittle);
  out.append_u8(static_cast<std::uint8_t>(wire_order));
  const std::size_t len_pos = out.size();
  out.append_u32(0, ByteOrder::kLittle);
  const std::size_t payload_start = out.size();
  encode_record(static_cast<const std::uint8_t*>(record), format, out, wire_order);
  out.patch_u32(len_pos, static_cast<std::uint32_t>(out.size() - payload_start),
                ByteOrder::kLittle);
}

Bytes encode_message(const void* record, const FormatDesc& format,
                     ByteOrder wire_order) {
  ByteBuffer out(WireHeader::kSize + wire_size(record, format));
  encode_native(record, format, out, wire_order);
  return out.take();
}

BufferChain encode_message_chain(const void* record, const FormatDesc& format,
                                 ByteOrder wire_order) {
  // Payload length is known exactly up front (wire_size), so the header is
  // emitted complete — chains cannot be patched across segments.
  const std::size_t payload_size = wire_size(record, format);
  BufferChain chain;
  ChainWriter writer(chain);
  writer.append_u64(format.format_id(), ByteOrder::kLittle);
  writer.append_u8(static_cast<std::uint8_t>(wire_order));
  writer.append_u32(static_cast<std::uint32_t>(payload_size), ByteOrder::kLittle);
  encode_record(static_cast<const std::uint8_t*>(record), format, writer,
                wire_order);
  writer.flush();
  return chain;
}

std::size_t wire_size(const void* record, const FormatDesc& format) {
  CountingSink counter;
  encode_record(static_cast<const std::uint8_t*>(record), format, counter,
                host_byte_order());
  return counter.size();
}

}  // namespace sbq::pbio
