#include "pbio/value_codec.h"

#include <optional>
#include <span>
#include <type_traits>

#include "common/error.h"
#include "pbio/array_words.h"
#include "pbio/encode.h"

namespace sbq::pbio {

namespace {

void encode_scalar_value(const Value& v, TypeKind kind, ChainWriter& out,
                         ByteOrder order) {
  switch (kind) {
    case TypeKind::kInt32:
      out.append_u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(v.as_i64())),
                     order);
      break;
    case TypeKind::kInt64:
      out.append_u64(static_cast<std::uint64_t>(v.as_i64()), order);
      break;
    case TypeKind::kUInt32:
      out.append_u32(static_cast<std::uint32_t>(v.as_u64()), order);
      break;
    case TypeKind::kUInt64:
      out.append_u64(v.as_u64(), order);
      break;
    case TypeKind::kFloat32:
      out.append_f32(static_cast<float>(v.as_f64()), order);
      break;
    case TypeKind::kFloat64:
      out.append_f64(v.as_f64(), order);
      break;
    case TypeKind::kChar:
      out.append_u8(static_cast<std::uint8_t>(v.as_char()));
      break;
    default:
      throw CodecError("encode_scalar_value: not a scalar kind");
  }
}

void encode_record_value(const Value& value, const FormatDesc& format, ChainWriter& out,
                         ByteOrder order, const BufferChain::Anchor& anchor);

void encode_field_elements(const Value& array, const FieldDesc& field, ChainWriter& out,
                           ByteOrder order, const BufferChain::Anchor& anchor) {
  // A contiguous array in its kind's class takes one loop; any other goes
  // element by element, converted to Values first if it is contiguous.
  std::vector<Value> converted;
  const std::optional<std::span<const Value>> elems =
      array.visit_array([&](auto stored) -> std::optional<std::span<const Value>> {
        using T = std::remove_const_t<typename decltype(stored)::element_type>;
        if constexpr (std::is_same_v<T, Value>) {
          return stored;
        } else {
          if (detail::narrows_to<T>(field.kind)) {
            const std::size_t bytes = stored.size() * scalar_size(field.kind);
            detail::narrow_words(stored, field.kind, order, out.extend(bytes));
            return std::nullopt;
          }
          converted.assign(stored.begin(), stored.end());
          return converted;
        }
      });
  if (!elems) return;
  for (const Value& elem : *elems) {
    if (field.kind == TypeKind::kStruct) {
      encode_record_value(elem, *field.struct_format, out, order, anchor);
    } else {
      encode_scalar_value(elem, field.kind, out, order);
    }
  }
}

void encode_record_value(const Value& value, const FormatDesc& format, ChainWriter& out,
                         ByteOrder order, const BufferChain::Anchor& anchor) {
  if (!value.is_record()) {
    throw CodecError("format '" + format.name + "' needs a record value");
  }
  for (const FieldDesc& field : format.fields) {
    const Value* v = value.find_field(field.name);
    if (v == nullptr) {
      throw CodecError("record missing field '" + field.name + "' of format '" +
                       format.name + "'");
    }
    switch (field.arity) {
      case Arity::kScalar:
        if (field.kind == TypeKind::kString) {
          const std::string& s = v->as_string();
          out.append_u32(static_cast<std::uint32_t>(s.size()), order);
          out.append_block(as_bytes(s), anchor);
        } else if (field.kind == TypeKind::kStruct) {
          encode_record_value(*v, *field.struct_format, out, order, anchor);
        } else {
          encode_scalar_value(*v, field.kind, out, order);
        }
        break;
      case Arity::kFixedArray:
        // Char arrays may be held as one bulk string (the efficient
        // representation for pixel buffers and similar blobs).
        if (field.kind == TypeKind::kChar && v->is_string()) {
          const std::string& s = v->as_string();
          if (s.size() != field.fixed_count) {
            throw CodecError("field '" + field.name + "': fixed char array expects " +
                             std::to_string(field.fixed_count) + " bytes, got " +
                             std::to_string(s.size()));
          }
          out.append_block(as_bytes(s), anchor);
          break;
        }
        if (v->array_size() != field.fixed_count) {
          throw CodecError("field '" + field.name + "': fixed array expects " +
                           std::to_string(field.fixed_count) + " elements, got " +
                           std::to_string(v->array_size()));
        }
        encode_field_elements(*v, field, out, order, anchor);
        break;
      case Arity::kVarArray:
        if (field.kind == TypeKind::kChar && v->is_string()) {
          const std::string& s = v->as_string();
          out.append_u32(static_cast<std::uint32_t>(s.size()), order);
          out.append_block(as_bytes(s), anchor);
          break;
        }
        out.append_u32(static_cast<std::uint32_t>(v->array_size()), order);
        encode_field_elements(*v, field, out, order, anchor);
        break;
    }
  }
}

}  // namespace

BufferChain encode_value_message_chain(const Value& value, const FormatDesc& format,
                                       ByteOrder wire_order,
                                       BufferChain::Anchor anchor) {
  BufferChain payload;
  {
    ChainWriter writer(payload);
    encode_record_value(value, format, writer, wire_order, anchor);
  }
  return frame_message(format.format_id(), wire_order, std::move(payload));
}

namespace {
/// Zero of the Value kind the decoder produces for `kind`, so zero_value()
/// output compares equal to decoded zeros.
Value zero_scalar(TypeKind kind) {
  switch (kind) {
    case TypeKind::kUInt32:
    case TypeKind::kUInt64:
      return Value{std::uint64_t{0}};
    case TypeKind::kFloat32:
    case TypeKind::kFloat64:
      return Value{0.0};
    case TypeKind::kChar:
      return Value{'\0'};
    default:
      return Value{std::int64_t{0}};
  }
}

/// `count` zeros of numeric `kind`, contiguous as the decoder produces them.
Value zero_array(TypeKind kind, std::size_t count) {
  switch (kind) {
    case TypeKind::kUInt32:
    case TypeKind::kUInt64:
      return Value{Value::U64Array(count)};
    case TypeKind::kFloat32:
    case TypeKind::kFloat64:
      return Value{Value::F64Array(count)};
    default:
      return Value{Value::I64Array(count)};
  }
}

Value project_field(const Value& src, const FieldDesc& field) {
  if (field.kind == TypeKind::kStruct && field.arity == Arity::kScalar && src.is_record()) {
    return project_value(src, *field.struct_format);
  }
  if (field.kind == TypeKind::kStruct && src.is_array()) {
    Value array = Value::empty_array();
    src.visit_array([&](auto elems) {
      for (const auto& elem : elems) array.push_back(project_value(elem, *field.struct_format));
    });
    return array;
  }
  return src;
}

/// Projects `value` onto `target`; when `replacement` is set, field
/// `replaced` takes it instead of a projection of the source field.
Value project_record(const Value& value, const FormatDesc& target, std::string_view replaced,
                     Value* replacement) {
  Value out = Value::empty_record();
  for (const FieldDesc& field : target.fields) {
    if (replacement != nullptr && field.name == replaced) {
      out.set_field(field.name, std::move(*replacement));
      continue;
    }
    const Value* src = value.is_record() ? value.find_field(field.name) : nullptr;
    out.set_field(field.name, src == nullptr ? zero_field(field) : project_field(*src, field));
  }
  return out;
}
}  // namespace

Value zero_field(const FieldDesc& field) {
  if (field.arity == Arity::kFixedArray) {
    if (field.kind == TypeKind::kChar) return Value{std::string(field.fixed_count, '\0')};
    if (field.kind != TypeKind::kStruct) return zero_array(field.kind, field.fixed_count);
    Value array = Value::empty_array();
    for (std::uint32_t i = 0; i < field.fixed_count; ++i) {
      array.push_back(zero_value(*field.struct_format));
    }
    return array;
  }
  if (field.arity == Arity::kVarArray) {
    return field.kind == TypeKind::kChar ? Value{std::string{}} : Value::empty_array();
  }
  if (field.kind == TypeKind::kString) return Value{std::string{}};
  if (field.kind == TypeKind::kStruct) return zero_value(*field.struct_format);
  return zero_scalar(field.kind);
}

Value zero_value(const FormatDesc& format) {
  Value record = Value::empty_record();
  for (const FieldDesc& field : format.fields) record.set_field(field.name, zero_field(field));
  return record;
}

Value project_value(const Value& value, const FormatDesc& target) {
  return project_record(value, target, {}, nullptr);
}

Value project_value(const Value& value, const FormatDesc& target, std::string_view name,
                    Value replacement) {
  return project_record(value, target, name, &replacement);
}

}  // namespace sbq::pbio
