#include "pbio/format.h"

#include <algorithm>
#include <cstdint>

#include "common/error.h"

namespace sbq::pbio {

std::uint32_t scalar_size(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt32:
    case TypeKind::kUInt32:
    case TypeKind::kFloat32:
      return 4;
    case TypeKind::kInt64:
    case TypeKind::kUInt64:
    case TypeKind::kFloat64:
      return 8;
    case TypeKind::kChar:
      return 1;
    case TypeKind::kString:
    case TypeKind::kStruct:
      throw CodecError("kind has no fixed scalar size");
  }
  throw CodecError("unknown TypeKind");
}

std::string_view kind_name(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt32: return "i32";
    case TypeKind::kInt64: return "i64";
    case TypeKind::kUInt32: return "u32";
    case TypeKind::kUInt64: return "u64";
    case TypeKind::kFloat32: return "f32";
    case TypeKind::kFloat64: return "f64";
    case TypeKind::kChar: return "char";
    case TypeKind::kString: return "string";
    case TypeKind::kStruct: return "struct";
  }
  return "?";
}

std::size_t min_wire_bytes(const FormatDesc& format) {
  // Each field's size and the running total saturate at 2^32: a peer's
  // format can nest fixed arrays past 2^64 bytes, and a wrapped size could
  // reach 0. With both terms capped the sum cannot wrap.
  constexpr std::size_t kCap = std::size_t{1} << 32;
  std::size_t total = 0;
  for (const FieldDesc& f : format.fields) {
    std::size_t bytes = 4;  // count or length prefix
    if (f.arity != Arity::kVarArray && f.kind != TypeKind::kString) {
      const std::size_t elem = f.kind == TypeKind::kStruct
                                   ? min_wire_bytes(*f.struct_format)
                                   : scalar_size(f.kind);
      bytes = f.arity == Arity::kFixedArray ? f.fixed_count * elem : elem;
    }
    total = std::min(total + std::min(bytes, kCap), kCap);
  }
  return total;
}

std::string FormatDesc::canonical() const {
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& f : fields) {
    if (!first) out += ',';
    first = false;
    out += f.name;
    out += ':';
    if (f.kind == TypeKind::kStruct) {
      out += f.struct_format->canonical();
    } else {
      out += kind_name(f.kind);
    }
    if (f.arity == Arity::kFixedArray) {
      out += '[';
      out += std::to_string(f.fixed_count);
      out += ']';
    } else if (f.arity == Arity::kVarArray) {
      out += "[]";
    }
  }
  out += '}';
  return out;
}

FormatId FormatDesc::format_id() const { return id_; }

const FieldDesc* FormatDesc::field(std::string_view field_name) const {
  for (const auto& f : fields) {
    if (f.name == field_name) return &f;
  }
  return nullptr;
}

std::size_t FormatDesc::total_field_count() const {
  std::size_t n = 0;
  for (const auto& f : fields) {
    ++n;
    if (f.kind == TypeKind::kStruct) n += f.struct_format->total_field_count();
  }
  return n;
}

std::size_t FormatDesc::nesting_depth() const {
  std::size_t depth = 1;
  for (const auto& f : fields) {
    if (f.kind == TypeKind::kStruct) {
      depth = std::max(depth, 1 + f.struct_format->nesting_depth());
    }
  }
  return depth;
}

FormatBuilder::FormatBuilder(std::string name) {
  desc_.name = std::move(name);
}

FieldDesc& FormatBuilder::push(std::string name, TypeKind kind, Arity arity) {
  for (const auto& f : desc_.fields) {
    if (f.name == name) throw CodecError("duplicate field: " + name);
  }
  FieldDesc f;
  f.name = std::move(name);
  f.kind = kind;
  f.arity = arity;
  desc_.fields.push_back(std::move(f));
  return desc_.fields.back();
}

FormatBuilder& FormatBuilder::add_scalar(std::string name, TypeKind kind) {
  if (kind == TypeKind::kString || kind == TypeKind::kStruct) {
    throw CodecError("add_scalar: use add_string/add_struct for " + name);
  }
  push(std::move(name), kind, Arity::kScalar);
  return *this;
}

FormatBuilder& FormatBuilder::add_fixed_array(std::string name, TypeKind kind,
                                              std::uint32_t count) {
  if (kind == TypeKind::kString || kind == TypeKind::kStruct) {
    throw CodecError("add_fixed_array: use add_struct_fixed_array for " + name);
  }
  if (count == 0) throw CodecError("fixed array of zero elements: " + name);
  FieldDesc& f = push(std::move(name), kind, Arity::kFixedArray);
  f.fixed_count = count;
  return *this;
}

FormatBuilder& FormatBuilder::add_var_array(std::string name, TypeKind kind) {
  if (kind == TypeKind::kString) {
    throw CodecError("variable arrays of strings are not supported: " + name);
  }
  push(std::move(name), kind, Arity::kVarArray);
  return *this;
}

FormatBuilder& FormatBuilder::add_string(std::string name) {
  push(std::move(name), TypeKind::kString, Arity::kScalar);
  return *this;
}

FormatBuilder& FormatBuilder::add_struct(std::string name, FormatPtr format) {
  if (!format) throw CodecError("add_struct: null format for " + name);
  FieldDesc& f = push(std::move(name), TypeKind::kStruct, Arity::kScalar);
  f.struct_format = std::move(format);
  return *this;
}

FormatBuilder& FormatBuilder::add_struct_var_array(std::string name, FormatPtr format) {
  if (!format) throw CodecError("add_struct_var_array: null format for " + name);
  FieldDesc& f = push(std::move(name), TypeKind::kStruct, Arity::kVarArray);
  f.struct_format = std::move(format);
  return *this;
}

FormatBuilder& FormatBuilder::add_struct_fixed_array(std::string name,
                                                     FormatPtr format,
                                                     std::uint32_t count) {
  if (!format) throw CodecError("add_struct_fixed_array: null format for " + name);
  if (count == 0) throw CodecError("fixed array of zero structs: " + name);
  FieldDesc& f = push(std::move(name), TypeKind::kStruct, Arity::kFixedArray);
  f.struct_format = std::move(format);
  f.fixed_count = count;
  return *this;
}

FormatPtr FormatBuilder::build() {
  if (desc_.fields.empty()) throw CodecError("format with no fields: " + desc_.name);
  // A peer's format (deserialize_format) may describe records no payload
  // can hold; reject it here rather than size anything from it.
  if (min_wire_bytes(desc_) > UINT32_MAX) {
    throw CodecError("format '" + desc_.name + "' needs more than 4 GB per record");
  }
  // FNV-1a 64-bit over the canonical rendering.
  FormatId id = 0xCBF29CE484222325ull;
  for (const unsigned char ch : desc_.canonical()) {
    id ^= ch;
    id *= 0x100000001B3ull;
  }
  desc_.id_ = id;
  return std::make_shared<const FormatDesc>(std::move(desc_));
}

namespace {

void serialize_into(const FormatDesc& format, ByteBuffer& out) {
  out.append_u32(static_cast<std::uint32_t>(format.name.size()), ByteOrder::kLittle);
  out.append(format.name);
  out.append_u32(static_cast<std::uint32_t>(format.fields.size()), ByteOrder::kLittle);
  for (const auto& f : format.fields) {
    out.append_u32(static_cast<std::uint32_t>(f.name.size()), ByteOrder::kLittle);
    out.append(f.name);
    out.append_u8(static_cast<std::uint8_t>(f.kind));
    out.append_u8(static_cast<std::uint8_t>(f.arity));
    out.append_u32(f.fixed_count, ByteOrder::kLittle);
    if (f.kind == TypeKind::kStruct) serialize_into(*f.struct_format, out);
  }
}

FormatPtr deserialize_from(ByteReader& reader) {
  FormatBuilder builder(reader.read_string(reader.read_u32(ByteOrder::kLittle)));
  const std::uint32_t field_count = reader.read_u32(ByteOrder::kLittle);
  if (field_count > 100000) throw CodecError("format field count implausible");
  for (std::uint32_t i = 0; i < field_count; ++i) {
    std::string name = reader.read_string(reader.read_u32(ByteOrder::kLittle));
    const auto kind = static_cast<TypeKind>(reader.read_u8());
    const auto arity = static_cast<Arity>(reader.read_u8());
    const std::uint32_t fixed_count = reader.read_u32(ByteOrder::kLittle);
    if (kind == TypeKind::kStruct) {
      FormatPtr sub = deserialize_from(reader);
      if (arity == Arity::kVarArray) {
        builder.add_struct_var_array(std::move(name), std::move(sub));
      } else if (arity == Arity::kScalar) {
        builder.add_struct(std::move(name), std::move(sub));
      } else {
        builder.add_struct_fixed_array(std::move(name), std::move(sub), fixed_count);
      }
    } else if (kind == TypeKind::kString) {
      builder.add_string(std::move(name));
    } else {
      switch (arity) {
        case Arity::kScalar:
          builder.add_scalar(std::move(name), kind);
          break;
        case Arity::kFixedArray:
          builder.add_fixed_array(std::move(name), kind, fixed_count);
          break;
        case Arity::kVarArray:
          builder.add_var_array(std::move(name), kind);
          break;
      }
    }
  }
  return builder.build();
}

}  // namespace

Bytes serialize_format(const FormatDesc& format) {
  ByteBuffer out;
  serialize_into(format, out);
  return out.take();
}

FormatPtr deserialize_format(BytesView bytes) {
  ByteReader reader(bytes);
  FormatPtr format = deserialize_from(reader);
  if (!reader.exhausted()) throw CodecError("trailing bytes after format description");
  return format;
}

}  // namespace sbq::pbio
