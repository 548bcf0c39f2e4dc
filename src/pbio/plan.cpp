#include "pbio/plan.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "pbio/array_words.h"
#include "pbio/encode.h"
#include "pbio/value_codec.h"

namespace sbq::pbio {

namespace {

struct RawVarArray {
  std::uint32_t count;
  const void* data;
};

/// A scalar read from the wire, held in canonical 64-bit form.
struct Scalar {
  enum class Class { kSigned, kUnsigned, kFloat } cls = Class::kSigned;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double f = 0.0;
};

/// Reads one wire scalar of `kind` in `order`.
Scalar read_scalar(ChainReader& reader, TypeKind kind, ByteOrder order) {
  using C = Scalar::Class;
  switch (kind) {
    case TypeKind::kInt32: return {C::kSigned, static_cast<std::int32_t>(reader.read_u32(order))};
    case TypeKind::kInt64: return {C::kSigned, static_cast<std::int64_t>(reader.read_u64(order))};
    case TypeKind::kUInt32: return {C::kUnsigned, 0, reader.read_u32(order)};
    case TypeKind::kUInt64: return {C::kUnsigned, 0, reader.read_u64(order)};
    case TypeKind::kFloat32: return {C::kFloat, 0, 0, reader.read_f32(order)};
    case TypeKind::kFloat64: return {C::kFloat, 0, 0, reader.read_f64(order)};
    case TypeKind::kChar: return {C::kUnsigned, 0, reader.read_u8()};
    default: throw CodecError("read_scalar: not a scalar kind");
  }
}

/// `s` converted to the widened class `T` (std::int64_t, std::uint64_t or
/// double).
template <class T>
T widen(const Scalar& s) {
  switch (s.cls) {
    case Scalar::Class::kSigned: return static_cast<T>(s.i);
    case Scalar::Class::kUnsigned: return static_cast<T>(s.u);
    case Scalar::Class::kFloat: return static_cast<T>(s.f);
  }
  return T{};
}

template <class T>
void put(std::uint8_t* dst, T v) {
  std::memcpy(dst, &v, sizeof v);
}

/// Stores a canonical scalar as `kind` at `dst` (host representation).
void store_scalar(std::uint8_t* dst, TypeKind kind, const Scalar& s) {
  switch (kind) {
    case TypeKind::kInt32: return put(dst, static_cast<std::int32_t>(widen<std::int64_t>(s)));
    case TypeKind::kInt64: return put(dst, widen<std::int64_t>(s));
    case TypeKind::kUInt32: return put(dst, static_cast<std::uint32_t>(widen<std::uint64_t>(s)));
    case TypeKind::kUInt64: return put(dst, widen<std::uint64_t>(s));
    case TypeKind::kFloat32: return put(dst, static_cast<float>(widen<double>(s)));
    case TypeKind::kFloat64: return put(dst, widen<double>(s));
    case TypeKind::kChar: return put(dst, static_cast<std::uint8_t>(widen<std::uint64_t>(s)));
    default: throw CodecError("store_scalar: not a scalar kind");
  }
}

/// The Value a scalar of wire `kind` decodes to: its class, widened.
Value scalar_value(const Scalar& s, TypeKind kind) {
  if (kind == TypeKind::kChar) return Value{static_cast<char>(s.u)};
  switch (s.cls) {
    case Scalar::Class::kSigned: return Value{s.i};
    case Scalar::Class::kUnsigned: return Value{s.u};
    case Scalar::Class::kFloat: return Value{s.f};
  }
  return {};
}

/// A plan consumes exactly its payload; anything else is a malformed message.
void expect_consumed(const ChainReader& reader, std::size_t start,
                     std::size_t payload_length) {
  if (reader.position() - start != payload_length) {
    throw CodecError("PBIO payload of " + std::to_string(payload_length) +
                     " bytes decoded as " + std::to_string(reader.position() - start));
  }
}

/// Consumes one record of `format` from the wire without materializing it.
void skip_record(ChainReader& reader, const FormatDesc& format, ByteOrder order) {
  for (const FieldDesc& field : format.fields) {
    switch (field.arity) {
      case Arity::kScalar:
        if (field.kind == TypeKind::kString) {
          reader.skip(reader.read_u32(order));
        } else if (field.kind == TypeKind::kStruct) {
          skip_record(reader, *field.struct_format, order);
        } else {
          reader.skip(scalar_size(field.kind));
        }
        break;
      case Arity::kFixedArray:
      case Arity::kVarArray: {
        const std::uint32_t count = field.arity == Arity::kFixedArray
                                        ? field.fixed_count
                                        : reader.read_u32(order);
        if (field.kind == TypeKind::kStruct) {
          for (std::uint32_t i = 0; i < count; ++i) {
            skip_record(reader, *field.struct_format, order);
          }
        } else {
          reader.skip(std::size_t{count} * scalar_size(field.kind));
        }
        break;
      }
    }
  }
}

bool is_plain_scalar(const FieldDesc& f) {
  return f.arity == Arity::kScalar && f.kind != TypeKind::kString &&
         f.kind != TypeKind::kStruct;
}

/// Fewest wire bytes one record of `format` can occupy. Every field takes at
/// least one byte and FormatBuilder rejects empty formats, so this is >= 1.
/// Each field's size and the running total saturate at 2^32, more than any
/// payload: a peer's format can nest fixed arrays past 2^64 bytes, and a
/// wrapped size could reach 0. With both terms capped the sum cannot wrap.
std::size_t min_wire_bytes(const FormatDesc& format) {
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

}  // namespace

PlanPtr DecodePlan::compile(FormatPtr sender, FormatPtr receiver, ByteOrder order,
                            PlanCache& cache) {
  std::shared_ptr<DecodePlan> plan(new DecodePlan(sender, receiver, order));
  std::vector<Op>& ops = plan->ops_;
  const bool host_order = order == host_byte_order();

  for (std::size_t i = 0; i < sender->fields.size(); ++i) {
    const FieldDesc& wf = sender->fields[i];
    const FieldDesc* nf = receiver->field(wf.name);
    plan->value_slots_.push_back(
        nf == nullptr ? -1 : static_cast<std::int32_t>(nf - receiver->fields.data()));
    Op op;
    op.wire_kind = wf.kind;
    op.wire_field = static_cast<std::uint32_t>(i);

    if (is_plain_scalar(wf)) {
      if (nf == nullptr) {
        op.kind = Op::Kind::kSkipScalar;
        ops.push_back(op);
        continue;
      }
      if (!is_plain_scalar(*nf)) {
        throw CodecError("field '" + wf.name + "': scalar vs non-scalar");
      }
      // Verbatim-copyable scalar: same kind, host order (or 1 byte).
      if (nf->kind == wf.kind && (host_order || scalar_size(wf.kind) == 1)) {
        const std::uint32_t bytes = scalar_size(wf.kind);
        // Merge with the previous op when both wire and native runs are
        // contiguous — this is where plans beat interpretation.
        if (!ops.empty() && ops.back().kind == Op::Kind::kBlockCopy &&
            ops.back().native_offset +
                    static_cast<std::int64_t>(ops.back().wire_bytes) ==
                static_cast<std::int64_t>(nf->offset)) {
          ops.back().wire_bytes += bytes;
          ++ops.back().wire_fields;
          continue;
        }
        op.kind = Op::Kind::kBlockCopy;
        op.wire_bytes = bytes;
        op.native_offset = nf->offset;
        ops.push_back(op);
        continue;
      }
      op.kind = Op::Kind::kScalar;
      op.native_kind = nf->kind;
      op.native_offset = nf->offset;
      ops.push_back(op);
      continue;
    }

    if (wf.kind == TypeKind::kString) {
      if (nf != nullptr && nf->kind != TypeKind::kString) {
        throw CodecError("field '" + wf.name + "': string vs non-string");
      }
      op.kind = Op::Kind::kString;
      op.native_offset = nf == nullptr ? -1 : static_cast<std::int64_t>(nf->offset);
      ops.push_back(op);
      continue;
    }

    op.wire_format = wf.struct_format.get();
    if (wf.kind == TypeKind::kStruct && wf.arity == Arity::kScalar) {
      if (nf != nullptr &&
          (nf->kind != TypeKind::kStruct || nf->arity != Arity::kScalar)) {
        throw CodecError("field '" + wf.name + "': struct vs non-struct");
      }
      op.kind = Op::Kind::kStruct;
      if (nf != nullptr) {
        op.native_offset = nf->offset;
        op.sub_plan = cache.get(wf.struct_format, nf->struct_format, order);
      }
      ops.push_back(op);
      continue;
    }

    // Arrays (fixed or var, scalar or struct elements).
    const bool wire_var = wf.arity == Arity::kVarArray;
    op.fixed_count = wire_var ? 0 : wf.fixed_count;
    if (nf != nullptr) {
      if ((wf.kind == TypeKind::kStruct) != (nf->kind == TypeKind::kStruct)) {
        throw CodecError("field '" + wf.name + "': struct vs scalar array");
      }
      if (wire_var && nf->arity != Arity::kVarArray) {
        throw CodecError("field '" + wf.name + "': var array vs scalar");
      }
      if (!wire_var && nf->arity != Arity::kFixedArray) {
        throw CodecError("field '" + wf.name + "': fixed array vs scalar");
      }
      op.native_offset = nf->offset;
      op.native_elem_size = nf->element_size();
      op.native_fixed_capacity = wire_var ? 0 : nf->fixed_count;
    }
    if (wf.kind == TypeKind::kStruct) {
      op.kind = Op::Kind::kStructArray;
      op.min_elem_wire = min_wire_bytes(*wf.struct_format);
      if (nf != nullptr) {
        op.sub_plan = cache.get(wf.struct_format, nf->struct_format, order);
      }
    } else {
      op.kind = Op::Kind::kScalarArray;
      op.min_elem_wire = scalar_size(wf.kind);
      op.native_kind = nf != nullptr ? nf->kind : wf.kind;
      op.bulk_copy_elements = nf != nullptr && nf->kind == wf.kind &&
                              (host_order || scalar_size(wf.kind) == 1);
    }
    ops.push_back(op);
  }
  for (std::uint32_t i = 0; i < receiver->fields.size(); ++i) {
    if (sender->field(receiver->fields[i].name) == nullptr) plan->zero_fields_.push_back(i);
  }
  return plan;
}

std::size_t DecodePlan::block_copy_bytes() const {
  std::size_t total = 0;
  for (const Op& op : ops_) {
    if (op.kind == Op::Kind::kBlockCopy) total += op.wire_bytes;
  }
  return total;
}

void* DecodePlan::execute(ChainReader& reader, std::size_t payload_length,
                          Arena& arena) const {
  const std::size_t start = reader.position();
  auto* record = static_cast<std::uint8_t*>(
      arena.allocate(receiver_->native_size, 16));
  std::memset(record, 0, receiver_->native_size);
  execute_into(reader, record, arena);
  expect_consumed(reader, start, payload_length);
  return record;
}

Value DecodePlan::execute_value(ChainReader& reader, std::size_t payload_length) const {
  const std::size_t start = reader.position();
  Value record = value_record(reader);
  expect_consumed(reader, start, payload_length);
  return record;
}

void DecodePlan::execute_into(ChainReader& reader, std::uint8_t* record,
                              Arena& arena) const {
  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kBlockCopy:
        reader.read_raw(record + op.native_offset, op.wire_bytes);
        break;
      case Op::Kind::kScalar: {
        const Scalar s = read_scalar(reader, op.wire_kind, order_);
        store_scalar(record + op.native_offset, op.native_kind, s);
        break;
      }
      case Op::Kind::kSkipScalar:
        reader.skip(scalar_size(op.wire_kind));
        break;
      case Op::Kind::kString: {
        const std::uint32_t len = reader.read_u32(order_);
        const BytesView chars = reader.read_view(len);
        if (op.native_offset >= 0) {
          char* copy = arena.allocate_array<char>(len + 1);
          std::copy_n(chars.data(), len, copy);  // an empty view's data() is null
          copy[len] = '\0';
          const char* ptr = copy;
          std::memcpy(record + op.native_offset, &ptr, sizeof ptr);
        }
        break;
      }
      case Op::Kind::kStruct:
        if (op.sub_plan) {
          op.sub_plan->execute_into(reader, record + op.native_offset, arena);
        } else {
          skip_record(reader, *op.wire_format, order_);
        }
        break;
      case Op::Kind::kScalarArray: {
        const std::uint32_t count = read_count(op, reader);
        const std::size_t wire_elem = op.min_elem_wire;
        if (op.native_offset < 0) {
          reader.skip(std::size_t{count} * wire_elem);
          break;
        }
        const Slots dst = array_slots(op, count, record, arena);
        if (op.bulk_copy_elements) {
          const std::uint32_t kept = std::min(count, dst.count);
          reader.read_raw(dst.data, std::size_t{kept} * wire_elem);
          reader.skip(std::size_t{count - kept} * wire_elem);
          break;
        }
        for (std::uint32_t i = 0; i < count; ++i) {
          const Scalar s = read_scalar(reader, op.wire_kind, order_);
          if (i < dst.count) {
            store_scalar(dst.data + i * op.native_elem_size, op.native_kind, s);
          }
        }
        break;
      }
      case Op::Kind::kStructArray: {
        const std::uint32_t count = read_count(op, reader);
        const Slots dst =
            op.sub_plan ? array_slots(op, count, record, arena) : Slots{};
        for (std::uint32_t i = 0; i < count; ++i) {
          if (i < dst.count) {
            op.sub_plan->execute_into(reader, dst.data + i * op.native_elem_size,
                                      arena);
          } else {
            skip_record(reader, *op.wire_format, order_);
          }
        }
        break;
      }
    }
  }
}

Value DecodePlan::value_record(ChainReader& reader) const {
  std::vector<Value::NamedValue> fields(receiver_->fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) fields[i].name = receiver_->fields[i].name;
  for (const Op& op : ops_) {
    const std::int32_t slot = value_slots_[op.wire_field];
    switch (op.kind) {
      case Op::Kind::kBlockCopy:
      case Op::Kind::kScalar:
        for (std::uint32_t f = op.wire_field; f < op.wire_field + op.wire_fields; ++f) {
          const TypeKind kind = sender_->fields[f].kind;
          fields[value_slots_[f]].value = scalar_value(read_scalar(reader, kind, order_), kind);
        }
        break;
      case Op::Kind::kSkipScalar:
        reader.skip(scalar_size(op.wire_kind));
        break;
      case Op::Kind::kString: {
        const std::uint32_t len = reader.read_u32(order_);
        if (slot < 0) {
          reader.skip(len);
        } else {
          fields[slot].value = Value{reader.read_string(len)};
        }
        break;
      }
      case Op::Kind::kStruct:
        if (op.sub_plan) {
          fields[slot].value = op.sub_plan->value_record(reader);
        } else {
          skip_record(reader, *op.wire_format, order_);
        }
        break;
      case Op::Kind::kScalarArray: {
        const std::uint32_t count = read_count(op, reader);
        const std::size_t bytes = std::size_t{count} * op.min_elem_wire;
        if (slot < 0) {
          reader.skip(bytes);
        } else if (op.wire_kind == TypeKind::kChar) {
          // Char arrays decode as one bulk string (see the encoder).
          fields[slot].value = Value{reader.read_string(bytes)};
        } else {
          fields[slot].value = detail::widen_words(reader.read_view(bytes), op.wire_kind, order_);
        }
        break;
      }
      case Op::Kind::kStructArray: {
        const std::uint32_t count = read_count(op, reader);
        if (!op.sub_plan) {
          for (std::uint32_t i = 0; i < count; ++i) skip_record(reader, *op.wire_format, order_);
          break;
        }
        std::vector<Value> elements;
        for (std::uint32_t i = 0; i < count; ++i) {
          elements.push_back(op.sub_plan->value_record(reader));
        }
        fields[slot].value = Value{std::move(elements)};
        break;
      }
    }
  }
  for (const std::uint32_t i : zero_fields_) fields[i].value = zero_field(receiver_->fields[i]);
  return Value{std::move(fields)};
}

std::uint32_t DecodePlan::read_count(const Op& op, ChainReader& reader) const {
  const std::uint32_t count =
      op.fixed_count != 0 ? op.fixed_count : reader.read_u32(order_);
  // The count is untrusted: bound it by the bytes left before anything is
  // allocated for it.
  if (count > reader.remaining() / op.min_elem_wire) {
    throw CodecError("PBIO array of " + std::to_string(count) +
                     " elements overruns the payload");
  }
  return count;
}

DecodePlan::Slots DecodePlan::array_slots(const Op& op, std::uint32_t count,
                                          std::uint8_t* record, Arena& arena) {
  if (op.fixed_count != 0) {
    return {record + op.native_offset, op.native_fixed_capacity};
  }
  const std::size_t bytes = std::size_t{count} * op.native_elem_size;
  auto* elems = static_cast<std::uint8_t*>(arena.allocate(bytes, 16));
  std::memset(elems, 0, bytes);
  const RawVarArray va{count, elems};
  std::memcpy(record + op.native_offset, &va, sizeof va);
  return {elems, count};
}

PlanPtr PlanCache::get(const FormatPtr& sender, const FormatPtr& receiver,
                       ByteOrder order) {
  if (!sender || !receiver) throw CodecError("PlanCache::get: null format");
  const Key key{sender->format_id(), receiver->format_id(),
                static_cast<std::uint8_t>(order)};
  {
    std::lock_guard lock(mu_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Compile unlocked: sub-plans come back through get().
  PlanPtr plan = DecodePlan::compile(sender, receiver, order, *this);
  std::lock_guard lock(mu_);
  ++compiles_;
  return plans_.try_emplace(key, std::move(plan)).first->second;
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mu_);
  return plans_.size();
}

std::size_t PlanCache::hit_count() const {
  std::lock_guard lock(mu_);
  return hits_;
}

std::size_t PlanCache::compile_count() const {
  std::lock_guard lock(mu_);
  return compiles_;
}

void* decode_message(BytesView message, const FormatPtr& sender_format,
                     const FormatPtr& receiver_format, PlanCache& cache,
                     Arena& arena) {
  const BufferChain chain = BufferChain::borrowing(message);
  ChainReader reader(chain);
  const WireHeader header = read_header(reader);
  if (header.format_id != sender_format->format_id()) {
    throw CodecError("message format id does not match sender format");
  }
  const PlanPtr plan = cache.get(sender_format, receiver_format, header.sender_order);
  return plan->execute(reader, header.payload_length, arena);
}

Value decode_value_payload(ChainReader& reader, std::size_t payload_length,
                           ByteOrder sender_order, const FormatDesc& format) {
  static PlanCache plans;
  const FormatPtr owned = format.shared_from_this();
  return plans.get(owned, owned, sender_order)->execute_value(reader, payload_length);
}

Value decode_value_message(BytesView message, const FormatDesc& format) {
  const BufferChain chain = BufferChain::borrowing(message);
  ChainReader reader(chain);
  const WireHeader header = read_header(reader);
  if (header.format_id != format.format_id()) {
    throw CodecError("value message format id mismatch");
  }
  return decode_value_payload(reader, header.payload_length, header.sender_order, format);
}

}  // namespace sbq::pbio
