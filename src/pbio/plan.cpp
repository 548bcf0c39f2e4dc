#include "pbio/plan.h"

#include "common/error.h"
#include "pbio/array_words.h"
#include "pbio/encode.h"
#include "pbio/value_codec.h"

namespace sbq::pbio {

namespace {

/// Reads one wire scalar of `kind` in `order`, as the Value of its class,
/// widened.
Value read_scalar(ChainReader& reader, TypeKind kind, ByteOrder order) {
  switch (kind) {
    case TypeKind::kInt32:
      return Value{std::int64_t{static_cast<std::int32_t>(reader.read_u32(order))}};
    case TypeKind::kInt64: return Value{static_cast<std::int64_t>(reader.read_u64(order))};
    case TypeKind::kUInt32: return Value{std::uint64_t{reader.read_u32(order)}};
    case TypeKind::kUInt64: return Value{reader.read_u64(order)};
    case TypeKind::kFloat32: return Value{double{reader.read_f32(order)}};
    case TypeKind::kFloat64: return Value{reader.read_f64(order)};
    case TypeKind::kChar: return Value{static_cast<char>(reader.read_u8())};
    default: throw CodecError("read_scalar: not a scalar kind");
  }
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

}  // namespace

PlanPtr DecodePlan::compile(FormatPtr sender, FormatPtr receiver, ByteOrder order,
                            PlanCache& cache) {
  std::shared_ptr<DecodePlan> plan(new DecodePlan(sender, receiver, order));
  for (const FieldDesc& wf : sender->fields) {
    const FieldDesc* nf = receiver->field(wf.name);
    Op op;
    op.wire_kind = wf.kind;
    if (nf != nullptr) op.slot = static_cast<std::int32_t>(nf - receiver->fields.data());

    if (is_plain_scalar(wf)) {
      if (nf != nullptr && !is_plain_scalar(*nf)) {
        throw CodecError("field '" + wf.name + "': scalar vs non-scalar");
      }
      op.kind = Op::Kind::kScalar;
    } else if (wf.kind == TypeKind::kString) {
      if (nf != nullptr && nf->kind != TypeKind::kString) {
        throw CodecError("field '" + wf.name + "': string vs non-string");
      }
      op.kind = Op::Kind::kString;
    } else if (wf.kind == TypeKind::kStruct && wf.arity == Arity::kScalar) {
      if (nf != nullptr &&
          (nf->kind != TypeKind::kStruct || nf->arity != Arity::kScalar)) {
        throw CodecError("field '" + wf.name + "': struct vs non-struct");
      }
      op.kind = Op::Kind::kStruct;
      op.wire_format = wf.struct_format.get();
    } else {
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
      }
      if (wf.kind == TypeKind::kStruct) {
        op.kind = Op::Kind::kStructArray;
        op.wire_format = wf.struct_format.get();
        op.min_elem_wire = min_wire_bytes(*wf.struct_format);
      } else {
        op.kind = Op::Kind::kScalarArray;
        op.min_elem_wire = scalar_size(wf.kind);
      }
    }
    if (op.wire_format != nullptr && nf != nullptr) {
      op.sub_plan = cache.get(wf.struct_format, nf->struct_format, order);
    }
    plan->ops_.push_back(std::move(op));
  }
  for (std::uint32_t i = 0; i < receiver->fields.size(); ++i) {
    if (sender->field(receiver->fields[i].name) == nullptr) plan->zero_fields_.push_back(i);
  }
  return plan;
}

Value DecodePlan::execute_value(ChainReader& reader, std::size_t payload_length) const {
  const std::size_t start = reader.position();
  Value record = value_record(reader);
  expect_consumed(reader, start, payload_length);
  return record;
}

Value DecodePlan::value_record(ChainReader& reader) const {
  std::vector<Value::NamedValue> fields(receiver_->fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) fields[i].name = receiver_->fields[i].name;
  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kScalar:
        if (op.slot < 0) {
          reader.skip(scalar_size(op.wire_kind));
        } else {
          fields[op.slot].value = read_scalar(reader, op.wire_kind, order_);
        }
        break;
      case Op::Kind::kString: {
        const std::uint32_t len = reader.read_u32(order_);
        if (op.slot < 0) {
          reader.skip(len);
        } else {
          fields[op.slot].value = Value{reader.read_string(len)};
        }
        break;
      }
      case Op::Kind::kStruct:
        if (op.sub_plan) {
          fields[op.slot].value = op.sub_plan->value_record(reader);
        } else {
          skip_record(reader, *op.wire_format, order_);
        }
        break;
      case Op::Kind::kScalarArray: {
        const std::uint32_t count = read_count(op, reader);
        const std::size_t bytes = std::size_t{count} * op.min_elem_wire;
        if (op.slot < 0) {
          reader.skip(bytes);
        } else if (op.wire_kind == TypeKind::kChar) {
          // Char arrays decode as one bulk string (see the encoder).
          fields[op.slot].value = Value{reader.read_string(bytes)};
        } else {
          fields[op.slot].value =
              detail::widen_words(reader.read_view(bytes), op.wire_kind, order_);
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
        fields[op.slot].value = Value{std::move(elements)};
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
