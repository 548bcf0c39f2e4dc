// Property-based tests: randomly generated PBIO formats and values pushed
// through every codec path, checking roundtrip and algebraic laws:
//
//   decode(encode(v))            == v          (binary, both byte orders)
//   xml_read(xml_write(v))       == v          (XML codec, both styles)
//   project(v, F)                is encodable under F
//   encode(plan_S→R(encode(v)))  == encode(project(v, R))  (wire bytes)
//   plan_S→R(encode(v))          == project(v, R)          (Values)
//   project(project(v, S), F)    zero-pads exactly the fields F \ S
//   zero_value(F)                is a fixed point of project(·, F)
//
// Each seed generates a different format shape (nesting, arrays, strings,
// char blobs) and a matching random value.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "pbio/encode.h"
#include "pbio/plan.h"
#include "pbio/value_codec.h"
#include "soap/codec.h"
#include "support/wire.h"

namespace sbq::pbio {
namespace {

using sbq::Rng;
using test::decode_wire;
using test::value_wire;

/// Random scalar kind (no struct/string — handled separately).
TypeKind random_scalar_kind(Rng& rng) {
  static constexpr TypeKind kinds[] = {
      TypeKind::kInt32,   TypeKind::kInt64,   TypeKind::kUInt32,
      TypeKind::kUInt64,  TypeKind::kFloat32, TypeKind::kFloat64,
      TypeKind::kChar,
  };
  return kinds[rng.next_below(std::size(kinds))];
}

FormatPtr random_format(Rng& rng, int depth_budget, int id = 0) {
  FormatBuilder builder("fmt_d" + std::to_string(depth_budget) + "_" +
                        std::to_string(id));
  const int field_count = static_cast<int>(rng.uniform_int(1, 5));
  for (int f = 0; f < field_count; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    const double roll = rng.next_double();
    if (roll < 0.15) {
      builder.add_string(name);
    } else if (roll < 0.30) {
      builder.add_var_array(name, random_scalar_kind(rng));
    } else if (roll < 0.40) {
      builder.add_fixed_array(name, random_scalar_kind(rng),
                              static_cast<std::uint32_t>(rng.uniform_int(1, 4)));
    } else if (roll < 0.55 && depth_budget > 0) {
      FormatPtr sub = random_format(rng, depth_budget - 1, f);
      const double shape = rng.next_double();
      if (shape < 0.4) {
        builder.add_struct(name, std::move(sub));
      } else if (shape < 0.8) {
        builder.add_struct_var_array(name, std::move(sub));
      } else {
        builder.add_struct_fixed_array(
            name, std::move(sub), static_cast<std::uint32_t>(rng.uniform_int(1, 3)));
      }
    } else {
      builder.add_scalar(name, random_scalar_kind(rng));
    }
  }
  return builder.build();
}

Value random_scalar(Rng& rng, TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt32:
      return Value{static_cast<std::int64_t>(
          static_cast<std::int32_t>(rng.next_u64()))};
    case TypeKind::kInt64:
      return Value{static_cast<std::int64_t>(rng.next_u64())};
    case TypeKind::kUInt32:
      return Value{static_cast<std::uint64_t>(static_cast<std::uint32_t>(rng.next_u64()))};
    case TypeKind::kUInt64:
      return Value{rng.next_u64()};
    case TypeKind::kFloat32:
      // Values exactly representable in float32 so roundtrips are exact.
      return Value{static_cast<double>(static_cast<float>(rng.uniform(-1e6, 1e6)))};
    case TypeKind::kFloat64:
      return Value{rng.uniform(-1e12, 1e12)};
    case TypeKind::kChar:
      return Value{static_cast<char>(rng.uniform_int(0, 127))};
    default:
      throw CodecError("not a scalar");
  }
}

std::string random_text(Rng& rng) {
  // Includes XML-hostile characters to stress escaping.
  static constexpr char alphabet[] =
      "abcXYZ012 <>&\"'\t\n_-#;:[]{}";
  std::string out;
  const int len = static_cast<int>(rng.uniform_int(0, 24));
  for (int i = 0; i < len; ++i) {
    out += alphabet[rng.next_below(std::size(alphabet) - 1)];
  }
  return out;
}

Value random_value(Rng& rng, const FormatDesc& format) {
  Value record = Value::empty_record();
  for (const FieldDesc& field : format.fields) {
    const std::uint32_t count = field.arity == Arity::kFixedArray
                                    ? field.fixed_count
                                    : static_cast<std::uint32_t>(rng.uniform_int(0, 6));
    switch (field.arity) {
      case Arity::kScalar:
        if (field.kind == TypeKind::kString) {
          record.set_field(field.name, Value{random_text(rng)});
        } else if (field.kind == TypeKind::kStruct) {
          record.set_field(field.name, random_value(rng, *field.struct_format));
        } else {
          record.set_field(field.name, random_scalar(rng, field.kind));
        }
        break;
      case Arity::kFixedArray:
      case Arity::kVarArray: {
        if (field.kind == TypeKind::kChar) {
          // Bulk char arrays as strings (binary bytes allowed).
          std::string blob;
          for (std::uint32_t i = 0; i < count; ++i) {
            blob += static_cast<char>(rng.next_below(256));
          }
          record.set_field(field.name, Value{std::move(blob)});
          break;
        }
        Value array = Value::empty_array();
        for (std::uint32_t i = 0; i < count; ++i) {
          if (field.kind == TypeKind::kStruct) {
            array.push_back(random_value(rng, *field.struct_format));
          } else {
            array.push_back(random_scalar(rng, field.kind));
          }
        }
        record.set_field(field.name, std::move(array));
        break;
      }
    }
  }
  return record;
}

/// Adds a field shaped like `f` (name, kind, arity, sub-format) to `builder`.
void add_field_like(FormatBuilder& builder, const FieldDesc& f) {
  switch (f.arity) {
    case Arity::kScalar:
      if (f.kind == TypeKind::kString) {
        builder.add_string(f.name);
      } else if (f.kind == TypeKind::kStruct) {
        builder.add_struct(f.name, f.struct_format);
      } else {
        builder.add_scalar(f.name, f.kind);
      }
      break;
    case Arity::kFixedArray:
      if (f.kind == TypeKind::kStruct) {
        builder.add_struct_fixed_array(f.name, f.struct_format, f.fixed_count);
      } else {
        builder.add_fixed_array(f.name, f.kind, f.fixed_count);
      }
      break;
    case Arity::kVarArray:
      if (f.kind == TypeKind::kStruct) {
        builder.add_struct_var_array(f.name, f.struct_format);
      } else {
        builder.add_var_array(f.name, f.kind);
      }
      break;
  }
}

class CodecProperties : public ::testing::TestWithParam<int> {};

TEST_P(CodecProperties, BinaryRoundTripHostOrder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const FormatPtr format = random_format(rng, 2);
  const Value v = random_value(rng, *format);
  const Bytes wire = value_wire(v, *format);
  EXPECT_EQ(decode_value_message(BytesView{wire}, *format), v)
      << "format: " << format->canonical();
}

TEST_P(CodecProperties, CopiesAndMovesPreserveValueAndWire) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 8000);
  const FormatPtr format = random_format(rng, 2);
  const Value original = random_value(rng, *format);
  const Value copy = original;
  Value source = original;
  const Value moved = std::move(source);
  EXPECT_EQ(copy, original);
  EXPECT_EQ(moved, original);
  const Bytes wire = value_wire(original, *format);
  EXPECT_EQ(value_wire(copy, *format), wire) << "format: " << format->canonical();
  EXPECT_EQ(value_wire(moved, *format), wire) << "format: " << format->canonical();
}

TEST_P(CodecProperties, BinaryRoundTripForeignOrder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const FormatPtr format = random_format(rng, 2);
  const Value v = random_value(rng, *format);
  const ByteOrder foreign = host_byte_order() == ByteOrder::kLittle
                                ? ByteOrder::kBig
                                : ByteOrder::kLittle;
  const Bytes wire = value_wire(v, *format, foreign);
  EXPECT_EQ(decode_value_message(BytesView{wire}, *format), v)
      << "format: " << format->canonical();
}

TEST_P(CodecProperties, XmlRoundTripBothStyles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const FormatPtr format = random_format(rng, 2);
  const Value v = random_value(rng, *format);
  for (const bool typed : {false, true}) {
    const std::string xml =
        soap::value_to_xml(v, *format, "doc", soap::XmlStyle{.typed = typed});
    EXPECT_EQ(soap::value_from_xml(xml, *format), v)
        << "typed=" << typed << " format: " << format->canonical();
  }
}

TEST_P(CodecProperties, FormatSerializationRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  const FormatPtr format = random_format(rng, 3);
  const FormatPtr back = deserialize_format(BytesView{serialize_format(*format)});
  EXPECT_EQ(back->canonical(), format->canonical());
  EXPECT_EQ(back->format_id(), format->format_id());
  EXPECT_EQ(min_wire_bytes(*back), min_wire_bytes(*format));
}

TEST_P(CodecProperties, ProjectionLaws) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4000);
  const FormatPtr full = random_format(rng, 2);
  const Value v = random_value(rng, *full);

  // Projection onto the same format preserves encodability and all fields.
  const Value same = project_value(v, *full);
  (void)encode_value_message_chain(same, *full);
  EXPECT_EQ(same, v) << full->canonical();

  // Projection onto a subset format keeps shared top-level fields.
  if (full->fields.size() > 1) {
    FormatBuilder sub_builder("sub");
    const FieldDesc& keep = full->fields.front();
    add_field_like(sub_builder, keep);
    const FormatPtr sub = sub_builder.build();
    const Value projected = project_value(v, *sub);
    EXPECT_EQ(projected.field(keep.name), v.field(keep.name));
    // And the projection must be encodable under the subset format.
    (void)encode_value_message_chain(projected, *sub);

    // Lifting back: shared field survives, others are zero.
    const Value lifted = project_value(projected, *full);
    EXPECT_EQ(lifted.field(keep.name), v.field(keep.name));
    const Value zeros = zero_value(*full);
    for (std::size_t i = 1; i < full->fields.size(); ++i) {
      EXPECT_EQ(lifted.field(full->fields[i].name),
                zeros.field(full->fields[i].name));
    }
  }
}

TEST_P(CodecProperties, ZeroValueIsProjectionFixedPoint) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 5000);
  const FormatPtr format = random_format(rng, 2);
  const Value zeros = zero_value(*format);
  EXPECT_EQ(project_value(zeros, *format), zeros);
  // And it round-trips the wire.
  const Bytes wire = value_wire(zeros, *format);
  EXPECT_EQ(decode_value_message(BytesView{wire}, *format), zeros);
}

TEST_P(CodecProperties, PlannedDecodeMatchesInterpretive) {
  // The compiled plan must agree with projection, which shares no decode
  // code with it: decoding through the plan and re-encoding the record
  // gives the bytes of the value projected onto the receiver format.
  // Exercised with matching and with differing sender/receiver formats, in
  // both byte orders.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  const FormatPtr sender = random_format(rng, 2);
  const Value v = random_value(rng, *sender);

  // A receiver that drops the last field and reverses the rest (when there
  // is more than one) exercises skip paths and by-name field matching.
  FormatPtr receiver = sender;
  if (sender->fields.size() > 1 && rng.chance(0.5)) {
    FormatBuilder rb("recv");
    for (std::size_t i = sender->fields.size() - 1; i-- > 0;) {
      add_field_like(rb, sender->fields[i]);
    }
    receiver = rb.build();
  }
  const Bytes expected = value_wire(project_value(v, *receiver), *receiver);

  PlanCache plans;
  for (const ByteOrder order : {ByteOrder::kLittle, ByteOrder::kBig}) {
    const Bytes wire = value_wire(v, *sender, order);
    const Value planned = decode_wire(BytesView{wire}, sender, receiver, plans);
    EXPECT_EQ(value_wire(planned, *receiver), expected)
        << "sender: " << sender->canonical()
        << "\nreceiver: " << receiver->canonical()
        << "\norder: " << static_cast<int>(order);
  }
}

/// A receiver derived from `sender`: its fields in reverse order, each
/// dropped with probability 1/4, struct fields and struct arrays over
/// receivers derived from their sub-formats, and one added field.
FormatPtr derive_receiver(Rng& rng, const FormatDesc& sender) {
  FormatBuilder builder("recv_" + sender.name);
  for (std::size_t i = sender.fields.size(); i-- > 0;) {
    FieldDesc field = sender.fields[i];
    if (rng.chance(0.25)) continue;
    if (field.kind == TypeKind::kStruct) {
      field.struct_format = derive_receiver(rng, *field.struct_format);
    }
    add_field_like(builder, field);
  }
  FieldDesc added = random_format(rng, 1)->fields.front();
  added.name = "added";
  add_field_like(builder, added);
  return builder.build();
}

TEST_P(CodecProperties, PlannedValueDecodeMatchesProjection) {
  // The plan's Value sink lifts and pads in the decode itself: what it
  // builds from a sender's message is the sent value projected onto the
  // receiver. The sender always nests a struct and a struct array, in both
  // byte orders, read from one segment and from 7-byte segments.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 10000);
  const FormatPtr base = random_format(rng, 2);
  FormatBuilder sb("sender");
  for (const FieldDesc& field : base->fields) add_field_like(sb, field);
  sb.add_struct("nested", random_format(rng, 1, 7));
  sb.add_struct_var_array("nested_items", random_format(rng, 1, 8));
  const FormatPtr sender = sb.build();
  const FormatPtr receiver = derive_receiver(rng, *sender);
  const Value v = random_value(rng, *sender);
  const Value expected = project_value(v, *receiver);

  PlanCache plans;
  for (const ByteOrder order : {ByteOrder::kLittle, ByteOrder::kBig}) {
    const Bytes wire = value_wire(v, *sender, order);
    BufferChain whole = BufferChain::borrowing(BytesView{wire});
    BufferChain segmented;
    for (std::size_t at = 0; at < wire.size(); at += 7) {
      segmented.append_view(
          BytesView{wire}.subspan(at, std::min<std::size_t>(7, wire.size() - at)));
    }
    for (const BufferChain* chain : {&whole, &segmented}) {
      ChainReader reader(*chain);
      const WireHeader header = read_header(reader);
      EXPECT_EQ(plans.get(sender, receiver, header.sender_order)
                    ->execute_value(reader, header.payload_length),
                expected)
          << "sender: " << sender->canonical() << "\nreceiver: " << receiver->canonical()
          << "\norder: " << static_cast<int>(order) << ", segments "
          << chain->segment_count();
    }
  }
}

TEST(PlanShapes, FieldShapesNoConversionBridgesFailToCompile) {
  // Matched by name, these fields differ in shape, not kind: scalar vs
  // array, struct vs non-struct, fixed vs var array, string vs char array.
  const FormatPtr point = FormatBuilder("pt").add_scalar("x", TypeKind::kFloat64).build();
  const std::vector<std::pair<FormatPtr, FormatPtr>> pairs = {
      {FormatBuilder("m").add_scalar("f", TypeKind::kInt32).build(),
       FormatBuilder("m").add_var_array("f", TypeKind::kInt32).build()},
      {FormatBuilder("m").add_struct("f", point).build(),
       FormatBuilder("m").add_scalar("f", TypeKind::kFloat64).build()},
      {FormatBuilder("m").add_fixed_array("f", TypeKind::kInt32, 2).build(),
       FormatBuilder("m").add_var_array("f", TypeKind::kInt32).build()},
      {FormatBuilder("m").add_string("f").build(),
       FormatBuilder("m").add_var_array("f", TypeKind::kChar).build()},
  };
  const Value values[] = {
      Value::record({{"f", 1}}),
      Value::record({{"f", Value::record({{"x", 0.5}})}}),
      Value::record({{"f", Value::array({1, 2})}}),
      Value::record({{"f", "text"}}),
  };
  PlanCache plans;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [sender, receiver] = pairs[i];
    for (const auto& [from, to] : {pairs[i], std::pair{receiver, sender}}) {
      EXPECT_THROW((void)plans.get(from, to, host_byte_order()), CodecError)
          << from->canonical() << " -> " << to->canonical();
    }
    const BufferChain message = encode_value_message_chain(values[i], *sender);
    ChainReader reader(message);
    const WireHeader header = read_header(reader);
    EXPECT_THROW(
        (void)plans.get(sender, receiver, header.sender_order)
            ->execute_value(reader, header.payload_length),
        CodecError)
        << sender->canonical();
  }
}

/// Value::array over `e`: the literal form takes only a braced list.
Value array_literal(const std::vector<Value>& e) {
  switch (e.size()) {
    case 0: return Value::array({});
    case 1: return Value::array({e[0]});
    case 2: return Value::array({e[0], e[1]});
    case 3: return Value::array({e[0], e[1], e[2]});
    case 4: return Value::array({e[0], e[1], e[2], e[3]});
    case 5: return Value::array({e[0], e[1], e[2], e[3], e[4]});
    default: return Value::array({e[0], e[1], e[2], e[3], e[4], e[5]});
  }
}

TEST_P(CodecProperties, ArrayStorageFormIsInvisible) {
  // A scalar array built with push_back, with Value::array, as a vector of
  // Values, and by decoding (flat and chained) is one value: same bytes in
  // both byte orders, equal, and rendered alike; a mixed-class vector of
  // the same numbers gives the same bytes. All six numeric kinds, fixed
  // and variable arrays.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 9000);
  static constexpr TypeKind kinds[] = {TypeKind::kInt32,   TypeKind::kInt64,
                                       TypeKind::kUInt32,  TypeKind::kUInt64,
                                       TypeKind::kFloat32, TypeKind::kFloat64};
  for (const TypeKind kind : kinds) {
    for (const bool fixed : {false, true}) {
      const auto count = static_cast<std::uint32_t>(rng.uniform_int(fixed ? 1 : 0, 6));
      FormatBuilder builder("arr");
      builder.add_scalar("id", TypeKind::kInt32);
      if (fixed) {
        builder.add_fixed_array("a", kind, count);
      } else {
        builder.add_var_array("a", kind);
      }
      const FormatPtr format = builder.build();

      std::vector<Value> elements;
      Value pushed = Value::empty_array();
      for (std::uint32_t i = 0; i < count; ++i) {
        elements.push_back(random_scalar(rng, kind));
        pushed.push_back(elements.back());
      }
      const auto record = [](Value array) {
        return Value::record({{"id", 7}, {"a", std::move(array)}});
      };
      std::vector<Value> forms = {record(pushed), record(array_literal(elements)),
                                  record(Value{elements})};
      for (const ByteOrder order : {ByteOrder::kLittle, ByteOrder::kBig}) {
        const Bytes wire = value_wire(forms[0], *format, order);
        forms.push_back(decode_value_message(BytesView{wire}, *format));
        const BufferChain chain = encode_value_message_chain(forms[1], *format, order);
        ChainReader reader(chain);
        const WireHeader header = read_header(reader);
        forms.push_back(
            decode_value_payload(reader, header.payload_length, header.sender_order, *format));
      }
      const std::string where = "kind " + std::string(kind_name(kind)) +
                                (fixed ? " fixed" : " var") + " count " +
                                std::to_string(count);
      // Mixed classes: every other element re-expressed in a class whose
      // conversion to the wire word is exact (u64 for the signed kinds,
      // i64 for the unsigned ones). Same bytes, though not an equal Value.
      std::vector<Value> mixed = elements;
      for (std::size_t i = 1; i < mixed.size() && kind != TypeKind::kFloat32 &&
                              kind != TypeKind::kFloat64;
           i += 2) {
        const bool is_signed = kind == TypeKind::kInt32 || kind == TypeKind::kInt64;
        mixed[i] = is_signed ? Value{static_cast<std::uint64_t>(mixed[i].as_i64())}
                             : Value{static_cast<std::int64_t>(mixed[i].as_u64())};
      }
      for (const ByteOrder order : {ByteOrder::kLittle, ByteOrder::kBig}) {
        const Bytes wire = value_wire(forms[0], *format, order);
        EXPECT_EQ(value_wire(record(Value{mixed}), *format, order), wire) << where;
        for (const Value& form : forms) {
          EXPECT_EQ(value_wire(form, *format, order), wire) << where;
        }
        // The header is 13 bytes: format id, byte order, payload length.
        const BufferChain flat = BufferChain::borrowing(BytesView{wire});
        ChainReader header_reader(flat);
        EXPECT_EQ(read_header(header_reader).payload_length, wire.size() - 13) << where;
      }
      for (const Value& form : forms) {
        EXPECT_EQ(form, forms[0]) << where;
        EXPECT_EQ(forms[0], form) << where;
        EXPECT_EQ(form.to_debug_string(), forms[0].to_debug_string()) << where;
      }
    }
  }
}

TEST_P(CodecProperties, TruncatedWirePayloadsNeverCrash) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 6000);
  const FormatPtr format = random_format(rng, 2);
  const Value v = random_value(rng, *format);
  const Bytes wire = value_wire(v, *format);
  // Every strict prefix must either throw CodecError or be rejected — no
  // UB, no silent success with different content.
  for (std::size_t cut = 0; cut < wire.size();
       cut += 1 + wire.size() / 23) {
    Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
    try {
      const Value decoded = decode_value_message(BytesView{prefix}, *format);
      ADD_FAILURE() << "prefix of " << cut << "/" << wire.size()
                    << " bytes decoded successfully";
    } catch (const CodecError&) {
      // expected
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperties, ::testing::Range(1, 33));

}  // namespace
}  // namespace sbq::pbio
