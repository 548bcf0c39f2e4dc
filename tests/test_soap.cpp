// Unit tests for the SOAP layer: XML parameter codec, envelopes, faults,
// base64 bulk char arrays, and XML-vs-PBIO size characteristics the paper
// reports.
#include <gtest/gtest.h>

#include "common/base64.h"
#include "pbio/value_codec.h"
#include "soap/codec.h"
#include "soap/envelope.h"
#include "support/wire.h"
#include "xml/escape.h"
#include "xml/reader.h"

namespace sbq::soap {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

FormatPtr sensor_format() {
  return FormatBuilder("sensor")
      .add_scalar("id", TypeKind::kInt32)
      .add_scalar("reading", TypeKind::kFloat64)
      .add_string("label")
      .add_var_array("samples", TypeKind::kInt32)
      .build();
}

Value sensor_value() {
  return Value::record({{"id", 42},
                        {"reading", 2.5},
                        {"label", "cam<1>"},
                        {"samples", Value::array({7, -8, 9})}});
}

TEST(Codec, WritesTypedElements) {
  const std::string xml = value_to_xml(sensor_value(), *sensor_format(), "sensor");
  EXPECT_EQ(xml,
            "<sensor><id>42</id><reading>2.5</reading><label>cam&lt;1&gt;</label>"
            "<samples><item>7</item><item>-8</item><item>9</item></samples>"
            "</sensor>");
}

TEST(Codec, RoundTrips) {
  const std::string xml = value_to_xml(sensor_value(), *sensor_format(), "sensor");
  EXPECT_EQ(value_from_xml(xml, *sensor_format()), sensor_value());
}

TEST(Codec, NestedStructRoundTrip) {
  auto point = FormatBuilder("point")
                   .add_scalar("x", TypeKind::kFloat64)
                   .add_scalar("y", TypeKind::kFloat64)
                   .build();
  auto shape = FormatBuilder("shape")
                   .add_string("name")
                   .add_struct_var_array("points", point)
                   .build();
  const Value v = Value::record(
      {{"name", "tri"},
       {"points", Value::array({Value::record({{"x", 0.0}, {"y", 0.0}}),
                                Value::record({{"x", 1.0}, {"y", 0.5}}),
                                Value::record({{"x", -1.5}, {"y", 2.0}})})}});
  const std::string xml = value_to_xml(v, *shape, "shape");
  EXPECT_EQ(value_from_xml(xml, *shape), v);
}

TEST(Codec, MissingElementThrows) {
  EXPECT_THROW(value_from_xml("<sensor><id>1</id></sensor>", *sensor_format()), ParseError);
}

TEST(Codec, MissingRecordFieldThrows) {
  const Value incomplete = Value::record({{"id", 1}});
  EXPECT_THROW(value_to_xml(incomplete, *sensor_format(), "sensor"), CodecError);
}

TEST(Codec, CharArraysTravelAsBase64) {
  auto blob_format = FormatBuilder("blob")
                         .add_scalar("n", TypeKind::kInt32)
                         .add_var_array("data", TypeKind::kChar)
                         .build();
  const std::string raw = "binary\x01\x02\xFF bytes";
  const Value v = Value::record({{"n", 1}, {"data", raw}});
  const std::string xml = value_to_xml(v, *blob_format, "blob");
  EXPECT_NE(xml.find(base64_encode(std::string_view{raw})), std::string::npos);
  const Value back = value_from_xml(xml, *blob_format);
  EXPECT_EQ(back.field("data").as_string(), raw);
}

Value sample(TypeKind kind, int seed) {
  switch (kind) {
    case TypeKind::kInt32: return Value{std::int64_t{seed * 7 - 3}};
    case TypeKind::kUInt64: return Value{static_cast<std::uint64_t>(seed) * 1000003u};
    case TypeKind::kFloat64: return Value{0.25 * seed - 1.0};
    case TypeKind::kChar: return Value{static_cast<char>('a' + seed % 26)};
    default: return Value{"s<" + std::to_string(seed) + "&>"};
  }
}

FormatBuilder& add_scalar(FormatBuilder& builder, std::string name, TypeKind kind) {
  return kind == TypeKind::kString ? builder.add_string(std::move(name))
                                   : builder.add_scalar(std::move(name), kind);
}
FormatBuilder& add_scalar(FormatBuilder&& builder, std::string name, TypeKind kind) {
  return add_scalar(builder, std::move(name), kind);
}

std::string xsd_name(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt32: return "xsd:int";
    case TypeKind::kUInt64: return "xsd:unsignedLong";
    case TypeKind::kFloat64: return "xsd:double";
    case TypeKind::kChar: return "xsd:byte";
    default: return "xsd:string";
  }
}

TEST(Codec, FormatsRebuiltAtReusedAddressesRoundTrip) {
  // Each round builds and drops formats that share their field names but
  // not their struct names or kinds, so the allocator hands the same
  // addresses out again: every call must write and read the tags of the
  // format it is given, not those of one that lived at its address.
  const TypeKind kinds[] = {TypeKind::kInt32, TypeKind::kString, TypeKind::kFloat64,
                            TypeKind::kUInt64, TypeKind::kChar};
  for (int round = 0; round < 60; ++round) {
    const TypeKind a = kinds[round % 5];
    const TypeKind b = kinds[(round / 5 + round + 1) % 5];
    const TypeKind element = b == TypeKind::kString ? TypeKind::kUInt64 : b;
    std::string inner_name = round % 2 == 0 ? "odd&<'\">" : "inner";
    inner_name += std::to_string(round);
    const FormatPtr inner =
        add_scalar(FormatBuilder(inner_name), "id", a).add_var_array("v", element).build();
    const Value inner_value =
        Value::record({{"id", sample(a, round)},
                       {"v", Value::array({sample(element, round), sample(element, round + 1)})}});
    FormatPtr outer;
    Value value;
    if (round % 3 == 0) {
      outer = add_scalar(FormatBuilder("outer"), "v", b).add_struct("id", inner).build();
      value = Value::record({{"v", sample(b, round + 2)}, {"id", inner_value}});
    } else {
      FormatBuilder builder("outer");
      builder.add_struct("id", inner).add_struct_var_array("v", inner);
      outer = add_scalar(builder, "x", a).build();
      value = Value::record({{"id", inner_value},
                             {"v", Value::array({inner_value, inner_value})},
                             {"x", sample(a, round + 3)}});
    }
    const std::string envelope = build_request("op", value, *outer);
    const std::string struct_type = "xsi:type=\"tns:" + xml::escape(inner_name) + "\"";
    EXPECT_NE(envelope.find("<id " + struct_type + ">"), std::string::npos) << envelope;
    EXPECT_NE(envelope.find("<id xsi:type=\"" + xsd_name(a) + "\">"), std::string::npos)
        << envelope;
    EXPECT_EQ(decode_body(parse_envelope(envelope), *outer), value) << envelope;
    const std::string compact = value_to_xml(value, *outer, "p");
    EXPECT_EQ(value_from_xml(compact, *outer), value) << compact;
  }
}

TEST(Codec, FieldNamesTheLexerReadsOtherwiseAreStillRejected) {
  // A prefixed name reads as its local part, which names no field, and a
  // name that is not an XML name makes the document malformed: each
  // document this codec writes for such a field is rejected.
  for (const char* name : {"x:y", "a\"b", "a b", "1a"}) {
    const FormatPtr format = FormatBuilder("f").add_scalar(name, TypeKind::kInt32).build();
    const Value value = Value::record({{name, 1}});
    EXPECT_THROW(decode_body(parse_envelope(build_request("op", value, *format)), *format),
                 ParseError)
        << name;
    EXPECT_THROW(value_from_xml(value_to_xml(value, *format, "p"), *format), ParseError) << name;
  }
}

TEST(Codec, NestingBeyondTheReaderLimitFailsAsTheLexerDoes) {
  FormatPtr format = FormatBuilder("leaf").add_scalar("x", TypeKind::kInt32).build();
  Value value = Value::record({{"x", 1}});
  for (int level = 0; level < xml::kDefaultMaxDepth + 8; ++level) {
    std::string name = "n";
    name += std::to_string(level);
    format = FormatBuilder(name).add_struct("c", format).build();
    value = Value::record({{"c", std::move(value)}});
  }
  const auto lexer_error = [](const std::string& document) {
    try {
      xml::Reader reader(document);
      while (reader.next() != xml::Reader::Token::kEndOfDocument) {
      }
    } catch (const xml::XmlError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string compact = value_to_xml(value, *format, "p");
  ASSERT_NE(lexer_error(compact), "");
  try {
    (void)value_from_xml(compact, *format);
    ADD_FAILURE() << "compact document decoded";
  } catch (const xml::XmlError& e) {
    EXPECT_EQ(std::string(e.what()), lexer_error(compact));
  }
  const std::string envelope = build_request("op", value, *format);
  ASSERT_NE(lexer_error(envelope), "");
  try {
    (void)decode_body(parse_envelope(envelope), *format);
    ADD_FAILURE() << "typed envelope decoded";
  } catch (const xml::XmlError& e) {
    EXPECT_EQ(std::string(e.what()), lexer_error(envelope));
  }
}

TEST(Codec, XmlIsSeveralTimesLargerThanPbioForArrays) {
  // The paper: XML parameters are ~4-5x the corresponding PBIO message for
  // arrays (redundant per-element tags).
  Value big = Value::empty_record();
  Value samples = Value::empty_array();
  for (int i = 0; i < 10000; ++i) samples.push_back(100000 + i);
  big.set_field("id", 1);
  big.set_field("reading", 1.0);
  big.set_field("label", "x");
  big.set_field("samples", std::move(samples));

  const std::string xml = value_to_xml(big, *sensor_format(), "sensor");
  const Bytes bin = test::value_wire(big, *sensor_format());
  const double ratio = static_cast<double>(xml.size()) / static_cast<double>(bin.size());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 8.0);
}

TEST(Codec, NestedStructXmlInflationExceedsArrayInflation) {
  // The paper: "the difference is even greater for the nested structure".
  FormatPtr inner = FormatBuilder("leaf")
                        .add_scalar("a", TypeKind::kInt32)
                        .add_scalar("b", TypeKind::kInt32)
                        .build();
  Value leaf = Value::record({{"a", 1}, {"b", 2}});
  FormatPtr fmt = inner;
  Value v = leaf;
  for (int depth = 0; depth < 8; ++depth) {
    fmt = FormatBuilder("level" + std::to_string(depth))
              .add_scalar("tag", TypeKind::kInt32)
              .add_struct("child0", fmt)
              .add_struct("child1", fmt)
              .build();
    v = Value::record({{"tag", depth}, {"child0", v}, {"child1", v}});
  }
  const std::string xml = value_to_xml(v, *fmt, "root");
  const Bytes bin = test::value_wire(v, *fmt);
  const double struct_ratio =
      static_cast<double>(xml.size()) / static_cast<double>(bin.size());

  // Array of the same binary size, for comparison.
  Value arr_holder = Value::record({{"id", 1},
                                    {"reading", 1.0},
                                    {"label", "x"},
                                    {"samples", Value::empty_array()}});
  {
    Value samples = Value::empty_array();
    const std::size_t count = bin.size() / 4;
    for (std::size_t i = 0; i < count; ++i) {
      samples.push_back(static_cast<std::int64_t>(100000 + i));
    }
    arr_holder.set_field("samples", std::move(samples));
  }
  const std::string arr_xml = value_to_xml(arr_holder, *sensor_format(), "sensor");
  const Bytes arr_bin = test::value_wire(arr_holder, *sensor_format());
  const double array_ratio =
      static_cast<double>(arr_xml.size()) / static_cast<double>(arr_bin.size());

  EXPECT_GT(struct_ratio, 4.5);          // paper reports up to ~9x
  EXPECT_GT(struct_ratio, array_ratio);  // "even greater for the nested structure"
}

TEST(Envelope, RequestStructure) {
  const std::string xml = build_request("getSensor", sensor_value(), *sensor_format());
  const ParsedEnvelope env = parse_envelope(xml);
  EXPECT_EQ(env.operation(), "getSensor");
  EXPECT_FALSE(env.is_fault());
  EXPECT_EQ(decode_body(env, *sensor_format()), sensor_value());
}

TEST(Envelope, ResponseStructure) {
  const std::string xml = build_response("getSensor", sensor_value(), *sensor_format());
  const ParsedEnvelope env = parse_envelope(xml);
  EXPECT_EQ(env.operation(), "getSensorResponse");
}

TEST(Envelope, FaultRoundTrip) {
  const std::string xml = build_fault("soap:Server", "database on fire");
  const ParsedEnvelope env = parse_envelope(xml);
  ASSERT_TRUE(env.is_fault());
  const Fault fault = parse_fault(env);
  EXPECT_EQ(fault.code, "soap:Server");
  EXPECT_EQ(fault.message, "database on fire");
}

TEST(Envelope, ParseFaultOnNonFaultThrows) {
  const std::string xml = build_request("op", sensor_value(), *sensor_format());
  EXPECT_THROW(parse_fault(parse_envelope(xml)), ParseError);
}

TEST(Envelope, RejectsNonEnvelope) {
  EXPECT_THROW(parse_envelope("<NotAnEnvelope/>"), ParseError);
}

TEST(Envelope, RejectsEmptyBody) {
  EXPECT_THROW(parse_envelope("<soap:Envelope xmlns:soap=\"u\">"
                              "<soap:Body></soap:Body></soap:Envelope>"),
               ParseError);
}

// parse_envelope stops at the first body element; the pair of calls every
// receiver makes rejects the second one.
TEST(Envelope, RejectsMultiElementBody) {
  const ParsedEnvelope env = parse_envelope(
      "<soap:Envelope xmlns:soap=\"u\"><soap:Body>"
      "<a><v>1</v></a><b/></soap:Body></soap:Envelope>");
  EXPECT_EQ(env.operation(), "a");
  const auto format = pbio::FormatBuilder("a").add_scalar("v", pbio::TypeKind::kInt32).build();
  EXPECT_THROW(decode_body(env, *format), ParseError);
}

TEST(Envelope, RejectsMultiElementFaultBody) {
  std::string xml = build_fault("soap:Server", "x");
  xml.insert(xml.find("</soap:Body>"), "<b/>");
  const ParsedEnvelope env = parse_envelope(xml);
  ASSERT_TRUE(env.is_fault());
  EXPECT_THROW(parse_fault(env), ParseError);
}

TEST(Base64, KnownVectors) {
  EXPECT_EQ(base64_encode(std::string_view{""}), "");
  EXPECT_EQ(base64_encode(std::string_view{"f"}), "Zg==");
  EXPECT_EQ(base64_encode(std::string_view{"fo"}), "Zm8=");
  EXPECT_EQ(base64_encode(std::string_view{"foo"}), "Zm9v");
  EXPECT_EQ(base64_encode(std::string_view{"foobar"}), "Zm9vYmFy");
  EXPECT_EQ(base64_decode_string("Zm9vYmFy"), "foobar");
  EXPECT_EQ(base64_decode_string("Zm9v\nYmFy"), "foobar");  // whitespace ok
}

TEST(Base64, AllByteValuesRoundTrip) {
  Bytes all(256);
  for (int i = 0; i < 256; ++i) all[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(base64_decode(base64_encode(BytesView{all})), all);
}

TEST(Base64, MalformedThrows) {
  EXPECT_THROW(base64_decode("a!b"), ParseError);
  EXPECT_THROW(base64_decode("Zg==Zg"), ParseError);  // data after padding
}

}  // namespace
}  // namespace sbq::soap
