// Numeric and structural edge cases across all codecs: extreme integer
// values, special floats, empty containers, boundary string content, and
// limit conditions the main suites don't isolate.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "pbio/encode.h"
#include "pbio/value_codec.h"
#include "soap/codec.h"
#include "soap/envelope.h"
#include "support/wire.h"

namespace sbq {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

FormatPtr extremes_format() {
  return FormatBuilder("extremes")
      .add_scalar("i32", TypeKind::kInt32)
      .add_scalar("i64", TypeKind::kInt64)
      .add_scalar("u32", TypeKind::kUInt32)
      .add_scalar("u64", TypeKind::kUInt64)
      .add_scalar("f32", TypeKind::kFloat32)
      .add_scalar("f64", TypeKind::kFloat64)
      .build();
}

Value extremes_value() {
  return Value::record(
      {{"i32", static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::min())},
       {"i64", std::numeric_limits<std::int64_t>::min()},
       {"u32", static_cast<std::uint64_t>(std::numeric_limits<std::uint32_t>::max())},
       {"u64", std::numeric_limits<std::uint64_t>::max()},
       {"f32", static_cast<double>(std::numeric_limits<float>::denorm_min())},
       {"f64", std::numeric_limits<double>::max()}});
}

TEST(Extremes, BinaryRoundTrip) {
  const Bytes wire = test::value_wire(extremes_value(), *extremes_format());
  EXPECT_EQ(pbio::decode_value_message(BytesView{wire}, *extremes_format()),
            extremes_value());
}

TEST(Extremes, BinaryRoundTripForeignOrder) {
  const ByteOrder foreign = host_byte_order() == ByteOrder::kLittle
                                ? ByteOrder::kBig
                                : ByteOrder::kLittle;
  const Bytes wire =
      test::value_wire(extremes_value(), *extremes_format(), foreign);
  EXPECT_EQ(pbio::decode_value_message(BytesView{wire}, *extremes_format()),
            extremes_value());
}

TEST(Extremes, XmlRoundTrip) {
  const std::string xml =
      soap::value_to_xml(extremes_value(), *extremes_format(), "e");
  EXPECT_EQ(soap::value_from_xml(xml, *extremes_format()), extremes_value());
}

TEST(Extremes, InfinityThroughXml) {
  auto fmt = FormatBuilder("f").add_scalar("v", TypeKind::kFloat64).build();
  const Value v = Value::record({{"v", std::numeric_limits<double>::infinity()}});
  const std::string xml = soap::value_to_xml(v, *fmt, "f");
  EXPECT_TRUE(std::isinf(soap::value_from_xml(xml, *fmt).field("v").as_f64()));
}

TEST(Extremes, NegativeZeroSurvivesBinary) {
  auto fmt = FormatBuilder("f").add_scalar("v", TypeKind::kFloat64).build();
  const Value v = Value::record({{"v", -0.0}});
  const Bytes wire = test::value_wire(v, *fmt);
  const double back =
      pbio::decode_value_message(BytesView{wire}, *fmt).field("v").as_f64();
  EXPECT_TRUE(std::signbit(back));
}

TEST(EdgeStrings, EmbeddedAndBoundaryContent) {
  auto fmt = FormatBuilder("s").add_string("text").build();
  for (const std::string& content :
       {std::string{}, std::string("   leading and trailing   "),
        std::string("line\nbreaks\tand\ttabs"),
        std::string("<>&\"' all the XML specials"),
        std::string(70000, 'L')}) {
    const Value v = Value::record({{"text", content}});
    // Binary.
    const Bytes wire = test::value_wire(v, *fmt);
    EXPECT_EQ(pbio::decode_value_message(BytesView{wire}, *fmt), v);
    // XML (whitespace in strings must be preserved verbatim).
    EXPECT_EQ(soap::value_from_xml(soap::value_to_xml(v, *fmt, "s"), *fmt).field("text").as_string(), content);
  }
}

TEST(EdgeStrings, NulBytesSurviveBinaryWire) {
  auto fmt = FormatBuilder("s").add_string("text").build();
  const std::string with_nul("a\0b", 3);
  const Value v = Value::record({{"text", with_nul}});
  const Bytes wire = test::value_wire(v, *fmt);
  EXPECT_EQ(pbio::decode_value_message(BytesView{wire}, *fmt)
                .field("text")
                .as_string()
                .size(),
            3u);
}

TEST(EdgeContainers, EmptyEverything) {
  auto fmt = FormatBuilder("empties")
                 .add_string("s")
                 .add_var_array("ints", TypeKind::kInt32)
                 .add_var_array("blob", TypeKind::kChar)
                 .build();
  const Value v = Value::record(
      {{"s", std::string{}}, {"ints", Value::empty_array()}, {"blob", std::string{}}});
  const Bytes wire = test::value_wire(v, *fmt);
  EXPECT_EQ(pbio::decode_value_message(BytesView{wire}, *fmt), v);
  EXPECT_EQ(soap::value_from_xml(soap::value_to_xml(v, *fmt, "e"), *fmt), v);
}

TEST(EdgeContainers, SingleFieldSingleByte) {
  auto fmt = FormatBuilder("one").add_scalar("c", TypeKind::kChar).build();
  const Value v = Value::record({{"c", 'Z'}});
  const Bytes wire = test::value_wire(v, *fmt);
  EXPECT_EQ(wire.size(), pbio::WireHeader::kSize + 1);
  EXPECT_EQ(pbio::decode_value_message(BytesView{wire}, *fmt), v);
}

TEST(EdgeContainers, LargeVarArray) {
  auto fmt = FormatBuilder("big").add_var_array("v", TypeKind::kFloat64).build();
  Value array = Value::empty_array();
  for (int i = 0; i < 200000; ++i) array.push_back(i * 0.5);
  const Value v = Value::record({{"v", std::move(array)}});
  const Bytes wire = test::value_wire(v, *fmt);
  EXPECT_EQ(wire.size(), pbio::WireHeader::kSize + 4 + 200000u * 8);
  const Value back = pbio::decode_value_message(BytesView{wire}, *fmt);
  EXPECT_EQ(back.field("v").array_size(), 200000u);
  EXPECT_DOUBLE_EQ(back.field("v").at(199999).as_f64(), 199999 * 0.5);
}

TEST(EdgeEnvelope, OperationNamesWithNamespacePrefixes) {
  auto fmt = FormatBuilder("p").add_scalar("v", TypeKind::kInt32).build();
  // A peer may qualify the operation element; local-name matching must win.
  const std::string xml =
      "<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\" "
      "xmlns:m=\"urn:x\"><soap:Body><m:doIt><v>5</v></m:doIt></soap:Body>"
      "</soap:Envelope>";
  const soap::ParsedEnvelope env = soap::parse_envelope(xml);
  EXPECT_EQ(env.operation(), "doIt");
  EXPECT_EQ(soap::decode_body(env, *fmt).field("v").as_i64(), 5);
}

TEST(EdgeEnvelope, UnsignedAboveInt64MaxThroughXml) {
  auto fmt = FormatBuilder("u").add_scalar("v", TypeKind::kUInt64).build();
  const Value v = Value::record({{"v", std::uint64_t{0xFFFFFFFFFFFFFFFFull}}});
  EXPECT_EQ(soap::value_from_xml(soap::value_to_xml(v, *fmt, "u"), *fmt).field("v").as_u64(),
            0xFFFFFFFFFFFFFFFFull);
}

TEST(EdgeProjection, ProjectionOfNonRecordYieldsZeros) {
  auto fmt = FormatBuilder("z").add_scalar("v", TypeKind::kInt32).build();
  const Value projected = pbio::project_value(Value{42}, *fmt);
  EXPECT_EQ(projected.field("v").as_i64(), 0);
}

}  // namespace
}  // namespace sbq
