// Golden wire bytes for the PBIO binary codec: every case below must encode
// to exactly the bytes checked in under tests/data/golden_pbio/<name>.bin,
// and must decode and re-encode to the same bytes. The files were produced
// from these same inputs at commit b133d6f, where the flat ByteBuffer
// encoders and the BufferChain encoders were checked to agree on every case,
// so the test pins the wire format the flat reference used to pin. The
// native_* files were captured from a native-struct encoder (since removed)
// and are now produced from Values with the same content.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer_chain.h"
#include "core/message.h"
#include "pbio/encode.h"
#include "pbio/format.h"
#include "pbio/value.h"
#include "pbio/value_codec.h"

namespace sbq::pbio {
namespace {

// Records a C sender would hold as structs (the native_* cases).
FormatPtr sensor_format() {
  return FormatBuilder("sensor")
      .add_scalar("id", TypeKind::kInt32)
      .add_scalar("reading", TypeKind::kFloat64)
      .add_scalar("flag", TypeKind::kChar)
      .add_string("label")
      .add_var_array("samples", TypeKind::kInt32)
      .build();
}

Value sensor_value() {
  Value::I64Array samples(160);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<std::int64_t>(i * i) - 3000;
  }
  return Value::record({{"id", 7},
                        {"reading", 2.5},
                        {"flag", 'x'},
                        {"label", "probe-7"},
                        {"samples", Value{std::move(samples)}}});
}

FormatPtr point_format() {
  return FormatBuilder("point")
      .add_scalar("x", TypeKind::kFloat64)
      .add_scalar("y", TypeKind::kFloat64)
      .add_scalar("z", TypeKind::kFloat64)
      .build();
}

FormatPtr molecule_format() {
  return FormatBuilder("molecule")
      .add_scalar("atom_count", TypeKind::kInt32)
      .add_struct("center", point_format())
      .add_struct_var_array("atoms", point_format())
      .build();
}

Value molecule_value() {
  const auto point = [](double x, double y, double z) {
    return Value::record({{"x", x}, {"y", y}, {"z", z}});
  };
  return Value::record(
      {{"atom_count", 3},
       {"center", point(0.5, -0.5, 2.0)},
       {"atoms", Value::array({point(1.0, 2.0, 3.0), point(-4.5, 0.0, 1e-9),
                               point(7.25, -8.0, 9.5)})}});
}

FormatPtr scalars_format() {
  return FormatBuilder("allKinds")
      .add_scalar("i32", TypeKind::kInt32)
      .add_scalar("i64", TypeKind::kInt64)
      .add_scalar("u32", TypeKind::kUInt32)
      .add_scalar("u64", TypeKind::kUInt64)
      .add_scalar("f32", TypeKind::kFloat32)
      .add_scalar("f64", TypeKind::kFloat64)
      .add_scalar("ch", TypeKind::kChar)
      .add_string("str")
      .add_string("empty")
      .build();
}

Value scalars_value() {
  return Value::record(
      {{"i32", static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::min())},
       {"i64", std::int64_t{-9007199254740993}},
       {"u32", static_cast<std::uint64_t>(std::numeric_limits<std::uint32_t>::max())},
       {"u64", std::numeric_limits<std::uint64_t>::max()},
       {"f32", static_cast<double>(0.1f)},
       {"f64", -1e300},
       {"ch", '\t'},
       {"str", "caf\xC3\xA9 <&>"},
       {"empty", ""}});
}

// Blobs of at least 512 B take the chain's borrowed-segment path; the
// short ones are staged.
FormatPtr blobs_format() {
  return FormatBuilder("blobs")
      .add_string("big_string")
      .add_var_array("big_blob", TypeKind::kChar)
      .add_fixed_array("fixed_blob", TypeKind::kChar, 512)
      .add_var_array("small_blob", TypeKind::kChar)
      .add_scalar("tail", TypeKind::kInt32)
      .build();
}

std::string byte_ramp(std::size_t n, unsigned seed) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<char>((i * 7 + seed) & 0xFF);
  return s;
}

Value blobs_value() {
  return Value::record({{"big_string", byte_ramp(1000, 1)},
                        {"big_blob", byte_ramp(600, 2)},
                        {"fixed_blob", byte_ramp(512, 3)},
                        {"small_blob", std::string("\x00\x01\xfe\xff", 4)},
                        {"tail", -5}});
}

FormatPtr inner_format() {
  return FormatBuilder("inner").add_scalar("a", TypeKind::kInt32).add_string("s").build();
}

FormatPtr arrays_format() {
  return FormatBuilder("arrays")
      .add_fixed_array("fi32", TypeKind::kInt32, 3)
      .add_fixed_array("fi64", TypeKind::kInt64, 2)
      .add_fixed_array("fu32", TypeKind::kUInt32, 2)
      .add_fixed_array("fu64", TypeKind::kUInt64, 2)
      .add_fixed_array("ff32", TypeKind::kFloat32, 2)
      .add_fixed_array("ff64", TypeKind::kFloat64, 3)
      .add_var_array("vi32", TypeKind::kInt32)
      .add_var_array("vi64", TypeKind::kInt64)
      .add_var_array("vu32", TypeKind::kUInt32)
      .add_var_array("vu64", TypeKind::kUInt64)
      .add_var_array("vf32", TypeKind::kFloat32)
      .add_var_array("vf64", TypeKind::kFloat64)
      .add_var_array("empty", TypeKind::kInt32)
      .add_var_array("long_i32", TypeKind::kInt32)
      .add_struct_var_array("structs", inner_format())
      .add_struct_fixed_array("fstructs", inner_format(), 2)
      .build();
}

Value arrays_value() {
  Value long_i32 = Value::empty_array();
  for (int i = 0; i < 300; ++i) long_i32.push_back(i * 1000 - 150000);
  return Value::record(
      {{"fi32", Value::array({-1, 0, 2147483647})},
       {"fi64", Value::array({std::int64_t{-9007199254740993}, std::int64_t{42}})},
       {"fu32", Value::array({std::uint64_t{0}, std::uint64_t{4294967295u}})},
       {"fu64", Value::array({std::uint64_t{9007199254740993ull},
                              std::numeric_limits<std::uint64_t>::max()})},
       {"ff32", Value::array({static_cast<double>(1.1f), static_cast<double>(-3.5f)})},
       {"ff64", Value::array({0.25, -1e300, 1.0 / 3.0})},
       {"vi32", Value::array({5, -6, 7, -8})},
       {"vi64", Value::array({std::numeric_limits<std::int64_t>::max()})},
       {"vu32", Value::array({std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}})},
       {"vu64", Value::array({std::uint64_t{18446744073709551615ull}})},
       {"vf32", Value::array({static_cast<double>(std::numeric_limits<float>::max()),
                              static_cast<double>(std::numeric_limits<float>::denorm_min())})},
       {"vf64", Value::array({2.5, -0.0, 1e-7})},
       {"empty", Value::empty_array()},
       {"long_i32", std::move(long_i32)},
       {"structs", Value::array({Value::record({{"a", 1}, {"s", "one"}}),
                                 Value::record({{"a", 2}, {"s", ""}})})},
       {"fstructs", Value::array({Value::record({{"a", 3}, {"s", "&"}}),
                                  Value::record({{"a", 4}, {"s", "<>"}})})}});
}

// The livebench xml_struct shape (a binary tree of records) at depth 3.
FormatPtr tree_format(int depth) {
  FormatPtr format = FormatBuilder("leaf")
                         .add_scalar("account", TypeKind::kInt32)
                         .add_scalar("balance", TypeKind::kFloat64)
                         .add_string("holder")
                         .build();
  for (int level = 0; level < depth; ++level) {
    format = FormatBuilder("level" + std::to_string(level))
                 .add_scalar("id", TypeKind::kInt32)
                 .add_struct("left", format)
                 .add_struct("right", format)
                 .build();
  }
  return format;
}

Value tree_value(int depth, int& counter) {
  if (depth == 0) {
    ++counter;
    return Value::record({{"account", 100000 + counter},
                          {"balance", 1000.25 + counter},
                          {"holder", "holder" + std::to_string(counter)}});
  }
  Value left = tree_value(depth - 1, counter);
  Value right = tree_value(depth - 1, counter);
  return Value::record({{"id", 200000 + depth * 10 + counter},
                        {"left", std::move(left)},
                        {"right", std::move(right)}});
}

Value tree_value(int depth) {
  int counter = 0;
  return tree_value(depth, counter);
}

struct ValueCase {
  const char* name;
  FormatPtr format;
  Value value;
};

std::vector<ValueCase> native_cases() {
  std::vector<ValueCase> cases;
  cases.push_back({"native_sensor", sensor_format(), sensor_value()});
  cases.push_back({"native_molecule", molecule_format(), molecule_value()});
  return cases;
}

std::vector<ValueCase> value_cases() {
  std::vector<ValueCase> cases;
  cases.push_back({"value_scalars", scalars_format(), scalars_value()});
  cases.push_back({"value_blobs", blobs_format(), blobs_value()});
  cases.push_back({"value_arrays", arrays_format(), arrays_value()});
  cases.push_back({"value_tree3", tree_format(3), tree_value(3)});
  return cases;
}

const char* order_suffix(ByteOrder order) {
  return order == ByteOrder::kLittle ? "_le" : "_be";
}

constexpr ByteOrder kOrders[] = {ByteOrder::kLittle, ByteOrder::kBig};

// Every case as it encodes today, by golden file name.
std::vector<std::pair<std::string, Bytes>> encoded_cases() {
  std::vector<std::pair<std::string, Bytes>> out;
  std::vector<ValueCase> cases = native_cases();
  for (ValueCase& c : value_cases()) cases.push_back(std::move(c));
  for (const ValueCase& c : cases) {
    for (ByteOrder order : kOrders) {
      out.emplace_back(std::string(c.name) + order_suffix(order),
                       encode_value_message_chain(c.value, *c.format, order).coalesce());
    }
  }
  core::BinEnvelope envelope;
  envelope.operation = "echo";
  envelope.message_type = "half_tree";
  envelope.timestamp_us = 1234567;
  envelope.echoed_timestamp_us = 7654321;
  envelope.server_prep_us = 89;
  envelope.reported_rtt_us = 512.5;
  const Value tree = tree_value(3);
  out.emplace_back("bin_body_tree3",
                   core::encode_bin_message(
                       envelope, encode_value_message_chain(tree, *tree_format(3)))
                       .coalesce());
  return out;
}

Bytes read_golden(const std::string& name) {
  const std::string path = std::string(SBQ_TEST_DATA_DIR) + "/golden_pbio/" + name + ".bin";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Reports the first differing byte rather than two multi-kilobyte dumps.
::testing::AssertionResult same_bytes(const Bytes& actual, const Bytes& expected) {
  if (actual == expected) return ::testing::AssertionSuccess();
  std::size_t i = 0;
  while (i < actual.size() && i < expected.size() && actual[i] == expected[i]) ++i;
  return ::testing::AssertionFailure() << "sizes " << actual.size() << " vs "
                                       << expected.size() << ", first difference at " << i;
}

TEST(GoldenPbio, EveryCaseMatchesTheCapturedBytes) {
  const auto cases = encoded_cases();
  ASSERT_EQ(cases.size(), 13u);
  for (const auto& [name, wire] : cases) {
    EXPECT_TRUE(same_bytes(wire, read_golden(name))) << name;
  }
}

TEST(GoldenPbio, HeaderCarriesFormatOrderAndPayloadLength) {
  for (const auto& [name, wire] : encoded_cases()) {
    if (name.rfind("bin_body", 0) == 0) continue;
    const BufferChain chain = BufferChain::borrowing(BytesView{wire});
    ChainReader reader(chain);
    const WireHeader header = read_header(reader);
    EXPECT_EQ(header.payload_length, wire.size() - WireHeader::kSize) << name;
    EXPECT_EQ(header.sender_order, name.ends_with("_le") ? ByteOrder::kLittle
                                                         : ByteOrder::kBig)
        << name;
  }
}

// Each case's golden files decode to its value and re-encode to the same
// bytes, in both orders.
void expect_decodes_and_reencodes(const std::vector<ValueCase>& cases) {
  for (const ValueCase& c : cases) {
    for (ByteOrder order : kOrders) {
      const std::string name = std::string(c.name) + order_suffix(order);
      const Bytes golden = read_golden(name);
      const Value decoded = decode_value_message(BytesView{golden}, *c.format);
      EXPECT_EQ(decoded, c.value) << name;
      EXPECT_TRUE(same_bytes(encode_value_message_chain(decoded, *c.format, order).coalesce(),
                             golden))
          << name;
    }
  }
}

TEST(GoldenPbio, ValueCasesDecodeAndReencodeToTheSameBytes) {
  expect_decodes_and_reencodes(value_cases());
}

TEST(GoldenPbio, NativeAndValueEncodingsOfOneRecordAgree) {
  // The bytes a native-struct sender produced are the Value encoding of the
  // same record: they decode to it and re-encode to themselves.
  expect_decodes_and_reencodes(native_cases());
}

TEST(GoldenPbio, BinBodySplitsIntoEnvelopeAndMessage) {
  const Bytes golden = read_golden("bin_body_tree3");
  const core::DecodedBinChain decoded =
      core::decode_bin_message(BufferChain::borrowing(BytesView{golden}));
  EXPECT_EQ(decoded.envelope.operation, "echo");
  EXPECT_EQ(decoded.envelope.message_type, "half_tree");
  EXPECT_EQ(decoded.envelope.timestamp_us, 1234567u);
  EXPECT_EQ(decoded.envelope.echoed_timestamp_us, 7654321u);
  EXPECT_EQ(decoded.envelope.server_prep_us, 89u);
  EXPECT_EQ(decoded.envelope.reported_rtt_us, 512.5);
  EXPECT_EQ(decode_value_message(BytesView{decoded.pbio_message.coalesce()}, *tree_format(3)),
            tree_value(3));
}

}  // namespace
}  // namespace sbq::pbio
