// Golden wire bytes for the SOAP XML codec: every case below must render
// to exactly the bytes checked in under tests/data/golden_xml/<name>.xml,
// and every request must decode and re-encode to the same bytes. The files
// were produced from these same inputs by the codec at commit 2ebe5ea, so
// the test pins the wire format across codec rewrites.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "pbio/format.h"
#include "pbio/value.h"
#include "soap/codec.h"
#include "soap/envelope.h"

namespace sbq::golden {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

struct GoldenCase {
  std::string name;
  std::string xml;
};

double bits_to_double(std::uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

// splitmix64: fixed arithmetic, so the "random" doubles are the same on
// every platform.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

FormatPtr inner_format() {
  return FormatBuilder("inner").add_scalar("a", TypeKind::kInt32).add_string("s").build();
}

// A struct format whose name needs escaping in the xsi:type attribute.
FormatPtr odd_name_format() {
  return FormatBuilder("odd&<'\">").add_scalar("v", TypeKind::kInt64).build();
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
      .add_struct("inner", inner_format())
      .add_struct("odd", odd_name_format())
      .build();
}

Value scalars_value() {
  return Value::record(
      {{"i32", static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::min())},
       {"i64", std::numeric_limits<std::int64_t>::min()},
       {"u32", static_cast<std::uint64_t>(std::numeric_limits<std::uint32_t>::max())},
       {"u64", std::numeric_limits<std::uint64_t>::max()},
       {"f32", static_cast<double>(0.1f)},
       {"f64", 0.1},
       {"ch", '\t'},
       {"str", "a<b>c&d\"e'f"},
       {"inner", Value::record({{"a", 7}, {"s", " padded "}})},
       {"odd", Value::record({{"v", -1}})}});
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
      .add_fixed_array("fchars", TypeKind::kChar, 3)
      .add_var_array("vchars", TypeKind::kChar)
      .add_var_array("blob", TypeKind::kChar)
      .add_fixed_array("fblob", TypeKind::kChar, 4)
      .add_var_array("empty_blob", TypeKind::kChar)
      .add_struct_var_array("structs", inner_format())
      .add_struct_fixed_array("fstructs", inner_format(), 2)
      .add_struct_var_array("no_structs", inner_format())
      .build();
}

Value arrays_value() {
  std::string blob;
  for (int i = 0; i < 256; ++i) blob.push_back(static_cast<char>(i));
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
       {"fchars", Value::array({'x', '\n', '\x7f'})},
       {"vchars", Value::array({'<', '&', ' '})},
       {"blob", std::move(blob)},
       {"fblob", std::string("\x00\x01\xfe\xff", 4)},
       {"empty_blob", std::string{}},
       {"structs", Value::array({Value::record({{"a", 1}, {"s", "one"}}),
                                 Value::record({{"a", 2}, {"s", ""}})})},
       {"fstructs", Value::array({Value::record({{"a", 3}, {"s", "&"}}),
                                  Value::record({{"a", 4}, {"s", "<>"}})})},
       {"no_structs", Value::empty_array()}});
}

FormatPtr doubles_format() {
  return FormatBuilder("doubles")
      .add_scalar("pos_zero", TypeKind::kFloat64)
      .add_scalar("neg_zero", TypeKind::kFloat64)
      .add_scalar("pos_inf", TypeKind::kFloat64)
      .add_scalar("neg_inf", TypeKind::kFloat64)
      .add_scalar("nan", TypeKind::kFloat64)
      .add_scalar("two53p1", TypeKind::kFloat64)
      .add_scalar("i_two53p1", TypeKind::kInt64)
      .add_scalar("u_two53p1", TypeKind::kUInt64)
      .add_var_array("digits", TypeKind::kFloat64)
      .add_var_array("subnormals", TypeKind::kFloat64)
      .add_var_array("random", TypeKind::kFloat64)
      .build();
}

Value doubles_value() {
  // One value per shortest round-trip precision from 6 to 17 digits, then
  // boundary magnitudes.
  Value digits = Value::array({1.5, 123456.0, 1234567.0, 12345678.0, 123456789.0,
                               1234567891.0, 12345678912.0, 123456789123.0,
                               1234567891234.0, 12345678912345.0, 123456789123456.0,
                               0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 100000.0, 999999.5,
                               1e21, 1e22, 6.02e23, 1.5e-10, 0.000123456789,
                               std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::epsilon(),
                               -std::numeric_limits<double>::max()});
  Value subnormals = Value::array({std::numeric_limits<double>::denorm_min(),
                                   -std::numeric_limits<double>::denorm_min(),
                                   bits_to_double(0x000FFFFFFFFFFFFFull),
                                   bits_to_double(0x0000000000000123ull),
                                   bits_to_double(0x0008000000000000ull)});
  Value random = Value::empty_array();
  std::uint64_t state = 20040324;
  for (int i = 0; i < 200; ++i) random.push_back(bits_to_double(splitmix64(state)));
  return Value::record({{"pos_zero", 0.0},
                        {"neg_zero", -0.0},
                        {"pos_inf", std::numeric_limits<double>::infinity()},
                        {"neg_inf", -std::numeric_limits<double>::infinity()},
                        {"nan", std::numeric_limits<double>::quiet_NaN()},
                        {"two53p1", static_cast<double>(9007199254740993ull)},
                        {"i_two53p1", std::int64_t{9007199254740993}},
                        {"u_two53p1", std::uint64_t{9007199254740993ull}},
                        {"digits", std::move(digits)},
                        {"subnormals", std::move(subnormals)},
                        {"random", std::move(random)}});
}

FormatPtr strings_format() {
  return FormatBuilder("strings")
      .add_string("specials")
      .add_string("only_specials")
      .add_string("whitespace")
      .add_string("cdata_end")
      .add_string("empty")
      .add_string("utf8")
      .build();
}

Value strings_value() {
  return Value::record({{"specials", "Tom & Jerry <say> \"hi\" and 'bye'"},
                        {"only_specials", "&<>\"'"},
                        {"whitespace", "  lead\ttab\nline trail  "},
                        {"cdata_end", "]]> and &amp; literally"},
                        {"empty", ""},
                        {"utf8", "caf\xC3\xA9 \xE2\x82\xAC"}});
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

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  const auto add = [&](std::string name, std::string xml) {
    cases.push_back(GoldenCase{std::move(name), std::move(xml)});
  };
  add("scalars_request", soap::build_request("allKinds", scalars_value(), *scalars_format()));
  add("scalars_response",
      soap::build_response("allKinds", scalars_value(), *scalars_format()));
  add("scalars_compact", soap::value_to_xml(scalars_value(), *scalars_format(), "params"));
  add("scalars_typed", soap::value_to_xml(scalars_value(), *scalars_format(), "params",
                                          soap::XmlStyle{.typed = true}));
  add("arrays_request", soap::build_request("arrays", arrays_value(), *arrays_format()));
  add("arrays_compact", soap::value_to_xml(arrays_value(), *arrays_format(), "result"));
  add("doubles_request", soap::build_request("doubles", doubles_value(), *doubles_format()));
  add("doubles_compact", soap::value_to_xml(doubles_value(), *doubles_format(), "d"));
  add("strings_request", soap::build_request("strings", strings_value(), *strings_format()));
  add("strings_compact", soap::value_to_xml(strings_value(), *strings_format(), "s"));
  add("tree3_request", soap::build_request("echo", tree_value(3), *tree_format(3)));
  add("tree3_response", soap::build_response("echo", tree_value(3), *tree_format(3)));
  add("fault", soap::build_fault("soap:Server", "it's <broken> & \"down\""));
  return cases;
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(SBQ_TEST_DATA_DIR) + "/golden_xml/" + name + ".xml";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Reports the first differing byte rather than two multi-kilobyte strings.
::testing::AssertionResult same_bytes(const std::string& actual, const std::string& expected) {
  if (actual == expected) return ::testing::AssertionSuccess();
  std::size_t i = 0;
  while (i < actual.size() && i < expected.size() && actual[i] == expected[i]) ++i;
  const std::size_t from = i < 40 ? 0 : i - 40;
  return ::testing::AssertionFailure()
         << "sizes " << actual.size() << " vs " << expected.size() << ", first difference at "
         << i << "\n  actual:   ..." << actual.substr(from, 80)
         << "\n  expected: ..." << expected.substr(from, 80);
}

TEST(GoldenXml, EveryCaseMatchesTheCapturedBytes) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), 13u);
  for (const GoldenCase& c : cases) {
    EXPECT_TRUE(same_bytes(c.xml, read_golden(c.name))) << c.name;
  }
}

TEST(GoldenXml, RequestsDecodeAndReencodeToTheSameBytes) {
  const struct {
    const char* name;
    const char* operation;
    FormatPtr format;
  } requests[] = {
      {"scalars_request", "allKinds", scalars_format()},
      {"arrays_request", "arrays", arrays_format()},
      {"doubles_request", "doubles", doubles_format()},
      {"strings_request", "strings", strings_format()},
      {"tree3_request", "echo", tree_format(3)},
  };
  for (const auto& r : requests) {
    const std::string golden = read_golden(r.name);
    const soap::ParsedEnvelope parsed = soap::parse_envelope(golden);
    EXPECT_EQ(parsed.operation(), r.operation);
    const Value decoded = soap::decode_body(parsed, *r.format);
    EXPECT_TRUE(same_bytes(soap::build_request(r.operation, decoded, *r.format), golden))
        << r.name;
  }
}

TEST(GoldenXml, DecodedValuesEqualTheInputs) {
  EXPECT_EQ(soap::decode_body(soap::parse_envelope(read_golden("scalars_request")),
                              *scalars_format()),
            scalars_value());
  EXPECT_EQ(soap::decode_body(soap::parse_envelope(read_golden("arrays_request")),
                              *arrays_format()),
            arrays_value());
  EXPECT_EQ(soap::decode_body(soap::parse_envelope(read_golden("strings_request")),
                              *strings_format()),
            strings_value());
  EXPECT_EQ(soap::decode_body(soap::parse_envelope(read_golden("tree3_response")),
                              *tree_format(3)),
            tree_value(3));
}

TEST(GoldenXml, FaultParsesBack) {
  const soap::Fault fault = soap::parse_fault(soap::parse_envelope(read_golden("fault")));
  EXPECT_EQ(fault.code, "soap:Server");
  EXPECT_EQ(fault.message, "it's <broken> & \"down\"");
}

}  // namespace
}  // namespace sbq::golden
