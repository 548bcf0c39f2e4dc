// The lenient-read contract of the SOAP XML parameter codec: reading is
// driven by the format, not by the document's shape, so peers that reorder
// fields, repeat them, add elements, or spread a value over comments, CDATA
// sections and entity references still decode. Every case goes through
// parse_envelope + decode_body, the receive path the client and the service
// run.
#include <gtest/gtest.h>

#include <string>

#include "pbio/format.h"
#include "pbio/value.h"
#include "soap/envelope.h"
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

FormatPtr point_format() {
  return FormatBuilder("point")
      .add_scalar("x", TypeKind::kFloat64)
      .add_scalar("y", TypeKind::kFloat64)
      .build();
}

FormatPtr shape_format() {
  return FormatBuilder("shape")
      .add_scalar("tag", TypeKind::kUInt32)
      .add_struct("origin", point_format())
      .add_struct_var_array("points", point_format())
      .build();
}

FormatPtr blob_format() {
  return FormatBuilder("blob")
      .add_scalar("c", TypeKind::kChar)
      .add_var_array("data", TypeKind::kChar)
      .add_fixed_array("tag", TypeKind::kChar, 3)
      .build();
}

std::string envelope(std::string_view body) {
  return "<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\">"
         "<soap:Body>" +
         std::string(body) + "</soap:Body></soap:Envelope>";
}

Value decode(std::string_view body, const pbio::FormatDesc& format) {
  const ParsedEnvelope parsed = parse_envelope(envelope(body));
  return decode_body(parsed, format);
}

Value sensor(std::int64_t id, double reading, std::string label,
             Value samples = Value::array({1, 2})) {
  return Value::record({{"id", id},
                        {"reading", reading},
                        {"label", std::move(label)},
                        {"samples", std::move(samples)}});
}

Value point(double x, double y) { return Value::record({{"x", x}, {"y", y}}); }

// ---------------------------------------------------------------- order

TEST(LenientRead, ReversedFieldOrder) {
  EXPECT_EQ(decode("<op><samples><item>1</item><item>2</item></samples>"
                   "<label>L</label><reading>2.5</reading><id>42</id></op>",
                   *sensor_format()),
            sensor(42, 2.5, "L"));
}

TEST(LenientRead, ShuffledFieldOrderAtEveryLevel) {
  const Value expected =
      Value::record({{"tag", std::uint64_t{7}},
                     {"origin", point(1, 2)},
                     {"points", Value::array({point(3, 4), point(5, 6)})}});
  EXPECT_EQ(decode("<op><points><item><y>4</y><x>3</x></item>"
                   "<item><x>5</x><y>6</y></item></points>"
                   "<origin><y>2</y><x>1</x></origin><tag>7</tag></op>",
                   *shape_format()),
            expected);
}

TEST(LenientRead, NamespacePrefixesAreIgnored) {
  EXPECT_EQ(decode("<m:op xmlns:m=\"urn:x\" xmlns:e=\"urn:e\"><m:id>42</m:id>"
                   "<m:reading>2.5</m:reading><m:label>L</m:label>"
                   "<m:samples><e:item>1</e:item><e:item>2</e:item></m:samples>"
                   "</m:op>",
                   *sensor_format()),
            sensor(42, 2.5, "L"));
}

// ---------------------------------------------------------------- duplicates

TEST(LenientRead, FirstOccurrenceOfADuplicateFieldWins) {
  EXPECT_EQ(decode("<op><id>1</id><id>2</id><reading>2.5</reading>"
                   "<label>first</label><label>second</label>"
                   "<samples><item>1</item><item>2</item></samples>"
                   "<samples><item>9</item></samples></op>",
                   *sensor_format()),
            sensor(1, 2.5, "first"));
}

TEST(LenientRead, MalformedDuplicateIsIgnored) {
  EXPECT_EQ(decode("<op><id>42</id><reading>2.5</reading><id>not a number</id>"
                   "<reading>1.5x</reading><label>L</label>"
                   "<samples><item>1</item><item>2</item></samples></op>",
                   *sensor_format()),
            sensor(42, 2.5, "L"));
}

TEST(LenientRead, DuplicateStructFieldKeepsTheFirst) {
  const Value expected = Value::record(
      {{"tag", std::uint64_t{1}}, {"origin", point(1, 2)}, {"points", Value::empty_array()}});
  EXPECT_EQ(decode("<op><tag>1</tag><origin><x>1</x><y>2</y></origin>"
                   "<origin><x>oops</x></origin><points/></op>",
                   *shape_format()),
            expected);
}

// ---------------------------------------------------------------- unknowns

TEST(LenientRead, UnknownElementsAreSkipped) {
  EXPECT_EQ(decode("<op><header a=\"1\"><id>99</id><deep><x/></deep></header>"
                   "<id>42</id><extra/><reading>2.5</reading>"
                   "<label>L</label><samples><item>1</item><note>n</note>"
                   "<item>2</item></samples><trailer>t</trailer></op>",
                   *sensor_format()),
            sensor(42, 2.5, "L"));
}

TEST(LenientRead, AttributesOnFieldsAreIgnored) {
  EXPECT_EQ(decode("<op xsi:type=\"tns:sensor\"><id xsi:type=\"xsd:int\">42</id>"
                   "<reading xsi:type=\"xsd:double\">2.5</reading>"
                   "<label xsi:type=\"xsd:string\">L</label>"
                   "<samples soapenc:arrayType=\"xsd:int[2]\"><item>1</item>"
                   "<item>2</item></samples></op>",
                   *sensor_format()),
            sensor(42, 2.5, "L"));
}

TEST(LenientRead, TextBetweenArrayItemsIsIgnored) {
  EXPECT_EQ(decode("<op><id>42</id><reading>2.5</reading><label>L</label>"
                   "<samples>junk<item>1</item> more <item>2</item></samples></op>",
                   *sensor_format()),
            sensor(42, 2.5, "L"));
}

// ---------------------------------------------------------------- markup in values

TEST(LenientRead, CommentsAndPisInsideValues) {
  EXPECT_EQ(decode("<op><id>4<!-- split -->2</id><reading><?pi data?>2.5</reading>"
                   "<label>a<!-- c -->b</label>"
                   "<samples><item>1</item><!-- c --><item><?p?>2</item></samples></op>",
                   *sensor_format()),
            sensor(42, 2.5, "ab"));
}

TEST(LenientRead, CdataInsideValues) {
  EXPECT_EQ(decode("<op><id><![CDATA[42]]></id><reading>2<![CDATA[.5]]></reading>"
                   "<label>a<![CDATA[<b>&amp;]]>c</label>"
                   "<samples><item><![CDATA[1]]></item><item>2</item></samples></op>",
                   *sensor_format()),
            sensor(42, 2.5, "a<b>&amp;c"));
}

TEST(LenientRead, EntityReferencesSplitText) {
  EXPECT_EQ(decode("<op><id>&#52;2</id><reading>2&#x2E;5</reading>"
                   "<label>a&amp;b&lt;c&gt;d&quot;e&apos;f&#233;</label>"
                   "<samples><item>&#49;</item><item>2</item></samples></op>",
                   *sensor_format()),
            sensor(42, 2.5, "a&b<c>d\"e'f\xC3\xA9"));
}

TEST(LenientRead, MalformedEntityIsAParseError) {
  EXPECT_THROW(decode("<op><id>4&bogus;2</id><reading>2.5</reading><label>L</label>"
                      "<samples/></op>",
                      *sensor_format()),
               ParseError);
}

// ---------------------------------------------------------------- whitespace

TEST(LenientRead, NumbersAreTrimmedStringsAreNot) {
  EXPECT_EQ(decode("<op><id>\n  42 \t</id><reading> 2.5\n</reading>"
                   "<label>  spaced  out \n</label>"
                   "<samples> <item> 1 </item>\n<item>\t2</item> </samples></op>",
                   *sensor_format()),
            sensor(42, 2.5, "  spaced  out \n"));
}

TEST(LenientRead, WhitespaceOnlyStringIsKept) {
  EXPECT_EQ(decode("<op><id>1</id><reading>0</reading><label>   </label>"
                   "<samples/></op>",
                   *sensor_format()),
            sensor(1, 0.0, "   ", Value::empty_array()));
}

TEST(LenientRead, TextAroundAChildElementInsideAString) {
  EXPECT_EQ(decode("<op><id>1</id><reading>0</reading>"
                   "<label> ab<b>child text</b>cd </label><samples/></op>",
                   *sensor_format()),
            sensor(1, 0.0, " abcd ", Value::empty_array()));
}

TEST(LenientRead, EmptyNumberIsAParseError) {
  EXPECT_THROW(decode("<op><id></id><reading>0</reading><label/><samples/></op>",
                      *sensor_format()),
               ParseError);
  EXPECT_THROW(decode("<op><id>1</id><reading/><label/><samples/></op>",
                      *sensor_format()),
               ParseError);
}

// ---------------------------------------------------------------- char arrays

TEST(LenientRead, CharArrayInBase64Form) {
  const Value v = decode("<op><c>65</c><data> YWJj\n ZGVm </data><tag>eHl6</tag></op>",
                         *blob_format());
  EXPECT_EQ(v, Value::record({{"c", 'A'}, {"data", "abcdef"}, {"tag", "xyz"}}));
}

TEST(LenientRead, CharArrayInItemForm) {
  const Value v = decode("<op><c>B</c><data>ignored<item>97</item><item> 98 </item>"
                         "</data><tag><item>120</item><item>y</item><item>122</item>"
                         "</tag></op>",
                         *blob_format());
  EXPECT_EQ(v, Value::record({{"c", 'B'},
                              {"data", Value::array({'a', 'b'})},
                              {"tag", Value::array({'x', 'y', 'z'})}}));
}

TEST(LenientRead, EmptyCharScalarIsNul) {
  const Value v = decode("<op><c/><data/><tag>eHl6</tag></op>", *blob_format());
  EXPECT_EQ(v, Value::record({{"c", '\0'}, {"data", ""}, {"tag", "xyz"}}));
}

// ---------------------------------------------------------------- fixed arrays

TEST(LenientRead, FixedArrayCountMismatchIsAParseError) {
  const FormatPtr fixed =
      FormatBuilder("fixed").add_fixed_array("v", TypeKind::kInt32, 3).build();
  EXPECT_EQ(decode("<op><v><item>1</item><item>2</item><item>3</item></v></op>", *fixed),
            Value::record({{"v", Value::array({1, 2, 3})}}));
  EXPECT_THROW(decode("<op><v><item>1</item><item>2</item></v></op>", *fixed), ParseError);
  EXPECT_THROW(decode("<op><v><item>1</item><item>2</item><item>3</item><item>4</item>"
                      "</v></op>",
                      *fixed),
               ParseError);
  // A base64 fixed char array must decode to exactly its count.
  EXPECT_THROW(decode("<op><c>1</c><data/><tag>eHk=</tag></op>", *blob_format()),
               ParseError);
}

// ---------------------------------------------------------------- missing fields

TEST(LenientRead, MissingFieldNamesTheFieldAndTheFormat) {
  try {
    (void)decode("<op><id>1</id><label>L</label><samples/></op>", *sensor_format());
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<reading>"), std::string::npos) << what;
    EXPECT_NE(what.find("'sensor'"), std::string::npos) << what;
  }
}

TEST(LenientRead, MissingNestedFieldNamesTheNestedFormat) {
  try {
    (void)decode("<op><tag>1</tag><origin><x>1</x></origin><points/></op>",
                 *shape_format());
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<y>"), std::string::npos) << what;
    EXPECT_NE(what.find("'point'"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------- depth

std::string nested(std::string_view name, int depth) {
  std::string out;
  for (int i = 0; i < depth; ++i) out.append("<").append(name).append(">");
  out += "x";
  for (int i = 0; i < depth; ++i) out.append("</").append(name).append(">");
  return out;
}

TEST(LenientRead, DeepUnknownSubtreeHitsTheDepthLimit) {
  for (int depth : {300, 100000}) {
    EXPECT_THROW(decode("<op><id>1</id><reading>0</reading><label/><samples/>" +
                            nested("u", depth) + "</op>",
                        *sensor_format()),
                 xml::XmlError)
        << depth;
  }
}

TEST(LenientRead, UnknownSubtreeWithinTheLimitIsSkipped) {
  EXPECT_EQ(decode("<op><id>1</id><reading>0</reading>" + nested("u", 200) +
                       "<label/><samples/></op>",
                   *sensor_format()),
            sensor(1, 0.0, "", Value::empty_array()));
}

}  // namespace
}  // namespace sbq::soap
