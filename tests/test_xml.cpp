// Unit tests for the XML substrate: escaping, the pull reader, writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "xml/escape.h"
#include "xml/reader.h"
#include "xml/writer.h"

namespace sbq::xml {
namespace {

// ---------------------------------------------------------------- escaping

TEST(Escape, EscapesSpecials) {
  EXPECT_EQ(escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
  EXPECT_EQ(escape("plain"), "plain");
}

TEST(Escape, UnescapeNamedEntities) {
  EXPECT_EQ(unescape("a&lt;b&gt;&amp;&quot;&apos;"), "a<b>&\"'");
}

TEST(Escape, UnescapeNumericReferences) {
  EXPECT_EQ(unescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(unescape("&#xE9;"), "\xC3\xA9");       // é as UTF-8
  EXPECT_EQ(unescape("&#x1F600;").size(), 4u);     // 4-byte UTF-8
}

TEST(Escape, RoundTrip) {
  const std::string nasty = "<tag attr=\"v&v\">'quoted' & more</tag>";
  EXPECT_EQ(unescape(escape(nasty)), nasty);
}

TEST(Escape, MalformedEntitiesThrow) {
  EXPECT_THROW(unescape("&unknown;"), ParseError);
  EXPECT_THROW(unescape("&amp"), ParseError);
  EXPECT_THROW(unescape("&#;"), ParseError);
  EXPECT_THROW(unescape("&#xZZ;"), ParseError);
  EXPECT_THROW(unescape("&#x110000;"), ParseError);
}

// ---------------------------------------------------------------- reader

using Token = Reader::Token;

/// Renders every token of `doc`; with `cdata_as_text`, CDATA sections read
/// as plain character data, the way a consumer that only collects text sees
/// them.
std::string tokens(std::string_view doc, bool cdata_as_text = false) {
  Reader r(doc);
  std::string out;
  for (Token t = r.next(); t != Token::kEndOfDocument; t = r.next()) {
    switch (t) {
      case Token::kStartElement:
        out.append("<").append(r.name());
        for (const Reader::Attribute& a : r.attributes()) {
          out.append(" ").append(a.name).append("=").append(a.value());
        }
        out.append(">");
        break;
      case Token::kEndElement: out.append("</").append(r.name()).append(">"); break;
      case Token::kText: out.append("[").append(r.text()).append("]"); break;
      case Token::kCData:
        out.append(cdata_as_text ? "[" : "{cdata:").append(r.text());
        out.append(cdata_as_text ? "]" : "}");
        break;
      case Token::kComment: out.append("{c:").append(r.text()).append("}"); break;
      case Token::kProcessingInstruction:
        out.append("{pi:").append(r.name()).append(":").append(r.text()).append("}");
        break;
      case Token::kEndOfDocument: break;
    }
  }
  return out;
}

TEST(Reader, YieldsEveryTokenKind) {
  EXPECT_EQ(tokens("<?xml version=\"1.0\"?><!--h--><r a=\"x&amp;y\" b='2'>t&lt;1<e/>"
                   "<![CDATA[<raw&>]]><?p d?></r><!--t-->"),
            "{c:h}<r a=x&y b=2>[t<1]<e></e>{cdata:<raw&>}{pi:p:d}</r>{c:t}");
}

/// Reads `doc` to the end; throws XmlError if it is malformed.
void read_all(std::string_view doc, int max_depth = kDefaultMaxDepth) {
  Reader r(doc, max_depth);
  while (r.next() != Token::kEndOfDocument) {
  }
}

TEST(Reader, SimpleDocument) {
  EXPECT_EQ(tokens("<root><a>1</a><b x=\"2\"/></root>"),
            "<root><a>[1]</a><b x=2></b></root>");
}

TEST(Reader, DeclarationAndWhitespaceProlog) {
  EXPECT_EQ(tokens("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n  <r/>\n"), "<r></r>");
}

TEST(Reader, EntitiesInTextAndAttributes) {
  EXPECT_EQ(tokens("<r a=\"x&amp;y\">1 &lt; 2</r>"), "<r a=x&y>[1 < 2]</r>");
}

TEST(Reader, CdataDeliveredVerbatim) {
  EXPECT_EQ(tokens("<r><![CDATA[<not & parsed>]]></r>", /*cdata_as_text=*/true),
            "<r>[<not & parsed>]</r>");
}

TEST(Reader, CommentsAndPis) {
  EXPECT_EQ(tokens("<!-- head --><r><!-- in --><?proc data?></r><!-- tail -->"),
            "{c: head }<r>{c: in }{pi:proc:data}</r>{c: tail }");
}

TEST(Reader, NestedElements) {
  EXPECT_EQ(tokens("<a><b><c/></b><b2/></a>"), "<a><b><c></c></b><b2></b2></a>");
}

TEST(Reader, NamespacedNamesPassThrough) {
  EXPECT_EQ(tokens("<soap:Envelope xmlns:soap=\"uri\"><soap:Body/></soap:Envelope>"),
            "<soap:Envelope xmlns:soap=uri><soap:Body></soap:Body></soap:Envelope>");
}

TEST(Reader, MismatchedTagThrowsWithPosition) {
  try {
    read_all("<a>\n  <b></c>\n</a>");
    FAIL() << "expected XmlError";
  } catch (const XmlError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("mismatched"), std::string::npos);
  }
}

TEST(Reader, WellFormednessViolations) {
  EXPECT_THROW(read_all(""), XmlError);
  EXPECT_THROW(read_all("just text"), XmlError);
  EXPECT_THROW(read_all("<a>"), XmlError);
  EXPECT_THROW(read_all("<a></a><b></b>"), XmlError);
  EXPECT_THROW(read_all("<a></a>trailing"), XmlError);
  EXPECT_THROW(read_all("<a x=1></a>"), XmlError);         // unquoted attr
  EXPECT_THROW(read_all("<a x=\"1\" x=\"2\"/>"), XmlError);  // duplicate attr
  EXPECT_THROW(read_all("<a><b attr=\"<\"/></a>"), XmlError);
  EXPECT_THROW(read_all("<!DOCTYPE foo []><a/>"), XmlError);
  EXPECT_THROW(read_all("<a><!-- -- --></a>"), XmlError);
}

TEST(Reader, DeepNestingWithinLimitParses) {
  std::string doc;
  for (int i = 0; i < 200; ++i) doc += "<n>";
  doc += "x";
  for (int i = 0; i < 200; ++i) doc += "</n>";
  Reader r(doc);
  std::size_t max_depth = 0;
  while (r.next() != Token::kEndOfDocument) max_depth = std::max(max_depth, r.depth());
  EXPECT_EQ(max_depth, 200u);
}

TEST(Reader, NestingBeyondLimitIsRejected) {
  std::string doc;
  for (int i = 0; i < 500; ++i) doc += "<n>";
  doc += "x";
  for (int i = 0; i < 500; ++i) doc += "</n>";
  EXPECT_THROW(read_all(doc), XmlError);

  EXPECT_THROW(read_all("<a><b><c><d><e/></d></c></b></a>", /*max_depth=*/4), XmlError);
  read_all("<a><b><c><d><e/></d></c></b></a>", /*max_depth=*/5);
}

TEST(Reader, AcceptStartTagYieldsTheTokenNextWould) {
  const std::string doc = "<r><a x=\"1\" y=\"&amp;\">t</a><b/><c>u</c></r>";
  Reader lexed(doc);
  Reader taken(doc);
  ASSERT_EQ(lexed.next(), Token::kStartElement);
  ASSERT_EQ(taken.next(), Token::kStartElement);
  ASSERT_EQ(lexed.next(), Token::kStartElement);
  ASSERT_TRUE(taken.accept_start_tag("<a x=\"1\" y=\"&amp;\">"));
  EXPECT_EQ(taken.name(), "a");
  EXPECT_EQ(taken.name().data(), doc.data() + 4);
  EXPECT_EQ(taken.offset(), lexed.offset());
  EXPECT_EQ(taken.depth(), lexed.depth());
  ASSERT_EQ(taken.attributes().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const Reader::Attribute& a = taken.attributes()[i];
    EXPECT_EQ(a.name, lexed.attributes()[i].name);
    EXPECT_EQ(a.raw_value.data(), lexed.attributes()[i].raw_value.data());
    EXPECT_EQ(a.raw_value.size(), lexed.attributes()[i].raw_value.size());
  }
  EXPECT_EQ(taken.attributes()[1].value(), "&");
  // The rest reads the same, a compact tag taken too.
  ASSERT_EQ(taken.next(), Token::kText);
  ASSERT_EQ(taken.next(), Token::kEndElement);
  ASSERT_EQ(taken.next(), Token::kStartElement);
  ASSERT_EQ(taken.next(), Token::kEndElement);
  ASSERT_TRUE(taken.accept_start_tag("<c>"));
  EXPECT_EQ(taken.name(), "c");
  EXPECT_TRUE(taken.attributes().empty());
  std::string text;
  taken.read_text(text);
  EXPECT_EQ(text, "u");
  EXPECT_EQ(taken.next(), Token::kEndElement);
  EXPECT_EQ(taken.depth(), 0u);
  EXPECT_EQ(taken.next(), Token::kEndOfDocument);
}

TEST(Reader, AcceptStartTagLeavesTheReaderUntouchedOnAMiss) {
  const std::string doc = "<r k=\"v\"><a x=\"1\">t</a><e/><e/></r>";
  Reader r(doc);
  ASSERT_EQ(r.next(), Token::kStartElement);
  for (const char* tag : {"<a x=\"2\">", "<a>", "<a x='1'>", "<a x=\"1\"/>", "<ab x=\"1\">",
                          "<a x=\"1\" y=\"2\">", ""}) {
    EXPECT_FALSE(r.accept_start_tag(tag)) << tag;
  }
  EXPECT_EQ(r.name(), "r");
  EXPECT_EQ(r.offset(), 0u);
  EXPECT_EQ(r.depth(), 1u);
  ASSERT_EQ(r.attributes().size(), 1u);
  EXPECT_EQ(r.attributes()[0].name, "k");
  EXPECT_EQ(tokens(doc), "<r k=v><a x=1>[t]</a><e></e><e></e></r>");
  ASSERT_EQ(r.next(), Token::kStartElement);
  EXPECT_EQ(r.name(), "a");
  r.skip_element();
  // `<e/>` owes its end token before anything else is read.
  ASSERT_EQ(r.next(), Token::kStartElement);
  EXPECT_FALSE(r.accept_start_tag("<e/>"));
  EXPECT_FALSE(r.accept_start_tag("<e>"));
  EXPECT_EQ(r.next(), Token::kEndElement);
  // Outside the root, and at the end of a truncated document, nothing is taken.
  Reader fresh("<r></r>");
  EXPECT_FALSE(fresh.accept_start_tag("<r>"));
  EXPECT_EQ(fresh.next(), Token::kStartElement);
  Reader cut("<r><a");
  ASSERT_EQ(cut.next(), Token::kStartElement);
  EXPECT_FALSE(cut.accept_start_tag("<a>"));
  EXPECT_THROW(cut.next(), XmlError);
}

TEST(Reader, AcceptStartTagKeepsTheDepthLimitAndItsErrorPosition) {
  const std::string doc = "<a>\n <b>\n  <c></c></b></a>";
  std::string lexed;
  try {
    read_all(doc, /*max_depth=*/2);
  } catch (const XmlError& e) {
    lexed = e.what();
  }
  ASSERT_NE(lexed, "");
  Reader r(doc, /*max_depth=*/2);
  ASSERT_EQ(r.next(), Token::kStartElement);
  ASSERT_EQ(r.next(), Token::kText);
  ASSERT_TRUE(r.accept_start_tag("<b>"));
  ASSERT_EQ(r.next(), Token::kText);
  try {
    (void)r.accept_start_tag("<c>");
    ADD_FAILURE() << "took a start tag past the depth limit";
  } catch (const XmlError& e) {
    EXPECT_EQ(std::string(e.what()), lexed);
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 4);
  }
}

TEST(Reader, IsNameMatchesWhatTheLexerReadsAsOneName) {
  for (const char* name : {"a", "_x", "ns:item", "a-b.c9", "\xC3\xA9t\xC3\xA9"}) {
    EXPECT_TRUE(is_name(name)) << name;
  }
  for (const char* name : {"", "1a", "-a", "a b", "a\"b", "a>b", "a/b", "a=b"}) {
    EXPECT_FALSE(is_name(name)) << name;
  }
}

TEST(Reader, AttributeWhitespaceTolerance) {
  EXPECT_EQ(tokens("<r a = \"1\"  b=\"2\" />"), "<r a=1 b=2></r>");
}

TEST(Reader, SingleQuotedAttributes) {
  EXPECT_EQ(tokens("<r a='va\"lue'/>"), "<r a=va\"lue></r>");
}

TEST(Reader, TextWithoutEntitiesIsAViewIntoTheDocument) {
  const std::string doc = "<r>plain text</r>";
  Reader r(doc);
  ASSERT_EQ(r.next(), Token::kStartElement);
  ASSERT_EQ(r.next(), Token::kText);
  EXPECT_EQ(r.text().data(), doc.data() + 3);
  EXPECT_EQ(r.text(), "plain text");
}

TEST(Reader, DepthAndOffsets) {
  const std::string doc = "<a><b x=\"1\"/><c>t</c></a>";
  Reader r(doc);
  EXPECT_EQ(r.next(), Token::kStartElement);
  EXPECT_EQ(r.depth(), 1u);
  EXPECT_EQ(r.next(), Token::kStartElement);
  EXPECT_EQ(r.name(), "b");
  EXPECT_EQ(r.depth(), 2u);
  EXPECT_EQ(r.offset(), 3u);
  EXPECT_EQ(r.next(), Token::kEndElement);
  EXPECT_EQ(r.name(), "b");
  EXPECT_EQ(r.depth(), 1u);
  EXPECT_EQ(r.next(), Token::kStartElement);
  EXPECT_EQ(r.offset(), doc.find("<c>"));
  r.skip_element();
  EXPECT_EQ(r.depth(), 1u);
  EXPECT_EQ(r.next(), Token::kEndElement);
  EXPECT_EQ(r.depth(), 0u);
  EXPECT_EQ(r.next(), Token::kEndOfDocument);
  EXPECT_EQ(r.next(), Token::kEndOfDocument);
}

TEST(Reader, ReadTextKeepsOnlyTheElementsOwnCharacterData) {
  Reader r("<r> a<!--c-->b<x>not this<y>nor this</y></x><![CDATA[c]]>&amp; </r>");
  ASSERT_EQ(r.next(), Token::kStartElement);
  std::string text;
  r.read_text(text);
  EXPECT_EQ(text, " abc& ");
  EXPECT_EQ(r.depth(), 0u);
  EXPECT_EQ(r.next(), Token::kEndOfDocument);
}

TEST(Reader, ResumeReadsTheRestOfTheDocument) {
  const std::string doc = "<env><body><op><v>1</v></op></body><tail>junk</tail></env>";
  Reader r = Reader::resume(doc, doc.find("<op>"), {"env", "body"});
  EXPECT_EQ(r.depth(), 2u);
  EXPECT_EQ(r.next(), Token::kStartElement);
  EXPECT_EQ(r.name(), "op");
  EXPECT_EQ(r.depth(), 3u);
  r.skip_element();
  EXPECT_EQ(r.next(), Token::kEndElement);
  EXPECT_EQ(r.name(), "body");
  EXPECT_EQ(r.next(), Token::kStartElement);
  EXPECT_EQ(r.name(), "tail");
  r.skip_element();
  EXPECT_EQ(r.next(), Token::kEndElement);
  EXPECT_EQ(r.name(), "env");
  EXPECT_EQ(r.next(), Token::kEndOfDocument);
  // The open elements are checked as a whole-document reader checks them.
  for (const std::string_view bad : {"<env><body><op/></env></env>",
                                     "<env><body><op/></body></env><x/>", "<env><body><op/></body>"}) {
    Reader tail = Reader::resume(bad, bad.find("<op"), {"env", "body"});
    const auto read_all = [&tail] {
      while (tail.next() != Token::kEndOfDocument) {
      }
    };
    EXPECT_THROW(read_all(), XmlError) << bad;
  }
}

TEST(Reader, ResumeReportsPositionsInTheWholeDocument) {
  const std::string doc = "<env>\n<op><v>1</w></op></env>";
  Reader r = Reader::resume(doc, doc.find("<op>"), {"env"});
  try {
    r.next();
    r.skip_element();
    FAIL() << "expected XmlError";
  } catch (const XmlError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 12);
  }
}

TEST(Reader, MalformedEntitiesAreXmlErrorsWithPositions) {
  for (const char* doc : {"<a>\n x &bogus; y</a>", "<a>\n&#xZZ;</a>", "<a\n b=\"&nope;\"/>",
                          "<a>&amp</a>", "<a>&#x110000;</a>"}) {
    try {
      Reader r(doc);
      while (r.next() != Token::kEndOfDocument) {
      }
      FAIL() << "expected XmlError for " << doc;
    } catch (const XmlError& e) {
      EXPECT_GE(e.line(), 1) << doc;
    }
  }
}

TEST(Reader, LocalPartStripsThePrefix) {
  EXPECT_EQ(local_part("soap:Body"), "Body");
  EXPECT_EQ(local_part("Body"), "Body");
  EXPECT_EQ(local_part("a:b:c"), "c");
}

TEST(Reader, SkipElementWalksTheChildrenOfTheRoot) {
  Reader r("<definitions name=\"svc\"><types><schema/></types>"
           "<message name=\"m1\"/><message name=\"m2\"/></definitions>");
  ASSERT_EQ(r.next(), Token::kStartElement);
  EXPECT_EQ(r.name(), "definitions");
  ASSERT_EQ(r.attributes().size(), 1u);
  EXPECT_EQ(r.attributes()[0].value(), "svc");
  std::vector<std::string> children;  // name, then `=value` of each attribute
  for (Token t = r.next(); t != Token::kEndElement; t = r.next()) {
    ASSERT_EQ(t, Token::kStartElement);
    std::string child(r.name());
    for (const Reader::Attribute& a : r.attributes()) {
      child.append("=").append(a.value());
    }
    children.push_back(child);
    r.skip_element();
  }
  EXPECT_EQ(children, (std::vector<std::string>{"types", "message=m1", "message=m2"}));
  EXPECT_EQ(r.next(), Token::kEndOfDocument);
}

// Messages and positions of every well-formedness error, pinned so that a
// change to the lexer cannot move them.
TEST(Reader, ErrorMessagesAndPositionsArePinned) {
  const struct {
    const char* doc;
    int max_depth;
    const char* what;
  } cases[] = {
      {"", 256, "xml:1:1: expected root element"},
      {"just text", 256, "xml:1:1: expected root element"},
      {"<a>", 256, "xml:1:4: unterminated element: a"},
      {"<a></a><b></b>", 256, "xml:1:8: content after root element"},
      {"<a></a>trailing", 256, "xml:1:8: content after root element"},
      {"<a x=1></a>", 256, "xml:1:7: attribute value must be quoted"},
      {"<a x=\"1\" x=\"2\"/>", 256, "xml:1:15: duplicate attribute: x"},
      {"<a><b attr=\"<\"/></a>", 256, "xml:1:13: '<' not allowed in attribute value"},
      {"<!DOCTYPE foo []><a/>", 256,
       "xml:1:10: DOCTYPE is not supported (external entities disabled)"},
      {"<a><!-- -- --></a>", 256, "xml:1:8: '--' not allowed inside comment"},
      {"<a>\n  <b></c>\n</a>", 256, "xml:2:9: mismatched end tag: expected </b>, got </c>"},
      {"<?xml version=\"1.0\"", 256, "xml:1:6: unterminated XML declaration"},
      {"<a><![CDATA[x</a>", 256, "xml:1:13: unterminated CDATA section"},
      {"<a><?pi x</a>", 256, "xml:1:8: unterminated processing instruction"},
      {"<a><!-- x</a>", 256, "xml:1:8: unterminated comment"},
      {"<a b=\"1\"c=\"2\"/>", 256, "xml:1:9: expected whitespace before attribute"},
      {"<a b/>", 256, "xml:1:5: expected '=' after attribute name"},
      {"<a b=\"1\" / >", 256, "xml:1:11: expected '>' to close empty-element tag"},
      {"<a\n  b='x", 256, "xml:2:7: unterminated attribute value"},
      {"<a\n b=", 256, "xml:2:4: unexpected end of document"},
      {"<a>\n<1/></a>", 256, "xml:2:2: expected a name"},
      {"<a></a >x", 256, "xml:1:9: content after root element"},
      {"<a></a", 256, "xml:1:7: expected '>' to close end tag"},
      {"<a", 256, "xml:1:3: unterminated start tag"},
      {"<a>\n<b><c><d><e/></d></c></b></a>", 4, "xml:2:11: element nesting exceeds 4 levels"},
      {"<a>x</a><!-- -- -->", 256, "xml:1:13: '--' not allowed inside comment"},
      {"\n\n  <a>\n</b>", 256, "xml:4:4: mismatched end tag: expected </a>, got </b>"},
      {"<a>\ntext", 256, "xml:2:5: unterminated element: a"},
      {"<r><!x/></r>", 256, "xml:1:5: expected a name"},
      {"<?pi", 256, "xml:1:5: unterminated processing instruction"},
      {"<a/>\n<?", 256, "xml:2:3: expected a name"},
      {"<a><b>\n</a>", 256, "xml:2:4: mismatched end tag: expected </b>, got </a>"},
  };
  for (const auto& c : cases) {
    try {
      read_all(c.doc, c.max_depth);
      ADD_FAILURE() << "expected XmlError for " << c.doc;
    } catch (const XmlError& e) {
      EXPECT_EQ(std::string(e.what()), std::string("parse error: ") + c.what) << c.doc;
    }
  }
}

// ---------------------------------------------------------------- Dom
// Whole-document reads on the reader: the element text and names that WSDL
// compilation takes from a document (test_wsdl.cpp holds its attribute and
// required-part lookups).

TEST(Dom, TextAccumulation) {
  Reader r("<v>12<!-- split -->34</v>");
  ASSERT_EQ(r.next(), Token::kStartElement);
  std::string text;
  r.read_text(text);
  EXPECT_EQ(text, "1234");
  EXPECT_EQ(r.next(), Token::kEndOfDocument);
}

TEST(Dom, LocalNameStripsPrefix) {
  Reader r("<xsd:schema xmlns:xsd=\"u\"><xsd:element/></xsd:schema>");
  ASSERT_EQ(r.next(), Token::kStartElement);
  EXPECT_EQ(local_part(r.name()), "schema");
  ASSERT_EQ(r.next(), Token::kStartElement);
  EXPECT_EQ(local_part(r.name()), "element");
  // Attribute names keep their prefix too.
  Reader e("<e xsi:type=\"int\" xmlns:xsi=\"u\"/>");
  ASSERT_EQ(e.next(), Token::kStartElement);
  ASSERT_EQ(e.attributes().size(), 2u);
  EXPECT_EQ(e.attributes()[0].name, "xsi:type");
  EXPECT_EQ(local_part(e.attributes()[0].name), "type");
  EXPECT_EQ(e.attributes()[0].value(), "int");
}

// ---------------------------------------------------------------- writer

TEST(Writer, CompactDocument) {
  XmlWriter w;
  w.start_element("root");
  w.attribute("id", std::int64_t{7});
  w.start_element("item");
  w.text("a<b");
  w.end_element();
  w.start_element("empty");
  w.end_element();
  w.end_element();
  EXPECT_EQ(w.take(), "<root id=\"7\"><item>a&lt;b</item><empty/></root>");
}

TEST(Writer, DeclarationFirst) {
  XmlWriter w;
  w.declaration();
  w.start_element("r");
  w.end_element();
  EXPECT_EQ(w.take(), "<?xml version=\"1.0\" encoding=\"UTF-8\"?><r/>");
}

TEST(Writer, DeclarationNotFirstThrows) {
  XmlWriter w;
  w.start_element("r");
  EXPECT_THROW(w.declaration(), ParseError);
}

TEST(Writer, UnbalancedTakeThrows) {
  XmlWriter w;
  w.start_element("r");
  EXPECT_THROW(w.take(), ParseError);
}

TEST(Writer, AttributeAfterContentThrows) {
  XmlWriter w;
  w.start_element("r");
  w.text("x");
  EXPECT_THROW(w.attribute("late", "1"), ParseError);
}

TEST(Writer, TextElementHelpers) {
  XmlWriter w;
  w.start_element("r");
  w.text_element("i", std::int64_t{-3});
  w.text_element("d", 0.5);
  w.text_element("s", "x&y");
  w.end_element();
  EXPECT_EQ(w.take(), "<r><i>-3</i><d>0.5</d><s>x&amp;y</s></r>");
}

TEST(Writer, OutputParsesBack) {
  XmlWriter w(true);
  w.declaration();
  w.start_element("envelope");
  w.start_element("body");
  w.attribute("kind", "test");
  w.text_element("value", std::int64_t{42});
  w.end_element();
  w.end_element();
  const std::string doc = w.take();
  Reader r(doc);
  auto next_tag = [&r] {  // past the indentation
    Token t = r.next();
    while (t == Token::kText) t = r.next();
    return t;
  };
  ASSERT_EQ(next_tag(), Token::kStartElement);
  EXPECT_EQ(r.name(), "envelope");
  ASSERT_EQ(next_tag(), Token::kStartElement);
  EXPECT_EQ(r.name(), "body");
  ASSERT_EQ(r.attributes().size(), 1u);
  EXPECT_EQ(r.attributes()[0].value(), "test");
  ASSERT_EQ(next_tag(), Token::kStartElement);
  EXPECT_EQ(r.name(), "value");
  std::string text;
  r.read_text(text);
  EXPECT_EQ(text, "42");
  EXPECT_EQ(next_tag(), Token::kEndElement);
  EXPECT_EQ(next_tag(), Token::kEndElement);
  EXPECT_EQ(next_tag(), Token::kEndOfDocument);
}

TEST(Writer, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.5, -2.25, 3.14159265358979, 1e-9, 6.02e23}) {
    EXPECT_DOUBLE_EQ(std::stod(format_double(v)), v);
  }
}

TEST(Writer, NumbersAreWrittenInPlace) {
  XmlWriter w;
  w.start_element("r");
  w.start_element("i");
  w.number(std::int64_t{-9223372036854775807 - 1});
  w.end_element();
  w.start_element("u");
  w.number(std::uint64_t{18446744073709551615ull});
  w.end_element();
  w.start_element("d");
  w.number(0.1);
  w.end_element();
  w.end_element();
  EXPECT_EQ(w.take(),
            "<r><i>-9223372036854775808</i><u>18446744073709551615</u><d>0.1</d></r>");
}

TEST(Writer, UnbalancedTakeNamesTheOpenElement) {
  XmlWriter w;
  w.start_element("outer");
  w.start_element("inner");
  try {
    (void)w.take();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("<inner>"), std::string::npos) << e.what();
  }
}

TEST(Writer, EndTagsRepeatLongNames) {
  const std::string name(300, 'n');
  XmlWriter w;
  w.start_element(name);
  w.start_element("x");
  w.text("t");
  w.end_element();
  w.end_element();
  EXPECT_EQ(w.take(), "<" + name + "><x>t</x></" + name + ">");
}

// The "%.*g" loop written with snprintf/sscanf: the oracle for
// format_double.
std::string printf_format_double(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

// 8 shards x 131072 doubles: half random bit patterns (NaNs, infinities,
// subnormals included), half short decimals that need 6 to 16 digits.
class FormatDoubleShards : public ::testing::TestWithParam<int> {};

TEST_P(FormatDoubleShards, MatchesPrintfOracle) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  int mismatches = 0;
  for (int i = 0; i < 131072 && mismatches < 10; ++i) {
    double v = 0.0;
    if (i % 2 == 0) {
      const std::uint64_t bits = rng();
      std::memcpy(&v, &bits, sizeof v);
    } else {
      const int digits = 1 + static_cast<int>(rng() % 16);
      std::uint64_t mantissa = rng() % 10000000000000000ull;
      for (int d = digits; d < 16; ++d) mantissa /= 10;
      const int exponent = static_cast<int>(rng() % 80) - 40;
      char text[48];
      std::snprintf(text, sizeof text, "%s%llue%d", (rng() & 1) ? "-" : "",
                    static_cast<unsigned long long>(mantissa), exponent);
      v = std::strtod(text, nullptr);
    }
    const std::string expected = printf_format_double(v);
    const std::string actual = format_double(v);
    if (actual != expected) {
      ++mismatches;
      ADD_FAILURE() << "format_double(" << expected << ") gave " << actual;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Writer, FormatDoubleShards, ::testing::Range(0, 8));

TEST(Writer, FormatDoubleSpecialValues) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-0.0), "-0");
  EXPECT_EQ(format_double(INFINITY), "inf");
  EXPECT_EQ(format_double(-INFINITY), "-inf");
  EXPECT_EQ(format_double(NAN), printf_format_double(NAN));
  EXPECT_EQ(format_double(-NAN), printf_format_double(-NAN));
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(format_double(9007199254740993.0), "9007199254740992");
  EXPECT_EQ(format_double(5e-324), printf_format_double(5e-324));
}

}  // namespace
}  // namespace sbq::xml
