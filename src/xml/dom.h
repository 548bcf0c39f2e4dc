// Small DOM built on the pull tokenizer (xml/reader.h).
//
// WSDL compilation needs random access to a parsed document, and tests use
// it to inspect generated XML (SVG output, envelopes); this tree keeps
// exactly what those users read: elements, attributes, and (merged) text.
// Comments and processing instructions are dropped. The SOAP call path
// does not build a DOM: envelopes and parameters stream from the reader
// (soap/envelope.h, soap/codec.h).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xml/reader.h"

namespace sbq::xml {

/// An element node. Children are owned; text interleaved between child
/// elements is concatenated into `text` (sufficient for SOAP/WSDL payloads,
/// which never rely on mixed-content ordering).
class Element {
 public:
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<std::unique_ptr<Element>> children;
  std::string text;

  /// Attribute lookup; empty optional when absent.
  [[nodiscard]] std::optional<std::string_view> attribute(std::string_view name) const;

  /// Attribute lookup with a required value; throws ParseError when absent.
  [[nodiscard]] std::string_view required_attribute(std::string_view name) const;

  /// First child element with the given local name (namespace prefixes are
  /// ignored: `child("schema")` matches `<xsd:schema>`).
  [[nodiscard]] const Element* child(std::string_view local_name) const;

  /// All child elements with the given local name.
  [[nodiscard]] std::vector<const Element*> children_named(std::string_view local_name) const;

  /// Child element that must exist; throws ParseError when absent.
  [[nodiscard]] const Element& required_child(std::string_view local_name) const;

  /// Local part of this element's name (strips any `prefix:`).
  [[nodiscard]] std::string_view local_name() const;

  /// Trimmed text content.
  [[nodiscard]] std::string_view trimmed_text() const;

  /// Serializes the subtree (canonical form used by tests and debugging).
  [[nodiscard]] std::string to_string(int indent = 0) const;
};

/// Parses a complete document into a DOM tree. Throws XmlError on bad input.
std::unique_ptr<Element> parse_document(std::string_view document);

}  // namespace sbq::xml
