// Callback-based XML parsing — the library's Expat-style interface, a thin
// loop over the pull tokenizer (xml/reader.h), which does the lexing and
// all well-formedness checking.
//
// Errors carry 1-based line/column positions so higher layers (WSDL compiler,
// quality files embedded in XML) report actionable diagnostics.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "xml/reader.h"

namespace sbq::xml {

/// A single `name="value"` attribute with entities already resolved.
struct Attribute {
  std::string name;
  std::string value;
};

/// Event callbacks; any handler may be left empty.
///
/// Text is delivered with entities resolved. Contiguous character data may be
/// split across several `characters` calls (e.g. around comments), exactly as
/// Expat does — consumers must accumulate.
struct SaxHandlers {
  std::function<void(std::string_view name, const std::vector<Attribute>& attrs)>
      start_element;
  std::function<void(std::string_view name)> end_element;
  std::function<void(std::string_view text)> characters;
  std::function<void(std::string_view text)> cdata;
  std::function<void(std::string_view text)> comment;
  std::function<void(std::string_view target, std::string_view data)>
      processing_instruction;
};

/// One-shot SAX parser. Construct with handlers, call parse() with a full
/// document. Well-formedness and the nesting limit (default 256 levels) are
/// the reader's.
class SaxParser {
 public:
  explicit SaxParser(SaxHandlers handlers, int max_depth = kDefaultMaxDepth)
      : handlers_(std::move(handlers)), max_depth_(max_depth) {}

  /// Parses a complete document; throws XmlError on malformed input.
  void parse(std::string_view document);

 private:
  SaxHandlers handlers_;
  int max_depth_;
};

}  // namespace sbq::xml
