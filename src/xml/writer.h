// Streaming XML writer used to produce SOAP envelopes, WSDL documents, and
// SVG output. Guarantees well-formed output: balanced tags, escaped text and
// attribute values, attributes rejected after child content has begun.
//
// Everything is appended in place to one output string: open elements are
// remembered as (offset, length) spans of their names in that string, and
// text, attribute values and numbers are written straight into it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sbq::xml {

class XmlWriter {
 public:
  /// `pretty` inserts newlines + 2-space indentation; wire-facing SOAP uses
  /// compact output, documentation examples use pretty output.
  explicit XmlWriter(bool pretty = false) : pretty_(pretty) {}

  /// Emits `<?xml version="1.0" encoding="UTF-8"?>`. Must be first.
  void declaration();

  /// Opens `<name`. Attributes may be added until text/child content starts.
  void start_element(std::string_view name);

  /// Adds an attribute to the currently open start tag.
  void attribute(std::string_view name, std::string_view value);
  void attribute(std::string_view name, std::int64_t value);

  /// Writes escaped character data inside the current element.
  void text(std::string_view value);

  /// Writes a number as character data: decimal integers, and doubles as
  /// format_double() renders them.
  void number(std::int64_t value);
  void number(std::uint64_t value);
  void number(double value);

  /// Writes raw, pre-escaped markup (used to embed already-serialized XML).
  void raw(std::string_view markup);

  /// Closes the innermost open element (self-closing when empty).
  void end_element();

  /// Convenience: `<name>text</name>`.
  void text_element(std::string_view name, std::string_view text);
  void text_element(std::string_view name, std::int64_t value);
  void text_element(std::string_view name, double value);

  /// Finished document; throws ParseError if elements remain open.
  [[nodiscard]] std::string take();

  /// Current document size in bytes (without closing open elements).
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  struct OpenElement {
    std::size_t offset;  // of the name in out_
    std::size_t length;
  };

  void close_start_tag();
  void begin_attribute(std::string_view name);
  void begin_content();
  void indent();

  std::string out_;
  std::vector<OpenElement> open_;
  bool pretty_;
  bool tag_open_ = false;   // '<name' emitted, '>' not yet
  bool had_child_ = false;  // last content in current element was a child
};

/// Formats a double the way SOAP payloads in this library do: the shortest
/// `%.*g` rendering, from precision 6 up to 17, that reads back to the same
/// value.
std::string format_double(double v);

}  // namespace sbq::xml
