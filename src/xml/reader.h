// Pull tokenizer — the library's one XML lexer.
//
// The reader handles the XML subset SOAP traffic uses: elements, attributes,
// character data (with entity and numeric character references), comments,
// CDATA sections, processing instructions, and the XML declaration. It
// deliberately does NOT implement DTDs or external entities (Expat's
// defaults for SOAP processing leave these off too; external entities are a
// well-known attack surface).
//
// Each next() call yields one token as views into the document: no string
// per element name, no attribute vector per tag, and text is copied only
// when it holds an entity reference that must be resolved. The reader
// checks well-formedness as it goes (tag balance, a single root, nothing
// but comments and PIs after it, quoted attributes without '<', no
// duplicate attributes, valid entities, no DOCTYPE) and bounds element
// nesting so hostile documents cannot exhaust anything. Errors are
// XmlErrors with 1-based line/column positions.
//
// This is the one public parse interface: the SOAP codec and the WSDL
// compiler (wsdl/wsdl.h) pull from it directly, and no tree is built. A
// document can be read in two legs without lexing any byte twice: one
// reader stops partway (the SOAP envelope parse stops at the body's
// operation element), and resume() picks the document up at that offset
// with the same open elements and reads it to its end. A caller that knows
// the start tag coming next (the SOAP codec, from its tag table) offers it
// to accept_start_tag(), which takes it in one compare when the document
// holds exactly those bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace sbq::xml {

/// Parse error with source position.
class XmlError : public ParseError {
 public:
  XmlError(const std::string& what, int line, int column)
      : ParseError("xml:" + std::to_string(line) + ":" + std::to_string(column) +
                   ": " + what),
        line_(line),
        column_(column) {}

  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Strips a `prefix:` from a qualified name.
inline std::string_view local_part(std::string_view qname) {
  const std::size_t colon = qname.rfind(':');
  return colon == std::string_view::npos ? qname : qname.substr(colon + 1);
}

/// True when the lexer reads all of `s` as one name.
bool is_name(std::string_view s);

/// Element nesting limit: SOAP payloads here nest with their PBIO formats,
/// which are shallow.
inline constexpr int kDefaultMaxDepth = 256;

class Reader {
 public:
  enum class Token : std::uint8_t {
    kStartElement,  // name(), attributes(); `<a/>` yields start then end
    kEndElement,    // name()
    kText,          // text(): character data, entities resolved
    kCData,         // text(): section content, verbatim
    kComment,       // text()
    kProcessingInstruction,  // name() is the target, text() the data
    kEndOfDocument,
  };

  /// An attribute of the current start tag. `raw_value` is the quoted text
  /// as written; its entities have been checked, value() resolves them.
  struct Attribute {
    std::string_view name;
    std::string_view raw_value;

    [[nodiscard]] std::string value() const;
  };

  /// Reads a whole document; `document` must outlive the reader.
  explicit Reader(std::string_view document, int max_depth = kDefaultMaxDepth);

  /// Resumes reading `document` at `offset`, inside the elements `open`
  /// names (outermost first; views that outlive the reader, usually the
  /// names of the start tags an earlier reader stopped after). The reader
  /// is then where a whole-document reader would be, so it checks the rest
  /// of the document to its end: end tags against `open`, the epilog, the
  /// single root. It does not re-check what lies before `offset`. With
  /// `open` empty it resumes before the root. Error positions count from
  /// the start of `document`.
  [[nodiscard]] static Reader resume(std::string_view document, std::size_t offset,
                                     std::initializer_list<std::string_view> open);

  /// Advances to the next token. Throws XmlError on malformed input.
  Token next();

  /// Element name (start/end tags) or PI target of the current token.
  [[nodiscard]] std::string_view name() const { return name_; }
  /// Text, CDATA, comment or PI data of the current token. A view into the
  /// document, or into the reader when entities were resolved; valid until
  /// the next call to next().
  [[nodiscard]] std::string_view text() const { return text_; }
  /// Attributes of the current start tag.
  [[nodiscard]] std::span<const Attribute> attributes() const {
    if (!unread_attributes_.empty()) read_attributes();
    return attributes_;
  }
  /// Open elements, counting the current start tag and not the current end
  /// tag: 1 on the root's start and 0 after its end.
  [[nodiscard]] std::size_t depth() const { return open_.size(); }
  /// Byte offset of the current token's first character in the document.
  [[nodiscard]] std::size_t offset() const { return token_start_; }

  /// Inside an element: when the document continues with exactly `tag`,
  /// consumes it as next() would consume that start tag, so the reader is
  /// where next() would leave it: on a kStartElement whose name() and
  /// attributes() are views into the document, under the same depth limit
  /// and error position. Otherwise, or when an empty element's end token
  /// is owed, returns false and leaves the reader untouched. A caller that
  /// knows the start tag coming next tries it here, so a match costs one
  /// compare and a miss falls back to next().
  ///
  /// `tag` must be a start tag the lexer accepts whole, written in one
  /// form: `<name>` or `<name a="v">`, with one space before each
  /// attribute, is_name() names, and values escaped as append_escaped()
  /// escapes them. The reader does not re-check it.
  [[nodiscard]] bool accept_start_tag(std::string_view tag);

  /// After a start tag: consumes the element's content and its end tag,
  /// still checking it, without yielding it.
  void skip_element();

  /// After a start tag: consumes through the element's end tag, appending
  /// its own character data (text and CDATA, not that of child elements)
  /// to `out`.
  void read_text(std::string& out);

 private:
  /// Throws XmlError at the current position.
  [[noreturn]] void fail(const std::string& message) const;

  enum class Phase : std::uint8_t { kStart, kProlog, kContent, kEpilog, kDone };

  /// resume(): moves to `offset` with `open` as the open elements.
  void enter(std::size_t offset, std::initializer_list<std::string_view> open);

  Token lex_markup_outside_root();
  Token lex_content();
  Token lex_start_tag();
  Token lex_end_tag();
  Token lex_comment();
  Token lex_cdata();
  Token lex_processing_instruction();
  Token end_element();
  void lex_attributes();
  /// Reads the attributes of a tag accept_start_tag() took.
  void read_attributes() const;
  std::string_view read_name();
  void skip_whitespace();
  bool at(std::string_view literal) const;
  std::string_view resolve(std::string_view raw, std::string& scratch);

  std::string_view doc_;
  std::size_t pos_ = 0;
  std::size_t token_start_ = 0;
  std::size_t max_depth_;
  Phase phase_ = Phase::kStart;
  bool empty_element_ = false;  // `<a/>`: its end tag is owed
  std::vector<std::string_view> open_;
  mutable std::vector<Attribute> attributes_;
  mutable std::string_view unread_attributes_;  // of an accepted tag, not yet read
  std::string_view name_;
  std::string_view text_;
  std::string text_scratch_;
  std::string attribute_scratch_;
};

}  // namespace sbq::xml
