#include "xml/reader.h"

#include <array>
#include <cstring>

#include "xml/escape.h"

namespace sbq::xml {

namespace {

constexpr std::uint8_t kNameChar = 1;
constexpr std::uint8_t kNameStart = 2;

constexpr std::array<std::uint8_t, 256> kNameTable = [] {
  std::array<std::uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    const bool start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
                       c == ':' || c >= 0x80;
    const bool inner = start || (c >= '0' && c <= '9') || c == '-' || c == '.';
    table[static_cast<std::size_t>(c)] =
        static_cast<std::uint8_t>((start ? kNameStart : 0) | (inner ? kNameChar : 0));
  }
  return table;
}();

bool is_name_start(char c) {
  return (kNameTable[static_cast<unsigned char>(c)] & kNameStart) != 0;
}
bool is_name_char(char c) {
  return (kNameTable[static_cast<unsigned char>(c)] & kNameChar) != 0;
}
bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

}  // namespace

bool is_name(std::string_view s) {
  if (s.empty() || !is_name_start(s[0])) return false;
  for (const char c : s) {
    if (!is_name_char(c)) return false;
  }
  return true;
}

std::string Reader::Attribute::value() const {
  // The reader checked the entities when it read the tag.
  return unescape(raw_value);
}

Reader::Reader(std::string_view document, int max_depth)
    : doc_(document), max_depth_(static_cast<std::size_t>(max_depth < 0 ? 0 : max_depth)) {
  open_.reserve(16);
  attributes_.reserve(8);
}

Reader Reader::resume(std::string_view document, std::size_t offset,
                      std::initializer_list<std::string_view> open) {
  Reader reader(document);
  reader.enter(offset, open);
  return reader;
}

void Reader::enter(std::size_t offset, std::initializer_list<std::string_view> open) {
  pos_ = offset < doc_.size() ? offset : doc_.size();
  token_start_ = pos_;
  open_.assign(open);
  phase_ = open_.empty() ? Phase::kProlog : Phase::kContent;
}

void Reader::fail(const std::string& message) const {
  int line = 1;
  int col = 1;
  for (std::size_t i = 0; i < pos_ && i < doc_.size(); ++i) {
    if (doc_[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  throw XmlError(message, line, col);
}

bool Reader::at(std::string_view literal) const {
  return doc_.substr(pos_, literal.size()) == literal;
}

void Reader::skip_whitespace() {
  while (pos_ < doc_.size() && is_ws(doc_[pos_])) ++pos_;
}

std::string_view Reader::read_name() {
  if (pos_ >= doc_.size() || !is_name_start(doc_[pos_])) fail("expected a name");
  const std::size_t start = pos_;
  while (pos_ < doc_.size() && is_name_char(doc_[pos_])) ++pos_;
  return doc_.substr(start, pos_ - start);
}

std::string_view Reader::resolve(std::string_view raw, std::string& scratch) {
  if (std::memchr(raw.data(), '&', raw.size()) == nullptr) return raw;
  scratch.clear();
  if (std::string error = append_unescaped(scratch, raw); !error.empty()) fail(error);
  return scratch;
}

Reader::Token Reader::next() {
  if (empty_element_) {
    empty_element_ = false;
    return end_element();
  }
  switch (phase_) {
    case Phase::kContent:
      return lex_content();
    case Phase::kDone:
      token_start_ = pos_;
      return Token::kEndOfDocument;
    case Phase::kStart:
      skip_whitespace();
      if (at("<?xml")) {
        // XML declaration: tolerate any pseudo-attributes, require '?>'.
        pos_ += 5;
        const std::size_t end = doc_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated XML declaration");
        pos_ = end + 2;
      }
      phase_ = Phase::kProlog;
      break;
    case Phase::kProlog:
    case Phase::kEpilog:
      break;
  }
  return lex_markup_outside_root();
}

// Before the root: comments, PIs, then the root's start tag. After it:
// comments and PIs only.
Reader::Token Reader::lex_markup_outside_root() {
  skip_whitespace();
  token_start_ = pos_;
  if (at("<!--")) {
    pos_ += 4;
    return lex_comment();
  }
  if (at("<?")) {
    pos_ += 2;
    return lex_processing_instruction();
  }
  if (phase_ == Phase::kEpilog) {
    if (pos_ < doc_.size()) fail("content after root element");
    phase_ = Phase::kDone;
    return Token::kEndOfDocument;
  }
  if (at("<!DOCTYPE")) {
    pos_ += 9;
    fail("DOCTYPE is not supported (external entities disabled)");
  }
  if (pos_ >= doc_.size() || doc_[pos_] != '<') fail("expected root element");
  return lex_start_tag();
}

Reader::Token Reader::lex_content() {
  token_start_ = pos_;
  const std::size_t size = doc_.size();
  if (pos_ >= size) fail("unterminated element: " + std::string(open_.back()));
  if (doc_[pos_] != '<') {
    const void* lt = std::memchr(doc_.data() + pos_, '<', size - pos_);
    const std::size_t end =
        lt == nullptr ? size : static_cast<std::size_t>(static_cast<const char*>(lt) - doc_.data());
    const std::string_view raw = doc_.substr(pos_, end - pos_);
    pos_ = end;
    if (lt == nullptr) fail("unterminated element: " + std::string(open_.back()));
    text_ = resolve(raw, text_scratch_);
    return Token::kText;
  }
  const char after = pos_ + 1 < size ? doc_[pos_ + 1] : '\0';
  if (after == '/') {
    pos_ += 2;
    return lex_end_tag();
  }
  if (after == '!') {
    if (at("<!--")) {
      pos_ += 4;
      return lex_comment();
    }
    if (at("<![CDATA[")) {
      pos_ += 9;
      return lex_cdata();
    }
  } else if (after == '?') {
    pos_ += 2;
    return lex_processing_instruction();
  }
  return lex_start_tag();
}

Reader::Token Reader::lex_start_tag() {
  ++pos_;  // '<'
  if (open_.size() >= max_depth_) {
    fail("element nesting exceeds " + std::to_string(max_depth_) + " levels");
  }
  name_ = read_name();
  lex_attributes();
  if (doc_[pos_] == '/') {
    ++pos_;
    if (pos_ >= doc_.size() || doc_[pos_] != '>') {
      fail("expected '>' to close empty-element tag");
    }
    empty_element_ = true;
  } else if (doc_[pos_] != '>') {
    fail("expected '>' to close start tag");
  }
  ++pos_;
  open_.push_back(name_);
  phase_ = Phase::kContent;
  return Token::kStartElement;
}

bool Reader::accept_start_tag(std::string_view tag) {
  if (tag.empty() || empty_element_ || phase_ != Phase::kContent ||
      doc_.size() - pos_ < tag.size() ||
      std::memcmp(doc_.data() + pos_, tag.data(), tag.size()) != 0) {
    return false;
  }
  // The document holds `tag`, a start tag in the documented form: take the
  // name and the attributes from the document's copy of it.
  token_start_ = pos_;
  if (open_.size() >= max_depth_) {
    ++pos_;  // where the lexer reports it: after the '<'
    fail("element nesting exceeds " + std::to_string(max_depth_) + " levels");
  }
  const char* const t = doc_.data() + pos_;
  const std::size_t close = tag.size() - 1;  // the '>'
  std::size_t i = 1;
  while (i < close && t[i] != ' ') ++i;
  name_ = std::string_view(t + 1, i - 1);
  // The attributes are read when asked for: the SOAP codec never asks.
  attributes_.clear();
  unread_attributes_ = std::string_view(t + i, close - i);
  pos_ += tag.size();
  open_.push_back(name_);
  return true;
}

void Reader::read_attributes() const {
  // ` a="v"` pairs, in the form accept_start_tag() documents.
  const std::string_view t = unread_attributes_;
  unread_attributes_ = {};
  std::size_t i = 0;
  while (i < t.size()) {  // at the space before an attribute
    const std::size_t name = ++i;
    while (i < t.size() && t[i] != '=') ++i;
    const std::size_t value = i + 2;  // past `="`
    i = value;
    while (i < t.size() && t[i] != '"') ++i;
    attributes_.push_back(Attribute{t.substr(name, value - 2 - name), t.substr(value, i - value)});
    ++i;
  }
}

// Leaves pos_ at the '>' or '/' that ends the tag.
void Reader::lex_attributes() {
  attributes_.clear();
  unread_attributes_ = {};
  for (;;) {
    const bool had_ws = pos_ < doc_.size() && is_ws(doc_[pos_]);
    skip_whitespace();
    if (pos_ >= doc_.size()) fail("unterminated start tag");
    if (doc_[pos_] == '>' || doc_[pos_] == '/') return;
    if (!had_ws) fail("expected whitespace before attribute");
    const std::string_view name = read_name();
    skip_whitespace();
    if (pos_ >= doc_.size() || doc_[pos_] != '=') fail("expected '=' after attribute name");
    ++pos_;
    skip_whitespace();
    if (pos_ >= doc_.size()) fail("unexpected end of document");
    const char quote = doc_[pos_++];
    if (quote != '"' && quote != '\'') fail("attribute value must be quoted");
    const std::size_t start = pos_;
    const void* end = std::memchr(doc_.data() + start, quote, doc_.size() - start);
    const std::size_t stop =
        end == nullptr ? doc_.size()
                       : static_cast<std::size_t>(static_cast<const char*>(end) - doc_.data());
    if (const void* lt = std::memchr(doc_.data() + start, '<', stop - start)) {
      pos_ = static_cast<std::size_t>(static_cast<const char*>(lt) - doc_.data());
      fail("'<' not allowed in attribute value");
    }
    pos_ = stop;
    if (pos_ >= doc_.size()) fail("unterminated attribute value");
    const std::string_view raw = doc_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    (void)resolve(raw, attribute_scratch_);
    for (const Attribute& a : attributes_) {
      if (a.name == name) fail("duplicate attribute: " + std::string(name));
    }
    attributes_.push_back(Attribute{name, raw});
  }
}

Reader::Token Reader::lex_end_tag() {
  const std::string_view open = open_.back();
  // The name must repeat the open element's: compare in place, and read
  // it as a name only to report a mismatch.
  const std::size_t after = pos_ + open.size();
  if (after < doc_.size() && doc_.compare(pos_, open.size(), open) == 0 &&
      !is_name_char(doc_[after])) {
    pos_ = after;
  } else if (const std::string_view close = read_name(); close != open) {
    fail("mismatched end tag: expected </" + std::string(open_.back()) + ">, got </" +
         std::string(close) + ">");
  }
  skip_whitespace();
  if (pos_ >= doc_.size() || doc_[pos_] != '>') fail("expected '>' to close end tag");
  ++pos_;
  return end_element();
}

Reader::Token Reader::end_element() {
  name_ = open_.back();
  open_.pop_back();
  if (open_.empty()) phase_ = Phase::kEpilog;
  return Token::kEndElement;
}

Reader::Token Reader::lex_comment() {
  const std::size_t end = doc_.find("--", pos_);
  if (end == std::string_view::npos) fail("unterminated comment");
  // "--" inside a comment is illegal XML.
  if (doc_.substr(end, 3) != "-->") fail("'--' not allowed inside comment");
  text_ = doc_.substr(pos_, end - pos_);
  pos_ = end + 3;
  return Token::kComment;
}

Reader::Token Reader::lex_cdata() {
  const std::size_t end = doc_.find("]]>", pos_);
  if (end == std::string_view::npos) fail("unterminated CDATA section");
  text_ = doc_.substr(pos_, end - pos_);
  pos_ = end + 3;
  return Token::kCData;
}

Reader::Token Reader::lex_processing_instruction() {
  name_ = read_name();
  const std::size_t end = doc_.find("?>", pos_);
  if (end == std::string_view::npos) fail("unterminated processing instruction");
  std::string_view data = doc_.substr(pos_, end - pos_);
  // Trim the single space conventionally separating target from data.
  if (!data.empty() && data.front() == ' ') data.remove_prefix(1);
  text_ = data;
  pos_ = end + 2;
  return Token::kProcessingInstruction;
}

void Reader::skip_element() {
  const std::size_t depth = open_.size();
  while (next() != Token::kEndElement || open_.size() >= depth) {
  }
}

void Reader::read_text(std::string& out) {
  // Fast path for the common `text</name>`: one scan instead of two tokens.
  if (!empty_element_ && phase_ == Phase::kContent) {
    const std::size_t size = doc_.size();
    const void* lt = std::memchr(doc_.data() + pos_, '<', size - pos_);
    const std::string_view name = open_.back();
    if (lt != nullptr) {
      const auto at_lt = static_cast<std::size_t>(static_cast<const char*>(lt) - doc_.data());
      const std::size_t close = at_lt + 2 + name.size();  // the '>' of `</name>`
      if (close < size && doc_[at_lt + 1] == '/' && doc_[close] == '>' &&
          doc_.compare(at_lt + 2, name.size(), name) == 0) {
        const std::string_view raw = doc_.substr(pos_, at_lt - pos_);
        token_start_ = at_lt;
        pos_ = at_lt;
        out += resolve(raw, text_scratch_);
        pos_ = close + 1;
        end_element();
        return;
      }
    }
  }
  const std::size_t depth = open_.size();
  for (;;) {
    switch (next()) {
      case Token::kText:
      case Token::kCData:
        if (open_.size() == depth) out += text_;
        break;
      case Token::kEndElement:
        if (open_.size() < depth) return;
        break;
      default:
        break;
    }
  }
}

}  // namespace sbq::xml
