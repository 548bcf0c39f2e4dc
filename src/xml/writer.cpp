#include "xml/writer.h"

#include <charconv>

#include "common/error.h"
#include "xml/escape.h"

namespace sbq::xml {

namespace {

template <class Int>
void append_integer(std::string& out, Int value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

void append_double(std::string& out, double v) {
  // std::to_chars with a precision produces exactly printf's "%.*g" bytes;
  // %.17g always round-trips, so shrink to the shortest form that does.
  char buf[32];
  char* end = buf;
  for (int prec = 6; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  out.append(buf, end);
}

}  // namespace

std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

void XmlWriter::declaration() {
  if (!out_.empty()) throw ParseError("XML declaration must come first");
  out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  if (pretty_) out_ += '\n';
}

void XmlWriter::indent() {
  if (!pretty_) return;
  if (!out_.empty() && out_.back() != '\n') out_ += '\n';
  out_.append(open_.size() * 2, ' ');
}

void XmlWriter::close_start_tag() {
  if (tag_open_) {
    out_ += '>';
    tag_open_ = false;
  }
}

void XmlWriter::begin_content() {
  if (open_.empty()) throw ParseError("text outside root element");
  close_start_tag();
}

void XmlWriter::start_element(std::string_view name) {
  close_start_tag();
  indent();
  out_ += '<';
  open_.push_back(OpenElement{out_.size(), name.size()});
  out_ += name;
  tag_open_ = true;
  had_child_ = false;
}

void XmlWriter::begin_attribute(std::string_view name) {
  if (!tag_open_) throw ParseError("attribute after element content: " + std::string(name));
  out_ += ' ';
  out_ += name;
  out_ += "=\"";
}

void XmlWriter::attribute(std::string_view name, std::string_view value) {
  begin_attribute(name);
  append_escaped(out_, value);
  out_ += '"';
}

void XmlWriter::attribute(std::string_view name, std::int64_t value) {
  begin_attribute(name);
  append_integer(out_, value);
  out_ += '"';
}

void XmlWriter::text(std::string_view value) {
  begin_content();
  append_escaped(out_, value);
}

void XmlWriter::number(std::int64_t value) {
  begin_content();
  append_integer(out_, value);
}

void XmlWriter::number(std::uint64_t value) {
  begin_content();
  append_integer(out_, value);
}

void XmlWriter::number(double value) {
  begin_content();
  append_double(out_, value);
}

void XmlWriter::raw(std::string_view markup) {
  close_start_tag();
  out_ += markup;
}

void XmlWriter::end_element() {
  if (open_.empty()) throw ParseError("end_element with no open element");
  const OpenElement element = open_.back();
  open_.pop_back();
  if (tag_open_) {
    out_ += "/>";
    tag_open_ = false;
  } else {
    if (pretty_ && had_child_) {
      if (!out_.empty() && out_.back() != '\n') out_ += '\n';
      out_.append(open_.size() * 2, ' ');
    }
    out_ += "</";
    out_.append(out_, element.offset, element.length);
    out_ += '>';
  }
  if (pretty_) out_ += '\n';
  had_child_ = true;
}

void XmlWriter::text_element(std::string_view name, std::string_view text_value) {
  start_element(name);
  text(text_value);
  end_element();
}

void XmlWriter::text_element(std::string_view name, std::int64_t value) {
  start_element(name);
  number(value);
  end_element();
}

void XmlWriter::text_element(std::string_view name, double value) {
  start_element(name);
  number(value);
  end_element();
}

std::string XmlWriter::take() {
  if (!open_.empty()) {
    const OpenElement& element = open_.back();
    throw ParseError("document finished with <" +
                     out_.substr(element.offset, element.length) + "> still open");
  }
  return std::move(out_);
}

}  // namespace sbq::xml
