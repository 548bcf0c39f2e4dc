#include "xml/dom.h"

#include "common/error.h"
#include "common/strings.h"
#include "xml/escape.h"

namespace sbq::xml {

std::optional<std::string_view> Element::attribute(std::string_view name) const {
  for (const auto& [k, v] : attributes) {
    if (k == name || local_part(k) == name) return std::string_view{v};
  }
  return std::nullopt;
}

std::string_view Element::required_attribute(std::string_view name) const {
  auto v = attribute(name);
  if (!v) {
    throw ParseError("element <" + this->name + "> missing attribute '" +
                     std::string(name) + "'");
  }
  return *v;
}

const Element* Element::child(std::string_view local_name) const {
  for (const auto& c : children) {
    if (local_part(c->name) == local_name) return c.get();
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(std::string_view local_name) const {
  std::vector<const Element*> out;
  for (const auto& c : children) {
    if (local_part(c->name) == local_name) out.push_back(c.get());
  }
  return out;
}

const Element& Element::required_child(std::string_view local_name) const {
  const Element* c = child(local_name);
  if (c == nullptr) {
    throw ParseError("element <" + name + "> missing child <" +
                     std::string(local_name) + ">");
  }
  return *c;
}

std::string_view Element::local_name() const {
  return local_part(name);
}

std::string_view Element::trimmed_text() const {
  return trim(text);
}

std::string Element::to_string(int indent) const {
  std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::string out = pad + "<" + name;
  for (const auto& [k, v] : attributes) {
    out += " " + k + "=\"" + escape(v) + "\"";
  }
  if (children.empty() && trimmed_text().empty()) {
    out += "/>\n";
    return out;
  }
  out += ">";
  if (!trimmed_text().empty()) out += escape(std::string(trimmed_text()));
  if (!children.empty()) {
    out += "\n";
    for (const auto& c : children) out += c->to_string(indent + 1);
    out += pad;
  }
  out += "</" + name + ">\n";
  return out;
}

std::unique_ptr<Element> parse_document(std::string_view document) {
  std::unique_ptr<Element> root;
  std::vector<Element*> stack;
  Reader reader(document);
  for (;;) {
    switch (reader.next()) {
      case Reader::Token::kStartElement: {
        auto node = std::make_unique<Element>();
        node->name = std::string(reader.name());
        for (const Reader::Attribute& a : reader.attributes()) {
          node->attributes.emplace_back(std::string(a.name), a.value());
        }
        Element* raw = node.get();
        if (stack.empty()) {
          root = std::move(node);
        } else {
          stack.back()->children.push_back(std::move(node));
        }
        stack.push_back(raw);
        break;
      }
      case Reader::Token::kEndElement:
        stack.pop_back();
        break;
      case Reader::Token::kText:
      case Reader::Token::kCData:
        stack.back()->text += reader.text();
        break;
      case Reader::Token::kEndOfDocument:
        return root;
      default:
        break;
    }
  }
}

}  // namespace sbq::xml
