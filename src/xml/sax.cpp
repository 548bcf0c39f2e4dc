#include "xml/sax.h"

namespace sbq::xml {

void SaxParser::parse(std::string_view document) {
  Reader reader(document, max_depth_);
  std::vector<Attribute> attrs;
  for (;;) {
    switch (reader.next()) {
      case Reader::Token::kStartElement:
        if (handlers_.start_element) {
          attrs.clear();
          for (const Reader::Attribute& a : reader.attributes()) {
            attrs.push_back(Attribute{std::string(a.name), a.value()});
          }
          handlers_.start_element(reader.name(), attrs);
        }
        break;
      case Reader::Token::kEndElement:
        if (handlers_.end_element) handlers_.end_element(reader.name());
        break;
      case Reader::Token::kText:
        if (handlers_.characters) handlers_.characters(reader.text());
        break;
      case Reader::Token::kCData:
        // CDATA is character data; delivered as such when no CDATA handler is set.
        if (handlers_.cdata) {
          handlers_.cdata(reader.text());
        } else if (handlers_.characters) {
          handlers_.characters(reader.text());
        }
        break;
      case Reader::Token::kComment:
        if (handlers_.comment) handlers_.comment(reader.text());
        break;
      case Reader::Token::kProcessingInstruction:
        if (handlers_.processing_instruction) {
          handlers_.processing_instruction(reader.name(), reader.text());
        }
        break;
      case Reader::Token::kEndOfDocument:
        return;
    }
  }
}

}  // namespace sbq::xml
