#include "soap/envelope.h"

#include "common/error.h"
#include "common/strings.h"
#include "soap/codec.h"
#include "xml/writer.h"

namespace sbq::soap {

namespace {

std::string build_envelope(std::string_view body_name, const pbio::Value& params,
                           const pbio::FormatDesc& format) {
  xml::XmlWriter writer;
  writer.declaration();
  writer.start_element("soap:Envelope");
  writer.attribute("xmlns:soap", kEnvelopeNs);
  writer.attribute("xmlns:xsd", "http://www.w3.org/2001/XMLSchema");
  writer.attribute("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance");
  writer.attribute("xmlns:soapenc", "http://schemas.xmlsoap.org/soap/encoding/");
  writer.start_element("soap:Body");
  // Standard SOAP puts Section-5 xsi:type annotations on every parameter —
  // the verbosity SOAP-bin eliminates.
  write_value_xml(writer, params, format, body_name, XmlStyle{.typed = true});
  writer.end_element();
  writer.end_element();
  return writer.take();
}

}  // namespace

std::string build_request(std::string_view operation, const pbio::Value& params,
                          const pbio::FormatDesc& format) {
  return build_envelope(operation, params, format);
}

std::string build_response(std::string_view operation, const pbio::Value& result,
                           const pbio::FormatDesc& format) {
  return build_envelope(std::string(operation) + "Response", result, format);
}

std::string build_fault(std::string_view faultcode, std::string_view faultstring) {
  xml::XmlWriter writer;
  writer.declaration();
  writer.start_element("soap:Envelope");
  writer.attribute("xmlns:soap", kEnvelopeNs);
  writer.start_element("soap:Body");
  writer.start_element("soap:Fault");
  writer.text_element("faultcode", faultcode);
  writer.text_element("faultstring", faultstring);
  writer.end_element();
  writer.end_element();
  writer.end_element();
  return writer.take();
}

ParsedEnvelope parse_envelope(std::string xml_text) {
  ParsedEnvelope parsed;
  parsed.text = std::move(xml_text);
  std::string_view root;
  bool saw_body = false;
  bool in_body = false;
  std::size_t body_elements = 0;
  xml::Reader reader(parsed.text);
  for (auto token = reader.next(); token != xml::Reader::Token::kEndOfDocument;
       token = reader.next()) {
    if (token == xml::Reader::Token::kEndElement) {
      if (in_body && reader.depth() == 1) in_body = false;
      continue;
    }
    if (token != xml::Reader::Token::kStartElement) continue;
    switch (reader.depth()) {
      case 1:
        root = reader.name();
        break;
      case 2:
        // The first Body child of the root is the body.
        if (!saw_body && xml::local_part(reader.name()) == "Body") saw_body = in_body = true;
        break;
      case 3:
        if (in_body && body_elements++ == 0) {
          const std::string_view operation = xml::local_part(reader.name());
          parsed.body_offset = reader.offset();
          parsed.operation_offset = static_cast<std::size_t>(operation.data() - parsed.text.data());
          parsed.operation_size = operation.size();
        }
        break;
      default:
        break;
    }
  }
  if (xml::local_part(root) != "Envelope") {
    throw ParseError("root element is <" + std::string(root) + ">, expected Envelope");
  }
  if (!saw_body) {
    throw ParseError("element <" + std::string(root) + "> missing child <Body>");
  }
  // The body must contain exactly one operation element.
  if (body_elements != 1) {
    throw ParseError("SOAP Body must contain exactly one element, has " +
                     std::to_string(body_elements));
  }
  return parsed;
}

Fault parse_fault(const ParsedEnvelope& envelope) {
  if (!envelope.is_fault()) throw ParseError("envelope is not a fault");
  Fault out;
  bool have_code = false;
  bool have_message = false;
  xml::Reader reader = xml::Reader::element_at(envelope.text, envelope.body_offset);
  reader.next();  // <Fault>
  for (;;) {
    const xml::Reader::Token token = reader.next();
    if (token == xml::Reader::Token::kEndElement && reader.depth() == 0) break;  // </Fault>
    // Children are consumed whole below, so every start tag here is one.
    if (token != xml::Reader::Token::kStartElement) continue;
    const std::string_view name = xml::local_part(reader.name());
    std::string* field = nullptr;
    if (name == "faultcode" && !have_code) {
      field = &out.code;
      have_code = true;
    } else if (name == "faultstring" && !have_message) {
      field = &out.message;
      have_message = true;
    }
    if (field == nullptr) {
      reader.skip_element();
      continue;
    }
    std::string text;
    reader.read_text(text);
    *field = std::string(trim(text));
  }
  return out;
}

pbio::Value decode_body(const ParsedEnvelope& envelope,
                        const pbio::FormatDesc& format) {
  xml::Reader reader = xml::Reader::element_at(envelope.text, envelope.body_offset);
  if (reader.next() != xml::Reader::Token::kStartElement) {
    throw ParseError("SOAP Body element not found");
  }
  return read_value_xml(reader, format);
}

}  // namespace sbq::soap
