#include "soap/envelope.h"

#include "common/error.h"
#include "common/strings.h"
#include "soap/codec.h"
#include "xml/reader.h"
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

using Token = xml::Reader::Token;

/// Advances to the next start or end tag, past text, comments and PIs.
Token next_tag(xml::Reader& reader) {
  for (;;) {
    const Token token = reader.next();
    if (token == Token::kStartElement || token == Token::kEndElement) return token;
  }
}

/// Resumes the tokenizer where parse_envelope stopped and reads the body
/// element's start tag again.
xml::Reader resume_at_body(const ParsedEnvelope& envelope) {
  xml::Reader reader = xml::Reader::resume(
      envelope.text, envelope.body_offset,
      {envelope.slice(envelope.envelope_tag), envelope.slice(envelope.body_tag)});
  if (reader.next() != Token::kStartElement) throw ParseError("SOAP Body element not found");
  return reader;
}

/// After the body element: reads the rest of the document, so the pair of
/// calls checks all that one whole-document pass would. Only text, comments
/// and PIs may follow it inside the Body.
void read_to_end(xml::Reader& reader) {
  if (next_tag(reader) == Token::kStartElement) {
    throw ParseError("SOAP Body must contain exactly one element, found a second: <" +
                     std::string(reader.name()) + ">");
  }
  while (reader.next() != Token::kEndOfDocument) {
  }
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
  const std::string_view text = parsed.text;
  const auto span_of = [text](std::string_view name) {
    return TextSpan{static_cast<std::size_t>(name.data() - text.data()), name.size()};
  };
  xml::Reader reader(text);
  next_tag(reader);  // the root's start tag
  const std::string_view root = reader.name();
  if (xml::local_part(root) != "Envelope") {
    throw ParseError("root element is <" + std::string(root) + ">, expected Envelope");
  }
  parsed.envelope_tag = span_of(root);
  // The first Body child of the root is the body; a Header before it is
  // skipped, still checked.
  for (;;) {
    if (next_tag(reader) == Token::kEndElement) {
      throw ParseError("element <" + std::string(root) + "> missing child <Body>");
    }
    if (xml::local_part(reader.name()) == "Body") break;
    reader.skip_element();
  }
  parsed.body_tag = span_of(reader.name());
  if (next_tag(reader) == Token::kEndElement) {
    throw ParseError("SOAP Body must contain exactly one element, has none");
  }
  parsed.body_offset = reader.offset();
  parsed.operation_name = span_of(xml::local_part(reader.name()));
  return parsed;
}

Fault parse_fault(const ParsedEnvelope& envelope) {
  if (!envelope.is_fault()) throw ParseError("envelope is not a fault");
  Fault out;
  bool have_code = false;
  bool have_message = false;
  xml::Reader reader = resume_at_body(envelope);
  const std::size_t fault_depth = reader.depth();
  for (;;) {
    const Token token = reader.next();
    if (token == Token::kEndElement && reader.depth() < fault_depth) break;  // </Fault>
    // Children are consumed whole below, so every start tag here is one.
    if (token != Token::kStartElement) continue;
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
  read_to_end(reader);
  return out;
}

pbio::Value decode_body(const ParsedEnvelope& envelope,
                        const pbio::FormatDesc& format) {
  xml::Reader reader = resume_at_body(envelope);
  pbio::Value value = read_value_xml(reader, format);
  read_to_end(reader);
  return value;
}

}  // namespace sbq::soap
