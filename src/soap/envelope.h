// SOAP 1.1 envelopes: construction, parsing, faults.
//
// An invocation is `<Envelope><Body><op>...params...</op></Body></Envelope>`;
// a response wraps `<opResponse>`; errors travel as `<Fault>` inside the
// body with faultcode/faultstring.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "pbio/format.h"
#include "pbio/value.h"

namespace sbq::soap {

inline constexpr std::string_view kEnvelopeNs =
    "http://schemas.xmlsoap.org/soap/envelope/";

/// Builds a request envelope: body element named `operation`.
std::string build_request(std::string_view operation, const pbio::Value& params,
                          const pbio::FormatDesc& format);

/// Builds a response envelope: body element named `<operation>Response`.
std::string build_response(std::string_view operation, const pbio::Value& result,
                           const pbio::FormatDesc& format);

/// Builds a fault envelope.
std::string build_fault(std::string_view faultcode, std::string_view faultstring);

/// A piece of a ParsedEnvelope's text, by offset, so moving the envelope is
/// safe.
struct TextSpan {
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// A parsed envelope owns its text and remembers where the single operation
/// (or Fault) element inside <Body> starts. parse_envelope stops there;
/// decode_body and parse_fault resume the tokenizer at that element, with
/// Envelope and Body open, and read the document to its end.
struct ParsedEnvelope {
  std::string text;
  std::size_t body_offset = 0;  // the body element's '<'
  TextSpan operation_name;      // its local name
  TextSpan envelope_tag;        // the qualified names of the Envelope and
  TextSpan body_tag;            // Body start tags, still open at body_offset

  [[nodiscard]] std::string_view slice(TextSpan span) const {
    return std::string_view(text).substr(span.offset, span.size);
  }
  /// Local name of the body element ("getImage", "getImageResponse", "Fault").
  [[nodiscard]] std::string_view operation() const { return slice(operation_name); }
  [[nodiscard]] bool is_fault() const { return operation() == "Fault"; }
};

/// Fault details extracted from a fault envelope.
struct Fault {
  std::string code;
  std::string message;
};

/// Receiving an envelope is one tokenizer pass split over two calls. Every
/// receiver runs parse_envelope and then decode_body or parse_fault; the
/// envelope is checked in full only once the pair has returned, and either
/// call throws ParseError for what it finds wrong.
///
/// parse_envelope reads up to the start tag of the first element inside the
/// first Body and checks what it reads: the prolog, a root named Envelope,
/// any children before the Body (a Header), and a Body that holds an
/// element. Takes the text by value; callers that are done with theirs move
/// it in.
ParsedEnvelope parse_envelope(std::string xml_text);

/// Extracts fault details and then checks the rest of the document, as
/// decode_body does; throws ParseError if the envelope is not a fault.
Fault parse_fault(const ParsedEnvelope& envelope);

/// Decodes the body element's parameters per `format`, then checks the rest
/// of the document: it must be well-formed to its end, and the Body must
/// hold no second element.
pbio::Value decode_body(const ParsedEnvelope& envelope,
                        const pbio::FormatDesc& format);

}  // namespace sbq::soap
