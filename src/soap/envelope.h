// SOAP 1.1 envelopes: construction, parsing, faults.
//
// An invocation is `<Envelope><Body><op>...params...</op></Body></Envelope>`;
// a response wraps `<opResponse>`; errors travel as `<Fault>` inside the
// body with faultcode/faultstring.
#pragma once

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

/// A parsed envelope owns its text and remembers where the single operation
/// (or Fault) element inside <Body> starts; decode_body and parse_fault
/// stream from there. Offsets, not views, so moving the envelope is safe.
struct ParsedEnvelope {
  std::string text;
  std::size_t body_offset = 0;       // the body element's '<'
  std::size_t operation_offset = 0;  // its local name
  std::size_t operation_size = 0;

  /// Local name of the body element ("getImage", "getImageResponse", "Fault").
  [[nodiscard]] std::string_view operation() const {
    return std::string_view(text).substr(operation_offset, operation_size);
  }
  [[nodiscard]] bool is_fault() const { return operation() == "Fault"; }
};

/// Fault details extracted from a fault envelope.
struct Fault {
  std::string code;
  std::string message;
};

/// Parses and validates Envelope/Body structure in one tokenizer pass: the
/// whole document must be well-formed XML whose root is an Envelope with a
/// Body holding exactly one element. Takes the text by value; callers that
/// are done with theirs move it in.
ParsedEnvelope parse_envelope(std::string xml_text);

/// Extracts fault details; throws ParseError if not a fault.
Fault parse_fault(const ParsedEnvelope& envelope);

/// Decodes the body element's parameters per `format`.
pbio::Value decode_body(const ParsedEnvelope& envelope,
                        const pbio::FormatDesc& format);

}  // namespace sbq::soap
