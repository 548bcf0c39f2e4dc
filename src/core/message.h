// SOAP-bin wire messages.
//
// A SOAP-bin invocation still travels as an HTTP POST, but the body is a
// compact binary envelope instead of an XML document:
//
//   [u16 operation_len][operation]      which WSDL operation
//   [u16 msg_type_len][message_type]    quality type that encoded the params
//   [u64 timestamp_us]                  sender's clock when sending
//   [u64 echoed_timestamp_us]           response: request timestamp echoed back
//   [u64 server_prep_us]                response: server data-preparation time
//   [f64 reported_rtt_us]               request: client's current RTT estimate
//   [PBIO message]                      header + payload (pbio/encode.h)
//
// The timestamp/echo/prep fields implement the paper's RTT measurement
// scheme (client timestamps, server echoes, optionally set back by its
// preparation time); reported_rtt implements "the server is informed of the
// new value during the next request".
#pragma once

#include <string>

#include "common/buffer_chain.h"
#include "common/bytes.h"
#include "pbio/format.h"

namespace sbq::core {

/// The three wire formats; only their body and metadata codec differs.
enum class WireFormat { kXml, kBinary, kCompressedXml };

/// HTTP content types distinguishing the wire formats.
inline constexpr std::string_view kContentTypeXml = "text/xml; charset=utf-8";
inline constexpr std::string_view kContentTypePbio = "application/x-soap-pbio";
inline constexpr std::string_view kContentTypeCompressedXml =
    "application/x-soap-xml-lz";

/// HTTP headers carrying the binary envelope's metadata on the XML wire,
/// so SOAP-binQ quality management also works for plain-SOAP peers
/// (paper §V future work: handlers/quality for XML data).
inline constexpr std::string_view kHeaderQualityType = "X-SOAP-Quality-Type";
inline constexpr std::string_view kHeaderClientId = "X-SOAP-Client-Id";
inline constexpr std::string_view kHeaderReportedRtt = "X-SOAP-Reported-RTT-us";
inline constexpr std::string_view kHeaderServerPrep = "X-SOAP-Server-Prep-us";

/// Binary envelope metadata (everything before the PBIO message).
struct BinEnvelope {
  std::string operation;
  std::string message_type;
  std::uint64_t timestamp_us = 0;
  std::uint64_t echoed_timestamp_us = 0;
  std::uint64_t server_prep_us = 0;
  double reported_rtt_us = 0.0;
};

/// Serializes the envelope in front of an encoded PBIO message: the
/// envelope becomes one small owned segment and the PBIO chain's segments
/// are spliced in behind it — the PBIO payload is never copied into a
/// combined buffer.
BufferChain encode_bin_message(const BinEnvelope& envelope,
                               BufferChain&& pbio_message);

/// Splits a wire body into envelope + PBIO message. The PBIO message comes
/// back as a chain sharing the body's segments (suffix slice, no
/// flattening).
/// `bytes_copied` counts the scratch bytes the envelope decode itself
/// needed (fields straddling a segment boundary).
struct DecodedBinChain {
  BinEnvelope envelope;
  BufferChain pbio_message;
  std::uint64_t bytes_copied = 0;
};
DecodedBinChain decode_bin_message(const BufferChain& body);

}  // namespace sbq::core
