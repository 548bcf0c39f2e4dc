// The wire codec shared by ClientStub and ServiceRuntime.
//
// An invocation travels as an HTTP POST on one of three wires, and every
// message carries the same metadata, a BinEnvelope. Both endpoints write and
// read messages through one codec per wire:
//
//   encode_wire   Value + metadata → body, Content-Type, X-SOAP-* headers
//   open_wire     body + headers   → metadata, operation name
//   decode_wire   opened message   → Value of the receiver's full type
//
// On the binary wire (SOAP-bin) the body is an envelope before PBIO:
//
//   [u16 operation_len][operation]      which WSDL operation
//   [u16 msg_type_len][message_type]    quality type that encoded the params
//   [u64 timestamp_us]                  sender's clock when sending
//   [u64 echoed_timestamp_us]           response: request timestamp echoed back
//   [u64 server_prep_us]                response: server data-preparation time
//   [f64 reported_rtt_us]               request: client's current RTT estimate
//   [PBIO message]                      header + payload (pbio/encode.h)
//
// On the XML wires the body is a SOAP envelope (LZSS-compressed on the
// compressed wire) and the metadata rides in X-SOAP-* headers: the message
// type both ways, the reported RTT on requests, the prep time on responses.
// docs/wire-format.md §2 tabulates every field and who checks it.
//
// The timestamp/echo/prep fields implement the paper's RTT measurement
// scheme (client timestamps, server echoes, optionally set back by its
// preparation time); reported_rtt implements "the server is informed of the
// new value during the next request".
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/buffer_chain.h"
#include "common/bytes.h"
#include "common/stats.h"
#include "http/message.h"
#include "pbio/format.h"
#include "pbio/plan.h"
#include "pbio/registry.h"
#include "pbio/value.h"
#include "soap/envelope.h"

namespace sbq::qos {
class QualityManager;
}

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
/// (paper §V future work: handlers/quality for XML data). The client id
/// travels as a header on every wire.
inline constexpr std::string_view kHeaderQualityType = "X-SOAP-Quality-Type";
inline constexpr std::string_view kHeaderClientId = "X-SOAP-Client-Id";
inline constexpr std::string_view kHeaderReportedRtt = "X-SOAP-Reported-RTT-us";
inline constexpr std::string_view kHeaderServerPrep = "X-SOAP-Server-Prep-us";

/// The Content-Type a wire's messages carry.
std::string_view content_type_of(WireFormat wire);

/// The wire whose messages carry `content_type`; nullopt for any other.
std::optional<WireFormat> wire_format_of(std::string_view content_type);

/// Binary envelope metadata (everything before the PBIO message); every
/// wire carries it.
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

/// What the codec spent on one message: each field feeds the EndpointStats
/// field of the same name. A binary envelope read counts only in
/// bytes_copied; an XML envelope parse counts in unmarshal_us.
struct CodecCosts {
  double marshal_us = 0.0;
  double envelope_us = 0.0;
  double unmarshal_us = 0.0;
  double compress_us = 0.0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t segments_written = 0;

  void add_to(EndpointStats& stats) const;
};

/// Writes `value`, a record of message type `type`, and `meta` as the
/// message's body, Content-Type and X-SOAP-* headers.
///   * Binary: announces `type` unless `formats` holds it, encodes the PBIO
///     chain, and puts the envelope segment in front.
///   * XML: builds the SOAP envelope, body element `<op>` on a request and
///     `<opResponse>` on a response; LZSS-compressed on the compressed wire.
/// A request's chain borrows `value`, which must outlive the round trip; a
/// response's chain anchors the moved-in value.
CodecCosts encode_wire(WireFormat wire, http::Request& out, const BinEnvelope& meta,
                       const pbio::Value& value, const pbio::FormatPtr& type,
                       pbio::FormatCache& formats);
CodecCosts encode_wire(WireFormat wire, http::Response& out, const BinEnvelope& meta,
                       pbio::Value&& value, const pbio::FormatPtr& type,
                       pbio::FormatCache& formats);

/// A received message: metadata read, body awaiting decode_wire.
struct OpenedMessage {
  WireFormat wire = WireFormat::kXml;
  /// XML wires fill what they carry: the operation (the body element's
  /// name), the message type (empty without a header), the reported RTT on
  /// requests and the prep time on responses.
  BinEnvelope meta;
  BufferChain pbio_message;       // binary wire
  soap::ParsedEnvelope envelope;  // XML wires
  CodecCosts costs;
};

/// Reads a message's metadata and operation name: the envelope on the
/// binary wire (CodecError if truncated), the X-SOAP-* headers and the
/// parsed SOAP envelope on the XML wires (ParseError if malformed). A SOAP
/// Fault body throws RpcError carrying the fault code and string.
OpenedMessage open_wire(WireFormat wire, const http::Request& in);
OpenedMessage open_wire(WireFormat wire, const http::Response& in);

/// Decodes the opened body as a record of `full`, the receiver's type for
/// the operation; a reduced message comes back lifted onto `full`.
///   * Binary: the plan from the sender's format (by id through `formats`).
///   * XML: the type named in `in.meta` (`full` if none; the name is filled
///     in) is resolved through `quality`'s registry, decoded and projected
///     onto `full`. A type the receiver cannot resolve throws RpcError.
pbio::Value decode_wire(OpenedMessage& in, const pbio::FormatPtr& full,
                        pbio::FormatCache& formats, pbio::PlanCache& plans,
                        const qos::QualityManager* quality);

}  // namespace sbq::core
