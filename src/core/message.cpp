#include "core/message.h"

#include <memory>

#include "common/clock.h"
#include "common/error.h"
#include "common/strings.h"
#include "compress/lzss.h"
#include "pbio/encode.h"
#include "pbio/value_codec.h"
#include "qos/manager.h"

namespace sbq::core {

std::string_view content_type_of(WireFormat wire) {
  return wire == WireFormat::kBinary          ? kContentTypePbio
         : wire == WireFormat::kCompressedXml ? kContentTypeCompressedXml
                                              : kContentTypeXml;
}

std::optional<WireFormat> wire_format_of(std::string_view content_type) {
  if (content_type.starts_with(kContentTypePbio)) return WireFormat::kBinary;
  if (content_type.starts_with(kContentTypeCompressedXml)) {
    return WireFormat::kCompressedXml;
  }
  if (content_type.starts_with("text/xml")) return WireFormat::kXml;
  return std::nullopt;
}

BufferChain encode_bin_message(const BinEnvelope& envelope,
                               BufferChain&& pbio_message) {
  if (envelope.operation.size() > 0xFFFF || envelope.message_type.size() > 0xFFFF) {
    throw CodecError("bin envelope name too long");
  }
  ByteBuffer header(64 + envelope.operation.size() + envelope.message_type.size());
  header.append_u16(static_cast<std::uint16_t>(envelope.operation.size()),
                    ByteOrder::kLittle);
  header.append(std::string_view{envelope.operation});
  header.append_u16(static_cast<std::uint16_t>(envelope.message_type.size()),
                    ByteOrder::kLittle);
  header.append(std::string_view{envelope.message_type});
  header.append_u64(envelope.timestamp_us, ByteOrder::kLittle);
  header.append_u64(envelope.echoed_timestamp_us, ByteOrder::kLittle);
  header.append_u64(envelope.server_prep_us, ByteOrder::kLittle);
  header.append_f64(envelope.reported_rtt_us, ByteOrder::kLittle);
  BufferChain out;
  out.append(std::move(header));
  out.append(std::move(pbio_message));
  return out;
}

DecodedBinChain decode_bin_message(const BufferChain& body) {
  ChainReader reader(body);
  DecodedBinChain out;
  out.envelope.operation = reader.read_string(reader.read_u16(ByteOrder::kLittle));
  out.envelope.message_type = reader.read_string(reader.read_u16(ByteOrder::kLittle));
  out.envelope.timestamp_us = reader.read_u64(ByteOrder::kLittle);
  out.envelope.echoed_timestamp_us = reader.read_u64(ByteOrder::kLittle);
  out.envelope.server_prep_us = reader.read_u64(ByteOrder::kLittle);
  out.envelope.reported_rtt_us = reader.read_f64(ByteOrder::kLittle);
  out.pbio_message = body.share_suffix(reader.position());
  out.bytes_copied = reader.bytes_copied();
  return out;
}

void CodecCosts::add_to(EndpointStats& stats) const {
  stats.marshal_us += marshal_us;
  stats.envelope_us += envelope_us;
  stats.unmarshal_us += unmarshal_us;
  stats.compress_us += compress_us;
  stats.bytes_copied += bytes_copied;
  stats.segments_written += segments_written;
}

namespace {

/// One encode for both directions. `owned`, when set, is `value` itself,
/// free to move into the chain's anchor.
CodecCosts encode(WireFormat wire, bool response, http::MessageBody& out,
                  http::Headers& headers, const BinEnvelope& meta,
                  const pbio::Value& value, pbio::Value* owned,
                  const pbio::FormatPtr& type, pbio::FormatCache& formats) {
  CodecCosts costs;
  if (wire == WireFormat::kBinary) {
    // The binary wire names formats by id: a reduced type's format reaches
    // the format server before its first message, and only then.
    if (!formats.contains(type->format_id())) formats.announce(type);
    headers.set("Content-Type", std::string(kContentTypePbio));
    // Bulk blocks in the PBIO message borrow from the value; the envelope is
    // one small owned segment spliced in front. The payload is never copied
    // into a combined body buffer.
    Stopwatch marshal;
    BufferChain pbio_chain;
    if (owned != nullptr) {
      // `value` is moved from here on; only the anchor is read.
      auto anchor = std::make_shared<pbio::Value>(std::move(*owned));
      pbio_chain = pbio::encode_value_message_chain(*anchor, *type, host_byte_order(),
                                                    anchor);
    } else {
      pbio_chain = pbio::encode_value_message_chain(value, *type);
    }
    costs.marshal_us = marshal.elapsed_us();
    Stopwatch env;
    BufferChain body = encode_bin_message(meta, std::move(pbio_chain));
    costs.envelope_us = env.elapsed_us();
    costs.segments_written = body.segment_count();
    costs.bytes_copied = body.bytes_copied();
    out.body = std::move(body);
    return costs;
  }

  Stopwatch marshal;
  std::string xml = response ? soap::build_response(meta.operation, value, *type)
                             : soap::build_request(meta.operation, value, *type);
  costs.marshal_us = marshal.elapsed_us();
  // The binary envelope's metadata travels in headers.
  headers.set(std::string(kHeaderQualityType), meta.message_type);
  if (response) {
    headers.set(std::string(kHeaderServerPrep), std::to_string(meta.server_prep_us));
  } else if (meta.reported_rtt_us > 0.0) {
    headers.set(std::string(kHeaderReportedRtt), std::to_string(meta.reported_rtt_us));
  }
  if (wire == WireFormat::kCompressedXml) {
    Stopwatch sw;
    out.set_body(lz::compress_string(xml));
    costs.compress_us = sw.elapsed_us();
  } else {
    out.set_body(std::move(xml));
  }
  headers.set("Content-Type", std::string(content_type_of(wire)));
  return costs;
}

/// One open for both directions.
OpenedMessage open(WireFormat wire, bool response, const http::MessageBody& in,
                   const http::Headers& headers) {
  OpenedMessage out;
  out.wire = wire;
  if (wire == WireFormat::kBinary) {
    DecodedBinChain bin = decode_bin_message(in.body);
    out.meta = std::move(bin.envelope);
    out.pbio_message = std::move(bin.pbio_message);
    out.costs.bytes_copied = bin.bytes_copied;
    return out;
  }

  std::string xml;
  if (wire == WireFormat::kCompressedXml) {
    Stopwatch sw;
    xml = lz::decompress_string(in.body);
    out.costs.compress_us = sw.elapsed_us();
  } else {
    xml = in.body_string();
  }
  // XML carries no timestamps: the client measures RTT from its own send
  // time, and the rest of the metadata rides in headers.
  if (auto type = headers.get(kHeaderQualityType)) out.meta.message_type = *type;
  if (response) {
    if (auto prep = headers.get(kHeaderServerPrep)) {
      out.meta.server_prep_us = parse_u64(*prep);
    }
  } else if (auto rtt = headers.get(kHeaderReportedRtt)) {
    out.meta.reported_rtt_us = parse_f64(*rtt);
  }
  // One tokenizer pass over the envelope: parse_envelope stops at the body
  // element, and parse_fault or decode_body reads on from there and checks
  // the rest.
  Stopwatch unmarshal;
  out.envelope = soap::parse_envelope(std::move(xml));
  if (out.envelope.is_fault()) {
    const soap::Fault fault = soap::parse_fault(out.envelope);
    throw RpcError("SOAP fault [" + fault.code + "]: " + fault.message);
  }
  out.meta.operation = std::string(out.envelope.operation());
  out.costs.unmarshal_us = unmarshal.elapsed_us();
  return out;
}

/// The format of the XML message type `name`: XML carries no format ids, so
/// a reduced type is looked up by name in the receiver's quality registry.
pbio::FormatPtr resolve_xml_type(const std::string& name, const pbio::FormatPtr& full,
                                 const qos::QualityManager* quality) {
  if (name == full->name) return full;
  if (quality != nullptr) {
    const auto registry = quality->registry();
    if (const auto it = registry->find(name); it != registry->end()) {
      return it->second.format;
    }
  }
  throw RpcError("message type '" + name + "' is not registered with the receiver" +
                 (quality != nullptr ? "'s quality manager"
                                     : ", which has no quality manager"));
}

}  // namespace

CodecCosts encode_wire(WireFormat wire, http::Request& out, const BinEnvelope& meta,
                       const pbio::Value& value, const pbio::FormatPtr& type,
                       pbio::FormatCache& formats) {
  return encode(wire, false, out, out.headers, meta, value, nullptr, type, formats);
}

CodecCosts encode_wire(WireFormat wire, http::Response& out, const BinEnvelope& meta,
                       pbio::Value&& value, const pbio::FormatPtr& type,
                       pbio::FormatCache& formats) {
  return encode(wire, true, out, out.headers, meta, value, &value, type, formats);
}

OpenedMessage open_wire(WireFormat wire, const http::Request& in) {
  return open(wire, false, in, in.headers);
}

OpenedMessage open_wire(WireFormat wire, const http::Response& in) {
  return open(wire, true, in, in.headers);
}

pbio::Value decode_wire(OpenedMessage& in, const pbio::FormatPtr& full,
                        pbio::FormatCache& formats, pbio::PlanCache& plans,
                        const qos::QualityManager* quality) {
  Stopwatch unmarshal;
  pbio::Value value;
  if (in.wire == WireFormat::kBinary) {
    // The sender's format comes from the format server (cached after the
    // first message).
    ChainReader reader(in.pbio_message);
    const pbio::WireHeader header = pbio::read_header(reader);
    value = plans.get(formats.resolve(header.format_id), full, header.sender_order)
                ->execute_value(reader, header.payload_length);
    in.costs.bytes_copied += reader.bytes_copied();
  } else {
    if (in.meta.message_type.empty()) in.meta.message_type = full->name;
    const pbio::FormatPtr format =
        resolve_xml_type(in.meta.message_type, full, quality);
    value = soap::decode_body(in.envelope, *format);
    if (format->format_id() != full->format_id()) {
      value = pbio::project_value(value, *full);
    }
  }
  in.costs.unmarshal_us += unmarshal.elapsed_us();
  return value;
}

}  // namespace sbq::core
