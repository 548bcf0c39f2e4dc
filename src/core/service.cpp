#include "core/service.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "common/strings.h"
#include "common/error.h"
#include "compress/lzss.h"
#include "pbio/encode.h"
#include "pbio/value_codec.h"
#include "soap/codec.h"
#include "soap/envelope.h"

namespace sbq::core {

namespace {

http::Response error_response(int status, std::string message) {
  http::Response resp;
  resp.status = status;
  resp.reason = std::string(http::reason_phrase(status));
  resp.headers.set("Content-Type", "text/plain");
  resp.set_body(std::move(message));
  return resp;
}

http::Response fault_response(const std::string& code, const std::string& message,
                              bool compressed) {
  http::Response resp;
  resp.status = 500;
  resp.reason = std::string(http::reason_phrase(500));
  std::string fault = soap::build_fault(code, message);
  if (compressed) {
    resp.headers.set("Content-Type", std::string(kContentTypeCompressedXml));
    resp.set_body(lz::compress_string(fault));
  } else {
    resp.headers.set("Content-Type", std::string(kContentTypeXml));
    resp.set_body(std::move(fault));
  }
  return resp;
}

}  // namespace

ServiceRuntime::ServiceRuntime(std::shared_ptr<pbio::FormatServer> format_server,
                               std::shared_ptr<net::TimeSource> clock)
    : clock_(std::move(clock)), format_cache_(std::move(format_server)) {
  if (!clock_) throw TransportError("ServiceRuntime needs a time source");
}

void ServiceRuntime::register_operation(const std::string& name, pbio::FormatPtr input,
                                        pbio::FormatPtr output,
                                        OperationHandler handler) {
  if (!input || !output || !handler) {
    throw RpcError("register_operation('" + name + "'): null argument");
  }
  format_cache_.announce(input);
  format_cache_.announce(output);
  operations_[name] = Operation{std::move(input), std::move(output),
                                std::move(handler), nullptr};
}

void ServiceRuntime::register_xml_operation(const std::string& name,
                                            pbio::FormatPtr input,
                                            pbio::FormatPtr output,
                                            XmlOperationHandler handler) {
  if (!input || !output || !handler) {
    throw RpcError("register_xml_operation('" + name + "'): null argument");
  }
  format_cache_.announce(input);
  format_cache_.announce(output);
  operations_[name] = Operation{std::move(input), std::move(output), nullptr,
                                std::move(handler)};
}

void ServiceRuntime::set_quality_manager(std::shared_ptr<qos::QualityManager> quality) {
  quality_ = std::move(quality);
}

void ServiceRuntime::set_wsdl_document(std::string wsdl_xml) {
  wsdl_document_ = std::move(wsdl_xml);
}

void ServiceRuntime::set_quality_factory(QualityFactory factory) {
  client_quality_config_ = factory ? factory() : nullptr;
}

void ServiceRuntime::set_load_monitor(std::shared_ptr<qos::LoadMonitor> monitor) {
  load_monitor_ = std::move(monitor);
}

void ServiceRuntime::set_draining(bool draining) {
  if (draining) {
    if (!draining_.exchange(true)) {
      bump_stats([](EndpointStats& s) { ++s.drains; });
    }
  } else {
    draining_.store(false);
  }
}

std::size_t ServiceRuntime::client_quality_count() const {
  std::lock_guard lock(clients_mu_);
  return client_quality_.size();
}

std::shared_ptr<qos::QualityManager> ServiceRuntime::quality_for(
    const http::Request& request) {
  if (client_quality_config_) {
    if (const auto client_id = request.headers.get(kHeaderClientId)) {
      std::lock_guard lock(clients_mu_);
      std::string id(*client_id);
      if (const auto it = client_quality_.find(id); it != client_quality_.end()) {
        return it->second;
      }
      auto manager = client_quality_config_->fork();
      if (client_order_.size() == kMaxClientQualityManagers) {
        client_quality_.erase(client_order_.front());
        client_order_.pop_front();
      }
      client_order_.push_back(client_quality_.emplace(std::move(id), manager).first);
      return manager;
    }
  }
  return quality_;
}

EndpointStats ServiceRuntime::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

void ServiceRuntime::reset_stats() {
  std::lock_guard lock(stats_mu_);
  stats_.reset();
}

const ServiceRuntime::Operation& ServiceRuntime::find_operation(
    const std::string& name) const {
  const auto it = operations_.find(name);
  if (it == operations_.end()) throw RpcError("unknown operation: " + name);
  return it->second;
}

pbio::Value ServiceRuntime::invoke(const Operation& op, const pbio::Value& params) {
  if (op.handler) return op.handler(params);

  // XML-native application: down-convert parameters to XML, invoke, parse
  // the XML result back. Both conversions are compatibility-mode costs.
  Stopwatch to_xml;
  const std::string params_xml = soap::value_to_xml(params, *op.input, "params");
  bump_stats([&](EndpointStats& s) { s.convert_us += to_xml.elapsed_us(); });

  const std::string result_xml = op.xml_handler(params_xml);

  Stopwatch from_xml;
  pbio::Value result = soap::value_from_xml(result_xml, *op.output);
  bump_stats([&](EndpointStats& s) { s.convert_us += from_xml.elapsed_us(); });
  return result;
}

http::Response ServiceRuntime::handle(const http::Request& request) {
  http::Response resp = dispatch(request);
  // A draining endpoint answers, then tells the client not to come back on
  // this connection (http::Server's own drain flag covers connections it
  // serves; this covers runtimes hosted behind other transports too).
  if (draining_.load()) resp.headers.set("Connection", "close");
  return resp;
}

http::Response ServiceRuntime::dispatch(const http::Request& request) {
  bump_stats([&](EndpointStats& s) {
    ++s.calls;
    s.bytes_received += request.body.size();
  });
  // The overload ladder, rungs one and two: refresh the load signal, hand
  // it to quality management (degrade), and once the smoothed load reaches
  // the shed threshold answer with 503 + Retry-After before decoding a
  // single body byte (shed) — a saturated server must not pay unmarshalling
  // costs for work it is about to refuse.
  if (load_monitor_) {
    load_monitor_->poll();
    bump_stats([&](EndpointStats& s) {
      s.queue_high_water = std::max<std::uint64_t>(
          s.queue_high_water, load_monitor_->queue_high_water());
    });
    if (request.method == "POST" && load_monitor_->should_shed()) {
      bump_stats([](EndpointStats& s) { ++s.sheds; });
      http::Response resp = error_response(503, "server overloaded; retry later");
      resp.headers.set("Retry-After",
                       std::to_string(load_monitor_->retry_after_s()));
      return resp;
    }
  }
  // WSDL advertisement: GET <target>?wsdl.
  if (request.method == "GET") {
    const std::size_t query = request.target.find('?');
    if (!wsdl_document_.empty() && query != std::string::npos &&
        request.target.find("wsdl", query) != std::string::npos) {
      http::Response resp;
      resp.headers.set("Content-Type", std::string(kContentTypeXml));
      resp.set_body(std::string(wsdl_document_));
      bump_stats([&](EndpointStats& s) { s.bytes_sent += resp.body.size(); });
      return resp;
    }
    return error_response(404, wsdl_document_.empty()
                                   ? "no WSDL published for this endpoint"
                                   : "append ?wsdl for the service description");
  }
  if (request.method != "POST") {
    return error_response(405, "SOAP endpoints accept POST only");
  }
  const std::string content_type(request.headers.get("Content-Type").value_or(""));
  // Default: standard SOAP over text/xml.
  const WireFormat wire = content_type.starts_with(kContentTypePbio) ? WireFormat::kBinary
                          : content_type.starts_with(kContentTypeCompressedXml)
                              ? WireFormat::kCompressedXml
                              : WireFormat::kXml;
  try {
    return exchange(request, wire);
  } catch (const std::exception& e) {
    if (wire == WireFormat::kBinary) return error_response(500, e.what());
    // SOAP 1.1 fault codes: bad requests are the client's fault, handler
    // and codec failures the server's.
    const char* code = (dynamic_cast<const RpcError*>(&e) != nullptr ||
                        dynamic_cast<const ParseError*>(&e) != nullptr)
                           ? "soap:Client"
                           : "soap:Server";
    return fault_response(code, e.what(), wire == WireFormat::kCompressedXml);
  }
}

http::Response ServiceRuntime::exchange(const http::Request& request, WireFormat wire) {
  const bool binary = wire == WireFormat::kBinary;
  Received in = binary ? read_bin_request(request) : read_xml_request(request, wire);
  const std::shared_ptr<qos::QualityManager> quality = quality_for(request);

  // Degrade rung: publish the smoothed server load so a quality file
  // monitoring `server_load` steps message types down before shedding starts.
  if (quality && load_monitor_) {
    quality->update_attribute(qos::LoadMonitor::kAttribute, load_monitor_->load());
  }
  // Inform quality management of the client's current RTT estimate — unless
  // the policy monitors server load, which client-reported RTT must not
  // clobber.
  if (quality && quality->attribute_name() != qos::LoadMonitor::kAttribute) {
    double rtt = in.envelope.reported_rtt_us;
    if (!binary) {
      const auto reported = request.headers.get(kHeaderReportedRtt);
      rtt = reported ? parse_f64(*reported) : 0.0;
    }
    // Both reports are untrusted: an infinite one matches no quality rule.
    if (std::isfinite(rtt) && rtt > 0.0) {
      quality->update_attribute(quality->attribute_name(), rtt);
    }
  }

  // Decode with the sender's format onto the full input type: a reduced
  // request is lifted as it decodes.
  Stopwatch unmarshal;
  const pbio::Value params =
      binary ? decode_bin_request(in) : decode_xml_request(in, request, quality.get());
  const Operation& op = *in.op;
  bump_stats([&](EndpointStats& s) {
    s.unmarshal_us += unmarshal.elapsed_us();
    s.bytes_copied += in.bytes_copied;
  });

  // Application work, measured so the client can subtract it from RTT.
  Stopwatch prep;
  pbio::Value result = invoke(op, params);
  const auto prep_us = static_cast<std::uint64_t>(prep.elapsed_us());

  // SOAP-binQ: choose the response message type from the quality policy and
  // reduce the result to it.
  qos::MessageType type{op.output->name, op.output, nullptr};
  if (quality) {
    type = quality->select();
    result = quality->apply(result, type);
  }
  http::Response resp = binary ? write_bin_response(in, std::move(result), type, prep_us)
                               : write_xml_response(in, result, type, prep_us, wire);
  bump_stats([&](EndpointStats& s) { s.bytes_sent += resp.body.size(); });
  return resp;
}

ServiceRuntime::Received ServiceRuntime::read_bin_request(const http::Request& request) {
  DecodedBinChain incoming = decode_bin_message(request.body);
  Received in;
  in.envelope = std::move(incoming.envelope);
  in.op = &find_operation(in.envelope.operation);
  in.pbio_message = std::move(incoming.pbio_message);
  in.bytes_copied = incoming.bytes_copied;
  return in;
}

ServiceRuntime::Received ServiceRuntime::read_xml_request(const http::Request& request,
                                                          WireFormat wire) {
  Received in;
  if (wire == WireFormat::kCompressedXml) {
    Stopwatch sw;
    in.xml = lz::decompress_string(request.body);
    bump_stats([&](EndpointStats& s) { s.compress_us += sw.elapsed_us(); });
  } else {
    in.xml = request.body_string();
  }
  return in;
}

pbio::Value ServiceRuntime::decode_bin_request(Received& in) {
  // The sender's format comes from the format server (cached after the
  // first message).
  ChainReader reader(in.pbio_message);
  const pbio::WireHeader header = pbio::read_header(reader);
  const pbio::FormatPtr sender = format_cache_.resolve(header.format_id);
  pbio::Value params = plans_.get(sender, in.op->input, header.sender_order)
                           ->execute_value(reader, header.payload_length);
  in.bytes_copied += reader.bytes_copied();
  return params;
}

pbio::Value ServiceRuntime::decode_xml_request(Received& in, const http::Request& request,
                                               const qos::QualityManager* quality) {
  // One tokenizer pass over the envelope: parse_envelope stops at the body
  // element, and decode_body reads on from there and checks the rest.
  const soap::ParsedEnvelope envelope = soap::parse_envelope(std::move(in.xml));
  in.envelope.operation = std::string(envelope.operation());
  in.op = &find_operation(in.envelope.operation);

  // XML carries no format ids: a reduced request type is named in a header
  // and resolved through the quality manager (ignored without one).
  pbio::FormatPtr format = in.op->input;
  if (quality) {
    if (auto type_name = request.headers.get(kHeaderQualityType)) {
      if (*type_name != in.op->input->name) {
        format = quality->required_type(*type_name).format;
      }
    }
  }
  pbio::Value params = soap::decode_body(envelope, *format);
  if (format->format_id() != in.op->input->format_id()) {
    params = pbio::project_value(params, *in.op->input);
  }
  return params;
}

http::Response ServiceRuntime::write_bin_response(Received& in, pbio::Value&& value,
                                                  const qos::MessageType& type,
                                                  std::uint64_t prep_us) {
  // The binary wire names formats by id: a reduced type's format reaches
  // the format server before its first message, and only then.
  if (!format_cache_.contains(type.format->format_id())) {
    format_cache_.announce(type.format);
  }
  BinEnvelope out;
  out.operation = std::move(in.envelope.operation);
  out.message_type = type.name;
  out.timestamp_us = clock_->now_us();
  out.echoed_timestamp_us = in.envelope.timestamp_us;
  out.server_prep_us = prep_us;

  http::Response resp;
  resp.status = 200;
  resp.headers.set("Content-Type", std::string(kContentTypePbio));
  // The outgoing value moves into a shared anchor: the body chain borrows
  // its bulk buffers, and the anchor keeps them alive for as long as the
  // response (and anything sharing its chain) exists — well past this
  // handler frame.
  Stopwatch marshal;
  auto owned = std::make_shared<pbio::Value>(std::move(value));
  BufferChain pbio_chain = pbio::encode_value_message_chain(
      *owned, *type.format, host_byte_order(), owned);
  bump_stats([&](EndpointStats& s) { s.marshal_us += marshal.elapsed_us(); });
  Stopwatch env;
  BufferChain body = encode_bin_message(out, std::move(pbio_chain));
  bump_stats([&](EndpointStats& s) {
    s.envelope_us += env.elapsed_us();
    s.segments_written += body.segment_count();
    s.bytes_copied += body.bytes_copied();
  });
  resp.body = std::move(body);
  return resp;
}

http::Response ServiceRuntime::write_xml_response(const Received& in,
                                                  const pbio::Value& value,
                                                  const qos::MessageType& type,
                                                  std::uint64_t prep_us,
                                                  WireFormat wire) {
  Stopwatch marshal;
  std::string response_xml = soap::build_response(in.envelope.operation, value, *type.format);
  bump_stats([&](EndpointStats& s) { s.marshal_us += marshal.elapsed_us(); });

  // The binary envelope's metadata travels in headers.
  http::Response resp;
  resp.status = 200;
  resp.headers.set(std::string(kHeaderQualityType), type.name);
  resp.headers.set(std::string(kHeaderServerPrep), std::to_string(prep_us));
  if (wire == WireFormat::kCompressedXml) {
    Stopwatch sw;
    resp.set_body(lz::compress_string(response_xml));
    bump_stats([&](EndpointStats& s) { s.compress_us += sw.elapsed_us(); });
    resp.headers.set("Content-Type", std::string(kContentTypeCompressedXml));
  } else {
    resp.set_body(std::move(response_xml));
    resp.headers.set("Content-Type", std::string(kContentTypeXml));
  }
  return resp;
}

qos::LoadMonitor::Source server_load_source(const http::Server& server) {
  return [&server] {
    const http::ServerLoad l = server.load();
    qos::LoadSample s;
    s.queue_depth = l.queue_depth;
    s.queue_capacity = l.queue_capacity;
    s.in_flight = l.in_flight;
    s.workers = l.workers;
    s.connections = l.connections;
    s.pending_events = l.pending_events;
    return s;
  };
}

}  // namespace sbq::core
