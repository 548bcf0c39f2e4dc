#include "core/service.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "common/error.h"
#include "compress/lzss.h"
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
                              WireFormat wire) {
  http::Response resp = error_response(500, soap::build_fault(code, message));
  resp.headers.set("Content-Type", std::string(content_type_of(wire)));
  if (wire == WireFormat::kCompressedXml) {
    resp.set_body(lz::compress_string(resp.body_string()));
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
  // Default: standard SOAP over text/xml.
  const WireFormat wire =
      wire_format_of(request.headers.get("Content-Type").value_or(""))
          .value_or(WireFormat::kXml);
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
    return fault_response(code, e.what(), wire);
  }
}

http::Response ServiceRuntime::exchange(const http::Request& request, WireFormat wire) {
  OpenedMessage in = open_wire(wire, request);
  const Operation& op = find_operation(in.meta.operation);
  const std::shared_ptr<qos::QualityManager> quality = quality_for(request);

  // Degrade rung: publish the smoothed server load so a quality file
  // monitoring `server_load` steps message types down before shedding starts.
  if (quality && load_monitor_) {
    quality->update_attribute(qos::LoadMonitor::kAttribute, load_monitor_->load());
  }
  // Inform quality management of the client's current RTT estimate — unless
  // the policy monitors server load, which client-reported RTT must not
  // clobber. The report is untrusted: an infinite one matches no quality rule.
  const double rtt = in.meta.reported_rtt_us;
  if (quality && quality->attribute_name() != qos::LoadMonitor::kAttribute &&
      std::isfinite(rtt) && rtt > 0.0) {
    quality->update_attribute(quality->attribute_name(), rtt);
  }

  // A reduced request is lifted onto the full input type as it decodes.
  const pbio::Value params =
      decode_wire(in, op.input, format_cache_, plans_, quality.get());

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
  BinEnvelope meta;
  meta.operation = std::move(in.meta.operation);
  meta.message_type = type.name;
  meta.timestamp_us = clock_->now_us();
  meta.echoed_timestamp_us = in.meta.timestamp_us;
  meta.server_prep_us = prep_us;
  http::Response resp;
  // The response anchors the moved result: its chain borrows the result's
  // bulk buffers for as long as the response (and anything sharing its
  // chain) exists — well past this handler frame.
  const CodecCosts out =
      encode_wire(wire, resp, meta, std::move(result), type.format, format_cache_);
  bump_stats([&](EndpointStats& s) {
    in.costs.add_to(s);
    out.add_to(s);
    s.bytes_sent += resp.body.size();
  });
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
