#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/error.h"
#include "common/strings.h"
#include "compress/lzss.h"
#include "pbio/encode.h"
#include "pbio/value_codec.h"
#include "soap/codec.h"
#include "soap/envelope.h"

namespace sbq::core {

namespace {

/// A 503 is the server shedding load, not a server error: surface it as an
/// OverloadError carrying the advertised Retry-After so the retry loop can
/// honor the server's delay instead of its local backoff schedule. Checked
/// immediately after the round trip, before any body decode (a shed reply
/// carries no SOAP/PBIO payload) and before RTT observation (a fast 503
/// must not drag the RTT estimate down while the server is saturated).
/// Header parsing is delegated to http::retry_after_us, whose contract
/// (missing/malformed/zero → 0 = local backoff; absurd values clamped)
/// keeps a hostile header from forcing a 0-delay hot retry loop.
void throw_if_shed(const http::Response& response) {
  if (response.status != 503) return;
  throw OverloadError("server overloaded (503): " + response.body_string(),
                      http::retry_after_us(response.headers));
}

}  // namespace

std::uint64_t stable_seed(std::string_view identity) {
  // FNV-1a, 64-bit. Any identity maps to a fixed, platform-independent
  // seed; 0 is reserved as RetryPolicy's "derive me" sentinel.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : identity) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

bool is_retryable(const Error& error, const RetryPolicy& retry) {
  return dynamic_cast<const TransportError*>(&error) != nullptr ||
         (retry.retry_codec_errors &&
          dynamic_cast<const CodecError*>(&error) != nullptr);
}

Backoff::Backoff(const RetryPolicy& retry, std::string_view identity,
                 std::uint64_t call_ordinal)
    : retry_(retry),
      // The default seed (0) derives from the caller's identity, so two
      // clients left on defaults back off on different schedules after a
      // shared fault.
      jitter_rng_((retry.jitter_seed != 0 ? retry.jitter_seed
                                           : stable_seed(identity)) *
                      0x9E3779B97F4A7C15ull +
                  call_ordinal),
      backoff_us_(retry.initial_backoff_us) {}

std::uint64_t Backoff::next_delay_us(const Error& error) {
  std::uint64_t delay = backoff_us_;
  // A shed server knows its own recovery horizon: its Retry-After overrides
  // the local schedule and needs no jitter.
  const auto* shed = dynamic_cast<const OverloadError*>(&error);
  if (shed != nullptr && shed->retry_after_us() > 0) {
    delay = shed->retry_after_us();
  } else if (retry_.jitter > 0.0 && delay > 0) {
    const double factor = 1.0 + jitter_rng_.uniform(-retry_.jitter, retry_.jitter);
    delay = static_cast<std::uint64_t>(static_cast<double>(delay) * factor);
  }
  backoff_us_ = std::min(static_cast<std::uint64_t>(static_cast<double>(backoff_us_) *
                                                    retry_.backoff_multiplier),
                         retry_.max_backoff_us);
  return delay;
}

void wait_on(net::TimeSource& clock, std::uint64_t us) {
  if (us == 0) return;
  if (auto* sim = dynamic_cast<net::SimClock*>(&clock)) {
    sim->advance_us(us);
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

ClientStub::ClientStub(Transport& transport, WireFormat wire_format,
                       wsdl::ServiceDesc service,
                       std::shared_ptr<pbio::FormatServer> format_server,
                       std::shared_ptr<net::TimeSource> clock)
    : transport_(transport),
      wire_format_(wire_format),
      service_(std::move(service)),
      format_cache_(std::move(format_server)),
      clock_(std::move(clock)) {
  if (!clock_) throw TransportError("ClientStub needs a time source");
  static std::atomic<std::uint64_t> next_stub_id{1};
  client_id_ = "stub-" + std::to_string(next_stub_id.fetch_add(1));
  reannounce_formats();  // the client is a sender too
}

void ClientStub::set_quality_manager(std::shared_ptr<qos::QualityManager> quality) {
  quality_ = std::move(quality);
}

double ClientStub::rtt_estimate_us() const {
  return quality_ ? quality_->rtt().value_us() : fallback_rtt_.value_us();
}

pbio::Value ClientStub::call(const std::string& operation, const pbio::Value& params) {
  return call(operation, params, default_options_);
}

pbio::Value ClientStub::call(const std::string& operation, const pbio::Value& params,
                             const CallOptions& options) {
  const wsdl::OperationDesc& op = service_.required_operation(operation);
  ++stats_.calls;
  transport_.set_attempt_timeout_us(options.deadline_us);

  const int max_attempts = std::max(1, options.retry.max_attempts);
  Backoff backoff(options.retry, client_id_, stats_.calls);
  for (int attempt = 1;; ++attempt) {
    try {
      return exchange(op, params);
    } catch (const Error& e) {
      if (!is_retryable(e, options.retry)) throw;
      if (dynamic_cast<const OverloadError*>(&e) != nullptr) {
        // A shed is deliberate flow control, not evidence of a broken link:
        // count it, but spare the quality loop the loss-like penalty.
        ++stats_.sheds;
      } else {
        note_fault(options, dynamic_cast<const TimeoutError*>(&e) != nullptr);
      }
      if (attempt >= max_attempts || !op.idempotent) throw;
      ++stats_.retries;
      // Charged to the endpoint's clock (virtual time under simulation).
      wait_on(*clock_, backoff.next_delay_us(e));

      // The failed connection may be gone for good: rebuild it and repeat
      // the sender-side format registration handshake before resending.
      transport_.reconnect();
      reannounce_formats();
    }
  }
}

void ClientStub::note_fault(const CallOptions& options, bool is_timeout) {
  ++stats_.faults_injected;
  if (is_timeout) ++stats_.timeouts;
  // A fault is loss-like evidence for the quality loop even when the call
  // ultimately fails: feed the penalty so sustained faults step the policy
  // down (docs/robustness.md).
  const auto deadline = static_cast<double>(options.deadline_us);
  if (quality_) {
    quality_->observe_fault(deadline);
  } else {
    fallback_rtt_.penalize(deadline);
  }
}

void ClientStub::reannounce_formats() {
  for (const auto& op : service_.operations) {
    format_cache_.announce(op.input);
    format_cache_.announce(op.output);
  }
}

std::string ClientStub::call_xml(const std::string& operation,
                                 const std::string& params_xml) {
  const wsdl::OperationDesc& op = service_.required_operation(operation);

  // Just-in-time client-side conversion: XML document → binary Value.
  Stopwatch to_value;
  const pbio::Value params = soap::value_from_xml(params_xml, *op.input);
  stats_.convert_us += to_value.elapsed_us();

  const pbio::Value result = call(operation, params);

  Stopwatch to_xml;
  std::string result_xml = soap::value_to_xml(result, *op.output, "result");
  stats_.convert_us += to_xml.elapsed_us();
  return result_xml;
}

pbio::Value ClientStub::exchange(const wsdl::OperationDesc& op,
                                 const pbio::Value& params) {
  // Client-side quality (opt-in): send a reduced request type, which the
  // server pads back up.
  qos::MessageType type{op.input->name, op.input, nullptr};
  const pbio::Value* to_send = &params;
  pbio::Value reduced;
  if (quality_ && request_quality_enabled_) {
    type = quality_->select();
    reduced = quality_->apply(params, type);
    to_send = &reduced;
  }

  http::Request request;
  request.method = "POST";
  request.target = "/" + service_.name;
  const bool binary = wire_format_ == WireFormat::kBinary;
  const std::uint64_t sent_at_us = binary
                                       ? write_bin_request(request, op, *to_send, type)
                                       : write_xml_request(request, op, *to_send, type);
  stats_.bytes_sent += request.body.size();

  const http::Response response = transport_.round_trip(request);
  stats_.bytes_received += response.body.size();
  throw_if_shed(response);
  Reply reply = binary ? read_bin_reply(response) : read_xml_reply(response, sent_at_us);

  // RTT sample: now minus the echoed send time, minus the server's
  // self-reported preparation time (§IV-C.h's rectification).
  last_rtt_us_ = qos::rtt_sample_us(reply.envelope.echoed_timestamp_us, clock_->now_us(),
                                    reply.envelope.server_prep_us);
  if (quality_) {
    quality_->observe_rtt(last_rtt_us_);
  } else {
    fallback_rtt_.update(last_rtt_us_);
  }

  if (binary) {
    decode_bin_reply(reply, op);
  } else {
    decode_xml_reply(reply, response, op);
  }
  // Track degradation/recovery transitions of the response type.
  last_response_type_ = std::move(reply.envelope.message_type);
  const bool full = last_response_type_ == op.output->name;
  if (response_was_full_ && !full) ++stats_.degradations;
  if (!response_was_full_ && full) ++stats_.recoveries;
  response_was_full_ = full;
  return std::move(reply.value);
}

std::uint64_t ClientStub::write_bin_request(http::Request& request,
                                            const wsdl::OperationDesc& op,
                                            const pbio::Value& value,
                                            const qos::MessageType& type) {
  // The binary wire names formats by id: a reduced type's format reaches
  // the format server before its first message, and only then.
  if (!format_cache_.contains(type.format->format_id())) {
    format_cache_.announce(type.format);
  }
  BinEnvelope envelope;
  envelope.operation = op.name;
  envelope.message_type = type.name;
  envelope.timestamp_us = clock_->now_us();
  envelope.reported_rtt_us = rtt_estimate_us();

  request.headers.set("Content-Type", std::string(kContentTypePbio));
  request.headers.set(std::string(kHeaderClientId), client_id_);
  request.headers.set("SOAPAction", "\"" + op.name + "\"");
  // Bulk blocks in the PBIO message borrow from `value`, which outlives the
  // round trip (the caller's params or exchange()'s reduced copy), so no
  // anchor is needed; the envelope is one small owned segment spliced in
  // front. The payload is never copied into a combined body buffer.
  Stopwatch marshal;
  BufferChain pbio_chain = pbio::encode_value_message_chain(value, *type.format);
  stats_.marshal_us += marshal.elapsed_us();
  Stopwatch env;
  BufferChain body = encode_bin_message(envelope, std::move(pbio_chain));
  stats_.envelope_us += env.elapsed_us();
  stats_.segments_written += body.segment_count();
  stats_.bytes_copied += body.bytes_copied();
  request.body = std::move(body);
  return envelope.timestamp_us;
}

std::uint64_t ClientStub::write_xml_request(http::Request& request,
                                            const wsdl::OperationDesc& op,
                                            const pbio::Value& value,
                                            const qos::MessageType& type) {
  Stopwatch marshal;
  std::string request_xml = soap::build_request(op.name, value, *type.format);
  stats_.marshal_us += marshal.elapsed_us();

  // The binary envelope's metadata travels in headers.
  request.headers.set("SOAPAction", "\"" + op.name + "\"");
  request.headers.set(std::string(kHeaderClientId), client_id_);
  request.headers.set(std::string(kHeaderQualityType), type.name);
  if (rtt_estimate_us() > 0.0) {
    request.headers.set(std::string(kHeaderReportedRtt),
                        std::to_string(rtt_estimate_us()));
  }
  if (wire_format_ == WireFormat::kCompressedXml) {
    Stopwatch sw;
    request.set_body(lz::compress_string(request_xml));
    stats_.compress_us += sw.elapsed_us();
    request.headers.set("Content-Type", std::string(kContentTypeCompressedXml));
  } else {
    request.set_body(std::move(request_xml));
    request.headers.set("Content-Type", std::string(kContentTypeXml));
  }
  return clock_->now_us();
}

ClientStub::Reply ClientStub::read_bin_reply(const http::Response& response) {
  if (response.status != 200) {
    throw RpcError("server error " + std::to_string(response.status) + ": " +
                   response.body_string());
  }
  // Every binary response echoes the request timestamp, including 0 from a
  // freshly started simulated clock.
  DecodedBinChain incoming = decode_bin_message(response.body);
  stats_.bytes_copied += incoming.bytes_copied;
  return Reply{std::move(incoming.envelope), std::move(incoming.pbio_message), {}};
}

ClientStub::Reply ClientStub::read_xml_reply(const http::Response& response,
                                             std::uint64_t sent_at_us) {
  // XML echoes no timestamp: the RTT runs from the local send time. The
  // body is read after the sample is taken.
  Reply reply;
  reply.envelope.echoed_timestamp_us = sent_at_us;
  if (auto prep = response.headers.get(kHeaderServerPrep)) {
    reply.envelope.server_prep_us = parse_u64(*prep);
  }
  return reply;
}

void ClientStub::decode_bin_reply(Reply& reply, const wsdl::OperationDesc& op) {
  // A reduced-quality response is padded back up to the full application
  // type as it decodes.
  Stopwatch unmarshal;
  ChainReader reader(reply.pbio_message);
  const pbio::WireHeader header = pbio::read_header(reader);
  const pbio::FormatPtr sender = format_cache_.resolve(header.format_id);
  reply.value = plans_.get(sender, op.output, header.sender_order)
                    ->execute_value(reader, header.payload_length);
  stats_.unmarshal_us += unmarshal.elapsed_us();
  stats_.bytes_copied += reader.bytes_copied();
}

void ClientStub::decode_xml_reply(Reply& reply, const http::Response& response,
                                  const wsdl::OperationDesc& op) {
  std::string response_xml;
  if (wire_format_ == WireFormat::kCompressedXml &&
      response.headers.get("Content-Type").value_or("") == kContentTypeCompressedXml) {
    Stopwatch sw;
    response_xml = lz::decompress_string(response.body);
    stats_.compress_us += sw.elapsed_us();
  } else {
    response_xml = response.body_string();
  }

  // One tokenizer pass over the envelope: parse_envelope stops at the body
  // element, and parse_fault or decode_body reads on from there and checks
  // the rest.
  Stopwatch unmarshal;
  const soap::ParsedEnvelope envelope = soap::parse_envelope(std::move(response_xml));
  if (envelope.is_fault()) {
    const soap::Fault fault = soap::parse_fault(envelope);
    throw RpcError("SOAP fault [" + fault.code + "]: " + fault.message);
  }
  if (response.status != 200) {
    throw RpcError("server error " + std::to_string(response.status));
  }

  // XML carries no format ids: a reduced response type is named in a header
  // and resolved through the client's own quality manager, and padded back
  // up to the full application type once decoded.
  pbio::FormatPtr format = op.output;
  reply.envelope.message_type = op.output->name;
  if (auto type_name = response.headers.get(kHeaderQualityType)) {
    reply.envelope.message_type = std::string(*type_name);
    if (*type_name != op.output->name) {
      if (!quality_) {
        throw RpcError("server sent quality type '" + reply.envelope.message_type +
                       "' but no quality manager is attached");
      }
      format = quality_->required_type(*type_name).format;
    }
  }
  reply.value = soap::decode_body(envelope, *format);
  if (format->format_id() != op.output->format_id()) {
    reply.value = pbio::project_value(reply.value, *op.output);
  }
  stats_.unmarshal_us += unmarshal.elapsed_us();
}

}  // namespace sbq::core
