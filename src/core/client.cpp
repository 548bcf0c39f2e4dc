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
  // Announce the service's formats (the client is a sender too).
  for (const auto& op : service_.operations) {
    format_cache_.announce(op.input);
    format_cache_.announce(op.output);
  }
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

  const RetryPolicy& retry = options.retry;
  const int max_attempts = std::max(1, retry.max_attempts);
  // Deterministic jitter: same seed + same call ordinal → same delays. The
  // default seed (0) derives from this stub's identity, so two stubs left
  // on defaults back off on different schedules after a shared fault.
  const std::uint64_t seed =
      retry.jitter_seed != 0 ? retry.jitter_seed : stable_seed(client_id_);
  Rng jitter_rng(seed * 0x9E3779B97F4A7C15ull + stats_.calls);
  std::uint64_t backoff = retry.initial_backoff_us;
  for (int attempt = 1;; ++attempt) {
    try {
      return dispatch(op, params);
    } catch (const Error& e) {
      // Only wire-level faults are worth retrying; RpcError / ParseError /
      // QosError are deterministic and would fail again identically.
      const auto* shed = dynamic_cast<const OverloadError*>(&e);
      const bool is_timeout = dynamic_cast<const TimeoutError*>(&e) != nullptr;
      const bool is_fault =
          dynamic_cast<const TransportError*>(&e) != nullptr ||
          (retry.retry_codec_errors &&
           dynamic_cast<const CodecError*>(&e) != nullptr);
      if (!is_fault) throw;
      if (shed != nullptr) {
        // A shed is deliberate flow control, not evidence of a broken link:
        // count it, but spare the quality loop the loss-like penalty.
        ++stats_.sheds;
      } else {
        note_fault(options, is_timeout);
      }
      if (attempt >= max_attempts || !op.idempotent) throw;
      ++stats_.retries;

      // Capped exponential backoff with deterministic jitter, charged to
      // the endpoint's clock (virtual time under simulation). A shed server
      // knows its own recovery horizon: its Retry-After overrides the local
      // schedule (and needs no jitter — the server set the pacing).
      std::uint64_t delay = backoff;
      if (shed != nullptr && shed->retry_after_us() > 0) {
        delay = shed->retry_after_us();
      } else if (retry.jitter > 0.0 && delay > 0) {
        const double factor =
            1.0 + jitter_rng.uniform(-retry.jitter, retry.jitter);
        delay = static_cast<std::uint64_t>(static_cast<double>(delay) * factor);
      }
      wait_us(delay);
      backoff = std::min(
          static_cast<std::uint64_t>(static_cast<double>(backoff) *
                                     retry.backoff_multiplier),
          retry.max_backoff_us);

      // The failed connection may be gone for good: rebuild it and repeat
      // the sender-side format registration handshake before resending.
      transport_.reconnect();
      reannounce_formats();
    }
  }
}

pbio::Value ClientStub::dispatch(const wsdl::OperationDesc& op,
                                 const pbio::Value& params) {
  switch (wire_format_) {
    case WireFormat::kBinary:
      return call_binary(op, params);
    case WireFormat::kXml:
      return call_xml_wire(op, params, /*compressed=*/false);
    case WireFormat::kCompressedXml:
      return call_xml_wire(op, params, /*compressed=*/true);
  }
  throw RpcError("bad wire format");
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
    const double penalty = 2.0 * std::max(deadline, fallback_rtt_.value_us());
    if (penalty > 0.0) fallback_rtt_.update(penalty);
  }
}

void ClientStub::note_response_type(const wsdl::OperationDesc& op) {
  const bool full = last_response_type_ == op.output->name;
  if (response_was_full_ && !full) ++stats_.degradations;
  if (!response_was_full_ && full) ++stats_.recoveries;
  response_was_full_ = full;
}

void ClientStub::reannounce_formats() {
  for (const auto& op : service_.operations) {
    format_cache_.announce(op.input);
    format_cache_.announce(op.output);
  }
}

void ClientStub::wait_us(std::uint64_t us) { wait_on(*clock_, us); }

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

pbio::Value ClientStub::call_binary(const wsdl::OperationDesc& op,
                                    const pbio::Value& params) {
  // Client-side quality: possibly send a reduced request type (opt-in).
  pbio::FormatPtr request_format = op.input;
  std::string message_type = op.input->name;
  const pbio::Value* to_send = &params;
  pbio::Value reduced;
  if (quality_ && request_quality_enabled_) {
    const qos::MessageType& type = quality_->select();
    reduced = quality_->apply(params, type);
    to_send = &reduced;
    request_format = type.format;
    message_type = type.name;
    format_cache_.announce(request_format);
  }

  BinEnvelope envelope;
  envelope.operation = op.name;
  envelope.message_type = message_type;
  envelope.timestamp_us = clock_->now_us();
  envelope.reported_rtt_us = rtt_estimate_us();

  http::Request request;
  request.method = "POST";
  request.target = "/" + service_.name;
  request.headers.set("Content-Type", std::string(kContentTypePbio));
  request.headers.set(std::string(kHeaderClientId), client_id_);
  request.headers.set("SOAPAction", "\"" + op.name + "\"");
  // Bulk blocks in the PBIO message borrow from `*to_send`, which outlives
  // the round trip (params is the caller's, `reduced` is a local), so no
  // anchor is needed; the envelope is one small owned segment spliced in
  // front. The payload is never copied into a combined body buffer.
  Stopwatch marshal;
  BufferChain pbio_chain =
      pbio::encode_value_message_chain(*to_send, *request_format);
  stats_.marshal_us += marshal.elapsed_us();
  Stopwatch env;
  BufferChain body = encode_bin_message(envelope, std::move(pbio_chain));
  stats_.envelope_us += env.elapsed_us();
  stats_.segments_written += body.segment_count();
  stats_.bytes_copied += body.bytes_copied();
  request.set_body_chain(std::move(body));
  stats_.bytes_sent += request.body_size();

  const http::Response response = transport_.round_trip(request);
  stats_.bytes_received += response.body_size();
  throw_if_shed(response);
  if (response.status != 200) {
    throw RpcError("server error " + std::to_string(response.status) + ": " +
                   response.body_string());
  }

  const BufferChain response_body = response.body_as_chain();
  DecodedBinChain incoming = decode_bin_message(response_body);
  stats_.bytes_copied += incoming.bytes_copied;
  last_response_type_ = incoming.envelope.message_type;
  note_response_type(op);

  // RTT sample: now minus the echoed send timestamp, minus the server's
  // self-reported preparation time (§IV-C.h's rectification). Every binary
  // response echoes the request timestamp, including timestamp 0 from a
  // freshly started simulated clock.
  {
    const double sample = qos::rtt_sample_us(incoming.envelope.echoed_timestamp_us,
                                             clock_->now_us(),
                                             incoming.envelope.server_prep_us);
    last_rtt_us_ = sample;
    if (quality_) {
      quality_->observe_rtt(sample);
    } else {
      fallback_rtt_.update(sample);
    }
  }

  Stopwatch unmarshal;
  ChainReader reader(incoming.pbio_message);
  const pbio::WireHeader header = pbio::read_header(reader);
  const pbio::FormatPtr sender_format = format_cache_.resolve(header.format_id);
  pbio::Value result = pbio::decode_value_payload(reader, header.payload_length,
                                                  header.sender_order, *sender_format);
  if (header.format_id != op.output->format_id()) {
    // Reduced-quality response: pad back up to the full application type.
    result = pbio::project_value(result, *op.output);
  }
  stats_.unmarshal_us += unmarshal.elapsed_us();
  stats_.bytes_copied += reader.bytes_copied();
  return result;
}

pbio::Value ClientStub::call_xml_wire(const wsdl::OperationDesc& op,
                                      const pbio::Value& params, bool compressed) {
  // Client-side quality on the XML wire: possibly reduce the request
  // (opt-in, as on the binary wire).
  pbio::FormatPtr request_format = op.input;
  std::string message_type = op.input->name;
  const pbio::Value* to_send = &params;
  pbio::Value reduced;
  if (quality_ && request_quality_enabled_) {
    const qos::MessageType& type = quality_->select();
    reduced = quality_->apply(params, type);
    to_send = &reduced;
    request_format = type.format;
    message_type = type.name;
  }

  Stopwatch marshal;
  const std::string request_xml =
      soap::build_request(op.name, *to_send, *request_format);
  stats_.marshal_us += marshal.elapsed_us();

  http::Request request;
  request.method = "POST";
  request.target = "/" + service_.name;
  request.headers.set("SOAPAction", "\"" + op.name + "\"");
  request.headers.set(std::string(kHeaderClientId), client_id_);
  request.headers.set(std::string(kHeaderQualityType), message_type);
  if (rtt_estimate_us() > 0.0) {
    request.headers.set(std::string(kHeaderReportedRtt),
                        std::to_string(rtt_estimate_us()));
  }
  if (compressed) {
    Stopwatch sw;
    request.body = lz::compress_string(request_xml);
    stats_.compress_us += sw.elapsed_us();
    request.headers.set("Content-Type", std::string(kContentTypeCompressedXml));
  } else {
    request.set_body(request_xml);
    request.headers.set("Content-Type", std::string(kContentTypeXml));
  }
  stats_.bytes_sent += request.body_size();

  // RTT on the XML wire is measured around the round trip, minus the
  // server's self-reported preparation time.
  const std::uint64_t sent_at_us = clock_->now_us();
  const http::Response response = transport_.round_trip(request);
  stats_.bytes_received += response.body_size();
  throw_if_shed(response);
  {
    std::uint64_t prep_us = 0;
    if (auto prep = response.headers.get(kHeaderServerPrep)) {
      prep_us = parse_u64(*prep);
    }
    const double sample = qos::rtt_sample_us(sent_at_us, clock_->now_us(), prep_us);
    last_rtt_us_ = sample;
    if (quality_) {
      quality_->observe_rtt(sample);
    } else {
      fallback_rtt_.update(sample);
    }
  }

  std::string response_xml;
  if (compressed && response.headers.get("Content-Type").value_or("") ==
                        kContentTypeCompressedXml) {
    Stopwatch sw;
    response_xml = lz::decompress_string(response.body_view());
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

  // A quality-managed server may respond with a reduced message type named
  // in a header; decode with that type's format, then pad back up.
  pbio::FormatPtr response_format = op.output;
  last_response_type_ = op.output->name;
  if (auto type_name = response.headers.get(kHeaderQualityType)) {
    last_response_type_ = std::string(*type_name);
    if (*type_name != op.output->name) {
      if (!quality_) {
        throw RpcError("server sent quality type '" + last_response_type_ +
                       "' but no quality manager is attached");
      }
      response_format = quality_->required_type(*type_name).format;
    }
  }
  note_response_type(op);
  pbio::Value result = soap::decode_body(envelope, *response_format);
  if (response_format->format_id() != op.output->format_id()) {
    result = pbio::project_value(result, *op.output);
  }
  stats_.unmarshal_us += unmarshal.elapsed_us();
  return result;
}

}  // namespace sbq::core
