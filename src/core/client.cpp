#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/error.h"
#include "soap/codec.h"

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
  request.headers.set("SOAPAction", "\"" + op.name + "\"");
  request.headers.set(std::string(kHeaderClientId), client_id_);
  BinEnvelope meta;
  meta.operation = op.name;
  meta.message_type = type.name;
  meta.timestamp_us = clock_->now_us();  // the send time RTT is measured from
  meta.reported_rtt_us = rtt_estimate_us();
  // The request borrows `*to_send` (the caller's params or the reduced
  // copy above), which outlives the round trip.
  encode_wire(wire_format_, request, meta, *to_send, type.format, format_cache_)
      .add_to(stats_);
  stats_.bytes_sent += request.body.size();

  const http::Response response = transport_.round_trip(request);
  const std::uint64_t received_at_us = clock_->now_us();
  stats_.bytes_received += response.body.size();
  throw_if_shed(response);
  if (response.status != 200) {
    // An XML server's error is a SOAP Fault on its own wire, which open_wire
    // throws as RpcError; any other error body is plain text.
    const auto content_type = response.headers.get("Content-Type").value_or("");
    if (wire_format_of(content_type) == wire_format_) {
      (void)open_wire(wire_format_, response);
    }
    throw RpcError("server error " + std::to_string(response.status) + ": " +
                   response.body_string());
  }
  OpenedMessage reply = open_wire(wire_format_, response);

  // RTT sample: from the client's own send time, so no clock but its own
  // enters it, minus the server's self-reported preparation time (§IV-C.h's
  // rectification). A prep time that fills the whole round trip cannot be
  // true: that sample is dropped rather than fed in as 0 µs.
  const std::uint64_t prep_us = reply.meta.server_prep_us;
  if (prep_us > 0 && prep_us >= received_at_us - meta.timestamp_us) {
    ++stats_.rtt_samples_dropped;
  } else {
    last_rtt_us_ = qos::rtt_sample_us(meta.timestamp_us, received_at_us, prep_us);
    if (quality_) {
      quality_->observe_rtt(last_rtt_us_);
    } else {
      fallback_rtt_.update(last_rtt_us_);
    }
  }

  // A reduced-quality response is padded back up to the full application
  // type as it decodes.
  pbio::Value result =
      decode_wire(reply, op.output, format_cache_, plans_, quality_.get());
  reply.costs.add_to(stats_);
  // Track degradation/recovery transitions of the response type.
  last_response_type_ = std::move(reply.meta.message_type);
  const bool full = last_response_type_ == op.output->name;
  if (response_was_full_ && !full) ++stats_.degradations;
  if (!response_was_full_ && full) ++stats_.recoveries;
  response_was_full_ = full;
  return result;
}

}  // namespace sbq::core
