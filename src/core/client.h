// ClientStub — the client half of SOAP-bin / SOAP-binQ.
//
// A stub is configured with a wire format and a Transport:
//   * WireFormat::kBinary        — SOAP-bin (PBIO bodies, RTT piggybacking),
//   * WireFormat::kXml           — standard SOAP (the baseline),
//   * WireFormat::kCompressedXml — Lempel–Ziv-compressed SOAP.
//
// The application-facing calls mirror the paper's modes:
//   * call()      — binary-native application (high-performance mode; also
//                   the client side of interoperability mode),
//   * call_xml()  — XML-native application: the stub converts XML → binary
//                   just in time before sending and binary → XML after
//                   receiving (compatibility mode, client side).
//
// Every call on every wire runs one exchange path: it may reduce the request
// through the client-side quality policy, measures RTT from its own send
// time (minus the server's reported preparation time), smooths it with the
// α = 0.875 estimator for the next request's report, and pads a reduced
// response back up. Writing the request and reading the reply are the wire
// codec's (core/message.h), shared with ServiceRuntime; the stub adds only
// its own work: the send time, the shed and status checks, and the RTT
// sample.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/message.h"
#include "http/message.h"
#include "net/sim_clock.h"
#include "pbio/plan.h"
#include "pbio/registry.h"
#include "pbio/value.h"
#include "qos/manager.h"
#include "wsdl/wsdl.h"

namespace sbq::core {

/// Request/response transport used by the stub (HTTP over TCP, in-process
/// loopback, or the simulated-link transport).
class Transport {
 public:
  virtual ~Transport() = default;
  virtual http::Response round_trip(const http::Request& request) = 0;

  /// Applies a per-attempt deadline: a round trip that has not produced a
  /// response after `timeout_us` fails with TimeoutError. Live transports
  /// arm the stream's read deadline; simulated links enforce it on the
  /// virtual clock. 0 clears. Default: ignored (loopback cannot block).
  virtual void set_attempt_timeout_us(std::uint64_t /*timeout_us*/) {}

  /// Re-establishes the underlying connection after a transport fault, so a
  /// retry does not re-use a dead stream. Default: no-op (loopback and
  /// simulated transports are connectionless).
  virtual void reconnect() {}
};

/// Capped exponential backoff with deterministic jitter. All delays pass
/// through the endpoint's clock: wall time on live transports, virtual time
/// on a SimClock — retry schedules are reproducible in simulation.
struct RetryPolicy {
  int max_attempts = 1;  // total attempts; 1 disables retry
  std::uint64_t initial_backoff_us = 10'000;
  double backoff_multiplier = 2.0;
  std::uint64_t max_backoff_us = 1'000'000;
  double jitter = 0.1;  // ± fraction of each delay
  /// Jitter seed. 0 (the default) derives a stable seed from the stub's
  /// client_id, so a fleet of default-configured clients decorrelates its
  /// backoff schedules after a shared fault instead of retrying in lockstep.
  /// Any non-zero value is used as-is: same seed → same delays, for
  /// reproducible experiments.
  std::uint64_t jitter_seed = 0;
  /// Also treat a CodecError while decoding the response as a wire fault
  /// (bytes corrupted in transit) and retry it. Off by default: a genuine
  /// codec bug must not be masked by retries.
  bool retry_codec_errors = false;
};

/// Stable FNV-1a hash of an identity string, never 0 — the derivation behind
/// RetryPolicy::jitter_seed's default (seeded from client_id), exposed so
/// tests and the resilience layer can reproduce it.
[[nodiscard]] std::uint64_t stable_seed(std::string_view identity);

/// True for the failures a retry may cure: transport faults (shed and timeout
/// included) and, if the policy opts in, codec errors. RpcError, ParseError
/// and QosError are deterministic and would fail again.
[[nodiscard]] bool is_retryable(const Error& error, const RetryPolicy& retry);

/// The retry schedule of one call (ClientStub and ResilientStub): capped
/// exponential backoff with jitter seeded by the policy's jitter_seed, or by
/// stable_seed(identity) when that is 0, plus the call ordinal.
class Backoff {
 public:
  Backoff(const RetryPolicy& retry, std::string_view identity,
          std::uint64_t call_ordinal);

  /// Delay before the next attempt after `error`; grows the backoff.
  std::uint64_t next_delay_us(const Error& error);

 private:
  RetryPolicy retry_;
  Rng jitter_rng_;
  std::uint64_t backoff_us_;
};

/// Passes time on an endpoint's clock: advances a SimClock in place, sleeps
/// the thread otherwise. The one blessed delay primitive for client-side
/// code — anything pacing retries, probes, or hedges must route through it
/// (sbqlint's clock-discipline rule bans raw sleeps elsewhere) so simulated
/// schedules stay deterministic.
void wait_on(net::TimeSource& clock, std::uint64_t us);

/// Per-call failure-handling contract. Only WSDL-declared idempotent
/// operations are ever retried — a lost response to a non-idempotent call
/// may already have taken effect server-side.
struct CallOptions {
  /// Per-attempt deadline in microseconds (0 = wait forever). Expiry
  /// surfaces as sbq::TimeoutError.
  std::uint64_t deadline_us = 0;
  RetryPolicy retry;
};

class ClientStub {
 public:
  /// `service` provides per-operation parameter formats (from WSDL).
  ClientStub(Transport& transport, WireFormat wire_format,
             wsdl::ServiceDesc service,
             std::shared_ptr<pbio::FormatServer> format_server,
             std::shared_ptr<net::TimeSource> clock);

  /// Invokes `operation`; params/result are records of the WSDL formats.
  /// Uses the stub's default CallOptions (no deadline, no retry unless
  /// set_default_call_options says otherwise).
  pbio::Value call(const std::string& operation, const pbio::Value& params);

  /// Invokes `operation` under an explicit failure-handling contract:
  /// per-attempt deadline, capped exponential backoff with deterministic
  /// jitter, idempotent-only retries. Each failed attempt is reported to the
  /// quality manager as a loss-like penalty sample (docs/robustness.md), the
  /// transport is reconnected, and the service's formats are re-announced
  /// before the resend.
  pbio::Value call(const std::string& operation, const pbio::Value& params,
                   const CallOptions& options);

  /// Options applied by the two-argument call() and call_xml().
  void set_default_call_options(CallOptions options) {
    default_options_ = std::move(options);
  }

  /// XML-native application entry point: takes `<params...>` XML, returns
  /// the result element XML. In binary wire modes the stub performs the
  /// XML ↔ binary conversions (charged to stats().convert_us).
  std::string call_xml(const std::string& operation, const std::string& params_xml);

  /// Attaches client-side quality management: RTT estimation/reporting and
  /// resolution of reduced response types. Without it the stub still
  /// measures RTT internally.
  void set_quality_manager(std::shared_ptr<qos::QualityManager> quality);

  /// Opts into *request* reduction: before each call the quality manager
  /// selects a message type and its handler shrinks the request parameters
  /// (the server pads them back). Off by default — most quality files
  /// describe response types, which must not be applied to requests.
  void set_request_quality_enabled(bool enabled) {
    request_quality_enabled_ = enabled;
  }

  [[nodiscard]] std::shared_ptr<qos::QualityManager> quality_manager() const {
    return quality_;
  }

  /// Smoothed RTT estimate in microseconds (0 before the first call).
  [[nodiscard]] double rtt_estimate_us() const;

  /// RTT of the most recent sample (after prep-time subtraction). A reply
  /// whose reported prep time is at or above the measured round trip gives
  /// no sample: it is counted in stats().rtt_samples_dropped instead.
  [[nodiscard]] double last_rtt_us() const { return last_rtt_us_; }

  /// Message type name the server used for the most recent response.
  [[nodiscard]] const std::string& last_response_type() const {
    return last_response_type_;
  }

  [[nodiscard]] const EndpointStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  [[nodiscard]] const wsdl::ServiceDesc& service() const { return service_; }

  /// The stub's view of the format server — callers shipping nested PBIO
  /// messages (e.g. the ECho bridge) announce their inner formats here.
  [[nodiscard]] pbio::FormatCache& format_cache() { return format_cache_; }

  /// Identity sent with every request (X-SOAP-Client-Id) so servers with a
  /// quality factory maintain per-client adaptation state. Unique per stub
  /// by default; override to share identity across stubs/reconnects.
  [[nodiscard]] const std::string& client_id() const { return client_id_; }
  void set_client_id(std::string id) { client_id_ = std::move(id); }

  /// Re-registers the service's formats after a reconnect (a restarted
  /// format server / peer must re-learn them before the next message).
  /// Public because the resilience layer's health probes walk the same
  /// format-announce path when a replica comes back (docs/resilience.md).
  void reannounce_formats();

 private:
  /// One attempt of a call, on every wire.
  pbio::Value exchange(const wsdl::OperationDesc& op, const pbio::Value& params);

  /// Records the fault in stats and feeds the loss-like penalty sample to
  /// the quality loop (or the fallback estimator).
  void note_fault(const CallOptions& options, bool is_timeout);

  Transport& transport_;
  WireFormat wire_format_;
  std::string client_id_;
  wsdl::ServiceDesc service_;
  pbio::FormatCache format_cache_;
  pbio::PlanCache plans_;  // binary replies: sender format → operation output
  std::shared_ptr<net::TimeSource> clock_;
  std::shared_ptr<qos::QualityManager> quality_;
  bool request_quality_enabled_ = false;
  CallOptions default_options_;
  qos::EwmaEstimator fallback_rtt_;
  double last_rtt_us_ = 0.0;
  std::string last_response_type_;
  bool response_was_full_ = true;
  EndpointStats stats_;
};

}  // namespace sbq::core
