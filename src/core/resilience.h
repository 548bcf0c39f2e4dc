// Client-side resilience: multi-replica endpoint sets, circuit breakers,
// health probes, failover, and hedged requests (docs/resilience.md).
//
// The paper's continuous quality management adapts message *quality* to one
// live link; this layer adapts *which link* the client uses. An EndpointSet
// holds N replicas of the same service, each with its own Transport,
// ClientStub, per-endpoint circuit breaker, and latency window. A
// ResilientStub fronts the set: every call is routed to the healthiest
// replica, failed attempts fail over to the next-best one within the
// existing CallOptions retry budget, open breakers are re-closed by cheap
// active health probes instead of burning user calls, and idempotent calls
// can be hedged — when the primary replica exceeds a latency percentile the
// attempt is cancelled and re-fired at the next-best replica.
//
// All timing flows through the endpoint's net::TimeSource: cool-downs,
// probe intervals, and hedge delays are deterministic under a SimClock,
// which is how the tests and bench_resilience script exact failure
// scenarios. sbqlint's clock discipline enforces that this file never
// touches a raw clock or sleep.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "core/client.h"
#include "net/sim_clock.h"
#include "qos/rtt.h"

namespace sbq::core {

/// Circuit-breaker state (docs/resilience.md state machine):
///   * kClosed   — calls flow; failures are counted.
///   * kOpen     — tripped; calls are routed around until the cool-down ends.
///   * kHalfOpen — cool-down elapsed; one probe (or user call) is allowed
///                 through to decide between closing and re-opening.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string_view to_string(BreakerState state);

/// Trip/recovery thresholds. A breaker trips on either signal: a run of
/// consecutive failures (fast trip on a dead replica) or a windowed error
/// rate (slow trip on a flaky one).
struct BreakerOptions {
  int consecutive_failure_threshold = 3;
  double error_rate_threshold = 0.5;
  /// Minimum outcomes in the window before the rate signal may trip — a
  /// single early failure is not a 100% error rate worth acting on.
  int error_rate_min_calls = 8;
  int window = 16;  // outcomes tracked for the error-rate signal
  std::uint64_t cooldown_us = 1'000'000;
  /// Successes required while half-open before the breaker closes.
  int half_open_successes = 1;
};

/// Per-endpoint three-state circuit breaker. All transitions are driven by
/// record_success / record_failure plus the passage of time on the injected
/// TimeSource; kHalfOpen is *derived* (open + cool-down elapsed) rather than
/// stored, so no background work is needed to leave kOpen.
class CircuitBreaker {
 public:
  CircuitBreaker(BreakerOptions options, std::shared_ptr<net::TimeSource> clock);

  [[nodiscard]] BreakerState state() const;
  /// Whether a call may be routed here (closed or half-open).
  [[nodiscard]] bool allows() const { return state() != BreakerState::kOpen; }

  /// Records a successful outcome. Returns true when this success *closed*
  /// the breaker (half-open → closed transition), so callers can count
  /// recovery transitions.
  bool record_success();

  /// Records a failed outcome. Returns true when this failure *tripped* the
  /// breaker (closed → open, or a failed half-open probe re-opening it).
  bool record_failure();

  [[nodiscard]] std::uint64_t trips() const;
  [[nodiscard]] std::uint64_t closes() const;
  [[nodiscard]] int consecutive_failures() const;
  /// When an open breaker becomes half-open (opened_at + cool-down);
  /// 0 when not open.
  [[nodiscard]] std::uint64_t half_open_at_us() const;

 private:
  [[nodiscard]] BreakerState state_locked() const;
  void trip_locked();
  void push_outcome_locked(bool failure);

  const BreakerOptions options_;
  const std::shared_ptr<net::TimeSource> clock_;
  mutable std::mutex mu_;
  // kHalfOpen is derived from open_ + the clock.
  bool open_ = false;               // sbqlint:guarded_by(mu_)
  std::uint64_t opened_at_us_ = 0;  // sbqlint:guarded_by(mu_)
  int consecutive_failures_ = 0;    // sbqlint:guarded_by(mu_)
  int half_open_successes_ = 0;     // sbqlint:guarded_by(mu_)
  // Ring buffer of recent outcomes for the error-rate signal.
  std::vector<char> window_;        // sbqlint:guarded_by(mu_)
  std::size_t window_pos_ = 0;      // sbqlint:guarded_by(mu_)
  int window_count_ = 0;            // sbqlint:guarded_by(mu_)
  int window_failures_ = 0;         // sbqlint:guarded_by(mu_)
  std::uint64_t trips_ = 0;         // sbqlint:guarded_by(mu_)
  std::uint64_t closes_ = 0;        // sbqlint:guarded_by(mu_)
};

/// Ring buffer of recent attempt latencies; feeds the hedge delay
/// (percentile × factor) and the endpoint snapshots.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t capacity = 64);

  void record(double us);
  /// Latency at percentile p ∈ (0, 1]; 0 with no samples.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::size_t count() const;

 private:
  // Mutex-free by design: the window is only touched from the calling
  // client thread (ResilientStub::call and the probe pump it drives).
  std::vector<double> samples_;  // sbqlint:affine(client)
  std::size_t pos_ = 0;          // sbqlint:affine(client)
  std::size_t count_ = 0;        // sbqlint:affine(client)
};

/// One replica of the service: a name for diagnostics plus a factory for
/// its Transport (so the set owns the connection lifecycle and can rebuild
/// it on failover).
struct EndpointConfig {
  std::string name;
  std::function<std::unique_ptr<Transport>()> transport_factory;
};

struct ResilienceOptions {
  BreakerOptions breaker;
  /// Interval for background probes of *closed* endpoints; 0 (default)
  /// probes only half-open endpoints (the recovery path).
  std::uint64_t probe_interval_us = 0;
  std::uint64_t probe_timeout_us = 100'000;
  /// Hedging (idempotent calls only): when the primary attempt exceeds
  /// latency-window percentile × factor, cancel it and re-fire at the
  /// next-best replica.
  bool hedge_enabled = false;
  double hedge_percentile = 0.95;
  double hedge_factor = 2.0;
  std::uint64_t hedge_min_delay_us = 1'000;
  /// Samples required before the percentile is trusted enough to hedge.
  std::size_t hedge_min_samples = 8;
  std::size_t latency_window = 64;
};

/// Read-only view of one endpoint's health for experiments and monitors.
struct EndpointSnapshot {
  std::string name;
  BreakerState breaker = BreakerState::kClosed;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_closes = 0;
  double ewma_latency_us = 0.0;
  std::uint64_t penalized_until_us = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  EndpointStats stats;
};

/// N replicas of one service sharing a wire format, format server, and
/// clock. Every replica gets its own Transport + ClientStub (per-endpoint
/// stats and RTT state) but all stubs share one client id, so server-side
/// per-client quality adaptation follows the client across failovers.
class EndpointSet {
 public:
  struct Endpoint {
    Endpoint(EndpointConfig config, WireFormat wire_format,
             const wsdl::ServiceDesc& service,
             std::shared_ptr<pbio::FormatServer> format_server,
             std::shared_ptr<net::TimeSource> clock,
             const ResilienceOptions& options);

    std::string name;
    std::unique_ptr<Transport> transport;  // must outlive `stub`
    std::unique_ptr<ClientStub> stub;
    CircuitBreaker breaker;
    LatencyWindow latency;
    qos::EwmaEstimator ewma_latency;
    /// Selection penalty from an OverloadError's Retry-After hint: the
    /// endpoint is skipped until this instant. Like the latency window,
    /// the mutable health fields below are client-thread state.
    std::uint64_t penalized_until_us = 0;  // sbqlint:affine(client)
    std::uint64_t last_probe_us = 0;       // sbqlint:affine(client)
    std::uint64_t probes = 0;              // sbqlint:affine(client)
    std::uint64_t probe_failures = 0;      // sbqlint:affine(client)
  };

  EndpointSet(std::vector<EndpointConfig> configs, WireFormat wire_format,
              wsdl::ServiceDesc service,
              std::shared_ptr<pbio::FormatServer> format_server,
              std::shared_ptr<net::TimeSource> clock,
              ResilienceOptions options = {});

  [[nodiscard]] std::size_t size() const { return endpoints_.size(); }
  [[nodiscard]] Endpoint& endpoint(std::size_t i) { return *endpoints_[i]; }
  [[nodiscard]] const Endpoint& endpoint(std::size_t i) const {
    return *endpoints_[i];
  }
  [[nodiscard]] const ResilienceOptions& options() const { return options_; }
  [[nodiscard]] const wsdl::ServiceDesc& service() const { return service_; }
  [[nodiscard]] net::TimeSource& time_source() { return *clock_; }
  /// The shared client id all replica stubs present to servers.
  [[nodiscard]] const std::string& client_id() const { return client_id_; }

  [[nodiscard]] std::vector<EndpointSnapshot> snapshots() const;

 private:
  ResilienceOptions options_;
  wsdl::ServiceDesc service_;
  std::shared_ptr<net::TimeSource> clock_;
  std::string client_id_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

/// The application-facing stub over an EndpointSet. Mirrors ClientStub's
/// call API; the differences are where an attempt goes (healthiest replica
/// first, ranked by breaker state then smoothed latency then Retry-After
/// penalties) and what happens when it fails (fail over to the next-best
/// replica — immediately when one is available, after jittered backoff
/// otherwise — within the CallOptions retry budget). Active health probes
/// run piggybacked on calls via pump_probes(), so no background thread is
/// needed and SimClock tests stay single-threaded and deterministic.
class ResilientStub {
 public:
  explicit ResilientStub(EndpointSet& endpoints);

  /// Calls with default CallOptions: no deadline, no retry.
  pbio::Value call(const std::string& operation, const pbio::Value& params);
  pbio::Value call(const std::string& operation, const pbio::Value& params,
                   const CallOptions& options);

  /// Attaches one quality manager to every replica stub and to the
  /// resilience layer itself: per-attempt RTT/fault samples flow in from
  /// the stubs as usual, breaker trips add the loss-like penalty, and
  /// successful probes of recovering replicas feed observe_probe so quality
  /// re-projects upward as the set heals.
  void set_quality_manager(std::shared_ptr<qos::QualityManager> quality);

  /// Probes endpoints that are due: every half-open endpoint (the recovery
  /// path — a cheap idempotent GET walks the format-announce path and
  /// closes the breaker without risking a user call), plus closed endpoints
  /// whose probe_interval_us has elapsed. Called automatically at the start
  /// of every call; exposed for tests and event loops that want to drive
  /// recovery without traffic.
  void pump_probes();

  /// Aggregate stats across the set: calls/retries plus the resilience
  /// counters (failovers, hedges, breaker transitions, probes). Per-replica
  /// detail lives in EndpointSet::snapshots().
  [[nodiscard]] const EndpointStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Message type name of the most recent response (from whichever replica
  /// answered).
  [[nodiscard]] const std::string& last_response_type() const {
    return last_response_type_;
  }
  /// Index of the replica that served the most recent successful attempt.
  [[nodiscard]] std::size_t last_endpoint() const { return last_index_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Best allowed endpoint (breaker allows, not penalized, not `exclude`,
  /// not in `failed`); kNone when none qualifies.
  [[nodiscard]] std::size_t pick_allowed(const std::vector<char>& failed,
                                         std::uint64_t now,
                                         std::size_t exclude) const;
  /// Endpoint for the next attempt: best allowed outside `failed`, else
  /// best allowed overall, else the least-bad (soonest available) one.
  [[nodiscard]] std::size_t pick(const std::vector<char>& failed,
                                 std::uint64_t now) const;

  /// One bounded attempt against endpoint `index` with all per-endpoint
  /// bookkeeping (latency windows, breaker outcomes, Retry-After
  /// penalties). When `timeout_is_hedge`, a TimeoutError is the hedge
  /// boundary firing — it is rethrown without charging the breaker.
  pbio::Value attempt_on(std::size_t index, const std::string& operation,
                         const pbio::Value& params, const CallOptions& options,
                         std::uint64_t deadline_us, bool timeout_is_hedge);

  bool probe(std::size_t index);
  void note_endpoint_failure(EndpointSet::Endpoint& ep,
                             const CallOptions& options, bool is_timeout);

  EndpointSet& set_;
  std::shared_ptr<qos::QualityManager> quality_;
  EndpointStats stats_;
  std::size_t last_index_ = 0;
  std::string last_response_type_;
};

}  // namespace sbq::core
