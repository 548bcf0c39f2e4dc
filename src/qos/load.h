// Server-side load monitoring — the paper's continuous quality management
// turned inward.
//
// The quality loop's existing signals are all client-observed (RTT, fault
// penalties); they notice an overloaded server only after queueing has
// already inflated round trips. A LoadMonitor watches the serving side
// itself — dispatch-queue depth, in-flight count, worker utilization, and
// readiness backlog — and smooths them into one `server_load` attribute in [0, 1]
// that a quality file can select message types on, exactly like `rtt_us`:
//
//     attribute server_load
//     0    0.5 - full_image
//     0.5  inf - half_image
//
// Above that sits the shed threshold: once the smoothed load crosses it the
// degradation ladder is exhausted and admission control answers further
// requests with 503 + Retry-After (core::ServiceRuntime). The EWMA starts
// from zero and ramps toward the observed utilization, so a load spike
// degrades quality several requests before it sheds — degrade, then shed,
// then (on shutdown) drain.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>

namespace sbq::qos {

/// One observation of the serving side (http::ServerLoad maps onto this).
struct LoadSample {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 1;
  std::size_t in_flight = 0;
  std::size_t workers = 1;
  std::size_t connections = 0;     // live connections
  std::size_t pending_events = 0;  // readiness events being served now
};

class LoadMonitor {
 public:
  /// Attribute name quality files monitor for load-driven selection.
  static constexpr std::string_view kAttribute = "server_load";

  /// `alpha` is the history weight of the EWMA (estimate = α·estimate +
  /// (1-α)·sample); `shed_threshold` the smoothed load at which admission
  /// control sheds; `retry_after_s` the delay advertised with each 503.
  explicit LoadMonitor(double alpha = 0.7, double shed_threshold = 0.9,
                       std::uint64_t retry_after_s = 1);

  /// Pull source for samples (e.g. `[&server] { ... server.load() ... }`).
  using Source = std::function<LoadSample()>;
  void set_source(Source source);

  /// Feeds one sample; returns the new smoothed load. The instantaneous
  /// utilization is the mean of worker occupancy (in_flight / workers) and
  /// backlog pressure: workers alone saturate it to 0.5, a filling backlog
  /// pushes it toward 1. Backlog pressure is the max of queue fullness (queue_depth / queue_capacity) and event
  /// pressure (pending_events / connections) — a server serving readiness
  /// events on most of its connections at once is saturated even while its
  /// queue still has room.
  double observe(const LoadSample& sample);

  /// Samples the source (if any) and feeds it; without a source, returns
  /// the current smoothed load unchanged.
  double poll();

  /// Smoothed load in [0, 1]; 0 before any sample.
  [[nodiscard]] double load() const;

  /// True once the smoothed load has reached the shed threshold.
  [[nodiscard]] bool should_shed() const;

  [[nodiscard]] std::uint64_t retry_after_s() const { return retry_after_s_; }

  /// Deepest queue seen across all observations.
  [[nodiscard]] std::uint64_t queue_high_water() const;

  [[nodiscard]] std::uint64_t sample_count() const;

 private:
  const double alpha_;
  const double shed_threshold_;
  const std::uint64_t retry_after_s_;

  mutable std::mutex mu_;
  Source source_;                      // sbqlint:guarded_by(mu_)
  double smoothed_ = 0.0;              // sbqlint:guarded_by(mu_)
  std::uint64_t samples_ = 0;          // sbqlint:guarded_by(mu_)
  std::uint64_t queue_high_water_ = 0; // sbqlint:guarded_by(mu_)
};

}  // namespace sbq::qos
