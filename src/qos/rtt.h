// Round-trip-time estimation.
//
// SOAP-binQ measures RTT the way the paper describes (§IV-C.h): the client
// sends a timestamp with each request, the server echoes it (optionally set
// back by its own data-preparation time), and the client smooths samples
// with the classic exponential average R = α·R + (1-α)·M, α = 0.875 — the
// RFC 793 / Jacobson-Karels estimator the paper cites.
#pragma once

#include <algorithm>
#include <cstdint>

namespace sbq::qos {

/// Exponentially weighted moving average over RTT samples (microseconds).
class EwmaEstimator {
 public:
  explicit EwmaEstimator(double alpha = 0.875);

  /// Feeds one measured RTT; the first sample initializes the estimate.
  void update(double sample_us);

  /// Feeds the loss-like sample of a failed round trip, 2 × max(deadline,
  /// estimate) (docs/robustness.md); false, feeding nothing, when both are 0.
  bool penalize(double deadline_us) {
    const double penalty = 2.0 * std::max(deadline_us, estimate_us_);
    if (penalty > 0.0) update(penalty);
    return penalty > 0.0;
  }

  /// Current smoothed estimate; 0 before any sample.
  [[nodiscard]] double value_us() const { return estimate_us_; }

  [[nodiscard]] bool has_sample() const { return samples_ > 0; }

  void reset();

 private:
  double alpha_;
  double estimate_us_ = 0.0;
  std::uint64_t samples_ = 0;
};

/// Computes an RTT sample from echoed timestamps, subtracting the server's
/// self-reported preparation time (the paper's suggested rectification).
double rtt_sample_us(std::uint64_t sent_at_us, std::uint64_t received_at_us,
                     std::uint64_t server_prep_us = 0);

}  // namespace sbq::qos
