// Real-time measurement helpers. The *simulated* clock used by the network
// models lives in src/net/sim_clock.h; this header is only about measuring
// actual CPU work (marshalling costs are measured for real, per DESIGN.md).
#pragma once

#include <chrono>
#include <cstdint>

namespace sbq {

/// Nanoseconds on the monotonic clock.
inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Scoped stopwatch: measures wall time between construction and elapsed_ns().
class Stopwatch {
 public:
  Stopwatch() : start_(steady_now_ns()) {}

  [[nodiscard]] std::uint64_t elapsed_ns() const { return steady_now_ns() - start_; }
  [[nodiscard]] double elapsed_us() const {
    return static_cast<double>(elapsed_ns()) / 1000.0;
  }

 private:
  std::uint64_t start_;
};

}  // namespace sbq
