// Fixed-size uniform sample of a stream (reservoir sampling, Algorithm R).
//
// The benchmark keeps per-call latencies and traces in reservoirs rather
// than growing vectors: their memory is allocated and touched up front, so
// the process's peak RSS does not grow with the number of calls a run
// completes, and a faster program is not charged more memory for it.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace livebench {

template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : slots_(capacity), engine_(seed) {}

  void add(const T& item) {
    if (seen_ < slots_.size()) {
      slots_[seen_] = item;
    } else {
      const std::uint64_t j = engine_() % (seen_ + 1);
      if (j < slots_.size()) slots_[j] = item;
    }
    ++seen_;
  }

  /// Starts a new sample; the storage stays allocated.
  void clear() { seen_ = 0; }

  /// The kept sample: every item while fewer than capacity were offered.
  [[nodiscard]] std::vector<T> sample() const {
    const std::size_t n = seen_ < slots_.size() ? seen_ : slots_.size();
    return {slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(n)};
  }

 private:
  std::vector<T> slots_;
  std::uint64_t seen_ = 0;
  std::mt19937_64 engine_;
};

}  // namespace livebench
