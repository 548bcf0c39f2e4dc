// Message-type selection with history-based anti-oscillation.
//
// Selecting strictly by the latest RTT interval makes the system flap: a
// large message inflates RTT, the policy drops to the small message, RTT
// recovers, the policy jumps back — the oscillation the paper observes and
// damps with "a simple history-based mechanism". SelectionPolicy requires a
// candidate type to win `switch_threshold` consecutive selections before the
// active type actually changes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "qos/quality_file.h"

namespace sbq::qos {

class SelectionPolicy {
 public:
  /// `switch_threshold` = consecutive selections of the same new type
  /// required to switch; 1 disables hysteresis (pure interval lookup).
  explicit SelectionPolicy(QualityFile file, int switch_threshold = 3);

  /// Fresh history over the same (shared, not copied) file and threshold.
  [[nodiscard]] SelectionPolicy restarted() const { return {file_, threshold_}; }

  /// Feeds the current attribute value, returns the active message type.
  const std::string& select(double attribute_value);

  /// Currently active type without updating history (empty before first
  /// select()).
  [[nodiscard]] const std::string& active() const { return active_; }

  /// Number of type switches performed so far (ablation metric).
  [[nodiscard]] std::uint64_t switch_count() const { return switches_; }

  [[nodiscard]] const QualityFile& file() const { return *file_; }

 private:
  SelectionPolicy(std::shared_ptr<const QualityFile> file, int switch_threshold);

  std::shared_ptr<const QualityFile> file_;
  int threshold_;
  std::string active_;
  std::string candidate_;
  int candidate_streak_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace sbq::qos
