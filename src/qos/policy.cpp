#include "qos/policy.h"

#include "common/error.h"

namespace sbq::qos {

SelectionPolicy::SelectionPolicy(QualityFile file, int switch_threshold)
    : SelectionPolicy(std::make_shared<const QualityFile>(std::move(file)),
                      switch_threshold) {}

SelectionPolicy::SelectionPolicy(std::shared_ptr<const QualityFile> file,
                                 int switch_threshold)
    : file_(std::move(file)), threshold_(switch_threshold) {
  if (threshold_ < 1) throw QosError("switch_threshold must be >= 1");
}

const std::string& SelectionPolicy::select(double attribute_value) {
  const std::string& raw = file_->select(attribute_value);
  if (active_.empty()) {
    // First selection establishes the active type immediately.
    active_ = raw;
    candidate_.clear();
    candidate_streak_ = 0;
    return active_;
  }
  if (raw == active_) {
    candidate_.clear();
    candidate_streak_ = 0;
    return active_;
  }
  if (raw == candidate_) {
    ++candidate_streak_;
  } else {
    candidate_ = raw;
    candidate_streak_ = 1;
  }
  if (candidate_streak_ >= threshold_) {
    active_ = candidate_;
    candidate_.clear();
    candidate_streak_ = 0;
    ++switches_;
  }
  return active_;
}

}  // namespace sbq::qos
