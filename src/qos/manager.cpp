#include "qos/manager.h"

#include <algorithm>

#include "common/error.h"

namespace sbq::qos {

namespace {

std::shared_ptr<const QualityHandler> share(QualityHandler handler) {
  if (!handler) return nullptr;
  return std::make_shared<const QualityHandler>(std::move(handler));
}

}  // namespace

QualityManager::QualityManager(QualityFile file, int switch_threshold)
    : policy_(std::move(file), switch_threshold) {
  attributes_[policy_.file().attribute()] = 0.0;
}

void QualityManager::register_message_type(std::string name, pbio::FormatPtr format,
                                           QualityHandler handler) {
  if (!format) throw QosError("message type '" + name + "' without format");
  // Every registered name should be reachable from the quality file, or be
  // the application's full type; unreachable names are tolerated (they may
  // be selected via required_type on the receive path).
  MessageType type{name, std::move(format), share(std::move(handler))};
  std::lock_guard lock(mu_);
  types_[name] = std::move(type);
}

void QualityManager::update_attribute(std::string_view name, double value) {
  std::lock_guard lock(mu_);
  attributes_[std::string(name)] = value;
}

void QualityManager::replace_policy(QualityFile file, int switch_threshold) {
  SelectionPolicy fresh(std::move(file), switch_threshold);
  std::lock_guard lock(mu_);
  policy_ = std::move(fresh);
  // Ensure the (possibly new) monitored attribute has an entry.
  attributes_.try_emplace(policy_.file().attribute(), 0.0);
}

void QualityManager::install_handler(std::string_view type_name,
                                     QualityHandler handler) {
  std::lock_guard lock(mu_);
  const auto it = types_.find(type_name);
  if (it == types_.end()) {
    throw QosError("install_handler: unknown message type '" +
                   std::string(type_name) + "'");
  }
  it->second.handler = share(std::move(handler));
}

std::string QualityManager::attribute_name() const {
  std::lock_guard lock(mu_);
  return policy_.file().attribute();
}

double QualityManager::attribute(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = attributes_.find(name);
  if (it == attributes_.end()) {
    throw QosError("unknown quality attribute '" + std::string(name) + "'");
  }
  return it->second;
}

AttributeMap QualityManager::attributes() const {
  std::lock_guard lock(mu_);
  return attributes_;
}

void QualityManager::observe_rtt(double sample_us) {
  std::lock_guard lock(mu_);
  rtt_.update(sample_us);
  attributes_[policy_.file().attribute()] = rtt_.value_us();
}

void QualityManager::observe_fault(double deadline_us) {
  std::lock_guard lock(mu_);
  ++faults_;
  const double penalty = 2.0 * std::max(deadline_us, rtt_.value_us());
  if (penalty <= 0.0) return;
  rtt_.update(penalty);
  attributes_[policy_.file().attribute()] = rtt_.value_us();
}

std::uint64_t QualityManager::fault_count() const {
  std::lock_guard lock(mu_);
  return faults_;
}

void QualityManager::observe_probe(double rtt_us) {
  std::lock_guard lock(mu_);
  ++probes_;
  if (rtt_us <= 0.0) return;  // a clockless probe carries no signal
  rtt_.update(rtt_us);
  attributes_[policy_.file().attribute()] = rtt_.value_us();
}

std::uint64_t QualityManager::probe_count() const {
  std::lock_guard lock(mu_);
  return probes_;
}

EwmaEstimator QualityManager::rtt() const {
  std::lock_guard lock(mu_);
  return rtt_;
}

SelectionPolicy QualityManager::policy() const {
  std::lock_guard lock(mu_);
  return policy_;
}

MessageType QualityManager::select() {
  std::string name;
  {
    std::lock_guard lock(mu_);
    const auto it = attributes_.find(policy_.file().attribute());
    if (it == attributes_.end()) {
      throw QosError("quality attribute '" + policy_.file().attribute() +
                     "' has no value");
    }
    name = policy_.select(it->second);
  }
  return required_type(name);
}

const MessageType* QualityManager::find_type(std::string_view name) const {
  // The lock covers the lookup against concurrent registration; the
  // returned pointer stays valid because types_ never erases.
  std::lock_guard lock(mu_);
  const auto it = types_.find(name);
  return it == types_.end() ? nullptr : &it->second;
}

MessageType QualityManager::required_type(std::string_view name) const {
  // Copied under the lock: install_handler swaps the handler pointer.
  std::lock_guard lock(mu_);
  const auto it = types_.find(name);
  if (it == types_.end()) {
    throw QosError("message type '" + std::string(name) +
                   "' named in quality policy is not registered");
  }
  return it->second;
}

pbio::Value QualityManager::apply(const pbio::Value& full,
                                  const MessageType& type) const {
  if (type.handler) {
    // Hand the handler a stable snapshot of the attributes.
    return (*type.handler)(full, *type.format, attributes());
  }
  // Default conversion handler: copy common fields, drop the rest.
  return pbio::project_value(full, *type.format);
}

}  // namespace sbq::qos
