#include "qos/manager.h"

#include "common/error.h"

namespace sbq::qos {

namespace {

std::shared_ptr<const QualityHandler> share(QualityHandler handler) {
  if (!handler) return nullptr;
  return std::make_shared<const QualityHandler>(std::move(handler));
}

const MessageType& required(const TypeRegistry& types, std::string_view name) {
  const auto it = types.find(name);
  if (it == types.end()) {
    throw QosError("message type '" + std::string(name) +
                   "' named in quality policy is not registered");
  }
  return it->second;
}

}  // namespace

QualityManager::QualityManager(QualityFile file, int switch_threshold)
    : QualityManager(SelectionPolicy(std::move(file), switch_threshold),
                     std::make_shared<const TypeRegistry>()) {}

QualityManager::QualityManager(SelectionPolicy policy,
                               std::shared_ptr<const TypeRegistry> types)
    : types_(std::move(types)), policy_(std::move(policy)) {
  attributes_[policy_.file().attribute()] = 0.0;
}

std::shared_ptr<QualityManager> QualityManager::fork() const {
  std::lock_guard lock(mu_);
  return std::shared_ptr<QualityManager>(
      new QualityManager(policy_.restarted(), types_));
}

void QualityManager::register_message_type(std::string name, pbio::FormatPtr format,
                                           QualityHandler handler) {
  if (!format) throw QosError("message type '" + name + "' without format");
  // Every registered name should be reachable from the quality file, or be
  // the application's full type; unreachable names are tolerated (they may
  // be selected via required_type on the receive path).
  MessageType type{name, std::move(format), share(std::move(handler))};
  std::lock_guard lock(mu_);
  auto next = std::make_shared<TypeRegistry>(*types_);
  (*next)[name] = std::move(type);
  types_ = std::move(next);
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
  auto next = std::make_shared<TypeRegistry>(*types_);
  const auto it = next->find(type_name);
  if (it == next->end()) {
    throw QosError("install_handler: unknown message type '" +
                   std::string(type_name) + "'");
  }
  it->second.handler = share(std::move(handler));
  types_ = std::move(next);
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
  if (rtt_.penalize(deadline_us)) {
    attributes_[policy_.file().attribute()] = rtt_.value_us();
  }
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

std::uint64_t QualityManager::switch_count() const {
  std::lock_guard lock(mu_);
  return policy_.switch_count();
}

MessageType QualityManager::select() {
  std::lock_guard lock(mu_);
  const auto it = attributes_.find(policy_.file().attribute());
  if (it == attributes_.end()) {
    throw QosError("quality attribute '" + policy_.file().attribute() +
                   "' has no value");
  }
  return required(*types_, policy_.select(it->second));
}

std::shared_ptr<const TypeRegistry> QualityManager::registry() const {
  std::lock_guard lock(mu_);
  return types_;
}

MessageType QualityManager::required_type(std::string_view name) const {
  return required(*registry(), name);
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
