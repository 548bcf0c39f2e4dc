// The quality manager: attributes, message types, quality handlers.
//
// One QualityManager lives inside each SOAP-binQ endpoint (client and server
// share the quality file, per the paper: "the quality file is used both by
// the server side and client side stubs"). It holds
//   * a configuration fork() shares: the message types (format + optional
//     quality handler) in an immutable TypeRegistry, and the quality file,
//   * its own state: the monitored attribute values (the paper's
//     update_attribute() API), the RTT estimator and the selection history.
//
// A quality handler transforms the full application message into the chosen
// reduced type; when none is registered the default handler performs the
// paper's field projection: copy the fields the two types share, ignore the
// rest (the receiver pads them back with zeroes).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "pbio/format.h"
#include "pbio/value.h"
#include "pbio/value_codec.h"
#include "qos/policy.h"
#include "qos/rtt.h"

namespace sbq::qos {

using AttributeMap = std::map<std::string, double, std::less<>>;

/// Transforms the full message into `target`-typed content. Receives the
/// live attribute values so handlers can be parameterized per invocation.
using QualityHandler = std::function<pbio::Value(
    const pbio::Value& full, const pbio::FormatDesc& target, const AttributeMap&)>;

/// A message type a quality file may select.
struct MessageType {
  std::string name;
  pbio::FormatPtr format;
  /// Null → default projection handler. Shared, so that a copy of the type
  /// costs a reference count: install_handler swaps the pointer and never
  /// changes a handler in place.
  std::shared_ptr<const QualityHandler> handler;
};

/// Message types by name. Never changed once published; changes publish anew.
using TypeRegistry = std::map<std::string, MessageType, std::less<>>;

class QualityManager {
 public:
  QualityManager(QualityFile file, int switch_threshold = 3);

  /// A manager with fresh state over this one's registry and quality file;
  /// later changes to either one's configuration publish for it alone.
  [[nodiscard]] std::shared_ptr<QualityManager> fork() const;

  /// Registers a message type named in the quality file. The largest /
  /// default type must be registered too.
  void register_message_type(std::string name, pbio::FormatPtr format,
                             QualityHandler handler = nullptr);

  /// The paper's dynamic-quality API: update a monitored attribute value.
  void update_attribute(std::string_view name, double value);

  /// Replaces the quality policy at runtime (paper §V future work:
  /// "dynamically define and re-define quality management"). Selection
  /// history restarts; the registry and attribute values are kept. The new
  /// file may monitor a different attribute.
  void replace_policy(QualityFile file, int switch_threshold = 3);

  /// Swaps the quality handler of an already-registered message type at
  /// runtime (the paper installed handlers statically at compile time and
  /// lists runtime installation as future work). Throws QosError for an
  /// unknown type.
  void install_handler(std::string_view type_name, QualityHandler handler);

  /// Name of the attribute the current policy monitors.
  [[nodiscard]] std::string attribute_name() const;

  [[nodiscard]] double attribute(std::string_view name) const;

  /// Snapshot of all attribute values (copied under the lock).
  [[nodiscard]] AttributeMap attributes() const;

  /// Feeds an RTT sample into the built-in estimator and mirrors the
  /// smoothed value into the monitored attribute map under the quality
  /// file's attribute name.
  void observe_rtt(double sample_us);

  /// Counts a failed round trip and feeds its EwmaEstimator::penalize sample
  /// into the estimator and the monitored attribute.
  void observe_fault(double deadline_us);

  /// Number of fault penalties observed so far.
  [[nodiscard]] std::uint64_t fault_count() const;

  /// Health-probe feed (core's resilience layer, docs/resilience.md). A
  /// successful probe of a recovering replica carries a genuine RTT sample
  /// but no user payload: the sample flows into the same estimator and
  /// monitored attribute as observe_rtt, so quality re-projects upward as
  /// the endpoint set heals — the recovery mirror of the observe_fault
  /// penalty path — while a separate counter keeps probes auditable.
  void observe_probe(double rtt_us);

  /// Number of probe samples observed so far.
  [[nodiscard]] std::uint64_t probe_count() const;

  /// Copy of the RTT estimator state (safe across threads).
  [[nodiscard]] EwmaEstimator rtt() const;

  /// Number of message-type switches the selection history has made.
  [[nodiscard]] std::uint64_t switch_count() const;

  /// Selects the message type for the next outgoing message (with
  /// hysteresis) based on the current attribute value. Returns a copy that
  /// shares the format and handler, so install_handler may run concurrently
  /// with apply().
  MessageType select();

  /// The current registry snapshot, and a type looked up in it by name (how
  /// the XML receive paths resolve a reduced type).
  [[nodiscard]] std::shared_ptr<const TypeRegistry> registry() const;
  [[nodiscard]] MessageType required_type(std::string_view name) const;

  /// Applies `type`'s handler (or the default projection) to `full`.
  [[nodiscard]] pbio::Value apply(const pbio::Value& full,
                                  const MessageType& type) const;

 private:
  QualityManager(SelectionPolicy policy, std::shared_ptr<const TypeRegistry> types);

  // Guards every field below: the registry and policy are republished at
  // runtime, and the attribute/estimator state is fed from transport threads.
  mutable std::mutex mu_;
  std::shared_ptr<const TypeRegistry> types_;  // sbqlint:guarded_by(mu_)
  SelectionPolicy policy_;     // sbqlint:guarded_by(mu_)
  AttributeMap attributes_;    // sbqlint:guarded_by(mu_)
  EwmaEstimator rtt_;          // sbqlint:guarded_by(mu_)
  std::uint64_t faults_ = 0;   // sbqlint:guarded_by(mu_)
  std::uint64_t probes_ = 0;   // sbqlint:guarded_by(mu_)
};

}  // namespace sbq::qos
