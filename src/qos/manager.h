// The quality manager: attributes, message types, quality handlers.
//
// One QualityManager lives inside each SOAP-binQ endpoint (client and server
// share the quality file, per the paper: "the quality file is used both by
// the server side and client side stubs"). It owns
//   * the monitored attribute values — applications update them with
//     update_attribute(), the paper's API for dynamic quality changes,
//   * the registered message types (format + optional quality handler),
//   * a SelectionPolicy deciding which type an outgoing message uses.
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
#include <optional>
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

class QualityManager {
 public:
  QualityManager(QualityFile file, int switch_threshold = 3);

  /// Registers a message type named in the quality file. The largest /
  /// default type must be registered too.
  void register_message_type(std::string name, pbio::FormatPtr format,
                             QualityHandler handler = nullptr);

  /// The paper's dynamic-quality API: update a monitored attribute value.
  void update_attribute(std::string_view name, double value);

  /// Replaces the quality policy at runtime (paper §V future work:
  /// "dynamically define and re-define quality management"). Selection
  /// history restarts; registered message types and attribute values are
  /// kept. The new file may monitor a different attribute.
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

  /// Loss-like penalty for a failed round trip (timeout, reset, retry). A
  /// fault carries no genuine RTT, but pretending it never happened would
  /// keep the policy at full quality while the link burns; instead a
  /// synthetic sample of 2 × max(deadline, current estimate) is fed to the
  /// estimator, stepping the selected message type down under sustained
  /// faults and letting the EWMA recover with hysteresis when the link
  /// heals. No-op when both the deadline and the estimate are zero (there
  /// is no scale to penalize against).
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

  /// Selects the message type for the next outgoing message (with
  /// hysteresis) based on the current attribute value. Returns a copy taken
  /// under the lock, so install_handler may run concurrently with apply();
  /// the copy shares the handler rather than copying it.
  MessageType select();

  /// Looks up a registered type by name (for the receive path); the lookup
  /// by value is a copy taken under the lock, as select()'s is.
  [[nodiscard]] const MessageType* find_type(std::string_view name) const;
  [[nodiscard]] MessageType required_type(std::string_view name) const;

  /// Applies `type`'s handler (or the default projection) to `full`.
  [[nodiscard]] pbio::Value apply(const pbio::Value& full,
                                  const MessageType& type) const;

  /// Copy of the current policy (it is replaceable at runtime, so a
  /// reference could be invalidated mid-read by replace_policy).
  [[nodiscard]] SelectionPolicy policy() const;

 private:
  // Guards every field below: the policy is replaceable at runtime, the
  // attribute/estimator state is fed from transport threads, and
  // install_handler swaps handlers inside types_ after registration.
  mutable std::mutex mu_;
  SelectionPolicy policy_;     // sbqlint:guarded_by(mu_)
  AttributeMap attributes_;    // sbqlint:guarded_by(mu_)
  EwmaEstimator rtt_;          // sbqlint:guarded_by(mu_)
  std::uint64_t faults_ = 0;   // sbqlint:guarded_by(mu_)
  std::uint64_t probes_ = 0;   // sbqlint:guarded_by(mu_)
  std::map<std::string, MessageType, std::less<>> types_;  // sbqlint:guarded_by(mu_)
};

}  // namespace sbq::qos
