// ServiceRuntime — the server half of SOAP-bin / SOAP-binQ.
//
// One runtime hosts the operations of a service (typically compiled from
// WSDL) and answers HTTP POSTs carrying any of the three wire formats:
//   * XML            — standard SOAP (the baseline),
//   * PBIO binary    — SOAP-bin; parameters stay binary end to end,
//   * compressed XML — the Lempel-Ziv baseline from the paper.
//
// Operations come in two flavors mirroring the paper's modes:
//   * register_operation       — the application speaks binary (Values);
//     SOAP-bin high-performance / interoperability modes,
//   * register_xml_operation   — a legacy application that produces and
//     consumes XML documents; the runtime performs bin↔XML conversions
//     around it (SOAP-bin compatibility mode, server side).
//
// Attaching a qos::QualityManager turns SOAP-bin into SOAP-binQ: before
// each response is sent the runtime selects a message type from the quality
// file (driven by the client-reported RTT), applies the type's quality
// handler (or the default field projection), and transmits the reduced
// message. All three wires run one exchange path — open the request, look
// up the operation, publish load and RTT, decode and lift a reduced request
// onto the full input type, timed invoke, select and reduce, encode the
// response. Reading and writing bodies and their metadata (BinEnvelope vs
// X-SOAP-* headers) is the wire codec's (core/message.h), shared with
// ClientStub; the wires differ here only in how errors are answered: HTTP
// 500 text on the binary wire, SOAP faults on the XML wires. The codec's
// costs of a request merge into stats() under one lock acquisition.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/message.h"
#include "common/stats.h"
#include "http/message.h"
#include "http/server.h"
#include "net/sim_clock.h"
#include "pbio/plan.h"
#include "pbio/registry.h"
#include "pbio/value.h"
#include "qos/load.h"
#include "qos/manager.h"

namespace sbq::core {

/// Builds a qos::LoadMonitor source that snapshots `server.load()` on every
/// poll — the standard wiring between an http::Server and the runtime's
/// load monitor. Samples carry queue depth, in-flight count, and workers,
/// plus live connections and pending readiness events, so the monitor sees
/// a saturated event path even while the queue still has room.
/// The server must outlive the monitor (or at least every poll).
qos::LoadMonitor::Source server_load_source(const http::Server& server);

/// Handler for binary-native applications.
using OperationHandler = std::function<pbio::Value(const pbio::Value& params)>;

/// Handler for XML-native (legacy) applications: receives the parameter
/// element serialized as XML, returns the result serialized as XML.
using XmlOperationHandler = std::function<std::string(const std::string& params_xml)>;

class ServiceRuntime {
 public:
  ServiceRuntime(std::shared_ptr<pbio::FormatServer> format_server,
                 std::shared_ptr<net::TimeSource> clock);

  /// Registers a binary-native operation. Formats are announced to the
  /// format server immediately (the sender-side registration handshake).
  void register_operation(const std::string& name, pbio::FormatPtr input,
                          pbio::FormatPtr output, OperationHandler handler);

  /// Registers an XML-native operation (compatibility mode, server side).
  void register_xml_operation(const std::string& name, pbio::FormatPtr input,
                              pbio::FormatPtr output, XmlOperationHandler handler);

  /// Attaches quality management for responses (SOAP-binQ). The manager's
  /// registered message types are announced to the format server lazily.
  void set_quality_manager(std::shared_ptr<qos::QualityManager> quality);

  /// Per-client quality management (the client-specific behaviors of the
  /// paper's grid middleware, ref. [18]): the factory runs once, and each
  /// distinct X-SOAP-Client-Id gets a fork() of the manager it built, so
  /// clients on very different links each get their own RTT state and
  /// selection over one shared registry. Requests without a client id fall
  /// back to the set_quality_manager() manager. The client id is untrusted,
  /// so the table holds at most kMaxClientQualityManagers entries: a new id
  /// at the cap evicts the oldest-inserted one, and an evicted client that
  /// comes back starts over with fresh state.
  static constexpr std::size_t kMaxClientQualityManagers = 1024;
  using QualityFactory = std::function<std::shared_ptr<qos::QualityManager>()>;
  void set_quality_factory(QualityFactory factory);

  /// Number of per-client managers currently held.
  [[nodiscard]] std::size_t client_quality_count() const;

  /// Attaches server-side load monitoring — the degrade/shed rungs of the
  /// overload ladder (docs/robustness.md). On every request the runtime
  /// polls the monitor (its source typically snapshots http::Server::load()),
  /// publishes the smoothed load as the `server_load` attribute to the
  /// request's quality manager so selection can step quality down, and —
  /// once the load reaches the shed threshold — answers POSTs with
  /// `503 Service Unavailable` + `Retry-After` before decoding anything.
  void set_load_monitor(std::shared_ptr<qos::LoadMonitor> monitor);

  /// Drain mode: every response is marked `Connection: close` so keep-alive
  /// clients reconnect elsewhere. Entering drain bumps the `drains` counter.
  void set_draining(bool draining);
  [[nodiscard]] bool draining() const { return draining_.load(); }

  /// Publishes a WSDL document for this endpoint: any GET request whose
  /// query string contains "wsdl" is answered with it (the 2004 convention
  /// — `http://host/service?wsdl` — used by the paper's service portal to
  /// advertise itself).
  void set_wsdl_document(std::string wsdl_xml);

  /// Dispatches one HTTP request. Never throws: errors become SOAP faults
  /// (XML modes) or HTTP error statuses (binary mode). Safe to call from
  /// multiple connection threads concurrently.
  http::Response handle(const http::Request& request);

  /// Snapshot of the cost counters (copied under the stats lock).
  [[nodiscard]] EndpointStats stats() const;
  void reset_stats();

  [[nodiscard]] pbio::FormatCache& format_cache() { return format_cache_; }

 private:
  struct Operation {
    pbio::FormatPtr input;
    pbio::FormatPtr output;
    OperationHandler handler;      // exactly one of handler/xml_handler is set
    XmlOperationHandler xml_handler;
  };

  const Operation& find_operation(const std::string& name) const;
  pbio::Value invoke(const Operation& op, const pbio::Value& params);

  http::Response dispatch(const http::Request& request);
  /// One request on any wire (see the file comment).
  http::Response exchange(const http::Request& request, WireFormat wire);

  /// Applies a mutation to the shared counters under the stats lock.
  template <typename Fn>
  void bump_stats(Fn&& fn) {
    std::lock_guard lock(stats_mu_);
    fn(stats_);
  }

  std::shared_ptr<net::TimeSource> clock_;
  pbio::FormatCache format_cache_;
  pbio::PlanCache plans_;  // binary requests: sender format → operation input
  /// Resolves the quality manager for a request (per-client or shared).
  std::shared_ptr<qos::QualityManager> quality_for(const http::Request& request);

  std::map<std::string, Operation> operations_;
  std::shared_ptr<qos::QualityManager> quality_;
  std::shared_ptr<qos::LoadMonitor> load_monitor_;
  std::atomic<bool> draining_{false};
  std::shared_ptr<qos::QualityManager> client_quality_config_;  // forked per client
  mutable std::mutex clients_mu_;
  using ClientQualityMap = std::map<std::string, std::shared_ptr<qos::QualityManager>>;
  ClientQualityMap client_quality_;  // sbqlint:guarded_by(clients_mu_)
  std::deque<ClientQualityMap::iterator> client_order_;  // sbqlint:guarded_by(clients_mu_)
  std::string wsdl_document_;
  mutable std::mutex stats_mu_;
  EndpointStats stats_;  // sbqlint:guarded_by(stats_mu_)
};

}  // namespace sbq::core
