// HTTP/1.1 server: the readiness-driven multi-runtime serving front
// (docs/event-front.md). N event runtimes each own an accept shard
// (SO_REUSEPORT) and a net::Poller over their connections, driving
// per-connection state machines (reading → dispatching → writing) with
// resumable parsing. Handler execution runs on a bounded worker pool, so
// application code may block; the worker then writes the response with one
// non-blocking gather write and hands any unsent residue back to the
// runtime, which drains it on POLLOUT. Concurrency is capped by memory, not
// threads.
//
// Overload protection (docs/robustness.md "Overload and drain"): pool size,
// dispatch-queue depth, connection cap, and per-connection deadlines are
// bounded by ServerOptions; arrivals past the caps get a canned
// `503 Service Unavailable` + `Retry-After` — the last rung of the
// degradation ladder after quality management (qos::LoadMonitor) has
// already stepped response quality down — and shutdown(drain_deadline_us)
// drains gracefully.
//
// The SOAP-binQ ServiceRuntime plugs in as the handler; the server knows
// nothing about SOAP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "http/message.h"
#include "http/parser.h"

namespace sbq::http {

using Handler = std::function<Response(const Request&)>;

/// The serving front. There is only one, and nothing reads the enum or
/// ServerOptions::front: they remain because livebench's stack setup still
/// assigns `front`, the last place that does.
enum class FrontMode { kEvent };

/// Knobs bounding what one Server may consume. Defaults suit tests and
/// examples; production fronts size `workers` to the host and `queue_depth`
/// to the latency budget (a deep queue is just latency nobody asked for).
struct ServerOptions {
  FrontMode front = FrontMode::kEvent;
  /// Event runtimes (accept shards). At least 1.
  std::size_t runtimes = 2;
  /// Fixed worker pool size (threads running the handler). At least 1.
  std::size_t workers = 8;
  /// Parsed requests allowed to wait for a free worker. Arrivals past it
  /// are shed with the canned 503.
  std::size_t queue_depth = 64;
  /// Cap on live connections. Arrivals past it are shed even when the
  /// dispatch queue itself has room.
  std::size_t max_connections = 256;
  /// Keep-alive idle deadline: how long a connection may sit between
  /// requests (and while its next request head trickles in) before the
  /// server drops it. 0 = wait forever.
  std::uint64_t idle_timeout_us = 0;
  /// Per-read deadline while a request body is being received (defends the
  /// server against peers that stall mid-message). 0 = wait forever.
  std::uint64_t read_timeout_us = 0;
  /// Write-progress deadline while a response drains to the peer (defends
  /// against peers that stop reading mid-response). Re-armed on every byte
  /// of progress. 0 = wait forever.
  std::uint64_t write_timeout_us = 0;
  /// Retry-After value (seconds) sent with the canned shed response.
  std::uint64_t shed_retry_after_s = 1;
  /// Request-parsing limits applied to every connection.
  ParserLimits limits;
};

/// Point-in-time load signal, the raw material of qos::LoadMonitor.
struct ServerLoad {
  std::size_t queue_depth = 0;     // parsed requests waiting for a worker
  std::size_t queue_capacity = 0;
  std::size_t in_flight = 0;       // handlers running right now
  std::size_t workers = 0;
  std::size_t runtimes = 0;        // event runtimes (accept shards)
  std::size_t connections = 0;     // live connections across all shards
  std::size_t pending_events = 0;  // readiness events in the last loop turns,
                                   // summed across shards (event-queue depth)
};

/// Lifetime counters. Snapshots are taken from atomics — reading stats
/// never contends with the accept path or the event runtimes.
struct ServerStats {
  std::uint64_t accepted = 0;          // connections the server saw
  std::uint64_t shed = 0;              // answered with the canned 503
  std::uint64_t queue_high_water = 0;  // deepest queue observed
  std::uint64_t peak_in_flight = 0;    // most exchanges in service at once
  std::uint64_t peak_connections = 0;  // most live connections at once
  std::uint64_t drains = 0;            // graceful drains begun
  std::uint64_t forced_closes = 0;     // connections cut at the drain deadline
  std::uint64_t worker_errors = 0;     // non-standard exceptions escaping
                                       // the handler, converted to a 500
};

/// Builds the canned `503 Service Unavailable` + `Retry-After` shed
/// response without touching any request (the peer may not have sent one).
Response make_shed_response(std::uint64_t retry_after_s);

/// TCP server bound to 127.0.0.1.
class Server {
 public:
  /// Binds (port 0 = ephemeral) and starts the event runtimes and workers.
  Server(std::uint16_t port, Handler handler, ServerOptions options = {});

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const;

  /// Stops the server. With `drain_deadline_us` 0: force-closes every
  /// connection immediately (the old hard shutdown). Otherwise a graceful
  /// drain: stop accepting, answer parsed-but-undispatched requests with the
  /// canned 503 (`Connection: close`), let in-flight exchanges finish with
  /// responses marked `Connection: close`, and only once the deadline has
  /// passed force-close whatever is still open. Every worker and runtime
  /// is joined exactly once; safe to call repeatedly and concurrently
  /// (later calls are no-ops).
  void shutdown(std::uint64_t drain_deadline_us = 0);

  /// Current load signal (queue depth, in-flight count, pool size,
  /// runtimes, live connections, pending events).
  [[nodiscard]] ServerLoad load() const;

  /// Lock-free counter snapshot (never contends with accepts).
  [[nodiscard]] ServerStats stats() const;

  /// Live connections across all shards. Exposed so tests can assert that
  /// closed connections stop being tracked.
  [[nodiscard]] std::size_t tracked_connections() const;

  [[nodiscard]] bool draining() const;

 private:
  struct Impl;  // the event runtimes and the worker pool (server.cpp)
  std::unique_ptr<Impl> impl_;
};

}  // namespace sbq::http
