// HTTP/1.1 server: the serving pool (docs/event-front.md). One pool of
// `workers + runtimes` identical threads waits on one net::Poller, where
// the listener and every connection are armed one-shot: the thread that
// receives a connection's readiness event owns it, reads and parses the
// request with the resumable parser, runs the handler itself while fewer
// than `workers` handlers are running (application code may block), writes
// the response with one non-blocking gather write, and re-arms the
// connection — for the next request, or to drain a residue. Past `workers`
// running handlers, parsed requests wait in a bounded queue that finishing
// threads drain oldest first. Concurrency is capped by memory, not threads.
//
// Overload protection (docs/robustness.md "Overload and drain"): handler
// slots, queue depth, connection cap, and per-connection deadlines are
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
  /// Pool threads held back from handlers: with `workers` handlers
  /// running, this many threads still accept, shed and drain. The pool has
  /// `workers + runtimes` threads. At least 1.
  std::size_t runtimes = 2;
  /// Handler slots: at most this many handlers run at once. At least 1.
  std::size_t workers = 8;
  /// Parsed requests allowed to wait for a free handler slot. Arrivals
  /// past it are shed with the canned 503.
  std::size_t queue_depth = 64;
  /// Cap on live connections. Arrivals past it are shed even when the
  /// queue itself has room.
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
  std::size_t queue_depth = 0;     // parsed requests waiting for a slot
  std::size_t queue_capacity = 0;
  std::size_t in_flight = 0;       // handlers running right now
  std::size_t workers = 0;
  std::size_t runtimes = 0;        // pool threads held back from handlers
  std::size_t connections = 0;     // live connections
  std::size_t pending_events = 0;  // readiness events the pool is serving
                                   // right now (reads, parses, drains)
};

/// Lifetime counters. Snapshots are taken from atomics — reading stats
/// never contends with the accept path or the pool.
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
  /// Binds (port 0 = ephemeral) and starts the pool.
  Server(std::uint16_t port, Handler handler, ServerOptions options = {});

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const;

  /// Stops the server. With `drain_deadline_us` 0: force-closes every
  /// connection immediately (the old hard shutdown). Otherwise a graceful
  /// drain: stop accepting, answer queued requests that never ran with the
  /// canned 503 (`Connection: close`), let in-flight exchanges finish with
  /// responses marked `Connection: close`, and only once the deadline has
  /// passed force-close whatever is still open. Every pool thread is
  /// joined exactly once; safe to call repeatedly and concurrently (later
  /// calls are no-ops).
  void shutdown(std::uint64_t drain_deadline_us = 0);

  /// Current load signal (queue depth, in-flight count, handler slots,
  /// held-back threads, live connections, pending events).
  [[nodiscard]] ServerLoad load() const;

  /// Lock-free counter snapshot (never contends with accepts).
  [[nodiscard]] ServerStats stats() const;

  /// Live connections. Exposed so tests can assert that
  /// closed connections stop being tracked.
  [[nodiscard]] std::size_t tracked_connections() const;

  [[nodiscard]] bool draining() const;

 private:
  struct Impl;  // the serving pool (server.cpp)
  std::unique_ptr<Impl> impl_;
};

}  // namespace sbq::http
