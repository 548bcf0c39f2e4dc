// The readiness-driven multi-runtime serving front (docs/event-front.md).
//
// N event runtimes ("shards") each own:
//   * an accept shard — their own SO_REUSEPORT listener on the shared port,
//     so the kernel spreads incoming connections across runtimes with no
//     user-space handoff,
//   * a net::Poller over the shard's connections,
//   * the per-connection state machines: resumable request parsing
//     (MessageReader::feed / try_next_request), dispatch to the shared
//     bounded worker pool, and the drain of any response residue on
//     POLLOUT.
//
// Handler execution stays on the worker pool — application code may block.
// When the handler returns, the worker sends the response itself with one
// non-blocking gather write, then hands the exchange back to its runtime
// (completion + Poller::wake()), which re-arms the connection or drains
// the unsent residue. From dispatch until that hand-back the worker owns
// the socket's write side, and the runtime never closes the connection.
// The number of live connections is decoupled from every thread count.
//
// The overload ladder: arrivals past `max_connections`, and parsed requests
// past `queue_depth`, get the canned 503 + Retry-After; shutdown(drain_deadline_us) answers undispatched
// requests with the 503, lets in-flight exchanges finish with
// `Connection: close`, and force-closes stragglers only past the deadline.
//
// This header intentionally exposes almost nothing: http::Server owns an
// EventFront and forwards its public surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "http/server.h"

namespace sbq::http {

class EventFront {
 public:
  /// Binds `runtimes` SO_REUSEPORT listeners (port 0 = ephemeral, resolved
  /// by the first) and starts the runtime and worker threads. `handler`,
  /// `counters`, and `draining` are borrowed from the owning Server.
  EventFront(std::uint16_t port, const Handler& handler,
             const ServerOptions& options, detail::ServerCounters& counters,
             std::atomic<bool>& draining);
  ~EventFront();

  EventFront(const EventFront&) = delete;
  EventFront& operator=(const EventFront&) = delete;

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] ServerLoad load() const;
  [[nodiscard]] std::size_t connection_count() const;

  /// See Server::shutdown. Idempotent; later calls are no-ops.
  void shutdown(std::uint64_t drain_deadline_us);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sbq::http
