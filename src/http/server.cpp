// http::Server: the readiness-driven multi-runtime serving front
// (docs/event-front.md).
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
// past `queue_depth`, get the canned 503 + Retry-After;
// shutdown(drain_deadline_us) answers undispatched requests with the 503,
// lets in-flight exchanges finish with `Connection: close`, and
// force-closes stragglers only past the deadline.

#include "http/server.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "net/poller.h"
#include "net/tcp.h"

namespace sbq::http {

namespace {
constexpr std::size_t kReadChunk = 8192;
constexpr int kListenBacklog = 256;

/// The atomic counterparts of ServerStats, bumped lock-free from the event
/// runtimes and the workers alike.
struct Counters {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> queue_high_water{0};
  std::atomic<std::uint64_t> peak_in_flight{0};
  std::atomic<std::uint64_t> peak_connections{0};
  std::atomic<std::uint64_t> drains{0};
  std::atomic<std::uint64_t> forced_closes{0};
  std::atomic<std::uint64_t> worker_errors{0};

  /// Monotonic max update (queue high-water, peak in-flight).
  static void raise(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] ServerStats snapshot() const {
    ServerStats s;
    s.accepted = accepted.load();
    s.shed = shed.load();
    s.queue_high_water = queue_high_water.load();
    s.peak_in_flight = peak_in_flight.load();
    s.peak_connections = peak_connections.load();
    s.drains = drains.load();
    s.forced_closes = forced_closes.load();
    s.worker_errors = worker_errors.load();
    return s;
  }
};
}  // namespace

Response make_shed_response(std::uint64_t retry_after_s) {
  Response resp;
  resp.status = 503;
  resp.reason = std::string(reason_phrase(503));
  resp.headers.set("Retry-After", std::to_string(retry_after_s));
  resp.headers.set("Connection", "close");
  resp.headers.set("Content-Type", "text/plain");
  resp.set_body("server overloaded; retry later");
  return resp;
}

struct Server::Impl {
  struct Shard;

  /// Connection state machine (docs/event-front.md):
  ///   kReading     — POLLIN armed; bytes feed the resumable parser
  ///   kDispatching — a parsed request runs on the worker pool; no poll
  ///                  interest (back-pressure: the socket is left unread).
  ///                  Until its completion is delivered the worker owns the
  ///                  socket's write side, so the shard never closes or
  ///                  erases the connection in this state.
  ///   kWriting     — POLLOUT armed; the residue of a response the send
  ///                  routine could not finish drains through non-blocking
  ///                  gather writes, resuming after partial writes
  enum class ConnState { kReading, kDispatching, kWriting };

  /// A serialized response and how far into the socket it got.
  struct Outgoing {
    Response response;     // owns the body while `wire` drains
    BufferChain wire;      // serialized response (shares `response`'s body)
    std::size_t sent = 0;  // bytes of `wire` already accepted by the kernel
    bool failed = false;   // the socket refused the write; close it
  };

  struct Connection {
    std::unique_ptr<net::TcpStream> stream;
    MessageReader reader;
    ConnState state = ConnState::kReading;
    std::uint64_t gen = 0;  // guards completions against fd reuse
    Outgoing out;           // the response draining in kWriting
    bool close_after_write = false;
    bool request_wants_close = false;
    bool exchange_in_flight = false;  // counted in exchanges_in_flight_
    bool detached = false;  // off the poller: hung up while dispatched,
                            // closed when the completion is delivered
    std::uint64_t deadline_ns = 0;    // 0 = none

    Connection(std::unique_ptr<net::TcpStream> s, const ParserLimits& limits)
        : stream(std::move(s)), reader(*stream, limits) {}
  };

  /// A finished exchange, routed back to the owning shard. With `written`
  /// set the worker already ran the send routine, and `out` is sent whole,
  /// a residue, or failed. Only the 503s that shutdown() posts for queued
  /// jobs that never ran leave it unset: `out` then holds just the
  /// response, and the shard sends it.
  struct Completion {
    int fd = -1;
    std::uint64_t gen = 0;
    Outgoing out;
    bool written = false;
  };

  /// A parsed request waiting for (or running on) a worker.
  struct Job {
    Shard* shard = nullptr;
    int fd = -1;
    std::uint64_t gen = 0;
    Request request;
    /// The connection's socket, whose write side the worker owns until
    /// its completion is delivered. The shard hands it over at dispatch
    /// and never reads it back.
    net::TcpStream* direct_stream = nullptr;  // sbqlint:affine(worker)
  };

  /// One event runtime: an accept shard plus the poller loop over its
  /// connections. Everything except `completions` (fed by workers under
  /// `completion_mu`) and `last_batch` is owned by the shard thread.
  struct Shard {
    std::size_t index = 0;
    std::unique_ptr<net::TcpListener> listener;
    net::Poller poller;  // not affine: workers may call poller.wake()
    std::unordered_map<int, std::unique_ptr<Connection>> conns;  // sbqlint:affine(event-shard)
    std::mutex completion_mu;
    std::vector<Completion> completions;  // sbqlint:guarded_by(completion_mu)
    std::atomic<std::size_t> last_batch{0};
    std::thread thread;
  };

  /// The one send routine, run by workers for handler responses and by
  /// the shard for its canned 400 and 503: serialise, make one
  /// non-blocking gather write, and return what the kernel did not take
  /// as the residue (`wire` from `sent`).
  static Outgoing send_response(net::TcpStream& stream, Response&& response) {
    Outgoing out;
    out.response = std::move(response);
    // The response stays segmented all the way into the socket: the wire
    // chain shares the response's body segments, never flattening them.
    out.response.serialize_to(out.wire);
    bool would_block = false;
    try {
      out.sent = stream.write_chain_some(out.wire, 0, would_block);
    } catch (const TransportError&) {
      out.failed = true;
    }
    return out;
  }

  Impl(std::uint16_t port, Handler handler_in, const ServerOptions& options_in)
      : handler(std::move(handler_in)), options(options_in) {
    options.runtimes = std::max<std::size_t>(1, options.runtimes);
    options.workers = std::max<std::size_t>(1, options.workers);
    options.queue_depth = std::max<std::size_t>(1, options.queue_depth);
    options.max_connections = std::max<std::size_t>(1, options.max_connections);

    net::TcpListener::Options lopts;
    lopts.reuse_port = true;
    lopts.nonblocking = true;
    lopts.backlog = kListenBacklog;
    shards.reserve(options.runtimes);
    for (std::size_t i = 0; i < options.runtimes; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->index = i;
      // The first listener resolves an ephemeral port; its siblings bind the
      // same resolved port, each owning a kernel-side accept shard.
      shard->listener =
          std::make_unique<net::TcpListener>(i == 0 ? port : port_, lopts);
      if (i == 0) port_ = shard->listener->port();
      shard->poller.add(shard->listener->fd(), /*read=*/true, /*write=*/false);
      shards.push_back(std::move(shard));
    }
    workers.reserve(options.workers);
    for (std::size_t i = 0; i < options.workers; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
    for (auto& shard : shards) {
      Shard* s = shard.get();
      s->thread = std::thread([this, s] { shard_loop(*s); });
    }
  }

  // ----------------------------------------------------------- shard loop
  //
  // Everything below down to the worker-pool section runs on the shard's
  // own thread only — the sbqlint:affine(event-shard) annotations make the
  // analyzer prove no other thread root can reach these functions.

  // sbqlint:affine(event-shard)
  void shard_loop(Shard& s) {
    for (;;) {
      auto events = s.poller.wait(shard_timeout_ms(s));
      s.last_batch.store(events.size());
      if (accept_closed.load()) maybe_close_listener(s);
      deliver_completions(s);
      if (stopping.load()) {
        teardown(s);
        return;
      }
      const int lfd = s.listener ? s.listener->fd() : -1;
      for (const net::PollEvent& ev : events) {
        if (lfd >= 0 && ev.fd == lfd) {
          accept_ready(s);
          continue;
        }
        auto it = s.conns.find(ev.fd);
        if (it == s.conns.end()) continue;  // stale event for a closed fd
        Connection& conn = *it->second;
        if (ev.readable && conn.state == ConnState::kReading) {
          handle_readable(s, ev.fd);
        } else if (ev.writable && conn.state == ConnState::kWriting) {
          flush_writes(s, ev.fd);
        } else if (ev.hangup) {
          close_connection(s, ev.fd);
        }
      }
      expire_deadlines(s);
    }
  }

  /// Poll timeout to the nearest connection deadline (-1 = no deadline).
  // sbqlint:affine(event-shard)
  int shard_timeout_ms(const Shard& s) const {
    std::uint64_t nearest = 0;
    for (const auto& [fd, conn] : s.conns) {
      (void)fd;
      if (conn->deadline_ns == 0) continue;
      if (nearest == 0 || conn->deadline_ns < nearest) nearest = conn->deadline_ns;
    }
    if (nearest == 0) return -1;
    const std::uint64_t now = steady_now_ns();
    if (nearest <= now) return 0;
    return static_cast<int>((nearest - now + 999'999) / 1'000'000);
  }

  // sbqlint:affine(event-shard)
  void maybe_close_listener(Shard& s) {
    if (!s.listener) return;
    const int lfd = s.listener->fd();
    if (lfd >= 0) {
      s.poller.remove(lfd);
      s.listener->close();
    }
  }

  // sbqlint:affine(event-shard)
  void accept_ready(Shard& s) {
    for (;;) {
      bool would_block = false;
      std::unique_ptr<net::TcpStream> stream;
      try {
        stream = s.listener->try_accept(would_block);
      } catch (const TransportError&) {
        return;  // transient accept failure; the next event retries
      }
      if (!stream) return;  // would-block or listener closed
      counters.accepted.fetch_add(1);
      stream->set_nonblocking(true);
      const int fd = stream->fd();
      auto conn = std::make_unique<Connection>(std::move(stream), options.limits);
      conn->gen = next_gen.fetch_add(1);
      const std::size_t live = live_connections.fetch_add(1) + 1;
      Counters::raise(counters.peak_connections, live);
      s.poller.add(fd, /*read=*/true, /*write=*/false);
      Connection& placed = *(s.conns[fd] = std::move(conn));
      if (live > options.max_connections || draining.load()) {
        // Admission control: past the cap (or mid-drain) the connection gets
        // the canned 503 before a single request byte is read.
        counters.shed.fetch_add(1);
        queue_response(s, fd,
                       send_response(*placed.stream,
                                     make_shed_response(options.shed_retry_after_s)),
                       /*close_after=*/true);
        continue;
      }
      arm_read_deadline(placed);
    }
  }

  // sbqlint:affine(event-shard)
  void handle_readable(Shard& s, int fd) {
    std::uint8_t buf[kReadChunk];
    for (;;) {
      auto it = s.conns.find(fd);
      if (it == s.conns.end()) return;
      Connection& conn = *it->second;
      if (conn.state != ConnState::kReading) return;  // back-pressure
      bool would_block = false;
      std::size_t n = 0;
      try {
        n = conn.stream->read_some_nonblocking(buf, sizeof buf, would_block);
      } catch (const TransportError&) {
        close_connection(s, fd);
        return;
      }
      if (would_block) return;
      if (n == 0) {
        // EOF — clean between messages or truncation inside one; either way
        // there is nothing to answer on this connection anymore.
        close_connection(s, fd);
        return;
      }
      conn.reader.feed(BytesView{buf, n});
      if (!advance_parse(s, fd)) return;
    }
  }

  /// Tries to parse (and dispatch) the next request from buffered bytes.
  /// Returns false when the connection was closed.
  // sbqlint:affine(event-shard)
  bool advance_parse(Shard& s, int fd) {
    auto it = s.conns.find(fd);
    if (it == s.conns.end()) return false;
    Connection& conn = *it->second;
    if (conn.state != ConnState::kReading) return true;
    std::optional<Request> request;
    try {
      request = conn.reader.try_next_request();
    } catch (const Error& e) {
      // Malformed input is the client's fault: 400 and hang up (the read
      // position inside the bad message is unrecoverable).
      Response bad;
      bad.status = 400;
      bad.reason = std::string(reason_phrase(400));
      bad.headers.set("Connection", "close");
      bad.set_body(e.what());
      queue_response(s, fd, send_response(*conn.stream, std::move(bad)),
                     /*close_after=*/true);
      return s.conns.count(fd) > 0;
    }
    if (!request) {
      arm_read_deadline(conn);
      return true;
    }
    conn.request_wants_close =
        request->headers.get("Connection").value_or("") == "close";
    dispatch(s, fd, std::move(*request));
    return s.conns.count(fd) > 0;
  }

  // sbqlint:affine(event-shard)
  void dispatch(Shard& s, int fd, Request&& request) {
    Connection& conn = *s.conns.at(fd);
    bool admitted = false;
    std::size_t depth = 0;
    {
      std::lock_guard lock(dispatch_mu);
      if (!jobs_closed && jobs.size() < options.queue_depth) {
        jobs.push_back(
            Job{&s, fd, conn.gen, std::move(request), conn.stream.get()});
        depth = jobs.size();
        admitted = true;
      }
    }
    if (!admitted) {
      // The worker queue is full (or closed by a drain): shed before the
      // handler pays any decode cost.
      counters.shed.fetch_add(1);
      queue_response(s, fd,
                     send_response(*conn.stream,
                                   make_shed_response(options.shed_retry_after_s)),
                     /*close_after=*/true);
      return;
    }
    Counters::raise(counters.queue_high_water, depth);
    conn.state = ConnState::kDispatching;
    conn.deadline_ns = 0;  // the bounded pool, not the peer, sets the pace
    conn.exchange_in_flight = true;
    exchanges_in_flight.fetch_add(1);
    s.poller.modify(fd, /*read=*/false, /*write=*/false);
    dispatch_cv.notify_one();
  }

  /// Takes over a response the send routine has already tried once. One
  /// that went out whole ends the exchange; a residue drains on POLLOUT
  /// under the write-stall deadline.
  // sbqlint:affine(event-shard)
  void queue_response(Shard& s, int fd, Outgoing&& out, bool close_after) {
    Connection& conn = *s.conns.at(fd);
    conn.state = ConnState::kWriting;
    if (out.failed) {
      close_connection(s, fd);
      return;
    }
    conn.close_after_write =
        close_after || conn.request_wants_close ||
        out.response.headers.get("Connection").value_or("") == "close";
    conn.out = std::move(out);
    if (conn.out.sent == conn.out.wire.size()) {
      finish_exchange(s, fd);
      return;
    }
    conn.deadline_ns = options.write_timeout_us > 0
                           ? steady_now_ns() + options.write_timeout_us * 1000
                           : 0;
    s.poller.modify(fd, /*read=*/false, /*write=*/true);
  }

  /// Drains as much of the residue as the kernel will take.
  // sbqlint:affine(event-shard)
  void flush_writes(Shard& s, int fd) {
    Connection& conn = *s.conns.at(fd);
    bool would_block = false;
    std::size_t n = 0;
    try {
      n = conn.stream->write_chain_some(conn.out.wire, conn.out.sent,
                                        would_block);
    } catch (const TransportError&) {
      close_connection(s, fd);
      return;
    }
    conn.out.sent += n;
    if (conn.out.sent < conn.out.wire.size()) {
      // Partial write: resume on the next POLLOUT. Progress re-arms the
      // write-stall deadline; zero progress lets it keep counting down.
      if (n > 0 && options.write_timeout_us > 0) {
        conn.deadline_ns = steady_now_ns() + options.write_timeout_us * 1000;
      }
      return;
    }
    finish_exchange(s, fd);
  }

  /// The response is fully handed to the kernel: close, or go back to
  /// reading.
  // sbqlint:affine(event-shard)
  void finish_exchange(Shard& s, int fd) {
    Connection& conn = *s.conns.at(fd);
    if (conn.exchange_in_flight) {
      exchanges_in_flight.fetch_sub(1);
      conn.exchange_in_flight = false;
    }
    if (conn.close_after_write) {
      close_connection(s, fd);
      return;
    }
    conn.state = ConnState::kReading;
    conn.out = Outgoing{};
    conn.request_wants_close = false;
    s.poller.modify(fd, /*read=*/true, /*write=*/false);
    arm_read_deadline(conn);
    // A pipelined next request may already be sitting in the parse buffer.
    advance_parse(s, fd);
  }

  // sbqlint:affine(event-shard)
  void deliver_completions(Shard& s) {
    std::vector<Completion> batch;
    {
      std::lock_guard lock(s.completion_mu);
      batch.swap(s.completions);
    }
    for (Completion& done : batch) {
      auto it = s.conns.find(done.fd);
      if (it == s.conns.end() || it->second->gen != done.gen) {
        // Defence in depth: a dispatched connection is never erased, so
        // its completion always finds it. Were it gone, the exchange would
        // end here.
        exchanges_in_flight.fetch_sub(1);
        continue;
      }
      Connection& conn = *it->second;
      conn.state = ConnState::kWriting;  // the write side is the shard's again
      if (conn.detached) {
        close_connection(s, done.fd);  // the peer hung up while its handler ran
        continue;
      }
      if (!done.written) {
        done.out = send_response(*conn.stream, std::move(done.out.response));
      }
      queue_response(s, done.fd, std::move(done.out), /*close_after=*/false);
    }
  }

  // sbqlint:affine(event-shard)
  void arm_read_deadline(Connection& conn) const {
    const std::uint64_t timeout_us =
        conn.reader.phase() == MessageReader::Phase::kBody
            ? options.read_timeout_us
            : options.idle_timeout_us;
    conn.deadline_ns = timeout_us > 0 ? steady_now_ns() + timeout_us * 1000 : 0;
  }

  // sbqlint:affine(event-shard)
  void expire_deadlines(Shard& s) {
    const std::uint64_t now = steady_now_ns();
    std::vector<int> expired;
    for (const auto& [fd, conn] : s.conns) {
      if (conn->deadline_ns != 0 && conn->deadline_ns <= now) {
        expired.push_back(fd);
      }
    }
    // Expiry means the *peer* stalled (idle keep-alive, trickled message,
    // or unread response); the connection is dropped.
    for (const int fd : expired) close_connection(s, fd);
  }

  /// Closes and forgets a connection — except a dispatched one, whose
  /// worker owns the socket's write side until its completion is
  /// delivered: closing now could hand the fd number to a new connection
  /// under the worker's write. That one only leaves the poller (a
  /// level-triggered EPOLLHUP would otherwise spin) and closes on delivery.
  // sbqlint:affine(event-shard)
  void close_connection(Shard& s, int fd) {
    auto it = s.conns.find(fd);
    if (it == s.conns.end()) return;
    Connection& conn = *it->second;
    if (!conn.detached) s.poller.remove(fd);
    if (conn.state == ConnState::kDispatching) {
      conn.detached = true;
      return;
    }
    if (conn.exchange_in_flight) exchanges_in_flight.fetch_sub(1);
    conn.stream->close();
    s.conns.erase(it);
    live_connections.fetch_sub(1);
  }

  // sbqlint:affine(event-shard)
  void teardown(Shard& s) {
    const bool drain = drain_mode.load();
    std::vector<int> fds;
    fds.reserve(s.conns.size());
    for (const auto& [fd, conn] : s.conns) {
      (void)conn;
      fds.push_back(fd);
    }
    for (const int fd : fds) {
      if (drain) counters.forced_closes.fetch_add(1);
      Connection& conn = *s.conns.at(fd);
      // A dispatched connection's worker may still write: shutting the
      // socket makes that write fail cleanly, and shutdown() closes the fd
      // once every worker is joined.
      if (conn.state == ConnState::kDispatching) conn.stream->shutdown_io();
      close_connection(s, fd);
    }
  }

  // ---------------------------------------------------------- worker pool

  void worker_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock lock(dispatch_mu);
        dispatch_cv.wait(lock, [this] { return !jobs.empty() || jobs_closed; });
        if (jobs.empty()) return;  // queue closed and drained
        job = std::move(jobs.front());
        jobs.pop_front();
      }
      // peak_in_flight is handler-pool occupancy (bounded by `workers`),
      // not exchanges awaiting their response flush — those are drain
      // bookkeeping, not load.
      const std::size_t busy = handlers_busy.fetch_add(1) + 1;
      Counters::raise(counters.peak_in_flight, busy);
      Response response;
      try {
        response = handler(job.request);
      } catch (const std::exception& e) {
        response = Response{};
        response.status = 500;
        response.reason = std::string(reason_phrase(500));
        response.set_body(e.what());
      } catch (...) {  // sbqlint:allow(no-swallow): converted to a canned 500 + ServerStats::worker_errors
        counters.worker_errors.fetch_add(1);
        response = Response{};
        response.status = 500;
        response.reason = std::string(reason_phrase(500));
        response.set_body("non-standard exception escaped handler");
      }
      handlers_busy.fetch_sub(1);
      hand_back(job, std::move(response));
    }
  }

  /// The worker's end of an exchange: the response goes straight to the
  /// socket, so the client has its reply before the shard wakes; the
  /// completion then only tells the shard what is left to do. A response
  /// written mid-drain says `Connection: close`, and the shard closes the
  /// connection once it is sent.
  // sbqlint:affine(worker)
  void hand_back(Job& job, Response&& response) {
    if (draining.load()) response.headers.set("Connection", "close");
    Completion done;
    done.fd = job.fd;
    done.gen = job.gen;
    done.out = send_response(*job.direct_stream, std::move(response));
    done.written = true;
    post(*job.shard, std::move(done));
  }

  /// Queues `done` for its shard and wakes the shard's poller — the only
  /// Poller call made off the shard thread.
  void post(Shard& s, Completion&& done) {
    {
      std::lock_guard lock(s.completion_mu);
      s.completions.push_back(std::move(done));
    }
    s.poller.wake();
  }

  // ------------------------------------------------------------- shutdown

  void shutdown(std::uint64_t drain_deadline_us) {
    if (shutdown_started.exchange(true)) return;
    const bool drain = drain_deadline_us > 0;
    drain_mode.store(drain);
    draining.store(true);  // in-flight responses get Connection: close
    if (drain) counters.drains.fetch_add(1);
    accept_closed.store(true);
    for (auto& s : shards) s->poller.wake();

    // Requests parsed but never dispatched get the canned 503 (with
    // Connection: close) rather than silence.
    std::deque<Job> unserved;
    {
      std::lock_guard lock(dispatch_mu);
      jobs_closed = true;
      unserved.swap(jobs);
    }
    dispatch_cv.notify_all();
    for (Job& job : unserved) {
      Completion done;
      done.fd = job.fd;
      done.gen = job.gen;
      done.out.response = make_shed_response(options.shed_retry_after_s);
      post(*job.shard, std::move(done));
    }

    if (drain) {
      // Let in-flight exchanges finish (handler + response drain), but only
      // until the deadline; whatever is left gets force-closed below.
      const std::uint64_t deadline_ns =
          steady_now_ns() + drain_deadline_us * 1000;
      while (exchanges_in_flight.load() > 0 && steady_now_ns() < deadline_ns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    stopping.store(true);
    for (auto& s : shards) s->poller.wake();
    for (auto& s : shards) {
      if (s->thread.joinable()) s->thread.join();
    }
    for (auto& w : workers) {
      if (w.joinable()) w.join();
    }
    // Only connections dispatched at teardown outlive it, shut down but
    // not closed; with every worker joined nothing writes to them now.
    for (auto& s : shards) {
      live_connections.fetch_sub(s->conns.size());
      s->conns.clear();
    }
  }

  // ----------------------------------------------------------- load signal

  ServerLoad load() {
    ServerLoad snapshot;
    {
      std::lock_guard lock(dispatch_mu);
      snapshot.queue_depth = jobs.size();
    }
    snapshot.queue_capacity = options.queue_depth;
    // in_flight means handlers running now (≤ workers), not exchanges
    // awaiting a response flush.
    snapshot.in_flight = handlers_busy.load();
    snapshot.workers = options.workers;
    snapshot.runtimes = shards.size();
    snapshot.connections = live_connections.load();
    std::size_t pending = 0;
    for (const auto& s : shards) pending += s->last_batch.load();
    snapshot.pending_events = pending;
    return snapshot;
  }

  // --------------------------------------------------------------- members

  Handler handler;
  ServerOptions options;
  Counters counters;
  std::atomic<bool> draining{false};  // in-flight responses get Connection: close

  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::thread> workers;

  std::mutex dispatch_mu;
  std::condition_variable dispatch_cv;
  std::deque<Job> jobs;      // sbqlint:guarded_by(dispatch_mu)
  bool jobs_closed = false;  // sbqlint:guarded_by(dispatch_mu)

  std::atomic<std::uint64_t> next_gen{1};
  std::atomic<std::size_t> live_connections{0};
  std::atomic<std::size_t> exchanges_in_flight{0};
  std::atomic<std::size_t> handlers_busy{0};
  std::atomic<bool> accept_closed{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> drain_mode{false};
  std::atomic<bool> shutdown_started{false};
};

Server::Server(std::uint16_t port, Handler handler, ServerOptions options)
    : impl_(std::make_unique<Impl>(port, std::move(handler), options)) {}

Server::~Server() {
  shutdown();
}

std::uint16_t Server::port() const {
  return impl_->port_;
}

void Server::shutdown(std::uint64_t drain_deadline_us) {
  impl_->shutdown(drain_deadline_us);
}

ServerLoad Server::load() const {
  return impl_->load();
}

ServerStats Server::stats() const {
  return impl_->counters.snapshot();
}

std::size_t Server::tracked_connections() const {
  return impl_->live_connections.load();
}

bool Server::draining() const {
  return impl_->draining.load();
}

}  // namespace sbq::http
