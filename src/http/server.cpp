// http::Server: the serving pool (docs/event-front.md).
//
// One pool of `workers + runtimes` identical threads serves every
// connection. All of them wait on the server's one net::Poller, where the
// listener and every connection are armed one-shot, so a readiness event
// reaches exactly one thread, and that thread owns the connection until it
// re-arms it. The owner reads and parses the request straight into the
// parser's buffers (MessageReader::read_space / try_next_request). If
// fewer than `workers` handlers are running it runs the handler itself,
// writes the response with one non-blocking gather write, and re-arms the
// connection: read interest for the next request, or write interest to
// drain a residue. Otherwise the parsed request waits in a bounded queue,
// and the next thread to finish a handler takes the oldest one before it
// waits again. So at most `workers` threads run handlers and `runtimes`
// threads always stay free to accept, shed and drain; a request crosses
// threads only when it had to queue.
//
// The overload ladder: arrivals past `max_connections`, and parsed requests
// past `queue_depth`, get the canned 503 + Retry-After;
// shutdown(drain_deadline_us) answers queued requests with the 503, lets
// running exchanges finish with `Connection: close`, and force-closes
// stragglers only past the deadline.

#include "http/server.h"

#include <chrono>
#include <climits>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "net/poller.h"
#include "net/tcp.h"

namespace sbq::http {

namespace {
constexpr int kListenBacklog = 256;
constexpr std::uint64_t kNoDeadline = std::numeric_limits<std::uint64_t>::max();

/// The atomic counterparts of ServerStats, bumped lock-free from every
/// pool thread.
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
  /// A serialized response and how far into the socket it got.
  struct Outgoing {
    Response response;     // owns the body while `wire` drains
    BufferChain wire;      // serialized response (shares `response`'s body)
    std::size_t sent = 0;  // bytes of `wire` already accepted by the kernel
    bool failed = false;   // the socket refused the write; close it
  };

  /// One client connection. It has one owner at a time — the pool thread
  /// holding its one-shot readiness event, or the exchange admitted on it,
  /// queued or running — and only the owner touches it. The owner gives it
  /// up by re-arming it in the poller and setting `armed`; a thread takes
  /// it by clearing `armed`. Both happen under `conns_mu`, so a readiness
  /// event, a deadline expiry and shutdown can race for a connection and
  /// only one of them ever acts on it.
  struct Connection {
    Connection(std::unique_ptr<net::TcpStream> s, const ParserLimits& limits)
        : stream(std::move(s)), fd(stream->fd()), reader(*stream, limits) {}

    std::unique_ptr<net::TcpStream> stream;
    const int fd;
    MessageReader reader;
    Outgoing out;              // the response being sent
    bool writing = false;      // `out` has not been fully sent yet
    bool close_after_write = false;  // set early by `Connection: close`
    bool exchange_in_flight = false;      // counted in exchanges_in_flight
    std::uint64_t stall_deadline_ns = 0;  // write-progress deadline; 0 = none

    bool armed = false;             // sbqlint:guarded_by(conns_mu)
    bool missed = false;            // sbqlint:guarded_by(conns_mu)
    std::uint64_t deadline_ns = 0;  // sbqlint:guarded_by(conns_mu)
  };

  /// A parsed request admitted on its connection and, once it has run, its
  /// response. It owns the connection from admission until next_after()
  /// takes the response over.
  struct Exchange {
    Connection* conn = nullptr;
    Request request;
    Outgoing out;
  };

  enum class Admission { kRun, kQueued, kShed };

  /// The one send routine, for handler responses and the canned 400 and
  /// 503 alike: serialise, make one non-blocking gather write, and return
  /// what the kernel did not take as the residue (`wire` from `sent`).
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
    for (const std::uint64_t us :
         {options.idle_timeout_us, options.read_timeout_us, options.write_timeout_us}) {
      if (us > 0) {
        wait_cap_ms = static_cast<int>(std::min<std::uint64_t>(
            wait_cap_ms, std::max<std::uint64_t>(us / 1000, 1)));
      }
    }

    net::TcpListener::Options lopts;
    lopts.nonblocking = true;
    lopts.backlog = kListenBacklog;
    listener = std::make_unique<net::TcpListener>(port, lopts);
    port_ = listener->port();
    listener_fd = listener->fd();
    listener_armed = true;
    poller.add(listener_fd, /*read=*/true, /*write=*/false);
    pool.reserve(options.workers + options.runtimes);
    for (std::size_t i = 0; i < options.workers + options.runtimes; ++i) {
      pool.emplace_back([this] { pool_loop(); });
    }
  }

  /// A pool thread: a poll step and an exchange, in turn, until shutdown.
  void pool_loop() {
    Exchange ex;
    while (poll_step(ex)) run_exchange(ex);
  }

  // ------------------------------------------------------------ poll step
  //
  // Everything from here down to run_exchange() is the poll step: it may
  // block only in the poller's wait. The sbqlint:affine(poll) annotations
  // make the analyzer prove that the exchange half never reaches it.

  /// Finishes the exchange this thread just ran, if any, then finds the
  /// next one: a pipelined request on the same connection, the oldest
  /// queued request, or a readiness event. Events that yield no exchange —
  /// accepts, partial reads, residue drains, hang-ups — are served on the
  /// way, and expired deadlines are swept. Returns false once the server
  /// stops.
  // sbqlint:affine(poll)
  bool poll_step(Exchange& ex) {
    if (ex.conn != nullptr && next_after(ex)) return true;
    while (!stopping.load()) {
      const std::uint64_t due = next_deadline_ns.load();
      if (due != kNoDeadline && steady_now_ns() >= due) expire_deadlines();
      const std::optional<net::PollEvent> event = poller.wait(wait_timeout_ms());
      if (!event) continue;  // timeout or shutdown wake
      events_in_hand.fetch_add(1);
      const bool run = serve_event(*event, ex);
      events_in_hand.fetch_sub(1);
      if (run) return true;
    }
    return false;
  }

  /// Poller timeout to the nearest connection deadline, capped at the
  /// shortest configured timeout (-1 = no deadlines). Another thread may arm
  /// a nearer deadline while this one waits; a deadline lies at least that
  /// far ahead of its arming, so any waiting thread wakes in time to see it.
  // sbqlint:affine(poll)
  int wait_timeout_ms() const {
    const std::uint64_t due = next_deadline_ns.load();
    if (due == kNoDeadline) return wait_cap_ms;
    const std::uint64_t now = steady_now_ns();
    if (due <= now) return 0;
    return static_cast<int>(std::min<std::uint64_t>(
        (due - now + 999'999) / 1'000'000, static_cast<std::uint64_t>(wait_cap_ms)));
  }

  /// Serves one readiness event. Returns true with `ex` filled when it
  /// yields a request this thread runs now.
  // sbqlint:affine(poll)
  bool serve_event(const net::PollEvent& event, Exchange& ex) {
    if (event.fd == listener_fd) {
      bool mine = false;
      {
        std::lock_guard lock(conns_mu);
        mine = std::exchange(listener_armed, false);  // unless shutdown closed it
      }
      if (mine) accept_ready();
      return false;
    }
    Connection* conn = take(event.fd);
    if (conn == nullptr) return false;
    if (conn->writing && !flush(*conn)) return false;
    std::optional<Request> request = resume(*conn, /*read=*/!conn->writing);
    if (!request) return false;
    const Admission admission = admit(*conn, std::move(*request), ex);
    // The queue is full (or closed by a drain): shed before the handler
    // pays any decode cost.
    if (admission == Admission::kShed) shed(*conn);
    return admission == Admission::kRun;
  }

  /// Takes the connection a readiness event named, if it is armed: the
  /// event's thread becomes its owner. An event for a connection that is
  /// owned is recorded in `missed`, so the owner re-arms it once more
  /// before it parks; one for a closed fd is dropped.
  // sbqlint:affine(poll)
  Connection* take(int fd) {
    std::lock_guard lock(conns_mu);
    const auto it = conns.find(fd);
    if (it == conns.end()) return nullptr;
    Connection& conn = *it->second;
    if (!conn.armed) {
      conn.missed = true;
      return nullptr;
    }
    conn.armed = false;
    return &conn;
  }

  /// Gives an owned connection back to the poller, armed one-shot for read
  /// or write interest under the matching deadline. A readiness event that
  /// came while the connection was owned found it unarmed and was dropped;
  /// re-arming once more makes the poller report that readiness again.
  // sbqlint:affine(poll)
  void arm(Connection& conn, bool write) {
    std::uint64_t deadline = conn.stall_deadline_ns;
    if (!write) {
      const std::uint64_t timeout_us =
          conn.reader.phase() == MessageReader::Phase::kBody
              ? options.read_timeout_us
              : options.idle_timeout_us;
      deadline = timeout_us > 0 ? steady_now_ns() + timeout_us * 1000 : 0;
    }
    for (;;) {
      poller.modify(conn.fd, /*read=*/!write, /*write=*/write);
      std::lock_guard lock(conns_mu);
      if (conn.missed) {
        conn.missed = false;
        continue;
      }
      conn.armed = true;
      conn.deadline_ns = deadline;
      if (deadline != 0 && deadline < next_deadline_ns.load()) {
        next_deadline_ns.store(deadline);
      }
      return;
    }
  }

  /// Drives an owned connection until it parks — re-armed, or closed — or
  /// yields its next request, which the caller admits. `read` lets it read
  /// the socket first: a readiness event said bytes are there.
  // sbqlint:affine(poll)
  std::optional<Request> resume(Connection& conn, bool read) {
    for (;;) {
      if (conn.writing) {
        if (conn.out.sent < conn.out.wire.size()) {
          arm(conn, /*write=*/true);
          return std::nullopt;
        }
        if (!end_exchange(conn)) return std::nullopt;
      }
      try {
        if (std::optional<Request> request = conn.reader.try_next_request()) {
          conn.close_after_write =
              request->headers.get("Connection").value_or("") == "close";
          return request;
        }
      } catch (const Error& e) {
        // Malformed input is the client's fault: 400 and hang up (the read
        // position inside the bad message is unrecoverable).
        Response bad;
        bad.status = 400;
        bad.reason = std::string(reason_phrase(400));
        bad.headers.set("Connection", "close");
        bad.set_body(e.what());
        refuse(conn, std::move(bad));
        return std::nullopt;
      }
      if (!read) {
        arm(conn, /*write=*/false);
        return std::nullopt;
      }
      // One non-blocking read, straight into the parser's buffers.
      const std::span<std::uint8_t> space = conn.reader.read_space();
      bool would_block = false;
      std::size_t n = 0;
      try {
        n = conn.stream->read_some_nonblocking(space.data(), space.size(), would_block);
      } catch (const TransportError&) {
        n = 0;  // a read error ends the connection like EOF
      }
      conn.reader.commit(n);
      read = !would_block;
      if (n == 0 && !would_block) {
        // EOF — clean between messages or truncation inside one; either way
        // there is nothing to answer on this connection anymore.
        close_connection(conn);
        return std::nullopt;
      }
    }
  }

  /// Drains as much of the residue as the kernel will take. Returns false
  /// when the write failed and the connection closed.
  // sbqlint:affine(poll)
  bool flush(Connection& conn) {
    bool would_block = false;
    std::size_t n = 0;
    try {
      n = conn.stream->write_chain_some(conn.out.wire, conn.out.sent, would_block);
    } catch (const TransportError&) {
      close_connection(conn);
      return false;
    }
    conn.out.sent += n;
    // Progress re-arms the write-stall deadline; zero progress lets it keep
    // counting down.
    if (n > 0 && options.write_timeout_us > 0) {
      conn.stall_deadline_ns = steady_now_ns() + options.write_timeout_us * 1000;
    }
    return true;
  }

  /// Takes over a response the send routine has already tried once; the
  /// next resume() ends the exchange if it went out whole, or drains the
  /// residue under write interest and the write-stall deadline. Returns
  /// false when the write failed and the connection closed.
  // sbqlint:affine(poll)
  bool take_response(Connection& conn, Outgoing&& out, bool close_after) {
    if (out.failed) {
      close_connection(conn);
      return false;
    }
    conn.close_after_write =
        close_after || conn.close_after_write ||
        out.response.headers.get("Connection").value_or("") == "close";
    conn.out = std::move(out);
    conn.writing = true;
    conn.stall_deadline_ns =
        options.write_timeout_us > 0 && conn.out.sent < conn.out.wire.size()
            ? steady_now_ns() + options.write_timeout_us * 1000
            : 0;
    return true;
  }

  /// Answers an owned connection with a canned response and hangs up once
  /// it is sent.
  // sbqlint:affine(poll)
  void refuse(Connection& conn, Response&& response) {
    if (take_response(conn, send_response(*conn.stream, std::move(response)),
                      /*close_after=*/true)) {
      (void)resume(conn, /*read=*/false);
    }
  }

  // sbqlint:affine(poll)
  void shed(Connection& conn) {
    counters.shed.fetch_add(1);
    refuse(conn, make_shed_response(options.shed_retry_after_s));
  }

  /// The response is fully handed to the kernel: close, or go back to
  /// reading. Returns false when the connection closed.
  // sbqlint:affine(poll)
  bool end_exchange(Connection& conn) {
    if (conn.close_after_write) {
      close_connection(conn);
      return false;
    }
    if (conn.exchange_in_flight) {
      exchanges_in_flight.fetch_sub(1);
      conn.exchange_in_flight = false;
    }
    conn.writing = false;
    conn.out = Outgoing{};
    return true;
  }

  /// Admits a parsed request on an owned connection: this thread runs it
  /// now if a handler slot is free and nothing is queued ahead of it;
  /// otherwise it waits in the bounded queue, or is shed past it.
  // sbqlint:affine(poll)
  Admission admit(Connection& conn, Request&& request, Exchange& ex) {
    std::lock_guard lock(queue_mu);
    if (jobs_closed) return Admission::kShed;
    const bool run = jobs.empty() && running < options.workers;
    if (!run && jobs.size() >= options.queue_depth) return Admission::kShed;
    conn.exchange_in_flight = true;
    exchanges_in_flight.fetch_add(1);
    if (run) {
      ++running;
      ex.conn = &conn;
      ex.request = std::move(request);
      return Admission::kRun;
    }
    jobs.push_back(Exchange{&conn, std::move(request), {}});
    Counters::raise(counters.queue_high_water, jobs.size());
    return Admission::kQueued;
  }

  /// Ends the exchange this thread just ran and picks its next one, keeping
  /// its handler slot: a pipelined request already buffered on the same
  /// connection joins the queue's tail, and the thread takes the queue's
  /// head (that request itself when nothing was queued). With neither, it
  /// gives the slot back. Returns true with `ex` refilled when it has an
  /// exchange to run.
  // sbqlint:affine(poll)
  bool next_after(Exchange& ex) {
    Connection& conn = *ex.conn;
    std::optional<Request> next;
    if (take_response(conn, std::move(ex.out), /*close_after=*/false)) {
      next = resume(conn, /*read=*/false);
    }
    ex = Exchange{};
    bool shed_next = false;
    {
      std::lock_guard lock(queue_mu);
      if (next && jobs_closed) {
        shed_next = true;
      } else if (next) {
        conn.exchange_in_flight = true;
        exchanges_in_flight.fetch_add(1);
        jobs.push_back(Exchange{&conn, std::move(*next), {}});
      }
      if (jobs.empty()) {
        --running;
      } else {
        ex = std::move(jobs.front());
        jobs.pop_front();
      }
    }
    if (shed_next) shed(conn);
    return ex.conn != nullptr;
  }

  /// Accepts every pending connection, then re-arms the listener — or
  /// closes it, if shutdown asked for that while this thread held it.
  // sbqlint:affine(poll)
  void accept_ready() {
    for (;;) {
      bool would_block = false;
      std::unique_ptr<net::TcpStream> stream;
      try {
        stream = listener->try_accept(would_block);
      } catch (const TransportError&) {
        break;  // transient accept failure; the next event retries
      }
      if (!stream) break;  // would-block
      add_connection(std::move(stream));
    }
    std::lock_guard lock(conns_mu);
    if (accept_closed) {
      poller.remove(listener_fd);
      listener->close();
      return;
    }
    poller.modify(listener_fd, /*read=*/true, /*write=*/false);
    listener_armed = true;
  }

  // sbqlint:affine(poll)
  void add_connection(std::unique_ptr<net::TcpStream> stream) {
    counters.accepted.fetch_add(1);
    stream->set_nonblocking(true);
    auto owned = std::make_unique<Connection>(std::move(stream), options.limits);
    Connection& conn = *owned;
    const std::size_t live = live_connections.fetch_add(1) + 1;
    Counters::raise(counters.peak_connections, live);
    poller.add(conn.fd, /*read=*/false, /*write=*/false);
    {
      std::lock_guard lock(conns_mu);
      conns.emplace(conn.fd, std::move(owned));
    }
    if (live > options.max_connections || draining.load()) {
      // Admission control: past the cap (or mid-drain) the connection gets
      // the canned 503 before a single request byte is read.
      shed(conn);
      return;
    }
    arm(conn, /*write=*/false);
  }

  /// Drops every armed connection whose deadline has passed — its peer
  /// stalled: an idle keep-alive, a trickled message, or an unread
  /// response — and recomputes the nearest deadline.
  // sbqlint:affine(poll)
  void expire_deadlines() {
    std::vector<Connection*> expired;
    {
      std::lock_guard lock(conns_mu);
      const std::uint64_t now = steady_now_ns();
      std::uint64_t nearest = kNoDeadline;
      for (const auto& [fd, conn] : conns) {
        (void)fd;
        if (!conn->armed || conn->deadline_ns == 0) continue;
        if (conn->deadline_ns <= now) {
          conn->armed = false;
          expired.push_back(conn.get());
        } else {
          nearest = std::min(nearest, conn->deadline_ns);
        }
      }
      next_deadline_ns.store(nearest);
    }
    for (Connection* conn : expired) close_connection(*conn);
  }

  /// Closes and forgets an owned connection.
  // sbqlint:affine(poll)
  void close_connection(Connection& conn) {
    poller.remove(conn.fd);
    std::unique_ptr<Connection> gone;
    {
      std::lock_guard lock(conns_mu);
      const auto it = conns.find(conn.fd);
      gone = std::move(it->second);
      conns.erase(it);
    }
    gone->stream->close();
    if (gone->exchange_in_flight) exchanges_in_flight.fetch_sub(1);
    live_connections.fetch_sub(1);
  }

  // ------------------------------------------------------------- exchange

  /// The pool thread's handler half: runs the handler, then writes the
  /// response with one non-blocking gather write, so the client has its
  /// reply before the thread does anything else. It reaches its connection
  /// only through the exchange, never through the connection table.
  // sbqlint:affine(exchange)
  void run_exchange(Exchange& ex) {
    // peak_in_flight is handler occupancy (bounded by `workers`), not
    // exchanges awaiting their response flush.
    const std::size_t busy = handlers_busy.fetch_add(1) + 1;
    Counters::raise(counters.peak_in_flight, busy);
    Response response;
    try {
      response = handler(ex.request);
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
    // A response written mid-drain says `Connection: close`; the connection
    // closes once it is sent.
    if (draining.load()) response.headers.set("Connection", "close");
    ex.out = send_response(*ex.conn->stream, std::move(response));
  }

  // ------------------------------------------------------------- shutdown

  void shutdown(std::uint64_t drain_deadline_us) {
    if (shutdown_started.exchange(true)) return;
    const bool drain = drain_deadline_us > 0;
    draining.store(true);  // running exchanges answer with Connection: close
    if (drain) counters.drains.fetch_add(1);
    {
      std::lock_guard lock(conns_mu);
      accept_closed = true;
      if (listener_armed) {  // else its owner closes it when done accepting
        listener_armed = false;
        poller.remove(listener_fd);
        listener->close();
      }
    }

    // Requests parsed but never run get the canned 503 (with
    // Connection: close) rather than silence. The queue owned their
    // connections; now this thread does.
    std::deque<Exchange> unserved;
    {
      std::lock_guard lock(queue_mu);
      jobs_closed = true;
      unserved.swap(jobs);
    }
    for (Exchange& job : unserved) {
      refuse(*job.conn, make_shed_response(options.shed_retry_after_s));
    }

    if (drain) {
      // Let running exchanges finish (handler + response drain), but only
      // until the deadline; whatever is left gets force-closed below.
      const std::uint64_t deadline_ns =
          steady_now_ns() + drain_deadline_us * 1000;
      while (exchanges_in_flight.load() > 0 && steady_now_ns() < deadline_ns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    stopping.store(true);
    poller.wake();
    // Force-close what is still open. An owned connection is shut down,
    // not closed: its owner may still write to it, and that write now
    // fails cleanly.
    std::vector<Connection*> idle;
    {
      std::lock_guard lock(conns_mu);
      for (const auto& [fd, conn] : conns) {
        (void)fd;
        if (drain) counters.forced_closes.fetch_add(1);
        if (conn->armed) {
          conn->armed = false;
          idle.push_back(conn.get());
        } else {
          conn->stream->shutdown_io();
        }
      }
    }
    for (Connection* conn : idle) close_connection(*conn);
    for (auto& thread : pool) {
      if (thread.joinable()) thread.join();
    }
    // With every pool thread joined, nothing touches what is left: the
    // connections that were owned during the sweep above.
    std::lock_guard lock(conns_mu);
    live_connections.fetch_sub(conns.size());
    conns.clear();
  }

  // ----------------------------------------------------------- load signal

  ServerLoad load() {
    ServerLoad snapshot;
    {
      std::lock_guard lock(queue_mu);
      snapshot.queue_depth = jobs.size();
    }
    snapshot.queue_capacity = options.queue_depth;
    // in_flight means handlers running now (≤ workers), not exchanges
    // awaiting a response flush.
    snapshot.in_flight = handlers_busy.load();
    snapshot.workers = options.workers;
    snapshot.runtimes = options.runtimes;
    snapshot.connections = live_connections.load();
    snapshot.pending_events = events_in_hand.load();
    return snapshot;
  }

  // --------------------------------------------------------------- members

  Handler handler;
  ServerOptions options;
  Counters counters;
  std::atomic<bool> draining{false};  // in-flight responses get Connection: close

  std::uint16_t port_ = 0;
  net::Poller poller;
  std::unique_ptr<net::TcpListener> listener;
  int listener_fd = -1;
  int wait_cap_ms = INT_MAX;  // shortest configured timeout; INT_MAX = none

  std::mutex conns_mu;
  // sbqlint:affine(poll)
  std::unordered_map<int, std::unique_ptr<Connection>> conns;  // sbqlint:guarded_by(conns_mu)
  bool listener_armed = false;  // sbqlint:guarded_by(conns_mu)
  bool accept_closed = false;   // sbqlint:guarded_by(conns_mu)
  // Nearest armed deadline, written under conns_mu and read lock-free.
  std::atomic<std::uint64_t> next_deadline_ns{kNoDeadline};

  std::mutex queue_mu;
  std::deque<Exchange> jobs;  // sbqlint:guarded_by(queue_mu)
  bool jobs_closed = false;   // sbqlint:guarded_by(queue_mu)
  // Handler slots held: admitted exchanges running or about to run.
  std::size_t running = 0;  // sbqlint:guarded_by(queue_mu)

  std::atomic<std::size_t> live_connections{0};
  std::atomic<std::size_t> exchanges_in_flight{0};
  std::atomic<std::size_t> handlers_busy{0};
  std::atomic<std::size_t> events_in_hand{0};  // readiness events being served
  std::atomic<bool> stopping{false};
  std::atomic<bool> shutdown_started{false};
  std::vector<std::thread> pool;  // last: the threads use every member above
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
