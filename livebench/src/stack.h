// The live stack under test: ClientStub → HttpTransport over loopback TCP →
// http::Server on the event front → ServiceRuntime → the echo operation.
//
// Everything here wraps public APIs from the outside. Two benchmark-owned
// adapters sit on the client side of each connection: a net::Stream that
// counts the HTTP bytes crossing the socket, and a core::Transport that
// times HttpTransport::round_trip when tracing is on. On the server side the
// http::Server handler times ServiceRuntime::handle and the operation times
// itself, both into the calling connection's ServerSlot.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/client.h"
#include "core/service.h"
#include "core/transports.h"
#include "http/server.h"
#include "net/tcp.h"
#include "trace.h"
#include "workload.h"

namespace livebench {

/// Two caller threads, each holding one keep-alive connection.
inline constexpr std::size_t kConnections = 2;

/// Server-side spans of the latest traced call on one connection. Written by
/// the server's worker thread, read by the connection's caller thread after
/// the response arrived; `seq` publishes them.
struct ServerSlot {
  std::atomic<std::uint64_t> handle_start{0};
  std::atomic<std::uint64_t> handle_end{0};
  std::atomic<std::uint64_t> op_start{0};
  std::atomic<std::uint64_t> op_end{0};
  std::atomic<std::uint64_t> seq{0};
};

/// Counts the bytes read from and written to a TCP connection.
class CountingStream final : public sbq::net::Stream {
 public:
  explicit CountingStream(std::unique_ptr<sbq::net::TcpStream> inner)
      : inner_(std::move(inner)) {}

  std::size_t read_some(void* buf, std::size_t n) override {
    const std::size_t got = inner_->read_some(buf, n);
    bytes_in += got;
    return got;
  }
  void write_all(const void* buf, std::size_t n) override {
    inner_->write_all(buf, n);
    bytes_out += n;
  }
  using Stream::write_all;
  void write_chain(const sbq::BufferChain& chain) override {
    inner_->write_chain(chain);
    bytes_out += chain.size();
  }
  void close() override { inner_->close(); }
  void set_read_timeout_us(std::uint64_t timeout_us) override {
    inner_->set_read_timeout_us(timeout_us);
  }
  [[nodiscard]] std::uint64_t read_timeout_us() const override {
    return inner_->read_timeout_us();
  }

  // Touched only by the connection's caller thread; the loop reads them
  // while callers are parked at a phase barrier.
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;

 private:
  std::unique_ptr<sbq::net::TcpStream> inner_;
};

/// HttpTransport plus a round-trip span, recorded while tracing is on.
class TracedTransport final : public sbq::core::Transport {
 public:
  TracedTransport(sbq::net::Stream& stream, const std::atomic<bool>& tracing)
      : inner_(stream), tracing_(tracing) {}

  sbq::http::Response round_trip(const sbq::http::Request& request) override {
    if (!tracing_.load(std::memory_order_relaxed)) return inner_.round_trip(request);
    span.start_ns = now_ns();
    sbq::http::Response response = inner_.round_trip(request);
    span.end_ns = now_ns();
    return response;
  }
  void set_attempt_timeout_us(std::uint64_t timeout_us) override {
    inner_.set_attempt_timeout_us(timeout_us);
  }
  void reconnect() override { inner_.reconnect(); }

  Span span;  // the latest traced round trip

 private:
  sbq::core::HttpTransport inner_;
  const std::atomic<bool>& tracing_;
};

struct Connection {
  std::string client_id;
  std::unique_ptr<CountingStream> stream;
  std::unique_ptr<TracedTransport> transport;
  std::unique_ptr<sbq::core::ClientStub> stub;
};

/// Builds the whole stack, connects both callers, and makes one verified
/// call on each connection; throws if any step or check fails. The
/// destructor closes the connections and shuts the server down.
class LiveStack {
 public:
  LiveStack(const Workload& workload, const std::atomic<bool>& tracing);
  ~LiveStack();

  LiveStack(const LiveStack&) = delete;
  LiveStack& operator=(const LiveStack&) = delete;

  Connection& connection(std::size_t i) { return connections_[i]; }
  ServerSlot& slot(std::size_t i) { return slots_[i]; }
  sbq::core::ServiceRuntime& runtime() { return *runtime_; }
  sbq::http::Server& server() { return *server_; }

 private:
  sbq::http::Response serve(const sbq::http::Request& request);
  ServerSlot* slot_for(const sbq::http::Request& request);

  const std::atomic<bool>& tracing_;
  std::array<ServerSlot, kConnections> slots_;
  std::unique_ptr<sbq::core::ServiceRuntime> runtime_;
  std::unique_ptr<sbq::http::Server> server_;
  std::array<Connection, kConnections> connections_;
};

}  // namespace livebench
