// Real TCP sockets (POSIX) behind the Stream interface.
//
// Used by the examples and the end-to-end integration tests; benchmark
// harnesses use the deterministic link models instead. Besides the blocking
// Stream surface, TcpStream/TcpListener expose a non-blocking side —
// set_nonblocking(), read_some_nonblocking(), write_chain_some(),
// try_accept(), fd() — which is what the event-driven serving front
// (http::Server + net::Poller) drives; blocking callers never see it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "net/stream.h"

namespace sbq::net {

/// Connected TCP socket.
class TcpStream final : public Stream {
 public:
  /// Connects to host:port (IPv4 dotted or "localhost").
  static std::unique_ptr<TcpStream> connect(const std::string& host, std::uint16_t port);

  /// Wraps an already-connected file descriptor (takes ownership).
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream() override;

  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  std::size_t read_some(void* buf, std::size_t n) override;
  void write_all(const void* buf, std::size_t n) override;
  using Stream::write_all;
  /// Read deadline via poll(2) before each read; expiry throws TimeoutError.
  void set_read_timeout_us(std::uint64_t timeout_us) override {
    read_timeout_us_ = timeout_us;
  }
  [[nodiscard]] std::uint64_t read_timeout_us() const override {
    return read_timeout_us_;
  }
  /// Write deadline: with a non-zero deadline every write_all/write_chain
  /// sends non-blockingly and polls for POLLOUT between attempts, so a peer
  /// that stops draining its receive window surfaces as TimeoutError instead
  /// of parking the writer forever. The deadline re-arms whenever the kernel
  /// accepts bytes — it bounds *stall*, not total transfer time, so a slow
  /// but live peer never trips it. 0 (default) = block forever.
  void set_write_timeout_us(std::uint64_t timeout_us) {
    write_timeout_us_ = timeout_us;
  }
  [[nodiscard]] std::uint64_t write_timeout_us() const {
    return write_timeout_us_;
  }
  /// Vectored send: the whole chain goes to the kernel in sendmsg() batches,
  /// so multi-segment messages need neither a user-space concatenation nor
  /// one syscall per segment.
  ///
  /// Every send path passes MSG_NOSIGNAL: writing to a connection the peer
  /// has reset (or this process has shut down) throws TransportError
  /// instead of raising SIGPIPE, which would kill the process.
  void write_chain(const BufferChain& chain) override;
  void close() override;

  /// shutdown(SHUT_RDWR) without closing the descriptor: the peer sees EOF
  /// and any write still running on another thread fails cleanly, while
  /// the fd number stays taken until close().
  void shutdown_io();

  // --- non-blocking surface (event front) ---------------------------------

  /// The underlying descriptor (-1 once closed) for readiness registration.
  [[nodiscard]] int fd() const { return fd_.load(); }

  /// Switches the socket between blocking and O_NONBLOCK modes.
  void set_nonblocking(bool enabled);

  /// One non-blocking read attempt. Returns the byte count read; 0 with
  /// `would_block` set means no bytes were available, 0 with it clear means
  /// EOF. Throws TransportError on failure.
  std::size_t read_some_nonblocking(void* buf, std::size_t n, bool& would_block);

  /// One non-blocking vectored write of `chain` starting at absolute byte
  /// offset `from`; returns the bytes accepted by the kernel this call
  /// (possibly 0 with `would_block` set). The caller resumes with
  /// `from + returned` once the poller reports writability again.
  std::size_t write_chain_some(const BufferChain& chain, std::size_t from,
                               bool& would_block);

 private:
  /// Polls for writability until `deadline_ns`; throws TimeoutError on expiry.
  void wait_writable(int fd, std::uint64_t deadline_ns) const;

  // Atomic because close() may race an I/O call on another thread; each
  // I/O call snapshots the descriptor once.
  std::atomic<int> fd_{-1};
  std::uint64_t read_timeout_us_ = 0;
  std::uint64_t write_timeout_us_ = 0;
};

/// Listening socket bound to 127.0.0.1.
class TcpListener {
 public:
  struct Options {
    /// SO_REUSEPORT: lets N listeners bind the same port, each receiving an
    /// accept shard from the kernel.
    bool reuse_port = false;
    /// O_NONBLOCK on the listening socket (accept via try_accept()).
    bool nonblocking = false;
    /// listen(2) backlog.
    int backlog = 64;
  };

  /// Binds and listens; `port` 0 picks an ephemeral port.
  explicit TcpListener(std::uint16_t port) : TcpListener(port, Options{}) {}
  TcpListener(std::uint16_t port, const Options& options);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Blocks for the next connection; returns nullptr once closed.
  std::unique_ptr<TcpStream> accept();

  /// Non-blocking accept: a connection if one is pending, else nullptr with
  /// `would_block` set. nullptr with `would_block` clear means the listener
  /// is closed. (On a blocking listener this still blocks like accept().)
  std::unique_ptr<TcpStream> try_accept(bool& would_block);

  /// Port actually bound (after ephemeral resolution).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// The listening descriptor (-1 once closed) for readiness registration.
  [[nodiscard]] int fd() const { return fd_.load(); }

  /// Unblocks pending accept() calls and closes the socket.
  void close();

 private:
  // Atomic: close() may run from another thread while one is blocked in
  // (or entering) accept().
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace sbq::net
