// Readiness notification for the serving pool (docs/event-front.md).
//
// A Poller watches a set of file descriptors and reports which became
// readable or writable — the primitive that lets a few threads serve
// thousands of connections instead of parking one thread per blocking
// read. It is epoll(7), Linux only.
//
// Every registration is one-shot: a report disarms its descriptor until
// modify() re-arms it. Any number of threads may block in wait() on one
// Poller at once, and each wait() takes at most one report, so a ready
// descriptor goes to exactly one thread and cannot reach a second one
// until its owner re-arms it. That is how the serving pool gives each
// connection one owner at a time without a lock around the wait.
//
// wake() is for shutdown: it makes every wait(), now and later, return at
// once.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>

namespace sbq::net {

/// One readiness report. `hangup` covers both error and peer-closed
/// conditions (EPOLLERR/EPOLLHUP): the owner should tear the connection
/// down rather than retry I/O forever.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool hangup = false;
};

class Poller {
 public:
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers `fd`, armed one-shot for the given interest set. A
  /// descriptor with neither interest is registered disarmed, though an
  /// error or hangup may still be reported once.
  void add(int fd, bool want_read, bool want_write);

  /// Re-arms a registered descriptor, one-shot, with a new interest set.
  void modify(int fd, bool want_read, bool want_write);

  /// Stops watching `fd`. Call it before the descriptor is closed.
  void remove(int fd);

  /// Blocks until one armed descriptor is ready, the timeout elapses
  /// (`timeout_ms` < 0 waits forever, 0 polls), or wake() has been called.
  /// Returns that descriptor's report and disarms it; empty on timeout or
  /// wake. Safe to call from many threads at once.
  std::optional<PollEvent> wait(int timeout_ms);

  /// Makes every concurrent and later wait() return at once, empty.
  /// Thread-safe; the server calls it only from shutdown.
  void wake();

  /// Descriptors currently registered (excludes the internal wake channel).
  [[nodiscard]] std::size_t watched() const { return watched_.load(); }

 private:
  // Nothing here belongs to one thread: every pool thread waits on the
  // same Poller and registers, re-arms and removes its own connections.
  // The two descriptors are fixed in the constructor, and the count is
  // atomic, so no member carries a thread-affinity annotation.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd, level-triggered and never drained
  std::atomic<std::size_t> watched_{0};
};

}  // namespace sbq::net
