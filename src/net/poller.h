// Readiness notification for the event-driven serving front.
//
// A Poller watches a set of file descriptors and reports which became
// readable or writable — the primitive that lets one thread own thousands
// of connections instead of parking one thread per blocking read. Two
// backends behind one interface:
//
//   * kEpoll — epoll(7), Linux only; O(ready) wakeups, the production path.
//   * kPoll  — poll(2), portable; O(watched) per wait, and the reference
//     implementation the epoll backend must agree with (tests run both).
//
// wait() can be interrupted from another thread with wake() (eventfd under
// epoll, a self-pipe under poll) — how worker threads hand completed
// responses back to an event runtime blocked in the kernel, and how
// shutdown interrupts every runtime at once.
//
// Thread model: add/modify/remove and wait() belong to the owning runtime
// thread; only wake() is safe to call from anywhere.
#pragma once

#include <cstddef>
#include <vector>

namespace sbq::net {

/// One readiness report. `hangup` covers both error and peer-closed
/// conditions (EPOLLERR/EPOLLHUP, POLLERR/POLLHUP/POLLNVAL): the owner
/// should tear the connection down rather than retry I/O forever.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool hangup = false;
};

class Poller {
 public:
  enum class Backend {
    kAuto,   // epoll where available, poll otherwise
    kPoll,   // portable poll(2) backend
#if defined(__linux__)
    kEpoll,  // epoll(7) backend
#endif
  };

  explicit Poller(Backend backend = Backend::kAuto);
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers `fd` with the given interest set. A descriptor with neither
  /// interest is still watched for hangup/error.
  void add(int fd, bool want_read, bool want_write);

  /// Replaces the interest set of a registered descriptor.
  void modify(int fd, bool want_read, bool want_write);

  /// Stops watching `fd`. Must be called before the descriptor is closed
  /// (a closed fd silently vanishes from epoll but not from the poll set).
  void remove(int fd);

  /// Blocks until at least one descriptor is ready, the timeout elapses
  /// (`timeout_ms` < 0 waits forever, 0 polls), or another thread calls
  /// wake(). A wake-up or timeout may return an empty vector.
  std::vector<PollEvent> wait(int timeout_ms);

  /// Interrupts a concurrent (or the next) wait(). Thread-safe; multiple
  /// wakes before a wait coalesce into one early return.
  void wake();

  /// Descriptors currently registered (excludes the internal wake channel).
  [[nodiscard]] std::size_t watched() const { return watched_; }

 private:
  void drain_wake_channel();

  // add/modify/remove/wait (and the state they touch) belong to the
  // owning runtime thread — the event shard loop; only wake() and the
  // write end it uses are safe to call from anywhere.
  std::size_t watched_ = 0;  // sbqlint:affine(event-shard)
  int epoll_fd_ = -1;    // epoll backend; -1 under poll
  int wake_read_ = -1;   // sbqlint:affine(event-shard)
  int wake_write_ = -1;  // self-pipe write end; == wake_read_ for eventfd

  // poll backend state: the registered interest table, rebuilt into a
  // pollfd array per wait().
  struct Watch {
    int fd;
    bool want_read;
    bool want_write;
  };
  std::vector<Watch> watches_;  // sbqlint:affine(event-shard)
};

}  // namespace sbq::net
