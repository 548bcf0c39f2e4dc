#include "net/poller.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/error.h"

namespace sbq::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

epoll_event one_shot(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLONESHOT | (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  return ev;
}

}  // namespace

Poller::Poller() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw_errno("eventfd");
  }
  // Level-triggered and never read: once wake() has made it readable,
  // every wait() reports it.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw_errno("epoll_ctl(wake)");
  }
}

Poller::~Poller() {
  ::close(epoll_fd_);
  ::close(wake_fd_);
}

void Poller::add(int fd, bool want_read, bool want_write) {
  if (fd < 0) throw TransportError("Poller::add on negative fd");
  epoll_event ev = one_shot(fd, want_read, want_write);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(add)");
  }
  ++watched_;
}

void Poller::modify(int fd, bool want_read, bool want_write) {
  epoll_event ev = one_shot(fd, want_read, want_write);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(mod)");
  }
}

void Poller::remove(int fd) {
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    throw_errno("epoll_ctl(del)");
  }
  --watched_;
}

std::optional<PollEvent> Poller::wait(int timeout_ms) {
  epoll_event event{};
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, &event, 1, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) throw_errno("epoll_wait");
  if (n == 0 || event.data.fd == wake_fd_) return std::nullopt;
  PollEvent ev;
  ev.fd = event.data.fd;
  ev.readable = (event.events & EPOLLIN) != 0;
  ev.writable = (event.events & EPOLLOUT) != 0;
  ev.hangup = (event.events & (EPOLLERR | EPOLLHUP)) != 0;
  return ev;
}

void Poller::wake() {
  const std::uint64_t one = 1;
  // EAGAIN (counter saturated) still leaves the eventfd readable.
  [[maybe_unused]] const ssize_t w = ::write(wake_fd_, &one, sizeof one);
}

}  // namespace sbq::net
