#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/clock.h"
#include "common/error.h"

namespace sbq::net {

namespace {
[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

/// Gathers up to `max_iov` non-empty segments of `chain` into `iov`,
/// starting at segment `seg` with `consumed` bytes of it already sent.
std::size_t gather_iovecs(const BufferChain& chain, std::size_t seg,
                          std::size_t consumed, iovec* iov,
                          std::size_t max_iov) {
  std::size_t count = 0;
  const std::size_t nsegs = chain.segment_count();
  for (std::size_t i = seg; i < nsegs && count < max_iov; ++i) {
    BytesView v = chain.segment(i);
    if (i == seg) v = v.subspan(consumed);
    if (v.empty()) continue;
    iov[count].iov_base = const_cast<std::uint8_t*>(v.data());
    iov[count].iov_len = v.size();
    ++count;
  }
  return count;
}

/// Advances (seg, consumed) by `written` bytes, skipping emptied segments.
void advance_cursor(const BufferChain& chain, std::size_t& seg,
                    std::size_t& consumed, std::size_t written) {
  const std::size_t nsegs = chain.segment_count();
  while (seg < nsegs && written > 0) {
    const std::size_t seg_left = chain.segment(seg).size() - consumed;
    if (written >= seg_left) {
      written -= seg_left;
      ++seg;
      consumed = 0;
    } else {
      consumed += written;
      written = 0;
    }
  }
  while (seg < nsegs && chain.segment(seg).size() == consumed) {
    ++seg;  // skip segments fully sent (covers empty ones too)
    consumed = 0;
  }
}
}  // namespace

std::unique_ptr<TcpStream> TcpStream::connect(const std::string& host,
                                              std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<TcpStream>(fd);
}

TcpStream::~TcpStream() {
  close();
}

std::size_t TcpStream::read_some(void* buf, std::size_t n) {
  const int fd = fd_.load();
  if (fd < 0) throw TransportError("read on closed stream");
  if (read_timeout_us_ > 0) {
    // Wait for readability up to the deadline; the deadline spans the whole
    // wait even when poll() is interrupted by signals.
    const std::uint64_t deadline_ns = steady_now_ns() + read_timeout_us_ * 1000;
    for (;;) {
      const std::uint64_t now_ns = steady_now_ns();
      if (now_ns >= deadline_ns) {
        throw TimeoutError("read deadline expired after " +
                           std::to_string(read_timeout_us_) + "us");
      }
      pollfd pfd{fd, POLLIN, 0};
      const auto left_ms =
          static_cast<int>((deadline_ns - now_ns + 999'999) / 1'000'000);
      const int ready = ::poll(&pfd, 1, left_ms);
      if (ready > 0) break;
      if (ready == 0) {
        throw TimeoutError("read deadline expired after " +
                           std::to_string(read_timeout_us_) + "us");
      }
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
  }
  for (;;) {
    const ssize_t r = ::read(fd, buf, n);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno == EINTR) continue;
    throw_errno("read");
  }
}

std::size_t TcpStream::read_some_nonblocking(void* buf, std::size_t n,
                                             bool& would_block) {
  would_block = false;
  const int fd = fd_.load();
  if (fd < 0) throw TransportError("read on closed stream");
  for (;;) {
    const ssize_t r = ::recv(fd, buf, n, MSG_DONTWAIT);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      would_block = true;
      return 0;
    }
    throw_errno("recv");
  }
}

void TcpStream::wait_writable(int fd, std::uint64_t deadline_ns) const {
  for (;;) {
    const std::uint64_t now_ns = steady_now_ns();
    if (now_ns >= deadline_ns) {
      throw TimeoutError("write deadline expired after " +
                         std::to_string(write_timeout_us_) + "us");
    }
    pollfd pfd{fd, POLLOUT, 0};
    const auto left_ms =
        static_cast<int>((deadline_ns - now_ns + 999'999) / 1'000'000);
    const int ready = ::poll(&pfd, 1, left_ms);
    if (ready > 0) return;
    if (ready == 0) {
      throw TimeoutError("write deadline expired after " +
                         std::to_string(write_timeout_us_) + "us");
    }
    if (errno == EINTR) continue;
    throw_errno("poll");
  }
}

void TcpStream::write_all(const void* buf, std::size_t n) {
  const int fd = fd_.load();
  if (fd < 0) throw TransportError("write on closed stream");
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  // Deadline mode: non-blocking sends with a POLLOUT wait between them,
  // re-armed on every byte of progress (bounds stall, not transfer time).
  const bool deadline_mode = write_timeout_us_ > 0;
  const int flags = MSG_NOSIGNAL | (deadline_mode ? MSG_DONTWAIT : 0);
  std::uint64_t deadline_ns =
      deadline_mode ? steady_now_ns() + write_timeout_us_ * 1000 : 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, p + sent, n - sent, flags);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      if (deadline_mode) deadline_ns = steady_now_ns() + write_timeout_us_ * 1000;
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (deadline_mode && w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_writable(fd, deadline_ns);
      continue;
    }
    throw_errno("send");
  }
}

void TcpStream::write_chain(const BufferChain& chain) {
  const int fd = fd_.load();
  if (fd < 0) throw TransportError("write on closed stream");
  // Gather up to kBatch segments per sendmsg(); resume mid-segment after a
  // short write by advancing the cursor.
  constexpr std::size_t kBatch = 64;  // well under any IOV_MAX
  iovec iov[kBatch];
  std::size_t seg = 0;
  const std::size_t nsegs = chain.segment_count();
  std::size_t consumed_in_seg = 0;  // bytes of segment `seg` already sent
  const bool deadline_mode = write_timeout_us_ > 0;
  const int flags = MSG_NOSIGNAL | (deadline_mode ? MSG_DONTWAIT : 0);
  std::uint64_t deadline_ns =
      deadline_mode ? steady_now_ns() + write_timeout_us_ * 1000 : 0;
  while (seg < nsegs) {
    const std::size_t count =
        gather_iovecs(chain, seg, consumed_in_seg, iov, kBatch);
    if (count == 0) break;  // nothing but empty segments left
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t w = ::sendmsg(fd, &msg, flags);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (deadline_mode && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        wait_writable(fd, deadline_ns);
        continue;
      }
      throw_errno("sendmsg");
    }
    if (deadline_mode && w > 0) {
      deadline_ns = steady_now_ns() + write_timeout_us_ * 1000;
    }
    advance_cursor(chain, seg, consumed_in_seg, static_cast<std::size_t>(w));
  }
}

std::size_t TcpStream::write_chain_some(const BufferChain& chain,
                                        std::size_t from, bool& would_block) {
  would_block = false;
  const int fd = fd_.load();
  if (fd < 0) throw TransportError("write on closed stream");
  // Locate the (segment, offset) cursor for the absolute byte offset.
  std::size_t seg = 0;
  std::size_t consumed_in_seg = 0;
  advance_cursor(chain, seg, consumed_in_seg, from);
  const std::size_t nsegs = chain.segment_count();
  std::size_t written_total = 0;
  constexpr std::size_t kBatch = 64;
  iovec iov[kBatch];
  while (seg < nsegs) {
    const std::size_t count =
        gather_iovecs(chain, seg, consumed_in_seg, iov, kBatch);
    if (count == 0) break;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        would_block = true;
        return written_total;
      }
      throw_errno("sendmsg");
    }
    written_total += static_cast<std::size_t>(w);
    advance_cursor(chain, seg, consumed_in_seg, static_cast<std::size_t>(w));
  }
  return written_total;
}

void TcpStream::set_nonblocking(bool enabled) {
  const int fd = fd_.load();
  if (fd < 0) throw TransportError("set_nonblocking on closed stream");
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, next) != 0) throw_errno("fcntl(F_SETFL)");
}

void TcpStream::shutdown_io() {
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void TcpStream::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

TcpListener::TcpListener(std::uint16_t port, const Options& options) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (options.reuse_port) {
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
      throw_errno("setsockopt(SO_REUSEPORT)");
    }
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind");
  }
  if (::listen(fd_, options.backlog) != 0) throw_errno("listen");
  if (options.nonblocking) {
    const int flags = ::fcntl(fd_.load(), F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(fd_.load(), F_SETFL, flags | O_NONBLOCK) != 0) {
      throw_errno("fcntl(listener O_NONBLOCK)");
    }
  }

  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  close();
}

std::unique_ptr<TcpStream> TcpListener::accept() {
  const int fd = fd_.load();
  if (fd < 0) return nullptr;
  for (;;) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) {
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return std::make_unique<TcpStream>(client);
    }
    if (errno == EINTR) continue;
    // Closed from another thread: report end-of-listening, not an error.
    if (errno == EBADF || errno == EINVAL) return nullptr;
    throw_errno("accept");
  }
}

std::unique_ptr<TcpStream> TcpListener::try_accept(bool& would_block) {
  would_block = false;
  const int fd = fd_.load();
  if (fd < 0) return nullptr;
  for (;;) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) {
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return std::make_unique<TcpStream>(client);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      would_block = true;
      return nullptr;
    }
    if (errno == EBADF || errno == EINVAL) return nullptr;
    throw_errno("accept");
  }
}

void TcpListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace sbq::net
