#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <vector>

namespace bellamy::net {

namespace {

using Clock = std::chrono::steady_clock;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// poll() for `events`, EINTR-safe, negative timeout = forever.  kOk also
/// covers POLLHUP/POLLERR: the next recv/send reports the exact condition.
IoStatus wait_for(int fd, short events, std::chrono::milliseconds timeout) {
  if (fd < 0) return IoStatus::kClosed;
  const bool bounded = timeout.count() >= 0;
  const Clock::time_point deadline = Clock::now() + timeout;
  while (true) {
    int wait_ms = -1;
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      wait_ms = static_cast<int>(std::max<std::int64_t>(0, left.count()));
    }
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rc = ::poll(&p, 1, wait_ms);
    if (rc > 0) return IoStatus::kOk;
    if (rc == 0) return IoStatus::kTimeout;
    if (errno == EINTR) continue;  // recompute the remaining budget and re-poll
    return IoStatus::kClosed;
  }
}

}  // namespace

const char* to_string(IoStatus status) {
  switch (status) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kClosed: return "closed";
    case IoStatus::kTimeout: return "timeout";
  }
  return "unknown";
}

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), io_timeout_(other.io_timeout_) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    io_timeout_ = other.io_timeout_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::set_io_timeout(std::chrono::milliseconds timeout) { io_timeout_ = timeout; }

IoStatus Socket::read_exact(void* buf, std::size_t size) const {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < size) {
    if (io_timeout_.count() > 0) {
      // Stall budget: each wait allows io_timeout_ of silence; progress
      // below restarts it on the next lap.
      const IoStatus waited = wait_for(fd_, POLLIN, io_timeout_);
      if (waited != IoStatus::kOk) return waited;
    }
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return IoStatus::kClosed;  // 0 = orderly EOF, < 0 = error; the frame is gone
  }
  return IoStatus::kOk;
}

IoStatus Socket::write_all(const void* buf, std::size_t size) const {
  const auto* p = static_cast<const std::uint8_t*>(buf);

  // Nonblocking sends with a poll on EAGAIN: a blocking send() of a large
  // buffer parks until EVERY byte is queued, which would let a peer that
  // stops reading hang us past any budget.  This way the stall budget is a
  // true progress bound — it resets on every accepted chunk and fires only
  // when the kernel accepts nothing for `write` straight.
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const IoStatus waited = wait_for(
          fd_, POLLOUT,
          io_timeout_.count() > 0 ? io_timeout_ : std::chrono::milliseconds(-1));
      if (waited != IoStatus::kOk) return waited;
      continue;
    }
    return IoStatus::kClosed;
  }
  return IoStatus::kOk;
}

IoStatus Socket::wait_readable(std::chrono::milliseconds timeout) const {
  return wait_for(fd_, POLLIN, timeout);
}

void Socket::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_listen(std::uint16_t port, std::uint16_t& bound_port, std::string& error) {
  ignore_sigpipe();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = errno_text("socket");
    return Socket();
  }
  Socket sock(fd);

  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = errno_text("bind");
    return Socket();
  }
  if (::listen(fd, 64) != 0) {
    error = errno_text("listen");
    return Socket();
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    error = errno_text("getsockname");
    return Socket();
  }
  bound_port = ntohs(bound.sin_port);
  error.clear();
  return sock;
}

Socket tcp_accept(const Socket& listener, AcceptStatus* status, std::string* error) {
  const auto fail = [&](AcceptStatus what) {
    if (status != nullptr) *status = what;
    if (error != nullptr) *error = errno_text("accept");
    return Socket();
  };
  while (true) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      if (status != nullptr) *status = AcceptStatus::kOk;
      return Socket(fd);
    }
    switch (errno) {
      case EINTR:
        continue;
      // Resource pressure or a connection that died in the backlog: the
      // listener is fine, later accepts can succeed.  An accept loop that
      // exits on these silently stops serving under load — the worst
      // possible failure mode — so they are reported as retryable.
      case ECONNABORTED:
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
      case EPROTO:
      case EAGAIN:
        return fail(AcceptStatus::kTransient);
      default:
        // EBADF / EINVAL: the listener was closed or shut down (drain/stop).
        return fail(AcceptStatus::kFatal);
    }
  }
}

Socket tcp_connect(const std::string& host, std::uint16_t port, std::string& error) {
  return tcp_connect(host, port, std::chrono::milliseconds{0}, error);
}

Socket tcp_connect(const std::string& host, std::uint16_t port,
                   std::chrono::milliseconds connect_timeout, std::string& error) {
  ignore_sigpipe();
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  // Numeric addresses keep working without a resolver round-trip.
  hints.ai_flags = AI_ADDRCONFIG | AI_NUMERICSERV;

  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &results);
  if (rc == EAI_ADDRFAMILY || rc == EAI_NONAME) {
    // AI_ADDRCONFIG hides loopback-only families on hosts with no external
    // interface of that family; retry without it before giving up.
    hints.ai_flags = AI_NUMERICSERV;
    rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &results);
  }
  if (rc != 0) {
    error = "cannot resolve '" + host + "': " +
            (rc == EAI_SYSTEM ? errno_text("getaddrinfo") : std::string(::gai_strerror(rc)));
    return Socket();
  }

  // The listener side is IPv4 (tcp_listen binds 127.0.0.1), so prefer IPv4
  // results; hostnames like `localhost` often resolve to ::1 first.
  std::vector<const addrinfo*> ordered;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    if (ai->ai_family == AF_INET) ordered.push_back(ai);
  }
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    if (ai->ai_family != AF_INET) ordered.push_back(ai);
  }

  const bool bounded = connect_timeout.count() > 0;
  std::string last_error = "no usable address";
  for (const addrinfo* ai : ordered) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = errno_text("socket");
      continue;
    }
    Socket sock(fd);

    if (!bounded) {
      int connected;
      while ((connected = ::connect(fd, ai->ai_addr, ai->ai_addrlen)) != 0 &&
             errno == EINTR) {
      }
      if (connected == 0) {
        ::freeaddrinfo(results);
        set_nodelay(fd);
        error.clear();
        return sock;
      }
      last_error = errno_text("connect");
      continue;
    }

    // Bounded dial: non-blocking connect, poll for writability within the
    // budget, then read the outcome from SO_ERROR.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int connected;
    while ((connected = ::connect(fd, ai->ai_addr, ai->ai_addrlen)) != 0 &&
           errno == EINTR) {
    }
    bool ok = connected == 0;
    if (!ok && errno == EINPROGRESS) {
      const IoStatus waited = wait_for(fd, POLLOUT, connect_timeout);
      if (waited == IoStatus::kTimeout) {
        last_error = "connect: timed out after " +
                     std::to_string(connect_timeout.count()) + " ms";
        continue;
      }
      int so_error = 0;
      socklen_t len = sizeof so_error;
      ok = waited == IoStatus::kOk &&
           ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) == 0 && so_error == 0;
      if (!ok) {
        errno = so_error != 0 ? so_error : errno;
        last_error = errno_text("connect");
        continue;
      }
    } else if (!ok) {
      last_error = errno_text("connect");
      continue;
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking for the frame I/O
    ::freeaddrinfo(results);
    set_nodelay(fd);
    error.clear();
    return sock;
  }
  ::freeaddrinfo(results);
  error = "cannot connect to '" + host + "': " + last_error;
  return Socket();
}

}  // namespace bellamy::net
