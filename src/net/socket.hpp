#pragma once
// Thin RAII layer over POSIX TCP sockets: everything the server, client, and
// tests need (listen on an ephemeral port, connect, exact-length reads and
// writes with EINTR retries) and nothing more.  No frameworks, no event
// loops — the serving threads block on plain sockets, which keeps the
// backpressure story honest: a slow peer blocks exactly the thread attached
// to it.
//
// DEADLINES: every blocking primitive is bounded when asked.  A Socket
// carries one STALL budget (set_io_timeout) for its reads and writes: an op
// times out when the peer makes no progress for that long, and returns the
// typed IoStatus::kTimeout instead of blocking forever.  The budget resets
// on progress, so a big frame trickling in steadily never times out, while
// a peer that goes silent mid-frame does.  All waits are poll-based and
// EINTR-safe.  A zero budget means "wait forever", the default.
//
// Error contract matches the rest of the net layer: expected network
// conditions (peer closed, connect refused, deadline elapsed) are return
// values, never exceptions.  SIGPIPE cannot kill the process: sends use
// MSG_NOSIGNAL and the first listen/connect installs SIG_IGN as well.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace bellamy::net {

/// Outcome of a bounded socket op.
enum class IoStatus : std::uint8_t {
  kOk,       ///< op completed in full
  kClosed,   ///< EOF, reset, or local shutdown — the stream is over
  kTimeout,  ///< the configured deadline elapsed with the op incomplete
};

const char* to_string(IoStatus status);

/// Owning socket fd.  Move-only; the destructor closes.  An invalid Socket
/// holds fd -1.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  explicit operator bool() const { return valid(); }
  int fd() const { return fd_; }

  /// Install the stall budget of every read and write: a read times out
  /// when no bytes arrive for this long, a write when the send buffer stays
  /// full for this long.  0 = wait forever.
  void set_io_timeout(std::chrono::milliseconds timeout);

  /// Read exactly `size` bytes.  kClosed on EOF or error (a clean peer
  /// close mid-frame and a reset look the same to a frame reader: the
  /// connection is over); kTimeout when the read stall budget elapses with
  /// no progress.  Retries EINTR.
  IoStatus read_exact(void* buf, std::size_t size) const;

  /// Write all `size` bytes.  kClosed on error (incl. peer gone; SIGPIPE is
  /// suppressed via MSG_NOSIGNAL); kTimeout when the send buffer stays full
  /// past the write stall budget.  Retries EINTR and short writes.
  IoStatus write_all(const void* buf, std::size_t size) const;

  /// Block until the socket is readable (data, EOF, or error all count —
  /// the following read reports which).  `timeout` < 0 waits forever;
  /// kTimeout when nothing happened in time.  The idle-tolerant wait the
  /// frame readers use BEFORE applying the stall budget to a frame.
  IoStatus wait_readable(std::chrono::milliseconds timeout) const;

  /// shutdown(SHUT_RDWR): unblocks any thread parked in read/write on this
  /// socket from ANOTHER thread — the clean way to interrupt a blocking
  /// reader at stop time.  Safe on an invalid socket.
  void shutdown_both() const;

  void close();

 private:
  int fd_ = -1;
  std::chrono::milliseconds io_timeout_{0};
};

/// Wait-forever sentinel for wait_readable.
inline constexpr std::chrono::milliseconds kWaitForever{-1};

/// Idempotently set SIGPIPE to SIG_IGN for the process.  Called by
/// tcp_listen/tcp_connect: MSG_NOSIGNAL already guards every send() in this
/// layer, this guards any OTHER write to a dead socket (third-party code,
/// future fds) from killing a serving daemon.
void ignore_sigpipe();

/// Listening socket bound to 127.0.0.1:`port` (port 0 = kernel-assigned
/// ephemeral port; `bound_port` receives the actual one).  SO_REUSEADDR is
/// set so restarts do not trip over TIME_WAIT.  Invalid Socket on failure,
/// with the reason in `error`.
Socket tcp_listen(std::uint16_t port, std::uint16_t& bound_port, std::string& error);

/// How an accept failed, for the accept loop's retry decision.
enum class AcceptStatus : std::uint8_t {
  kOk,
  kTransient,  ///< EMFILE/ENFILE/ECONNABORTED/ENOBUFS/...: count, sleep, retry
  kFatal,      ///< listener shut down or unusable: stop accepting
};

/// Accept one connection; blocks.  Invalid Socket when the listener was
/// shut down or accept failed — `status` (optional) distinguishes transient
/// resource errors, which an accept loop should retry after a short sleep,
/// from a dead listener.  Retries EINTR internally.  TCP_NODELAY is set on
/// the accepted socket (frames are latency-sensitive and self-contained;
/// Nagle only adds delay).
Socket tcp_accept(const Socket& listener, AcceptStatus* status = nullptr,
                  std::string* error = nullptr);

/// Connect to host:port; blocks, bounded by `connect_timeout` per resolved
/// address (0 = unbounded).  `host` may be a hostname or a numeric address —
/// names resolve via getaddrinfo, IPv4 results are tried first (the
/// listener side binds IPv4 loopback), and every resolved address is
/// attempted before giving up.  Invalid Socket on failure, with the failing
/// host named in `error`.  TCP_NODELAY is set.
Socket tcp_connect(const std::string& host, std::uint16_t port,
                   std::chrono::milliseconds connect_timeout, std::string& error);
Socket tcp_connect(const std::string& host, std::uint16_t port, std::string& error);

}  // namespace bellamy::net
