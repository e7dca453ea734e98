#pragma once
// FaultProxy: the socket-level chaos seam, kept outside the library.
//
// A loopback TCP proxy in front of a server.  Each accepted connection is
// paired with a fresh connection to the upstream port, and two pump threads
// forward bytes, one per direction.  Before forwarding a chunk (what one
// recv returned) the pump draws that chunk's fate from a FaultInjector:
//
//   kNone        forward it;
//   kDelay       sleep, then forward it;
//   kDrop        the chunk vanishes (the receiver's deadline finds out);
//   kTruncate    half the chunk leaves, then both streams break;
//   kGarble      flipped bytes leave (the frame checksum rejects them);
//   kDisconnect  both streams break.
//
// The server and the clients under test run their production socket code
// untouched; only what travels between them is perturbed.  Draws come from
// one seeded injector, so a schedule replays from its seed (in distribution
// when several connections race, exactly for a single one).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "support/fault_injector.hpp"

namespace bellamy::net {

class FaultProxy {
 public:
  /// Forwards to 127.0.0.1:`upstream_port`.
  FaultProxy(std::uint16_t upstream_port, std::shared_ptr<FaultInjector> faults);
  ~FaultProxy();
  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  /// Listen on an ephemeral loopback port; false (with `error`) on failure.
  bool start(std::string& error);
  /// The port clients dial instead of the upstream's.
  std::uint16_t port() const { return port_; }
  /// Stop accepting, break every link and join every thread.  Idempotent.
  void stop();

 private:
  /// One proxied connection: the accepted socket, its upstream socket and
  /// the two pumps between them.
  struct Link {
    Socket down;
    Socket up;
    std::atomic<int> pumps_done{0};
    std::thread to_up;
    std::thread to_down;
    void cut() const {
      down.shutdown_both();
      up.shutdown_both();
    }
  };

  void accept_loop();
  void pump(const Socket& from, const Socket& to, Link& link);
  /// Join and free the links whose pumps have both finished (all with
  /// `all`, after cutting them).
  void reap(bool all);

  const std::uint16_t upstream_port_;
  const std::shared_ptr<FaultInjector> faults_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::mutex mutex_;  ///< guards links_
  std::vector<std::unique_ptr<Link>> links_;
  std::thread accept_thread_;
};

}  // namespace bellamy::net
