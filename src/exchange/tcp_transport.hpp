#pragma once
// TcpTransport: a PeerTransport over a real socket.
//
// Wraps a net::NetClient dialed at a peer bellamy_serverd and forwards the
// three exchange calls onto the wire (DigestRequest / PullRequest /
// AdvertiseRequest).  Connection management is lazy and self-healing:
//
//   * The first call dials; nothing connects at construction, so a mesh can
//     be wired up before its peers are listening.
//   * A transport-level failure (kShutdown: peer closed; kInternalError:
//     protocol garbage; kTimeout: deadline elapsed) drops the client and
//     RETRIES the call per TransportOptions::retry — redial plus re-send
//     with seeded exponential backoff — before giving up.  A peer that
//     restarted is picked back up mid-loop or by the next sync round.
//   * Peer-side typed failures (kUnknownModel, kInvalidArgument for a node
//     with no exchange layer) pass through untouched and do NOT drop the
//     connection: the peer answered, retrying cannot change its mind.
//
// Every call is bounded by TransportOptions::io_timeout (it bounds the dial,
// every socket stall and each call end to end), so a peer that accepts and
// then goes silent costs a typed kTimeout, never a hung sync strand.
//
// Thread-safe: one mutex serializes dial/teardown; the underlying NetClient
// is itself pipelined and thread-safe for the calls in flight.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exchange/transport.hpp"
#include "net/client.hpp"
#include "util/retry.hpp"

namespace bellamy::exchange {

struct TransportOptions {
  /// The NetClient's I/O timeout (ClientOptions::io_timeout); 0 (the
  /// default) = unbounded.
  std::chrono::milliseconds io_timeout{0};
  /// Per-call retry budget on transport failures.  max_attempts = 1 (the
  /// default) keeps every call single-shot.
  util::RetryPolicy retry{.max_attempts = 1};
};

class TcpTransport final : public PeerTransport {
 public:
  /// Peer address; `host` may be a hostname ("localhost") or numeric.
  TcpTransport(std::string host, std::uint16_t port, TransportOptions options = {});

  serve::ServeResult<std::vector<DigestEntry>> digest() override;
  serve::ServeResult<PulledCheckpoint> pull(const serve::ModelKey& key) override;
  serve::ServeResult<serve::Unit> advertise(const std::vector<DigestEntry>& entries) override;
  std::string name() const override;
  std::uint64_t retries() const override { return retries_.load(); }

 private:
  /// Current client, dialing if needed.  Null (with `error` set) when the
  /// peer is unreachable.
  std::shared_ptr<net::NetClient> ensure_connected(std::string& error);
  /// Forget `client` so the next call redials (only if it is still the
  /// current one — a racing call may have redialed already).
  void drop(const std::shared_ptr<net::NetClient>& client);

  /// Dial-call-classify loop: transport failures drop the client and retry
  /// per the policy; everything else returns as-is.
  template <typename T, typename Fn>
  serve::ServeResult<T> with_retry(Fn&& call) {
    util::RetrySchedule schedule(options_.retry);
    while (true) {
      std::string error;
      auto client = ensure_connected(error);
      serve::ServeResult<T> result =
          client ? call(*client)
                 : serve::ServeResult<T>::failure(
                       serve::ServeStatus::kShutdown,
                       "peer " + name() + " unreachable: " + error);
      if (result.ok() || !is_transport_failure(result.status())) return result;
      if (client) drop(client);
      std::chrono::milliseconds delay{0};
      if (!schedule.next_delay(delay)) return result;
      retries_.fetch_add(1);
      std::this_thread::sleep_for(delay);
    }
  }

  const std::string host_;
  const std::uint16_t port_;
  const TransportOptions options_;
  std::mutex mutex_;  ///< guards client_
  std::shared_ptr<net::NetClient> client_;
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace bellamy::exchange
