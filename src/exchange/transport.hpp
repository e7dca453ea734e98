#pragma once
// PeerTransport: how one exchange node talks to another.
//
// The ExchangeRegistry never sees sockets — it speaks to peers through this
// three-call interface (digest / pull / advertise), which is exactly the
// exchange subset of the wire protocol.  Two implementations:
//
//   * LocalTransport (here)  — calls another node's PeerService directly,
//     in-process.  Deterministic, no sockets, no threads of its own: the
//     transport tests and the 3-node convergence tests run on it.
//   * TcpTransport (tcp_transport.hpp) — rides a NetClient to a real
//     bellamy_serverd, redialing a peer that restarted.
//
// Error contract matches the serve layer: peer-unreachable and peer-side
// failures are typed ServeResults, never exceptions.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "serve/serve_result.hpp"

namespace bellamy::exchange {

// The exchange layer's value types ARE the wire types: what a transport
// moves is what the protocol encodes, so Local and Tcp cannot drift apart.
using net::DigestEntry;
using net::PulledCheckpoint;

/// True when `status` means the CONNECTION / peer is unusable, not the
/// request: kShutdown (peer gone), kInternalError (protocol garbage — the
/// stream position is untrusted), kTimeout (a deadline elapsed).  A typed
/// peer-side answer (kUnknownModel, kInvalidArgument, ...) is proof the
/// peer is alive and speaking the protocol — retrying it is pointless and
/// the circuit breaker counts it as a success.
bool is_transport_failure(serve::ServeStatus status);

class PeerTransport {
 public:
  virtual ~PeerTransport() = default;

  /// The peer's catalog: every (key, stamp) it can serve a pull for.
  virtual serve::ServeResult<std::vector<DigestEntry>> digest() = 0;

  /// Fetch the peer's current checkpoint for `key`.
  virtual serve::ServeResult<PulledCheckpoint> pull(const serve::ModelKey& key) = 0;

  /// Push this node's catalog at the peer (fire-and-forget gossip; the peer
  /// schedules pulls for anything newer).
  virtual serve::ServeResult<serve::Unit> advertise(
      const std::vector<DigestEntry>& entries) = 0;

  /// Peer name for log and error messages ("local:b", "host:7113").
  virtual std::string name() const = 0;

  /// Transport-level retries burned so far (TcpTransport's redial loop; 0
  /// for transports that never retry).
  virtual std::uint64_t retries() const { return 0; }
};

/// In-process peer: forwards straight to the target node's PeerService (the
/// same interface its ServeServer would call on an inbound frame).  The
/// target must outlive this transport.
class LocalTransport final : public PeerTransport {
 public:
  explicit LocalTransport(net::PeerService& target, std::string name = "local");

  serve::ServeResult<std::vector<DigestEntry>> digest() override;
  serve::ServeResult<PulledCheckpoint> pull(const serve::ModelKey& key) override;
  serve::ServeResult<serve::Unit> advertise(const std::vector<DigestEntry>& entries) override;
  std::string name() const override;

 private:
  net::PeerService& target_;
  std::string name_;
};

}  // namespace bellamy::exchange
