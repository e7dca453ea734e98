#pragma once
// PeerTransport: how one exchange node talks to another.
//
// The ExchangeRegistry never sees sockets — it speaks to peers through this
// three-call interface (digest / pull / advertise), which is exactly the
// exchange subset of the wire protocol.  TcpTransport (tcp_transport.hpp)
// rides a NetClient to a real bellamy_serverd, redialing a peer that
// restarted; the tests add an in-process LocalTransport
// (tests/support/local_transport.hpp).
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
// moves is what the protocol encodes, so transports cannot drift apart.
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
};

}  // namespace bellamy::exchange
