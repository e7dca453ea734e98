#pragma once
// LocalTransport: an in-process PeerTransport for socketless mesh tests.

#include <string>
#include <vector>

#include "exchange/transport.hpp"

namespace bellamy::exchange {

/// In-process peer: forwards straight to the target node's PeerService (the
/// same interface its ServeServer would call on an inbound frame).
/// Deterministic, no sockets, no threads of its own.  The target must
/// outlive this transport.
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
