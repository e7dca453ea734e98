#include "exchange/transport.hpp"

#include <utility>

namespace bellamy::exchange {

bool is_transport_failure(serve::ServeStatus status) {
  return status == serve::ServeStatus::kShutdown ||
         status == serve::ServeStatus::kInternalError ||
         status == serve::ServeStatus::kTimeout;
}

LocalTransport::LocalTransport(net::PeerService& target, std::string name)
    : target_(target), name_(std::move(name)) {}

serve::ServeResult<std::vector<DigestEntry>> LocalTransport::digest() {
  return target_.digest_entries();
}

serve::ServeResult<PulledCheckpoint> LocalTransport::pull(const serve::ModelKey& key) {
  return target_.pull_model(key);
}

serve::ServeResult<serve::Unit> LocalTransport::advertise(
    const std::vector<DigestEntry>& entries) {
  target_.on_advertise(entries);
  return serve::ok();
}

std::string LocalTransport::name() const { return name_; }

}  // namespace bellamy::exchange
