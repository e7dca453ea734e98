#include "support/chaos_transport.hpp"

#include <thread>
#include <utility>

namespace bellamy::exchange {

ChaosTransport::ChaosTransport(std::shared_ptr<PeerTransport> inner,
                               std::shared_ptr<net::FaultInjector> faults)
    : inner_(std::move(inner)), faults_(std::move(faults)) {}

ChaosTransport::Veto ChaosTransport::consult() {
  Veto veto;
  if (down_.load()) {
    veto.vetoed = true;
    veto.status = serve::ServeStatus::kShutdown;
    veto.message = "peer " + inner_->name() + " unreachable: chaos outage";
    return veto;
  }
  if (!faults_) return veto;
  const net::Fault fault = faults_->next();
  switch (fault.kind) {
    case net::FaultKind::kNone:
      break;
    case net::FaultKind::kDelay:
      std::this_thread::sleep_for(fault.delay);
      break;
    case net::FaultKind::kDrop:
    case net::FaultKind::kTruncate:
    case net::FaultKind::kDisconnect:
      veto.vetoed = true;
      veto.status = serve::ServeStatus::kShutdown;
      veto.message = "peer " + inner_->name() + " unreachable: chaos disconnect";
      break;
    case net::FaultKind::kGarble:
      // A garbled frame is detected as protocol garbage, never delivered.
      veto.vetoed = true;
      veto.status = serve::ServeStatus::kInternalError;
      veto.message = "peer " + inner_->name() + ": chaos garbled frame";
      break;
  }
  return veto;
}

serve::ServeResult<std::vector<DigestEntry>> ChaosTransport::digest() {
  const Veto veto = consult();
  if (veto.vetoed) {
    return serve::ServeResult<std::vector<DigestEntry>>::failure(veto.status, veto.message);
  }
  return inner_->digest();
}

serve::ServeResult<PulledCheckpoint> ChaosTransport::pull(const serve::ModelKey& key) {
  const Veto veto = consult();
  if (veto.vetoed) {
    return serve::ServeResult<PulledCheckpoint>::failure(veto.status, veto.message);
  }
  return inner_->pull(key);
}

serve::ServeResult<serve::Unit> ChaosTransport::advertise(
    const std::vector<DigestEntry>& entries) {
  const Veto veto = consult();
  if (veto.vetoed) {
    return serve::ServeResult<serve::Unit>::failure(veto.status, veto.message);
  }
  return inner_->advertise(entries);
}

std::string ChaosTransport::name() const { return "chaos(" + inner_->name() + ")"; }

}  // namespace bellamy::exchange
