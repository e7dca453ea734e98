#pragma once
// ChaosTransport: the exchange layer's chaos seam for socketless mesh tests.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "exchange/transport.hpp"
#include "support/fault_injector.hpp"

namespace bellamy::exchange {

/// Chaos decorator over any PeerTransport: every forwarded call first
/// consults a hard outage switch (set_down — a killed peer, not a flaky
/// one) and then a FaultInjector, whose faults map onto the typed failures
/// a real socket would produce (drop/truncate/disconnect -> kShutdown,
/// garble -> kInternalError, delay -> sleep then forward).  Deterministic
/// from the injector's seed; the in-process chaos tests own it.
class ChaosTransport final : public PeerTransport {
 public:
  ChaosTransport(std::shared_ptr<PeerTransport> inner,
                 std::shared_ptr<net::FaultInjector> faults);

  serve::ServeResult<std::vector<DigestEntry>> digest() override;
  serve::ServeResult<PulledCheckpoint> pull(const serve::ModelKey& key) override;
  serve::ServeResult<serve::Unit> advertise(const std::vector<DigestEntry>& entries) override;
  std::string name() const override;

  /// While down, every call fails kShutdown without reaching the inner
  /// transport.
  void set_down(bool down) { down_.store(down); }
  bool down() const { return down_.load(); }

 private:
  struct Veto {
    bool vetoed = false;
    serve::ServeStatus status = serve::ServeStatus::kShutdown;
    std::string message;
  };
  /// Outage switch + one injector draw; sleeps through kDelay faults.
  Veto consult();

  std::shared_ptr<PeerTransport> inner_;
  std::shared_ptr<net::FaultInjector> faults_;
  std::atomic<bool> down_{false};
};

}  // namespace bellamy::exchange
