#include "support/fault_injector.hpp"

#include <algorithm>

namespace bellamy::net {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t raw) {
  return static_cast<double>(raw >> 11) / 9007199254740992.0;  // [0,1)
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(plan), rng_state_(plan.seed) {}

std::uint64_t FaultInjector::draw_locked() { return splitmix64(rng_state_); }

Fault FaultInjector::next() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) return Fault{};

  const double u = unit(draw_locked());
  double edge = plan_.delay_prob;
  FaultKind kind = FaultKind::kNone;
  if (u < edge) {
    kind = FaultKind::kDelay;
  } else if (u < (edge += plan_.drop_prob)) {
    kind = FaultKind::kDrop;
  } else if (u < (edge += plan_.truncate_prob)) {
    kind = FaultKind::kTruncate;
  } else if (u < (edge += plan_.garble_prob)) {
    kind = FaultKind::kGarble;
  } else if (u < (edge += plan_.disconnect_prob)) {
    kind = FaultKind::kDisconnect;
  }

  Fault fault;
  fault.kind = kind;
  switch (kind) {
    case FaultKind::kDelay: {
      const auto max_ms = std::max<std::int64_t>(1, plan_.max_delay.count());
      fault.delay = std::chrono::milliseconds(
          1 + static_cast<std::int64_t>(draw_locked() % static_cast<std::uint64_t>(max_ms)));
      counts_.delays += 1;
      break;
    }
    case FaultKind::kDrop: counts_.drops += 1; break;
    case FaultKind::kTruncate: counts_.truncates += 1; break;
    case FaultKind::kGarble: counts_.garbles += 1; break;
    case FaultKind::kDisconnect: counts_.disconnects += 1; break;
    case FaultKind::kNone: break;
  }
  return fault;
}

void FaultInjector::garble(std::uint8_t* buf, std::size_t size) {
  if (size == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // Flip one byte per 64 (at least one): enough to break any frame field
  // without turning the whole buffer to noise.
  const std::size_t flips = std::max<std::size_t>(1, size / 64);
  for (std::size_t i = 0; i < flips; ++i) {
    const std::uint64_t raw = draw_locked();
    buf[raw % size] ^= static_cast<std::uint8_t>(0x01 | (raw >> 32));
  }
}

void FaultInjector::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = enabled;
}

bool FaultInjector::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

FaultInjector::Counts FaultInjector::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

}  // namespace bellamy::net
