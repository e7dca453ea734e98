#pragma once
// FaultInjector: the deterministic chaos seam of the net layer.
//
// A seeded schedule of network misbehavior, applied at the two boundaries
// where bytes change hands:
//
//   * net::FaultProxy — every chunk forwarded between a client and a server
//     first asks the injector what happens to it: nothing, an added delay, a
//     truncated write (half the bytes leave, then the stream breaks),
//     garbled bytes, a silently dropped write (the peer's deadline finds
//     out), or a hard disconnect.
//   * exchange::ChaosTransport — the PeerTransport decorator applies the
//     same schedule at whole-call granularity for socketless mesh tests.
//
// Determinism is the contract: one seed = one exact fault sequence, every
// run, every platform — a chaos soak that fails in CI replays locally from
// its seed alone.  Draws are serialized under a mutex, so a multi-threaded
// soak is deterministic in DISTRIBUTION (same faults, possibly different
// interleaving), and a single-connection test is deterministic absolutely.
//
// Probabilities are evaluated in the order delay, drop, truncate, garble,
// disconnect off a single uniform draw, so they partition one unit
// interval: their sum must be <= 1, the remainder is "no fault".

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace bellamy::net {

enum class FaultKind : std::uint8_t {
  kNone,
  kDelay,       ///< sleep, then proceed normally
  kDrop,        ///< pretend the write happened; send nothing
  kTruncate,    ///< emit a prefix of the bytes, then break the stream
  kGarble,      ///< flip bytes in flight (the receiver sees protocol garbage)
  kDisconnect,  ///< break the stream immediately
};

struct Fault {
  FaultKind kind = FaultKind::kNone;
  std::chrono::milliseconds delay{0};
};

struct FaultPlan {
  std::uint64_t seed = 1;
  double delay_prob = 0.0;
  double drop_prob = 0.0;
  double truncate_prob = 0.0;
  double garble_prob = 0.0;
  double disconnect_prob = 0.0;
  /// Injected delays are uniform in [1, max_delay] ms.
  std::chrono::milliseconds max_delay{20};
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Draw the fate of one operation (a forwarded chunk or a peer call).
  Fault next();

  /// Garble helper: flip deterministic bits of `buf` (at least one byte).
  void garble(std::uint8_t* buf, std::size_t size);

  /// Master switch: disabled, next() always returns kNone without drawing,
  /// so "heal the network" does not perturb the schedule for re-enable.
  void set_enabled(bool enabled);
  bool enabled() const;

  struct Counts {
    std::uint64_t delays = 0;
    std::uint64_t drops = 0;
    std::uint64_t truncates = 0;
    std::uint64_t garbles = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t total() const {
      return delays + drops + truncates + garbles + disconnects;
    }
  };
  Counts counts() const;

 private:
  std::uint64_t draw_locked();

  mutable std::mutex mutex_;
  FaultPlan plan_;
  std::uint64_t rng_state_;
  bool enabled_ = true;
  Counts counts_;
};

}  // namespace bellamy::net
