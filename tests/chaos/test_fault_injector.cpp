// The chaos seam's determinism contract: one seed = one fault schedule, so a
// soak that fails replays from its seed alone, and healing the network
// (set_enabled(false)) does not move the schedule.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "support/fault_injector.hpp"

namespace bellamy::net {
namespace {

FaultPlan busy_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.delay_prob = 0.15;
  plan.drop_prob = 0.15;
  plan.truncate_prob = 0.15;
  plan.garble_prob = 0.15;
  plan.disconnect_prob = 0.15;
  return plan;
}

bool same(const Fault& a, const Fault& b) { return a.kind == b.kind && a.delay == b.delay; }

TEST(FaultInjector, SameSeedYieldsTheSameFaultsAndTheSameGarbledBytes) {
  FaultInjector a(busy_plan(77));
  FaultInjector b(busy_plan(77));
  bool any_fault = false;
  for (int i = 0; i < 300; ++i) {
    const Fault fa = a.next();
    const Fault fb = b.next();
    ASSERT_TRUE(same(fa, fb)) << "draw " << i;
    any_fault = any_fault || fa.kind != FaultKind::kNone;
    if (fa.kind == FaultKind::kGarble) {
      std::array<std::uint8_t, 200> bytes_a{};
      std::array<std::uint8_t, 200> bytes_b{};
      a.garble(bytes_a.data(), bytes_a.size());
      b.garble(bytes_b.data(), bytes_b.size());
      EXPECT_EQ(bytes_a, bytes_b) << "draw " << i;
      EXPECT_NE(bytes_a, (std::array<std::uint8_t, 200>{})) << "garble flipped nothing";
    }
  }
  EXPECT_TRUE(any_fault);
  EXPECT_EQ(a.counts().total(), b.counts().total());

  // A different seed is a different schedule.
  FaultInjector c(busy_plan(78));
  FaultInjector d(busy_plan(77));
  bool differs = false;
  for (int i = 0; i < 64 && !differs; ++i) {
    differs = !same(c.next(), d.next());
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, DisabledDrawsNothingSoReEnablingContinuesTheSchedule) {
  FaultInjector reference(busy_plan(5));
  std::vector<Fault> schedule;
  for (int i = 0; i < 40; ++i) schedule.push_back(reference.next());

  FaultInjector healed(busy_plan(5));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(same(healed.next(), schedule[i])) << "draw " << i;
  }
  const auto before = healed.counts().total();
  healed.set_enabled(false);
  EXPECT_FALSE(healed.enabled());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(healed.next().kind, FaultKind::kNone);
  }
  EXPECT_EQ(healed.counts().total(), before);
  healed.set_enabled(true);
  for (int i = 20; i < 40; ++i) {
    ASSERT_TRUE(same(healed.next(), schedule[i])) << "draw " << i;
  }
}

}  // namespace
}  // namespace bellamy::net
