// Unit tests for the discrete-event engine and RNG.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/rng.hpp"

namespace mck::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] {
    ++fired;
    sim.schedule_after(seconds(1), [&] { ++fired; });
  });
  sim.run_until();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), seconds(2));
}

TEST(Simulator, RunUntilHorizonStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(10), [&] { ++fired; });
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(5));
  sim.run_until(kTimeNever);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_at(seconds(1), [&] { ++fired; });
  h.cancel();
  sim.schedule_at(seconds(2), [&] { ++fired; });
  sim.run_until();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelledEventsAreCountedAndReaped) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule_at(seconds(i + 1), [&] { ++fired; }));
  }
  for (int i = 0; i < 4; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(sim.cancelled_pending(), 4u);
  // Double-cancel must not double-count.
  handles[0].cancel();
  EXPECT_EQ(sim.cancelled_pending(), 4u);

  sim.run_until();
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.tombstones_reaped(), 4u);

  // Cancelling after the event fired is a no-op, not a phantom tombstone.
  handles[9].cancel();
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, PurgeCancelledCompactsTheQueue) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule_at(seconds(i + 1), [&] { ++fired; }));
  }
  for (int i = 0; i < 100; i += 2) {
    handles[static_cast<std::size_t>(i)].cancel();
  }
  EXPECT_EQ(sim.pending(), 100u);
  sim.purge_cancelled();
  EXPECT_EQ(sim.pending(), 50u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  sim.run_until();
  EXPECT_EQ(fired, 50);  // survivors still fire, in order
  EXPECT_EQ(sim.now(), seconds(100));
}

TEST(Simulator, TombstonesAutoPurgeUnderHeavyCancellation) {
  // Cancel-heavy pattern (retry timers): the queue must not grow with
  // the number of cancelled events.
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 5000; ++i) {
    handles.push_back(sim.schedule_at(seconds(1000 + i), [] {}));
    if (i >= 10) handles[static_cast<std::size_t>(i) - 10].cancel();
  }
  // 4990 of the 5000 events are tombstones; auto-compaction keeps the
  // queue near the live count instead.
  EXPECT_LT(sim.pending(), 200u);
  sim.run_until();
}

TEST(Simulator, RequestStopHaltsLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule_at(seconds(2), [&] { ++fired; });
  sim.run_until();
  EXPECT_EQ(fired, 1);
  sim.run_until();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(milliseconds(i), [] {});
  }
  sim.run_until();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(Simulator, ValidMeansStillPending) {
  Simulator sim;
  EventHandle never;
  EXPECT_FALSE(never.valid());  // never scheduled

  EventHandle h = sim.schedule_at(seconds(1), [] {});
  EXPECT_TRUE(h.valid());

  sim.run_until();
  EXPECT_FALSE(h.valid());  // fired

  EventHandle c = sim.schedule_at(seconds(2), [] {});
  EXPECT_TRUE(c.valid());
  c.cancel();
  EXPECT_FALSE(c.valid());  // cancelled
  sim.run_until();
}

TEST(Simulator, ValidGoesStaleWhenSlotIsReused) {
  Simulator sim;
  EventHandle first = sim.schedule_at(seconds(1), [] {});
  sim.run_until();
  // The next event recycles the freed slot; the old handle must not
  // resurrect.
  EventHandle second = sim.schedule_at(seconds(2), [] {});
  EXPECT_FALSE(first.valid());
  EXPECT_TRUE(second.valid());
  int fired = 0;
  sim.schedule_at(seconds(3), [&] { ++fired; });
  first.cancel();  // stale: must not cancel the slot's new tenant
  EXPECT_TRUE(second.valid());
  sim.run_until();
  EXPECT_FALSE(second.valid());
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, LivePendingExcludesTombstones) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(sim.schedule_at(seconds(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending(), 6u);
  EXPECT_EQ(sim.live_pending(), 6u);
  handles[1].cancel();
  handles[3].cancel();
  EXPECT_EQ(sim.pending(), 6u);  // tombstones still queued
  EXPECT_EQ(sim.live_pending(), 4u);
  sim.run_until();
  EXPECT_EQ(sim.live_pending(), 0u);
}

TEST(Simulator, CancelAllDropsEverything) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(sim.schedule_at(seconds(i + 1), [&] { ++fired; }));
  }
  handles[0].cancel();  // mix of tombstones and live events
  sim.cancel_all();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.live_pending(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  for (const EventHandle& h : handles) EXPECT_FALSE(h.valid());
  sim.run_until();
  EXPECT_EQ(fired, 0);

  // The simulator stays usable: slots were freed, not leaked.
  sim.schedule_at(seconds(100), [&] { ++fired; });
  sim.run_until();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, SlotPoolRecyclesInsteadOfGrowing) {
  Simulator sim;
  // A long self-rescheduling chain keeps exactly one event pending; the
  // pool must stay at its first chunk instead of growing with the event
  // count.
  int remaining = 10000;
  std::function<void()> tick = [&] {
    if (--remaining > 0) sim.schedule_after(seconds(1), [&] { tick(); });
  };
  sim.schedule_after(seconds(1), [&] { tick(); });
  sim.run_until();
  EXPECT_EQ(remaining, 0);
  EXPECT_LE(sim.slot_count(), 256u);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  // Different seeds diverge (overwhelmingly likely on a wide range).
  bool diverged = false;
  Rng a2(42), c2(43);
  for (int i = 0; i < 8; ++i) {
    if (a2.uniform_int(0, 1 << 30) != c2.uniform_int(0, 1 << 30)) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged);
  (void)c;
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(1);
  const SimTime mean = seconds(10);
  double sum = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    sum += to_seconds(rng.exponential(mean));
  }
  double measured = sum / kSamples;
  EXPECT_NEAR(measured, 10.0, 0.5);
}

TEST(Rng, ExponentialSaturatesInsteadOfOverflowing) {
  // -log(u) exceeds 2 for about one draw in 7, so with a mean of 2^62 ns
  // some draws are too long for SimTime; they read kTimeNever, never a
  // wrapped or tiny duration.
  Rng rng(7);
  int saturated = 0;
  for (int i = 0; i < 200; ++i) {
    SimTime t = rng.exponential(SimTime{1} << 62);
    ASSERT_GT(t, 0);
    if (t == kTimeNever) ++saturated;
  }
  EXPECT_GT(saturated, 0);
  EXPECT_EQ(add_saturating(seconds(5), kTimeNever), kTimeNever);
  EXPECT_EQ(add_saturating(seconds(5), seconds(1)), seconds(6));
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    lo = lo || v == 3;
    hi = hi || v == 7;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(milliseconds(4), from_seconds(0.004));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(900)), 900.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(2500)), 2.5);
}

TEST(Time, CheckedFromSecondsRefusesWhatSimTimeCannotHold) {
  EXPECT_EQ(checked_from_seconds(0.004), milliseconds(4));
  EXPECT_EQ(checked_from_seconds(1e-9), 1);
  EXPECT_EQ(checked_from_seconds(0.6e-9), 1);
  EXPECT_EQ(checked_from_seconds(1e-12), 0);
  EXPECT_EQ(checked_from_seconds(0.0), 0);
  EXPECT_EQ(checked_from_seconds(-1.0), 0);
  EXPECT_EQ(checked_from_seconds(9.2e9), from_seconds(9.2e9));
  EXPECT_EQ(checked_from_seconds(1e10), 0);
  EXPECT_EQ(checked_from_seconds(1e300), 0);
}

}  // namespace
}  // namespace mck::sim
