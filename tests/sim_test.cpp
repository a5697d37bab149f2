// Unit tests for the discrete-event engine and RNG.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
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

// Random interleavings of every queue operation, checked against a model:
// an ordered set of the (at, seq) keys still due to fire, the set of
// tombstones the heap still holds, and the rules by which step(), the
// auto-purge in schedule_at, purge_cancelled and cancel_all reap them.
// Each firing must be the model's minimum; after every operation the
// counters and a sample of handles must agree with the model.
class QueueModel {
 public:
  explicit QueueModel(std::uint64_t seed) : rng_(seed) {}

  void drive(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      const std::int64_t op = rng_.uniform_int(0, 99);
      if (op < 40) {
        schedule(random_time());
      } else if (op < 42) {
        // A request wave: past 4^6 records, the heap is 7 levels deep.
        const std::int64_t burst = rng_.uniform_int(1000, 6000);
        for (std::int64_t k = 0; k < burst; ++k) schedule(random_time());
      } else if (op < 44) {
        // Retry timers torn down together: enough tombstones to set off
        // the auto-purge at the next schedule_at.
        const std::int64_t wave = rng_.uniform_int(100, 3000);
        for (std::int64_t k = 1; k <= wave; ++k) {
          const auto n = static_cast<std::int64_t>(events_.size());
          if (k <= n) cancel(static_cast<std::uint64_t>(n - k));
        }
      } else if (op < 57) {
        cancel(random_seq());
      } else if (op < 72) {
        run_until(
            add_saturating(sim_.now(), rng_.exponential(milliseconds(2))));
      } else if (op < 76) {
        run_until(live_.empty() ? sim_.now() : live_.begin()->first);
      } else if (op < 80) {
        run_until(sim_.now());
      } else if (op < 92) {
        step();
      } else if (op < 98) {
        sim_.purge_cancelled();
        reap_all();
      } else if (op < 99) {
        check_handles(64);
      } else {
        cancel_all();
      }
      check_counters();
    }
    if (::testing::Test::HasFailure()) return;
    run_until(kTimeNever);
    EXPECT_TRUE(live_.empty()) << "events left after the final drain";
    EXPECT_TRUE(sim_.empty());
    check_counters();
    check_handles(events_.size());
  }

  std::size_t peak_pending() const { return peak_pending_; }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t reaped() const { return reaped_; }
  std::uint64_t auto_purges() const { return auto_purges_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;
  enum class State { kPending, kFired, kCancelled };
  struct Event {
    SimTime at;
    State state;
    EventHandle handle;
  };
  struct Fire {
    QueueModel* model;
    std::uint64_t seq;
    void operator()() { model->on_fire(seq); }
  };

  SimTime random_time() {
    switch (rng_.uniform_int(0, 2)) {
      case 0:
        return sim_.now();
      case 1:
        return sim_.now() + rng_.uniform_int(1, 3);
      default:
        return add_saturating(sim_.now(), rng_.exponential(milliseconds(1)));
    }
  }

  // Any event scheduled so far, or mostly one of the latest (which are
  // likelier to be pending): cancels hit live events, fired and cancelled
  // ones, and slots recycled since.
  std::uint64_t random_seq() {
    if (events_.empty()) return 0;
    const auto n = static_cast<std::int64_t>(events_.size());
    const std::int64_t lo = rng_.bernoulli(0.7) ? std::max<std::int64_t>(
                                                      0, n - 4096)
                                                : 0;
    return static_cast<std::uint64_t>(rng_.uniform_int(lo, n - 1));
  }

  void schedule(SimTime at) {
    // schedule_at compacts before it pushes once tombstones are both
    // numerous and the majority of the queue.
    if (tombs_.size() > 64 &&
        tombs_.size() * 2 > live_.size() + tombs_.size()) {
      reap_all();
      ++auto_purges_;
    }
    const std::uint64_t seq = events_.size();
    events_.push_back(Event{at, State::kPending, {}});
    live_.insert({at, seq});
    events_[seq].handle = sim_.schedule_at(at, Fire{this, seq});
    peak_pending_ = std::max(peak_pending_, sim_.pending());
  }

  void cancel(std::uint64_t seq) {
    if (seq >= events_.size()) return;
    Event& e = events_[seq];
    e.handle.cancel();  // a no-op unless the event is still pending
    if (e.handle.valid()) {
      ADD_FAILURE() << "event " << seq << " is still pending after cancel";
      sim_.request_stop();  // its record would fire an empty callable
    }
    if (e.state != State::kPending) return;
    live_.erase({e.at, seq});
    tombs_.insert({e.at, seq});
    e.state = State::kCancelled;
  }

  void on_fire(std::uint64_t seq) {
    if (::testing::Test::HasFailure()) return;
    Event& e = events_[seq];
    const Key key{e.at, seq};
    if (e.state != State::kPending || live_.empty() ||
        *live_.begin() != key) {
      ADD_FAILURE() << "fired (" << e.at << ", " << seq << ") but the model's "
                    << "next is "
                    << (live_.empty()
                            ? std::string("nothing")
                            : "(" + std::to_string(live_.begin()->first) +
                                  ", " +
                                  std::to_string(live_.begin()->second) + ")");
      return;
    }
    // step() reaped every tombstone ahead of this record on the way here.
    while (!tombs_.empty() && *tombs_.begin() < key) {
      tombs_.erase(tombs_.begin());
      ++reaped_;
    }
    live_.erase(live_.begin());
    e.state = State::kFired;
    ++fired_;
    EXPECT_EQ(sim_.now(), e.at);
    EXPECT_FALSE(e.handle.valid()) << "a firing event is no longer pending";
    if (rng_.bernoulli(0.2)) {
      const std::uint64_t before = sim_.cancelled_pending();
      events_[seq].handle.cancel();
      EXPECT_EQ(sim_.cancelled_pending(), before) << "self-cancel is a no-op";
    }
    if (rng_.bernoulli(0.3)) {
      const std::int64_t more = rng_.uniform_int(1, 2);
      for (std::int64_t k = 0; k < more; ++k) schedule(random_time());
    }
    if (rng_.bernoulli(0.1)) cancel(random_seq());
  }

  void step() {
    const bool any_live = !live_.empty();
    EXPECT_EQ(sim_.step(), any_live);
    if (!any_live) reap_all();  // the loop popped every tombstone
  }

  void run_until(SimTime horizon) {
    sim_.run_until(horizon);
    // Every record at or before the horizon has left the heap.
    while (!tombs_.empty() && tombs_.begin()->first <= horizon) {
      tombs_.erase(tombs_.begin());
      ++reaped_;
    }
    EXPECT_TRUE(live_.empty() || live_.begin()->first > horizon)
        << "run_until(" << horizon << ") left a due event";
    if (horizon != kTimeNever) {
      EXPECT_EQ(sim_.now(), horizon);
    }
  }

  void cancel_all() {
    sim_.cancel_all();
    reap_all();
    for (const Key& k : live_) events_[k.second].state = State::kCancelled;
    live_.clear();
  }

  void reap_all() {
    reaped_ += tombs_.size();
    tombs_.clear();
  }

  void check_counters() {
    EXPECT_EQ(sim_.live_pending(), live_.size());
    EXPECT_EQ(sim_.cancelled_pending(), tombs_.size());
    EXPECT_EQ(sim_.pending(), live_.size() + tombs_.size());
    EXPECT_EQ(sim_.tombstones_reaped(), reaped_);
    EXPECT_EQ(sim_.events_executed(), fired_);
  }

  void check_handles(std::size_t samples) {
    for (std::size_t k = 0; k < samples && k < events_.size(); ++k) {
      const std::uint64_t seq =
          samples >= events_.size() ? k : random_seq();
      const Event& e = events_[seq];
      EXPECT_EQ(e.handle.valid(), e.state == State::kPending)
          << "handle of event " << seq;
    }
  }

  Simulator sim_;
  Rng rng_;
  std::vector<Event> events_;  // indexed by seq: the schedule order
  std::set<Key> live_;
  std::set<Key> tombs_;
  std::uint64_t fired_ = 0;
  std::uint64_t reaped_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t auto_purges_ = 0;
};

TEST(SimulatorProperty, RandomInterleavingsMatchAnOrderedSetOfAtSeq) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    QueueModel model(seed);
    model.drive(2500);
    if (HasFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
    EXPECT_GT(model.peak_pending(), 4096u) << "the heap never got 7 deep";
    EXPECT_GT(model.fired(), 50000u);
    EXPECT_GT(model.reaped(), 1000u);
    EXPECT_GT(model.auto_purges(), 0u);
  }
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
