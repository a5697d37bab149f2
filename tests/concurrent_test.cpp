// Multiple concurrent initiations (Section 3.5): the Koo-Toueg "ignore"
// technique — an active initiator refuses foreign requests and the
// refused initiation aborts — plus non-overlapping concurrency, where
// independent parts of the system checkpoint simultaneously.
#include <gtest/gtest.h>

#include "harness/system.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::System;
using harness::SystemOptions;
using workload::ScriptStep;
using workload::ScriptedWorkload;
using K = ScriptStep::Kind;

SystemOptions concurrent_options(int n) {
  SystemOptions opts;
  opts.num_processes = n;
  opts.algorithm = Algorithm::kCaoSinghal;
  return opts;
}

void run_script(System& sys, const std::vector<ScriptStep>& steps) {
  ScriptedWorkload wl(
      sys.simulator(),
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); },
      [&sys](ProcessId p) { sys.initiate(p); });
  wl.run(steps);
  sys.simulator().run_until(sim::kTimeNever);
}

TEST(Concurrent, DisjointInitiationsBothCommit) {
  // Two initiators with disjoint dependency sets: no interference.
  System sys(concurrent_options(6));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 0},
      {sim::milliseconds(20), K::kSend, 4, 3},
      {sim::milliseconds(100), K::kInitiate, 0, -1},
      {sim::milliseconds(101), K::kInitiate, 3, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 2u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_TRUE(inits[1]->committed());
  EXPECT_EQ(inits[0]->tentative, 2u);
  EXPECT_EQ(inits[1]->tentative, 2u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(Concurrent, CollidingInitiatorRefusesAndOneAborts) {
  // P0 and P2 initiate simultaneously and each depends on the other:
  // each initiator receives the other's request while active and
  // refuses, so both initiations abort (the Koo-Toueg "ignore" price).
  System sys(concurrent_options(4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 0, 2},
      {sim::milliseconds(20), K::kSend, 2, 0},
      {sim::milliseconds(100), K::kInitiate, 0, -1},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 2u);
  int aborted = 0;
  for (auto* st : inits) {
    if (st->aborted()) ++aborted;
  }
  EXPECT_EQ(aborted, 2);
  // Aborts restore state: a later lone initiation succeeds and picks up
  // the preserved dependencies.
  System sys2(concurrent_options(4));
  run_script(sys2, {
      {sim::milliseconds(10), K::kSend, 0, 2},
      {sim::milliseconds(20), K::kSend, 2, 0},
      {sim::milliseconds(100), K::kInitiate, 0, -1},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::seconds(30), K::kInitiate, 0, -1},
  });
  auto inits2 = sys2.tracker().in_order();
  ASSERT_EQ(inits2.size(), 3u);
  EXPECT_TRUE(inits2[2]->committed());
  EXPECT_EQ(inits2[2]->tentative, 2u);  // the 0<->2 dependency survived
  EXPECT_TRUE(sys2.check_consistency().consistent);
}

TEST(Concurrent, ParticipantOverlapIsTolerated) {
  // P1 is a dependency of both initiators; whichever request arrives
  // second finds P1 already holding a tentative. The runs must stay
  // consistent whether that second initiation commits or aborts.
  System sys(concurrent_options(5));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 0},
      {sim::milliseconds(20), K::kSend, 1, 3},
      {sim::milliseconds(100), K::kInitiate, 0, -1},
      {sim::milliseconds(100), K::kInitiate, 3, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 2u);
  int committed = 0;
  for (auto* st : inits) {
    if (st->committed()) ++committed;
  }
  EXPECT_GE(committed, 1);
  EXPECT_TRUE(sys.check_consistency().consistent);
  EXPECT_FALSE(sys.any_coordination_active());
}

TEST(Concurrent, RandomizedConcurrentInitiationsStayConsistent) {
  for (std::uint64_t seed : {41ull, 42ull, 43ull}) {
    SystemOptions opts = concurrent_options(8);
    opts.seed = seed;
    System sys(opts);

    workload::PointToPointWorkload wl(
        sys.simulator(), sys.rng(), sys.n(), 0.3,
        [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
    wl.start(sim::seconds(1200));

    // Unserialized initiations: every process fires on its own clock.
    sim::Rng& rng = sys.rng();
    for (ProcessId p = 0; p < sys.n(); ++p) {
      for (int k = 1; k <= 4; ++k) {
        sim::SimTime at = sim::seconds(60 * k) +
                          rng.exponential(sim::seconds(30));
        sys.simulator().schedule_at(at, [&sys, p]() {
          if (!sys.proto(p).coordination_active()) sys.initiate(p);
        });
      }
    }
    sys.simulator().run_until(sim::kTimeNever);

    std::size_t committed = 0, aborted = 0;
    for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
      if (st->committed()) ++committed;
      if (st->aborted()) ++aborted;
    }
    EXPECT_GT(committed, 0u);
    ckpt::CheckResult res = sys.check_consistency();
    EXPECT_TRUE(res.consistent) << "seed " << seed << ": " << res.describe();
    EXPECT_FALSE(sys.any_coordination_active());
  }
}

}  // namespace
}  // namespace mck
