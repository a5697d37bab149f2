// Workload generators: rates, destination distributions, group
// structure, determinism.
#include "workload/traffic.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mck::workload {
namespace {

TEST(PointToPoint, RateIsRespected) {
  sim::Simulator simu;
  sim::Rng rng(1);
  std::uint64_t sends = 0;
  PointToPointWorkload wl(simu, rng, 8, 0.5,
                          [&](ProcessId, ProcessId) { ++sends; });
  wl.start(sim::seconds(2000));
  simu.run_until();
  // 8 processes * 0.5 msg/s * 2000 s = 8000 expected.
  EXPECT_NEAR(static_cast<double>(sends), 8000.0, 400.0);
}

TEST(PointToPoint, DestinationsUniformAndNeverSelf) {
  sim::Simulator simu;
  sim::Rng rng(2);
  std::map<std::pair<ProcessId, ProcessId>, int> hist;
  PointToPointWorkload wl(simu, rng, 4, 1.0,
                          [&](ProcessId a, ProcessId b) {
                            ASSERT_NE(a, b);
                            ++hist[{a, b}];
                          });
  wl.start(sim::seconds(3000));
  simu.run_until();
  // All 12 ordered pairs used, roughly evenly.
  EXPECT_EQ(hist.size(), 12u);
  for (auto& [pair, count] : hist) {
    EXPECT_NEAR(count, 1000, 200) << "P" << pair.first << "->P"
                                  << pair.second;
  }
}

TEST(PointToPoint, StopsAtHorizon) {
  sim::Simulator simu;
  sim::Rng rng(3);
  sim::SimTime last_send = 0;
  PointToPointWorkload wl(simu, rng, 4, 2.0, [&](ProcessId, ProcessId) {
    last_send = simu.now();
  });
  wl.start(sim::seconds(100));
  simu.run_until();
  EXPECT_LE(last_send, sim::seconds(100));
  EXPECT_GT(last_send, sim::seconds(90));
}

TEST(PointToPoint, MeanGapRefusesRatesSimTimeCannotHold) {
  EXPECT_EQ(mean_gap(0.5), sim::seconds(2));
  EXPECT_EQ(mean_gap(0.5, 1000.0), sim::seconds(2000));
  EXPECT_EQ(mean_gap(1e300), 0);
  EXPECT_EQ(mean_gap(1e-300), 0);
  EXPECT_EQ(mean_gap(1.0, 1e300), 0);
  EXPECT_EQ(mean_gap(1.0, 1e-300), 0);
}

TEST(PointToPoint, GapsPastEveryHorizonEndTheStreamCleanly) {
  // A mean of 5e18 ns draws some gaps too long for SimTime. They
  // saturate at kTimeNever, so the stream stops at the horizon instead
  // of wrapping to a send at 1 ns.
  sim::Simulator simu;
  sim::Rng rng(4);
  std::uint64_t sends = 0;
  PointToPointWorkload wl(simu, rng, 64, 2e-10,
                          [&](ProcessId, ProcessId) { ++sends; });
  wl.start(sim::seconds(3600));
  simu.run_until();
  EXPECT_EQ(sends, 0u);
}

TEST(Group, StructureLeadersAndMembers) {
  sim::Simulator simu;
  sim::Rng rng(4);
  GroupWorkload wl(simu, rng, 16, 4, 1.0, 1000.0,
                   [](ProcessId, ProcessId) {});
  EXPECT_TRUE(wl.is_leader(0));
  EXPECT_TRUE(wl.is_leader(4));
  EXPECT_TRUE(wl.is_leader(12));
  EXPECT_FALSE(wl.is_leader(1));
  EXPECT_FALSE(wl.is_leader(15));
  EXPECT_EQ(wl.group_of(0), 0);
  EXPECT_EQ(wl.group_of(7), 1);
  EXPECT_EQ(wl.group_of(15), 3);
}

TEST(Group, IntragroupTrafficStaysInGroupAndInterIsLeaderToLeader) {
  sim::Simulator simu;
  sim::Rng rng(5);
  std::uint64_t intra = 0, inter = 0;
  GroupWorkload* ref = nullptr;
  GroupWorkload wl(simu, rng, 16, 4, 0.5, 100.0,
                   [&](ProcessId a, ProcessId b) {
                     ASSERT_NE(a, b);
                     if (ref->group_of(a) == ref->group_of(b)) {
                       ++intra;
                     } else {
                       ++inter;
                       EXPECT_TRUE(ref->is_leader(a));
                       EXPECT_TRUE(ref->is_leader(b));
                     }
                   });
  ref = &wl;
  wl.start(sim::seconds(4000));
  simu.run_until();
  EXPECT_GT(intra, 0u);
  EXPECT_GT(inter, 0u);
  // 16 senders at the intra rate vs 4 leaders at rate/100:
  // intra/inter ~ (16*0.5) / (4*0.005) = 400.
  double ratio = static_cast<double>(intra) / static_cast<double>(inter);
  EXPECT_NEAR(ratio, 400.0, 200.0);
}

TEST(Workloads, DeterministicPerSeed) {
  auto trace = [](std::uint64_t seed) {
    sim::Simulator simu;
    sim::Rng rng(seed);
    std::vector<std::tuple<sim::SimTime, ProcessId, ProcessId>> out;
    PointToPointWorkload wl(simu, rng, 6, 0.3,
                            [&](ProcessId a, ProcessId b) {
                              out.emplace_back(simu.now(), a, b);
                            });
    wl.start(sim::seconds(200));
    simu.run_until();
    return out;
  };
  EXPECT_EQ(trace(77), trace(77));
  EXPECT_NE(trace(77), trace(78));
}

TEST(Scripted, ExecutesStepsAtExactTimes) {
  sim::Simulator simu;
  std::vector<std::pair<sim::SimTime, int>> log;
  ScriptedWorkload wl(
      simu,
      [&](ProcessId a, ProcessId b) { log.emplace_back(simu.now(), a * 10 + b); },
      [&](ProcessId p) { log.emplace_back(simu.now(), 100 + p); });
  wl.run({
      {sim::milliseconds(5), ScriptStep::Kind::kSend, 1, 2},
      {sim::milliseconds(7), ScriptStep::Kind::kInitiate, 3, -1},
  });
  simu.run_until();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], std::make_pair(sim::milliseconds(5), 12));
  EXPECT_EQ(log[1], std::make_pair(sim::milliseconds(7), 103));
}

}  // namespace
}  // namespace mck::workload
