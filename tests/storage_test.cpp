// Stable-storage occupancy (Section 6): "In the coordinated checkpointing
// algorithm presented in this paper, most of the time, each process needs
// to store only one permanent checkpoint on the stable storage and at most
// two checkpoints: a permanent and a tentative (or mutable) checkpoint
// only for the duration of the checkpointing." Verified as an invariant,
// and contrasted with uncoordinated hoarding.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::System;
using harness::SystemOptions;

TEST(Storage, SupersededPermanentIsReclaimed) {
  ckpt::CheckpointStore store(2);
  store.set_auto_gc(true);
  ckpt::CkptRef a = store.take(0, ckpt::CkptKind::kTentative, 1, 1, 2, 100);
  store.make_permanent(a, 150);
  EXPECT_EQ(store.stable_live(0), 1u);

  ckpt::CkptRef b = store.take(0, ckpt::CkptKind::kTentative, 2, 2, 5, 300);
  // During the checkpointing: permanent + tentative coexist.
  EXPECT_EQ(store.stable_live(0), 2u);
  store.make_permanent(b, 350);
  // The old permanent was garbage collected: it left the store.
  EXPECT_EQ(store.stable_live(0), 1u);
  std::vector<ckpt::CkptRef> live;
  store.for_each_live(
      0, [&live](const ckpt::CheckpointRecord& r) { live.push_back(r.ref); });
  EXPECT_EQ(live, std::vector<ckpt::CkptRef>{b});
  EXPECT_EQ(store.count(ckpt::CkptKind::kPermanent), 1u);
  EXPECT_EQ(store.peak_stable_occupancy(), 2u);
}

TEST(Storage, NoGcKeepsHistory) {
  ckpt::CheckpointStore store(1);  // auto_gc off by default
  for (int i = 0; i < 4; ++i) {
    ckpt::CkptRef r = store.take(0, ckpt::CkptKind::kTentative,
                                 static_cast<Csn>(i + 1), 0,
                                 static_cast<std::uint64_t>(i), 100 * (i + 1));
    store.make_permanent(r, 100 * (i + 1) + 10);
  }
  EXPECT_EQ(store.stable_live(0), 4u);
  EXPECT_EQ(store.count(ckpt::CkptKind::kPermanent), 4u);
}

TEST(Storage, CoordinatedPeakOccupancyIsTwo) {
  // The paper's Section 6 bound, measured over long randomized runs for
  // every coordinated algorithm.
  for (Algorithm algo : {Algorithm::kCaoSinghal, Algorithm::kKooToueg,
                         Algorithm::kElnozahy}) {
    harness::ExperimentConfig cfg;
    cfg.sys.algorithm = algo;
    cfg.sys.num_processes = 8;
    cfg.sys.seed = 2;
    cfg.rate = 0.3;
    cfg.ckpt_interval = sim::seconds(300);
    cfg.horizon = sim::seconds(3600);

    // Re-run with store access.
    System sys(cfg.sys);
    workload::PointToPointWorkload wl(
        sys.simulator(), sys.rng(), sys.n(), cfg.rate,
        [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
    wl.start(cfg.horizon);
    harness::SchedulerOptions so;
    so.interval = cfg.ckpt_interval;
    harness::CheckpointScheduler sched(sys, so);
    sched.start(cfg.horizon);
    sys.simulator().run_until(sim::kTimeNever);

    EXPECT_GT(sys.stats().permanent_made, 8u) << harness::to_string(algo);
    EXPECT_LE(sys.store().peak_stable_occupancy(), 2u)
        << harness::to_string(algo);
  }
}

TEST(Storage, UncoordinatedHoardsCheckpoints) {
  SystemOptions opts;
  opts.num_processes = 4;
  opts.algorithm = Algorithm::kUncoordinated;
  opts.seed = 6;
  System sys(opts);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.5,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(sim::seconds(1800));
  sys.simulator().run_until(sim::kTimeNever);
  // Dozens of checkpoints pile up per process — the Section 6 storage
  // criticism of uncoordinated approaches.
  EXPECT_GT(sys.store().stable_live(0), 10u);
}

// The store holds live state only: a long coordinated run keeps no more
// records than a short one, and no process ever holds more than two
// stable checkpoints (Section 6).
std::size_t cao_singhal_live_records(sim::SimTime horizon,
                                     std::size_t* max_stable) {
  SystemOptions opts;
  opts.num_processes = 8;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.seed = 3;
  System sys(opts);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.3,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(horizon);
  harness::SchedulerOptions so;
  so.interval = sim::seconds(300);
  harness::CheckpointScheduler sched(sys, so);
  sched.start(horizon);
  for (sim::SimTime t = sim::seconds(60); t < horizon; t += sim::seconds(60)) {
    sys.simulator().run_until(t);
    for (ProcessId p = 0; p < sys.n(); ++p) {
      *max_stable = std::max(*max_stable, sys.store().stable_live(p));
    }
  }
  sys.simulator().run_until(sim::kTimeNever);
  std::size_t live = 0;
  for (ProcessId p = 0; p < sys.n(); ++p) {
    sys.store().for_each_live(
        p, [&live](const ckpt::CheckpointRecord&) { ++live; });
  }
  EXPECT_GT(sys.stats().permanent_made, live);  // reclaimed records left
  return live;
}

TEST(Storage, LiveRecordsDoNotGrowWithTheHorizon) {
  std::size_t max_stable = 0;
  const std::size_t one_hour =
      cao_singhal_live_records(sim::seconds(3600), &max_stable);
  const std::size_t four_hours =
      cao_singhal_live_records(4 * sim::seconds(3600), &max_stable);
  EXPECT_GT(one_hour, 0u);
  EXPECT_LE(four_hours, one_hour);
  EXPECT_LE(max_stable, 2u);
  EXPECT_GT(max_stable, 0u);
}

}  // namespace
}  // namespace mck
