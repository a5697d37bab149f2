// Property-based tests: randomized workloads x algorithms, asserting the
// paper's invariants on every run —
//   * Theorem 1: every committed global checkpoint line is consistent
//     (no orphan messages);
//   * Theorem 2: every initiation terminates (commit or abort);
//   * Lemma 1: a process inherits at most one request per initiation;
//   * Theorem 3 (minimality): Cao-Singhal checkpoints exactly the
//     processes Koo-Toueg would, on identical dependency structures.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "harness/experiment.hpp"
#include "harness/system.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::ExperimentConfig;
using harness::RunResult;
using harness::System;
using harness::SystemOptions;

// ---------------------------------------------------------------------
// Randomized end-to-end runs
// ---------------------------------------------------------------------

struct RandomRunCase {
  Algorithm algo;
  double rate;       // msgs/s per process
  std::uint64_t seed;
};

class RandomizedRun : public ::testing::TestWithParam<RandomRunCase> {};

TEST_P(RandomizedRun, CommittedLinesConsistentAndTerminating) {
  const RandomRunCase& c = GetParam();
  ExperimentConfig cfg;
  cfg.sys.algorithm = c.algo;
  cfg.sys.num_processes = 8;
  cfg.sys.seed = c.seed;
  cfg.rate = c.rate;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(3600);

  RunResult res = harness::run_experiment(cfg);  // asserts consistency

  EXPECT_TRUE(res.consistent);
  EXPECT_EQ(res.orphans, 0u);
  EXPECT_GT(res.initiations, 0u);
  EXPECT_GT(res.committed, 0u);
  EXPECT_EQ(res.aborted, 0u);  // serialized: no refusals
  EXPECT_GT(res.lines_checked, 0u);
  // Every committed initiation checkpointed at least the initiator.
  EXPECT_GE(res.tentative_per_init.min(), 1.0);
}

std::vector<RandomRunCase> random_cases() {
  std::vector<RandomRunCase> cases;
  for (Algorithm a :
       {Algorithm::kCaoSinghal, Algorithm::kKooToueg, Algorithm::kElnozahy,
        Algorithm::kChandyLamport, Algorithm::kLaiYang}) {
    for (double rate : {0.02, 0.2, 1.0}) {
      for (std::uint64_t seed : {11ull, 29ull}) {
        cases.push_back({a, rate, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomizedRun, ::testing::ValuesIn(random_cases()),
    [](const ::testing::TestParamInfo<RandomRunCase>& info) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s_rate%d_seed%llu",
                    harness::to_string(info.param.algo),
                    static_cast<int>(info.param.rate * 100),
                    static_cast<unsigned long long>(info.param.seed));
      std::string s = buf;
      for (char& ch : s) {
        if (ch == '-' || ch == '.') ch = '_';
      }
      return s;
    });

// ---------------------------------------------------------------------
// Lemma 1 over randomized runs
// ---------------------------------------------------------------------

// Every coordinated protocol: a committed initiation contributes exactly
// one line update per tentative checkpoint, and at most one per process.
struct Lemma1Case {
  Algorithm algo;
  harness::TransportKind transport;
};

class Lemma1 : public ::testing::TestWithParam<Lemma1Case> {};

TEST_P(Lemma1, AtMostOneStableCheckpointPerProcessPerInitiation) {
  for (std::uint64_t seed : {3ull, 17ull, 23ull}) {
    ExperimentConfig cfg;
    cfg.sys.algorithm = GetParam().algo;
    cfg.sys.transport = GetParam().transport;
    cfg.sys.num_processes = 10;
    cfg.sys.seed = seed;
    cfg.rate = 0.5;
    cfg.ckpt_interval = sim::seconds(300);
    cfg.horizon = sim::seconds(3600);

    // Re-run with direct access to the tracker.
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

    for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
      if (!st->committed()) continue;
      std::map<ProcessId, int> per_process;
      for (const auto& [pid, cursor] : st->line_updates) {
        (void)cursor;
        EXPECT_EQ(++per_process[pid], 1)
            << "P" << pid << " checkpointed twice in one initiation";
      }
      EXPECT_EQ(per_process.size(), st->tentative);
    }
    EXPECT_TRUE(sys.check_consistency().consistent);
  }
}

std::vector<Lemma1Case> lemma1_cases() {
  std::vector<Lemma1Case> cases;
  for (Algorithm a :
       {Algorithm::kCaoSinghal, Algorithm::kKooToueg, Algorithm::kElnozahy,
        Algorithm::kChandyLamport, Algorithm::kLaiYang}) {
    for (harness::TransportKind t :
         {harness::TransportKind::kLan, harness::TransportKind::kCellular}) {
      cases.push_back({a, t});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Coordinated, Lemma1, ::testing::ValuesIn(lemma1_cases()),
    [](const ::testing::TestParamInfo<Lemma1Case>& info) {
      std::string s = harness::to_string(info.param.algo);
      s += info.param.transport == harness::TransportKind::kLan ? "_lan"
                                                                : "_cellular";
      for (char& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

// ---------------------------------------------------------------------
// Theorem 3: min-process equality with Koo-Toueg
// ---------------------------------------------------------------------

// Generates identical random pre-traffic for both algorithms, then fires
// one initiation and compares the checkpointed sets.
TEST(MinProcess, MatchesKooTouegOnIdenticalDependencies) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    // Build a deterministic random script of pre-initiation traffic.
    sim::Rng rng(seed);
    const int n = 8;
    std::vector<workload::ScriptStep> steps;
    sim::SimTime t = sim::milliseconds(10);
    int messages = static_cast<int>(rng.uniform_int(5, 30));
    for (int i = 0; i < messages; ++i) {
      ProcessId a = static_cast<ProcessId>(rng.uniform_int(0, n - 1));
      ProcessId b = static_cast<ProcessId>(rng.uniform_int(0, n - 2));
      if (b >= a) ++b;
      steps.push_back({t, workload::ScriptStep::Kind::kSend, a, b});
      t += sim::milliseconds(static_cast<std::int64_t>(
          rng.uniform_int(5, 50)));
    }
    ProcessId initiator = static_cast<ProcessId>(rng.uniform_int(0, n - 1));
    steps.push_back({t + sim::milliseconds(100),
                     workload::ScriptStep::Kind::kInitiate, initiator, -1});

    auto run = [&](Algorithm algo) {
      SystemOptions opts;
      opts.num_processes = n;
      opts.algorithm = algo;
      System sys(opts);
      workload::ScriptedWorkload wl(
          sys.simulator(),
          [&sys](ProcessId a, ProcessId b) { sys.send(a, b); },
          [&sys](ProcessId p) { sys.initiate(p); });
      wl.run(steps);
      sys.simulator().run_until(sim::kTimeNever);
      EXPECT_TRUE(sys.check_consistency().consistent);
      auto inits = sys.tracker().in_order();
      EXPECT_EQ(inits.size(), 1u);
      std::set<ProcessId> who;
      for (const auto& [pid, cursor] : inits[0]->line_updates) {
        (void)cursor;
        who.insert(pid);
      }
      return who;
    };

    std::set<ProcessId> cs = run(Algorithm::kCaoSinghal);
    std::set<ProcessId> kt = run(Algorithm::kKooToueg);
    EXPECT_EQ(cs, kt) << "seed " << seed << ": Cao-Singhal checkpointed "
                      << cs.size() << " processes, Koo-Toueg " << kt.size();
  }
}

// ---------------------------------------------------------------------
// Commit-mode equivalence (Section 3.3.5)
// ---------------------------------------------------------------------

class CommitModeRun : public ::testing::TestWithParam<core::CommitMode> {};

TEST_P(CommitModeRun, AllCommitModesStayConsistent) {
  ExperimentConfig cfg;
  cfg.sys.algorithm = Algorithm::kCaoSinghal;
  cfg.sys.num_processes = 8;
  cfg.sys.cs.commit_mode = GetParam();
  cfg.sys.seed = 5;
  cfg.rate = 0.5;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(3600);
  RunResult res = harness::run_experiment(cfg);
  EXPECT_TRUE(res.consistent);
  EXPECT_GT(res.committed, 0u);
  // No mutable checkpoint may outlive its initiation's termination.
  EXPECT_EQ(res.stats.mutable_taken,
            res.stats.mutable_promoted + res.stats.mutable_discarded);
}

INSTANTIATE_TEST_SUITE_P(Modes, CommitModeRun,
                         ::testing::Values(core::CommitMode::kBroadcast,
                                           core::CommitMode::kUpdate,
                                           core::CommitMode::kHybrid),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::CommitMode::kBroadcast:
                               return "Broadcast";
                             case core::CommitMode::kUpdate: return "Update";
                             case core::CommitMode::kHybrid: return "Hybrid";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------
// Group workload sanity
// ---------------------------------------------------------------------

TEST(GroupWorkloadRun, ConsistentAndFewerCheckpointsThanP2P) {
  ExperimentConfig p2p;
  p2p.sys.algorithm = Algorithm::kCaoSinghal;
  p2p.sys.num_processes = 16;
  p2p.sys.seed = 9;
  p2p.rate = 0.2;
  p2p.ckpt_interval = sim::seconds(300);
  p2p.horizon = sim::seconds(7200);

  ExperimentConfig grp = p2p;
  grp.workload = harness::WorkloadKind::kGroup;
  grp.groups = 4;
  grp.group_ratio = 1000.0;

  RunResult rp = harness::run_experiment(p2p);
  RunResult rg = harness::run_experiment(grp);
  EXPECT_TRUE(rp.consistent);
  EXPECT_TRUE(rg.consistent);
  // The paper's Fig. 6 observation: group communication localizes
  // dependencies, so initiations force fewer checkpoints.
  EXPECT_LT(rg.tentative_per_init.mean(), rp.tentative_per_init.mean());
}


// ---------------------------------------------------------------------
// Randomized runs over the cellular transport
// ---------------------------------------------------------------------

class CellularRandomizedRun : public ::testing::TestWithParam<RandomRunCase> {
};

TEST_P(CellularRandomizedRun, ConsistentOnCellularTransport) {
  const RandomRunCase& c = GetParam();
  ExperimentConfig cfg;
  cfg.sys.algorithm = c.algo;
  cfg.sys.num_processes = 8;
  cfg.sys.transport = harness::TransportKind::kCellular;
  cfg.sys.cellular.num_mss = 3;
  cfg.sys.seed = c.seed;
  cfg.rate = c.rate;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(3600);
  RunResult res = harness::run_experiment(cfg);
  EXPECT_TRUE(res.consistent);
  EXPECT_GT(res.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CellSweep, CellularRandomizedRun,
    ::testing::Values(RandomRunCase{Algorithm::kCaoSinghal, 0.2, 13},
                      RandomRunCase{Algorithm::kCaoSinghal, 1.0, 14},
                      RandomRunCase{Algorithm::kKooToueg, 0.2, 13},
                      RandomRunCase{Algorithm::kElnozahy, 0.2, 13},
                      RandomRunCase{Algorithm::kChandyLamport, 0.2, 13},
                      RandomRunCase{Algorithm::kLaiYang, 0.2, 13}),
    [](const ::testing::TestParamInfo<RandomRunCase>& info) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s_rate%d_seed%llu",
                    harness::to_string(info.param.algo),
                    static_cast<int>(info.param.rate * 100),
                    static_cast<unsigned long long>(info.param.seed));
      std::string s = buf;
      for (char& ch : s) {
        if (ch == '-' || ch == '.') ch = '_';
      }
      return s;
    });

// ---------------------------------------------------------------------
// Honest wire sizes across commit modes
// ---------------------------------------------------------------------

TEST(WireSizes, ConsistentAcrossCommitModes) {
  for (core::CommitMode mode :
       {core::CommitMode::kBroadcast, core::CommitMode::kUpdate}) {
    ExperimentConfig cfg;
    cfg.sys.algorithm = Algorithm::kCaoSinghal;
    cfg.sys.num_processes = 8;
    cfg.sys.cs.commit_mode = mode;
    cfg.sys.timing.use_wire_sizes = true;
    cfg.sys.seed = 21;
    cfg.rate = 0.3;
    cfg.ckpt_interval = sim::seconds(300);
    cfg.horizon = sim::seconds(1800);
    RunResult res = harness::run_experiment(cfg);
    EXPECT_TRUE(res.consistent);
    EXPECT_GT(res.committed, 0u);
  }
}

}  // namespace
}  // namespace mck
