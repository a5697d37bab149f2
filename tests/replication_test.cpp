// Replicated-experiment runner: independent per-rep seed derivation and
// the parallel worker pool. The forcing invariant is that the merged
// aggregate is a pure function of (config, reps) — never of the job
// count or thread scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <thread>

#include "harness/experiment.hpp"
#include "stats/welford.hpp"

namespace mck {
namespace {

using harness::replication_seed;

TEST(ReplicationSeed, RepZeroRunsTheBaseSeed) {
  EXPECT_EQ(replication_seed(1, 0), 1u);
  EXPECT_EQ(replication_seed(123456789, 0), 123456789u);
}

TEST(ReplicationSeed, SeedsAreDistinctWithinARun) {
  std::set<std::uint64_t> seeds;
  for (int r = 0; r < 64; ++r) seeds.insert(replication_seed(42, r));
  EXPECT_EQ(seeds.size(), 64u);
}

// Regression for the seed+1, seed+2, ... scheme: two configs whose base
// seeds differ by 1 used to share all but one of their replicate RNG
// streams, correlating every averaged data point of a sweep.
TEST(ReplicationSeed, AdjacentBaseSeedsShareNoStreams) {
  for (std::uint64_t base : {1ull, 1000ull, 0xdeadbeefull}) {
    std::set<std::uint64_t> a, b;
    for (int r = 0; r < 32; ++r) {
      a.insert(replication_seed(base, r));
      b.insert(replication_seed(base + 1, r));
    }
    std::set<std::uint64_t> both;
    for (std::uint64_t s : a) {
      if (b.count(s)) both.insert(s);
    }
    EXPECT_TRUE(both.empty()) << "base " << base << " shares " << both.size()
                              << " replicate seeds with base " << base + 1;
  }
}

// resolve_jobs only computes a count; these tests start no thread.
int cpus() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ResolveJobs, ExplicitValueWins) {
  EXPECT_EQ(harness::resolve_jobs(3), std::min(3, cpus()));
  EXPECT_EQ(harness::resolve_jobs(1), 1);
}

TEST(ResolveJobs, CappedAtTheCpuCount) {
  EXPECT_EQ(harness::resolve_jobs(cpus()), cpus());
  EXPECT_EQ(harness::resolve_jobs(cpus() + 1), cpus());
  EXPECT_EQ(harness::resolve_jobs(std::numeric_limits<int>::max()), cpus());
  setenv("MCK_JOBS", "2147483647", 1);
  EXPECT_EQ(harness::resolve_jobs(0), cpus());
  unsetenv("MCK_JOBS");
}

TEST(ResolveJobs, DefaultsComeFromEnvironment) {
  unsetenv("MCK_JOBS");
  EXPECT_EQ(harness::resolve_jobs(0), 1);
  setenv("MCK_JOBS", "6", 1);
  EXPECT_EQ(harness::resolve_jobs(0), std::min(6, cpus()));
  setenv("MCK_JOBS", "2", 1);
  EXPECT_EQ(harness::resolve_jobs(0), std::min(2, cpus()));
  // Anything but a whole positive int is serial: garbage, a numeric
  // prefix, a value past int or past long, zero, negative, empty.
  for (const char* bad : {"garbage", "abc", "4x", "2147483648",
                          "99999999999999999999", "0", "-3", ""}) {
    setenv("MCK_JOBS", bad, 1);
    EXPECT_EQ(harness::resolve_jobs(0), 1) << "MCK_JOBS=" << bad;
  }
  unsetenv("MCK_JOBS");
}

void expect_identical(const stats::Welford& a, const stats::Welford& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sum(), b.sum());
}

// Acceptance criterion of the parallel runner: --jobs N produces
// *bit-identical* aggregates to --jobs 1 (exact double equality, not
// near-equality), on a fig5-style configuration.
TEST(ParallelReplication, JobsDoNotChangeTheAggregate) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
  cfg.sys.num_processes = 16;
  cfg.sys.seed = 1000;
  cfg.workload = harness::WorkloadKind::kPointToPoint;
  cfg.rate = 0.02;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(1800);

  const int reps = 6;
  harness::RunResult serial = harness::run_replicated(cfg, reps, 1);
  harness::RunResult parallel = harness::run_replicated(cfg, reps, 8);

  ASSERT_GT(serial.committed, 0u);
  EXPECT_EQ(serial.initiations, parallel.initiations);
  EXPECT_EQ(serial.committed, parallel.committed);
  EXPECT_EQ(serial.aborted, parallel.aborted);
  EXPECT_EQ(serial.comp_msgs, parallel.comp_msgs);
  EXPECT_EQ(serial.forced_checkpoints, parallel.forced_checkpoints);
  EXPECT_EQ(serial.consistent, parallel.consistent);
  EXPECT_EQ(serial.orphans, parallel.orphans);
  EXPECT_EQ(serial.lines_checked, parallel.lines_checked);

  expect_identical(serial.tentative_per_init, parallel.tentative_per_init);
  expect_identical(serial.mutable_per_init, parallel.mutable_per_init);
  expect_identical(serial.redundant_mutable_per_init,
                   parallel.redundant_mutable_per_init);
  expect_identical(serial.sys_msgs_per_init, parallel.sys_msgs_per_init);
  expect_identical(serial.commit_delay_s, parallel.commit_delay_s);
  expect_identical(serial.t_msg_s, parallel.t_msg_s);
  expect_identical(serial.t_data_s, parallel.t_data_s);
  expect_identical(serial.blocked_s_per_init, parallel.blocked_s_per_init);
  expect_identical(serial.duplicate_requests_per_init,
                   parallel.duplicate_requests_per_init);

  for (int k = 0; k < rt::kMsgKindCount; ++k) {
    EXPECT_EQ(serial.stats.msgs_sent[k], parallel.stats.msgs_sent[k]);
    EXPECT_EQ(serial.stats.bytes_sent[k], parallel.stats.bytes_sent[k]);
  }
  EXPECT_EQ(serial.stats.deliveries, parallel.stats.deliveries);
  EXPECT_EQ(serial.stats.tentative_taken, parallel.stats.tentative_taken);
  EXPECT_EQ(serial.stats.mutable_taken, parallel.stats.mutable_taken);
  EXPECT_EQ(serial.stats.mutable_promoted, parallel.stats.mutable_promoted);
  EXPECT_EQ(serial.stats.blocked_time_total, parallel.stats.blocked_time_total);
  EXPECT_EQ(serial.stats.energy.total_joules(),
            parallel.stats.energy.total_joules());
}

// More worker threads than replications must neither deadlock nor
// duplicate work.
TEST(ParallelReplication, MoreJobsThanReps) {
  harness::ExperimentConfig cfg;
  cfg.sys.num_processes = 6;
  cfg.sys.seed = 7;
  cfg.rate = 0.05;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(900);

  harness::RunResult one = harness::run_replicated(cfg, 2, 16);
  harness::RunResult two = harness::run_replicated(cfg, 2, 1);
  EXPECT_EQ(one.initiations, two.initiations);
  EXPECT_EQ(one.comp_msgs, two.comp_msgs);
}

TEST(ParallelReplication, ZeroRepsYieldsEmptyResult) {
  harness::ExperimentConfig cfg;
  harness::RunResult res = harness::run_replicated(cfg, 0, 4);
  EXPECT_EQ(res.initiations, 0u);
  EXPECT_EQ(res.tentative_per_init.count(), 0u);
  EXPECT_TRUE(res.consistent);
}

// Welford merge guards: merging empty accumulators (a rep with zero
// committed initiations) must not poison the aggregate with NaN.
TEST(WelfordMerge, EmptyIntoEmpty) {
  stats::Welford a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_FALSE(std::isnan(a.mean()));
  EXPECT_FALSE(std::isnan(a.variance()));
}

TEST(WelfordMerge, EmptyIntoPopulated) {
  stats::Welford a, empty;
  a.add(2.0);
  a.add(4.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 2.0);
}

TEST(WelfordMerge, PopulatedIntoEmpty) {
  stats::Welford empty, b;
  b.add(2.0);
  b.add(4.0);
  empty.merge(b);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
  EXPECT_DOUBLE_EQ(empty.min(), 2.0);
  EXPECT_DOUBLE_EQ(empty.max(), 4.0);
}

TEST(WelfordMerge, MatchesSingleStream) {
  stats::Welford whole, left, right;
  for (int i = 0; i < 10; ++i) {
    double x = 0.5 * i * i - 3.0 * i;
    whole.add(x);
    (i < 4 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.mean(), whole.mean());
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

}  // namespace
}  // namespace mck
