// Vector clocks and the clock-based consistency oracle, including the
// cross-check property: on randomized runs, the clock condition and the
// direct orphan scan must agree on every line.
#include "clock_oracle.hpp"
#include "full_history.hpp"

#include <gtest/gtest.h>

#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "vector_clock.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

// ---------------------------------------------------------------------
// VectorClock basics
// ---------------------------------------------------------------------

TEST(VectorClock, TickAndMerge) {
  util::VectorClock a(3), b(3);
  a.tick(0);
  a.tick(0);
  b.tick(1);
  b.merge(a);
  EXPECT_EQ(b[0], 2u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 0u);
}

TEST(VectorClock, HappensBeforeIsStrict) {
  util::VectorClock a(2), b(2);
  a.tick(0);
  b = a;
  EXPECT_FALSE(a.happens_before(b));  // equal
  b.tick(1);
  EXPECT_TRUE(a.happens_before(b));
  EXPECT_FALSE(b.happens_before(a));
}

TEST(VectorClock, ConcurrentDetection) {
  util::VectorClock a(2), b(2);
  a.tick(0);
  b.tick(1);
  EXPECT_TRUE(a.concurrent_with(b));
  EXPECT_TRUE(b.concurrent_with(a));
  util::VectorClock c = a;
  EXPECT_FALSE(a.concurrent_with(c));
}

// ---------------------------------------------------------------------
// ClockOracle on hand-built logs
// ---------------------------------------------------------------------

TEST(ClockOracle, SimpleCausalChain) {
  ckpt::EventLog log(3);
  MessageId m1 = log.record_send(0, 1);  // P0 ev0
  log.record_recv(m1, 1);                // P1 ev0
  MessageId m2 = log.record_send(1, 2);  // P1 ev1
  log.record_recv(m2, 2);                // P2 ev0

  ckpt::ClockOracle oracle(log);
  // P2's clock after its receive knows one event of each predecessor.
  const util::VectorClock& vc = oracle.clock_at(2, 1);
  EXPECT_EQ(vc[0], 1u);
  EXPECT_EQ(vc[1], 2u);
  EXPECT_EQ(vc[2], 1u);
}

TEST(ClockOracle, DetectsOrphanLine) {
  ckpt::EventLog log(2);
  MessageId m = log.record_send(0, 1);
  log.record_recv(m, 1);

  ckpt::ClockOracle oracle(log);
  ckpt::Line bad(2);
  bad[0] = 0;  // send excluded
  bad[1] = 1;  // receive included -> orphan
  EXPECT_FALSE(oracle.line_consistent(bad));
  EXPECT_FALSE(log.find_orphans(bad).empty());

  ckpt::Line good(2);
  good[0] = 1;
  good[1] = 1;
  EXPECT_TRUE(oracle.line_consistent(good));
  good[1] = 0;  // in-transit only
  EXPECT_TRUE(oracle.line_consistent(good));
}

// ---------------------------------------------------------------------
// Agreement property on randomized full-system runs
// ---------------------------------------------------------------------

class OracleAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleAgreement, OrphanScanAndClockConditionAgree) {
  obs::Tracer tracer;
  tracer.enable(ckpt::kFullHistoryKinds);
  harness::SystemOptions opts;
  opts.num_processes = 6;
  opts.algorithm = harness::Algorithm::kCaoSinghal;
  opts.seed = GetParam();
  opts.tracer = &tracer;
  harness::System sys(opts);

  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.5,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(sim::seconds(600));
  harness::SchedulerOptions so;
  so.interval = sim::seconds(120);
  harness::CheckpointScheduler sched(sys, so);
  sched.start(sim::seconds(600));
  sys.simulator().run_until(sim::kTimeNever);

  // The system's log retired the records behind its settled lines; the
  // lines below are anywhere in the past, so both oracles read the full
  // history rebuilt from the trace.
  const ckpt::EventLog log =
      ckpt::full_history(tracer.take_records(), sys.n());
  ASSERT_EQ(ckpt::live_log_mismatch(log, sys.log()), "");
  ckpt::ClockOracle oracle(log);

  // Every committed line: both oracles say consistent.
  for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
    if (!st->committed()) continue;
    ckpt::Line line = ckpt::line_after(sys.tracker(), sys.n(), st->id);
    EXPECT_TRUE(log.find_orphans(line).empty());
    EXPECT_TRUE(oracle.line_consistent(line));
  }

  // Random lines: oracles must agree either way.
  sim::Rng rng(GetParam() * 7 + 1);
  int disagreements = 0;
  int inconsistent_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    ckpt::Line line(static_cast<std::size_t>(sys.n()));
    for (ProcessId p = 0; p < sys.n(); ++p) {
      line[p] = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(log.cursor(p))));
    }
    bool scan_ok = log.find_orphans(line).empty();
    bool clock_ok = oracle.line_consistent(line);
    if (scan_ok != clock_ok) ++disagreements;
    if (!scan_ok) ++inconsistent_seen;
  }
  EXPECT_EQ(disagreements, 0);
  // Sanity: random lines do hit inconsistent cases, so the agreement is
  // non-vacuous.
  EXPECT_GT(inconsistent_seen, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mck
