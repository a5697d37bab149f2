// The history-free event log on full runs: for every algorithm on both
// transports, the checker's verdict over a log that retires records equals
// the per-line reference over the full history (rebuilt from the trace),
// the live records are exactly the history's unretired ones, and the
// coordinated algorithms retire nearly everything they log.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "full_history.hpp"
#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "mobile/mobility.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::TransportKind;

class Retirement
    : public ::testing::TestWithParam<std::tuple<Algorithm, TransportKind>> {
};

TEST_P(Retirement, VerdictMatchesFullHistoryAndHistoryRetires) {
  const auto [algo, transport] = GetParam();
  obs::Tracer tracer;
  tracer.enable(ckpt::kFullHistoryKinds);
  harness::SystemOptions opts;
  opts.num_processes = 8;
  opts.algorithm = algo;
  opts.transport = transport;
  opts.seed = 31;
  opts.tracer = &tracer;
  harness::System sys(opts);

  // 60 checkpoint intervals, so the traffic since the last settled line
  // is a small part of the run, at a rate where some messages cross a
  // line in transit.
  const sim::SimTime horizon = sim::seconds(1200);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 4.0,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(horizon);
  harness::SchedulerOptions so;
  so.interval = sim::seconds(20);
  harness::CheckpointScheduler sched(sys, so);
  sched.start(horizon);
  sys.simulator().run_until(sim::kTimeNever);

  const ckpt::EventLog full =
      ckpt::full_history(tracer.take_records(), sys.n());
  EXPECT_EQ(ckpt::live_log_mismatch(full, sys.log()), "");
  const ckpt::CheckResult want = ckpt::check_per_line(full, sys.tracker());
  EXPECT_EQ(ckpt::check_result_mismatch(sys.check_consistency(), want), "");
  EXPECT_TRUE(want.consistent);

  const std::size_t sends = full.messages().size();
  ASSERT_GT(sends, 30000u);
  if (harness::has_committed_lines(algo)) {
    EXPECT_GT(want.lines_checked, 30u);
    EXPECT_GT(want.in_transit_total, 0u);
    EXPECT_GE(sys.log().retired(), sends * 9 / 10)
        << sys.log().retired() << " of " << sends << " records retired";
  } else {
    // No committed lines: nothing settles, so nothing retires and the
    // uncoordinated rollback search keeps the whole history.
    EXPECT_EQ(sys.log().retired(), 0u);
  }
}

// Handoffs and disconnections: a disconnected MH's computation messages
// wait at the MSS, so their receives land long after the lines around
// them settle.
TEST(RetirementMobile, HandoffsAndDisconnectionsMatchFullHistory) {
  obs::Tracer tracer;
  tracer.enable(ckpt::kFullHistoryKinds);
  harness::SystemOptions opts;
  opts.num_processes = 8;
  opts.transport = TransportKind::kCellular;
  opts.cellular.num_mss = 2;
  opts.seed = 37;
  opts.tracer = &tracer;
  harness::System sys(opts);

  const sim::SimTime horizon = sim::seconds(1200);
  mobile::MobilityModel mobility(sys.simulator(), sys.rng(), *sys.cellular());
  mobility.on_disconnect = [&sys](ProcessId p) { sys.cao(p).on_disconnect(); };
  mobility.start(horizon);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 4.0,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(horizon);
  harness::SchedulerOptions so;
  so.interval = sim::seconds(20);
  harness::CheckpointScheduler sched(sys, so);
  sched.start(horizon);
  sys.simulator().run_until(sim::kTimeNever);

  ASSERT_GT(sys.cellular()->messages_buffered(), 0u);
  const ckpt::EventLog full =
      ckpt::full_history(tracer.take_records(), sys.n());
  EXPECT_EQ(ckpt::live_log_mismatch(full, sys.log()), "");
  const ckpt::CheckResult want = ckpt::check_per_line(full, sys.tracker());
  EXPECT_EQ(ckpt::check_result_mismatch(sys.check_consistency(), want), "");
  EXPECT_TRUE(want.consistent);
  EXPECT_GT(want.lines_checked, 20u);
  EXPECT_GE(sys.log().retired(), full.messages().size() * 9 / 10);
}

std::string name_of(
    const ::testing::TestParamInfo<std::tuple<Algorithm, TransportKind>>&
        info) {
  std::string name = harness::to_string(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + (std::get<1>(info.param) == TransportKind::kLan ? "_lan"
                                                                : "_cellular");
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, Retirement,
    ::testing::Combine(
        ::testing::Values(Algorithm::kCaoSinghal, Algorithm::kKooToueg,
                          Algorithm::kElnozahy, Algorithm::kChandyLamport,
                          Algorithm::kLaiYang, Algorithm::kSimpleScheme,
                          Algorithm::kRevisedScheme, Algorithm::kUncoordinated),
        ::testing::Values(TransportKind::kLan, TransportKind::kCellular)),
    name_of);

}  // namespace
}  // namespace mck
