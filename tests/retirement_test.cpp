// The history-free event log on full runs: for every algorithm on both
// transports, the checker's verdict over a log that retires records equals
// the per-line reference over the full history (rebuilt from the trace),
// the live records are exactly the history's unretired ones, and the
// coordinated algorithms retire nearly everything they log.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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

// Steady point-to-point traffic settled once per checkpoint interval:
// each interval sends the same number of messages, and the line settled at
// the end of an interval covers the traffic up to the end of the interval
// before, as in a run whose settle lags its checkpoints by one interval.
// A few messages of each interval arrive in the next, so slightly more
// than one interval stays live after each retirement. The log must retire
// at every settle and so never hold much more than two intervals; the
// rule that waited for the log to double skipped every other settle and
// reached three.
TEST(RetirementSteady, LogStaysNearTwoIntervalsOfTraffic) {
  constexpr int kProcs = 16;
  constexpr int kIntervals = 24;
  constexpr std::size_t kSends = 2000;        // per interval
  constexpr std::size_t kLate = kSends / 20;  // received in the next one
  ckpt::EventLog log(kProcs);
  ckpt::CoordinationTracker tracker;
  ckpt::ConsistencyChecker checker(log, tracker);
  sim::Rng rng(43);

  std::vector<std::pair<MessageId, ProcessId>> late;
  ckpt::Line prev(kProcs);  // cursors at the end of the previous interval
  std::size_t peak = 0;
  for (int k = 1; k <= kIntervals; ++k) {
    for (const auto& [id, dst] : late) log.record_recv(id, dst);
    late.clear();
    for (std::size_t i = 0; i < kSends; ++i) {
      const auto src = static_cast<ProcessId>(rng.uniform_int(0, kProcs - 1));
      const auto dst = static_cast<ProcessId>(
          (src + rng.uniform_int(1, kProcs - 1)) % kProcs);
      const MessageId id = log.record_send(src, dst);
      if (i + kLate >= kSends) {
        late.emplace_back(id, dst);
      } else {
        log.record_recv(id, dst);
      }
    }
    const sim::SimTime end = sim::seconds(k);
    ckpt::InitiationStats& st = tracker.open(
        ckpt::make_initiation_id(k % kProcs, static_cast<Csn>(k)), k % kProcs,
        end - 1);
    for (ProcessId p = 0; p < kProcs; ++p) {
      st.line_updates.emplace_back(p, prev[p]);
      prev[p] = log.cursor(p);
    }
    tracker.mark_committed(st, end - 1);
    peak = std::max(peak, log.messages().size());
    checker.settle(end);
  }
  EXPECT_LE(peak, kSends * 22 / 10)
      << "log peaked at " << peak << " records for " << kSends
      << " sends per interval";
  EXPECT_GE(log.retired(), kSends * (kIntervals - 3));
  EXPECT_TRUE(checker.check_all().consistent);
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
