// Replays of the paper's motivating figures:
//   Fig. 1 - a nonblocking scheme without csn protection creates an
//            orphan message (our checker must flag it; the real
//            algorithm on the same pattern must not).
//   Fig. 2 - the impossibility scenario: P2 cannot know about the
//            z-dependency when m5 arrives; a min-process nonblocking
//            algorithm without mutable checkpoints produces an orphan.
#include <gtest/gtest.h>

#include "ckpt/checker.hpp"
#include "clock_oracle.hpp"
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

// ---------------------------------------------------------------------
// Fig. 1 at the event-log level: the hypothetical broken protocol.
// ---------------------------------------------------------------------

TEST(Fig1, NaiveNonblockingCreatesOrphan) {
  // P2 initiates; P1 checkpoints on the request and then sends m1 to P3;
  // P3 receives m1 *before* its own request arrives and (in the broken
  // protocol) processes it, then checkpoints. m1's receive is inside
  // P3's checkpoint but its send is after P1's -> orphan.
  ckpt::EventLog log(3);
  ckpt::CoordinationTracker tracker;

  // P1's checkpoint is taken before any events (cursor 0).
  // m1: P1 -> P3 after P1's checkpoint.
  MessageId m1 = log.record_send(1, 2);
  log.record_recv(m1, 2);
  // P3 then takes its checkpoint including the receive (cursor 1);
  // P2's checkpoint at cursor 0.
  ckpt::InitiationStats& st =
      tracker.open(ckpt::make_initiation_id(2, 1), 2, 90);
  st.line_updates = {{0, 0}, {1, 0}, {2, 1}};
  st.committed_at = 200;

  ckpt::ConsistencyChecker checker(log, tracker);
  ckpt::CheckResult res = checker.check_all();
  EXPECT_FALSE(res.consistent);
  ASSERT_EQ(res.orphans.size(), 1u);
  EXPECT_EQ(res.orphans[0].src, 1);
  EXPECT_EQ(res.orphans[0].dst, 2);

  // The clock oracle agrees.
  ckpt::ClockOracle oracle(log);
  ckpt::Line bad(3);
  bad.cursors = {0, 0, 1};
  EXPECT_FALSE(oracle.line_consistent(bad));
}

TEST(Fig1, RealAlgorithmAvoidsTheOrphan) {
  // The same communication pattern under the mutable-checkpoint
  // algorithm: P3 sees m1's fresh csn + trigger and protects itself
  // before processing.
  SystemOptions fig1_opts;
  fig1_opts.num_processes = 3;
  fig1_opts.algorithm = Algorithm::kCaoSinghal;
  System sys(fig1_opts);
  ScriptedWorkload wl(
      sys.simulator(),
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); },
      [&sys](ProcessId p) { sys.initiate(p); });
  wl.run({
      {sim::milliseconds(10), K::kSend, 1, 2},  // P2 depends on P1
      {sim::milliseconds(20), K::kSend, 2, 0},  // P0 depends on P2
      {sim::milliseconds(100), K::kInitiate, 0, -1},
      // P1, freshly checkpointed, sends m1 to P2 mid-coordination.
      {sim::milliseconds(150), K::kSend, 1, 2},
  });
  sys.simulator().run_until(sim::kTimeNever);
  ckpt::CheckResult res = sys.check_consistency();
  EXPECT_TRUE(res.consistent) << res.describe();
}

// ---------------------------------------------------------------------
// Fig. 2: the impossibility argument.
// ---------------------------------------------------------------------

TEST(Fig2, MinProcessNonblockingWithoutMutableCheckpointsBreaks) {
  // The z-dependency chain of Fig. 2 (m6/m7 absent):
  //   P1 initiates C1,1 and requests P4 (dependency via m2);
  //   P4 requests P5 (m3); P5 requests P2 (m4 ... in the figure the
  //   dependency P5<-P2 exists via m4's pattern). P2 receives m5 from P1
  //   before any request and must decide blindly.
  // We emulate the "P2 guesses wrong" branch at the log level: P2
  // processes m5 without checkpointing, then inherits the request and
  // checkpoints WITH m5's receive recorded, while P1's checkpoint
  // excludes m5's send.
  ckpt::EventLog log(5);  // P1..P5 -> ids 0..4
  ckpt::CoordinationTracker tracker;

  // Pre-initiation dependencies.
  MessageId m2 = log.record_send(3, 0);  // P4 -> P1
  log.record_recv(m2, 0);
  MessageId m3 = log.record_send(4, 3);  // P5 -> P4
  log.record_recv(m3, 3);
  MessageId m4 = log.record_send(1, 4);  // P2 -> P5
  log.record_recv(m4, 4);

  // P1 checkpoints (cursor = its current 1 event) and then sends m5.
  std::uint64_t p1_cut = log.cursor(0);
  MessageId m5 = log.record_send(0, 1);  // P1 -> P2, after C1,1
  log.record_recv(m5, 1);                // P2 processes it blindly
  // The request reaches P2 afterwards; P2 checkpoints including m5.
  ckpt::InitiationStats& st =
      tracker.open(ckpt::make_initiation_id(0, 1), 0, 90);
  st.line_updates = {{0, p1_cut},
                     {1, log.cursor(1)},   // includes m5's receive
                     {3, log.cursor(3)},
                     {4, log.cursor(4)}};
  st.committed_at = 300;

  ckpt::CheckResult res =
      ckpt::ConsistencyChecker(log, tracker).check_all();
  EXPECT_FALSE(res.consistent);
  ASSERT_EQ(res.orphans.size(), 1u);
  EXPECT_EQ(res.orphans[0].msg, m5);
}

TEST(Fig2, MutableCheckpointsResolveTheDilemma) {
  // Same pattern through the real algorithm: P2's mutable checkpoint at
  // m5's arrival is promoted when the (late) request arrives, so m5's
  // receive stays outside the committed line.
  SystemOptions opts;
  opts.num_processes = 5;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = 2;
  opts.cellular.forward_penalty = sim::milliseconds(120);
  System sys(opts);

  // Index mapping: paper P1..P5 -> processes 0..4.
  ScriptedWorkload wl(
      sys.simulator(),
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); },
      [&sys](ProcessId p) { sys.initiate(p); });

  // Delay the request chain to P2 (process 1) with a handoff so m5
  // arrives first.
  sys.simulator().schedule_at(sim::milliseconds(104), [&] {
    sys.cellular()->handoff(1, 1 - sys.cellular()->mss_of(1));
  });

  wl.run({
      {sim::milliseconds(10), K::kSend, 3, 0},   // m2: P4 -> P1
      {sim::milliseconds(20), K::kSend, 4, 3},   // m3: P5 -> P4
      {sim::milliseconds(30), K::kSend, 1, 4},   // m4: P2 -> P5
      {sim::milliseconds(100), K::kInitiate, 0, -1},  // P1 initiates
      {sim::milliseconds(108), K::kSend, 0, 1},  // m5: P1 -> P2
  });
  sys.simulator().run_until(sim::kTimeNever);

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  ckpt::CheckResult res = sys.check_consistency();
  EXPECT_TRUE(res.consistent) << res.describe();
  // All of P1, P4, P5, P2 end up checkpointed (the z-dependency), and if
  // m5 won its race, P2 got there via a mutable checkpoint.
  EXPECT_EQ(inits[0]->tentative, 4u);
}

}  // namespace
}  // namespace mck
