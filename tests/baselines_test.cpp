// Behavioural tests for the baseline algorithms of Table 1 and Section 6.
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

SystemOptions options(Algorithm algo, int n) {
  SystemOptions opts;
  opts.num_processes = n;
  opts.algorithm = algo;
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

// ---------------------------------------------------------------------
// Koo-Toueg
// ---------------------------------------------------------------------

TEST(KooToueg, MinProcessTwoPhaseCommit) {
  System sys(options(Algorithm::kKooToueg, 5));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 3},
      {sim::milliseconds(30), K::kSend, 3, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->tentative, 3u);  // P2 <- P3 <- P1
  EXPECT_EQ(sys.stats().permanent_made, 3u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(KooToueg, BlocksComputationDuringCheckpointing) {
  System sys(options(Algorithm::kKooToueg, 4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      // While P1 is blocked (tentative taken, commit pending), it tries
      // to send — the message must be deferred, not lost.
      {sim::milliseconds(150), K::kSend, 1, 3},
  });
  EXPECT_GT(sys.stats().blocked_time_total, 0);
  EXPECT_EQ(sys.stats().blocked_sends_deferred, 1u);
  // The deferred message was eventually sent and delivered.
  EXPECT_EQ(sys.stats().msgs_sent[0], 2u);
  EXPECT_EQ(sys.log().messages().size(), 2u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(KooToueg, BlockingTimeCoversTransfer) {
  // The blocked window spans at least the checkpoint transfer (2 s).
  System sys(options(Algorithm::kKooToueg, 4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });
  EXPECT_GE(sys.stats().blocked_time_total, sim::seconds(2));
}

TEST(KooToueg, StaleDependencyNotForced) {
  System sys(options(Algorithm::kKooToueg, 4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},  // P1 checkpoints
      // New initiation without fresh traffic: P2's dependency on P1 was
      // reset, nobody else checkpoints.
      {sim::seconds(20), K::kInitiate, 2, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 2u);
  EXPECT_EQ(inits[0]->tentative, 2u);
  EXPECT_EQ(inits[1]->tentative, 1u);
}

// ---------------------------------------------------------------------
// Elnozahy-Johnson-Zwaenepoel
// ---------------------------------------------------------------------

TEST(Elnozahy, AllProcessesCheckpointEveryInitiation) {
  System sys(options(Algorithm::kElnozahy, 6));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 3},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->tentative, 6u);  // N, not N_min
  EXPECT_EQ(sys.stats().permanent_made, 6u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

// The initiator's own stable-storage transfer can finish after every reply
// is in (here its cell is busy with a long bulk transfer). The round must
// still commit everywhere: one line update and one permanent checkpoint
// per process, and no process left coordinating.
void expect_commit_after_late_initiator_transfer(Algorithm algo) {
  SystemOptions opts = options(algo, 4);
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = 4;
  System sys(opts);
  sys.cellular()->transfer_bulk(0, 50'000'000);
  sys.initiate(0);
  sys.simulator().run_until(sim::kTimeNever);

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->line_updates.size(), 4u);
  EXPECT_EQ(sys.stats().permanent_made, 4u);
  for (ProcessId p = 0; p < sys.n(); ++p) {
    EXPECT_FALSE(sys.proto(p).coordination_active()) << "P" << p;
  }
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(Elnozahy, CommitsWhenInitiatorTransferFinishesLast) {
  expect_commit_after_late_initiator_transfer(Algorithm::kElnozahy);
}

TEST(Elnozahy, NonblockingNoDeferredSends) {
  System sys(options(Algorithm::kElnozahy, 4));
  run_script(sys, {
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::milliseconds(150), K::kSend, 1, 3},  // mid-checkpointing
  });
  EXPECT_EQ(sys.stats().blocked_time_total, 0);
  EXPECT_EQ(sys.stats().blocked_sends_deferred, 0u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

// ---------------------------------------------------------------------
// Chandy-Lamport
// ---------------------------------------------------------------------

TEST(ChandyLamport, MarkersOnEveryChannel) {
  const int n = 5;
  System sys(options(Algorithm::kChandyLamport, n));
  run_script(sys, {
      {sim::milliseconds(100), K::kInitiate, 0, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->tentative, static_cast<std::uint32_t>(n));
  // N * (N-1) markers: the O(N^2) message complexity of [9].
  EXPECT_EQ(sys.stats().msgs_sent[static_cast<int>(rt::MsgKind::kMarker)],
            static_cast<std::uint64_t>(n * (n - 1)));
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(ChandyLamport, RecordsInTransitMessageAsChannelState) {
  System sys(options(Algorithm::kChandyLamport, 3));
  // A computation message (4 ms) sent right before the snapshot is still
  // in flight when the marker (0.2 ms) arrives: it crosses the cut and
  // must be captured as channel state, not lost and not an orphan.
  run_script(sys, {
      {sim::milliseconds(99), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 0, -1},
  });
  ckpt::CheckResult res = sys.check_consistency();
  EXPECT_TRUE(res.consistent);
  EXPECT_EQ(res.in_transit_total, 1u);
}

// ---------------------------------------------------------------------
// Section 3.1.1 csn schemes (avalanche ablation)
// ---------------------------------------------------------------------

TEST(CsnSchemes, SimpleSchemeCascades) {
  System sys(options(Algorithm::kSimpleScheme, 4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},   // R_2[1]
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      // P1 checkpoints on request; its next message forces P3 even though
      // P3 never communicated with the initiator...
      {sim::seconds(3), K::kSend, 1, 3},
      // ...and P3's fresh csn forces P0 in turn: the avalanche.
      {sim::seconds(6), K::kSend, 3, 0},
  });
  EXPECT_EQ(sys.stats().forced_by_message, 2u);
  EXPECT_EQ(sys.stats().checkpoint_cascades, 2u);
  EXPECT_EQ(sys.stats().tentative_taken, 4u);  // P2, P1, P3, P0
}

TEST(CsnSchemes, RevisedSchemeNeedsSentFlag) {
  System sys(options(Algorithm::kRevisedScheme, 4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      // P3 has not sent anything: the revised scheme skips the forced
      // checkpoint that the simple scheme would take.
      {sim::seconds(3), K::kSend, 1, 3},
  });
  EXPECT_EQ(sys.stats().forced_by_message, 0u);
  EXPECT_EQ(sys.stats().tentative_taken, 2u);
}

TEST(CsnSchemes, RevisedSchemeForcesWhenSent) {
  System sys(options(Algorithm::kRevisedScheme, 4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(20), K::kSend, 3, 0},  // sent_3 = 1
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::seconds(3), K::kSend, 1, 3},
  });
  EXPECT_EQ(sys.stats().forced_by_message, 1u);
}

// ---------------------------------------------------------------------
// Uncoordinated (Acharya-Badrinath) + recovery comparison
// ---------------------------------------------------------------------

TEST(Uncoordinated, CheckpointsOnReceiveAfterSend) {
  System sys(options(Algorithm::kUncoordinated, 3));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 0, 1},   // P0 sent
      {sim::milliseconds(20), K::kSend, 1, 0},   // P0 receives after send ->
                                                 // checkpoint; P1 sent
      {sim::milliseconds(40), K::kSend, 0, 1},   // P1 receives after send ->
                                                 // checkpoint
  });
  EXPECT_EQ(sys.stats().forced_by_message, 2u);
}

TEST(Uncoordinated, InterleavedTrafficTakesManyCheckpoints) {
  // "If the send and receive of messages are interleaved, the number of
  // local checkpoints will be equal to half of the number of computation
  // messages" (Section 6).
  System sys(options(Algorithm::kUncoordinated, 2));
  std::vector<ScriptStep> steps;
  sim::SimTime t = sim::milliseconds(10);
  const int kRounds = 40;
  for (int i = 0; i < kRounds; ++i) {
    steps.push_back({t, K::kSend, 0, 1});
    t += sim::milliseconds(20);
    steps.push_back({t, K::kSend, 1, 0});
    t += sim::milliseconds(20);
  }
  System s2(options(Algorithm::kUncoordinated, 2));
  run_script(s2, steps);
  std::uint64_t comp = s2.stats().msgs_sent[0];
  EXPECT_EQ(comp, static_cast<std::uint64_t>(2 * kRounds));
  // Each process checkpoints on (almost) every reception — per process
  // that is half the messages it is involved in, i.e. O(#messages) system
  // wide. That is the overhead Section 6 criticises.
  EXPECT_GE(s2.stats().forced_by_message, comp / 2);
  EXPECT_LE(s2.stats().forced_by_message, comp);
  (void)sys;
}

TEST(Uncoordinated, RecoveryCanDomino) {
  // Serial ping-pong with checkpoints only at P1: rolling back P1's
  // receive invalidates P0's state transitively.
  System sys(options(Algorithm::kUncoordinated, 2));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 0, 1},
      {sim::milliseconds(30), K::kSend, 1, 0},
      {sim::milliseconds(50), K::kSend, 0, 1},
      {sim::milliseconds(70), K::kSend, 1, 0},
  });
  ckpt::RecoveryManager rm = sys.recovery();
  ckpt::RecoveryOutcome out = rm.recover_uncoordinated(sim::seconds(100));
  // Some work is always lost with uncoordinated checkpoints here.
  EXPECT_GT(out.lost_events, 0u);
}


// ---------------------------------------------------------------------
// Lai-Yang
// ---------------------------------------------------------------------

TEST(LaiYang, AllProcessFlagBasedSnapshot) {
  System sys(options(Algorithm::kLaiYang, 5));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 3},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->tentative, 5u);  // all-process, like [13]
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(LaiYang, CommitsWhenInitiatorTransferFinishesLast) {
  expect_commit_after_late_initiator_transfer(Algorithm::kLaiYang);
}

TEST(LaiYang, WhiteMessageIntoRedProcessIsChannelState) {
  System sys(options(Algorithm::kLaiYang, 3));
  // A computation message (4 ms) sent just before the announcement
  // (0.2 ms) is still white when it arrives at the already-red receiver.
  run_script(sys, {
      {sim::milliseconds(99), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 0, -1},
  });
  ckpt::CheckResult res = sys.check_consistency();
  EXPECT_TRUE(res.consistent);
  EXPECT_EQ(res.in_transit_total, 1u);
}

TEST(LaiYang, RedMessageForcesWhiteReceiverFirst) {
  // Force the announcement to one process to lose the race using link
  // jitter, so a red computation message reaches it first: the flag rule
  // must checkpoint before processing.
  std::uint64_t forced = 0;
  for (std::uint64_t seed = 1; seed <= 8 && forced == 0; ++seed) {
    SystemOptions opts = options(Algorithm::kLaiYang, 6);
    opts.lan.loss_probability = 0.7;
    opts.lan.retry_backoff = sim::milliseconds(20);
    opts.seed = seed;
    System sys(opts);
    workload::PointToPointWorkload wl(
        sys.simulator(), sys.rng(), sys.n(), 20.0,
        [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
    wl.start(sim::seconds(60));
    sys.simulator().schedule_at(sim::seconds(30),
                                [&sys] { sys.initiate(0); });
    sys.simulator().run_until(sim::kTimeNever);
    forced += sys.stats().forced_by_message;
    EXPECT_TRUE(sys.check_consistency().consistent) << "seed " << seed;
  }
  EXPECT_GT(forced, 0u);
}

}  // namespace
}  // namespace mck
