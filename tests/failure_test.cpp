// Section 3.6: handling MH failures during checkpointing — the abort
// path, state restoration, and recovery from the last committed line.
#include <gtest/gtest.h>

#include "full_history.hpp"
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

SystemOptions options(int n) {
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

TEST(Failure, InitiatorDetectsFailedDependencyAndAborts) {
  System sys(options(4));
  sys.simulator().schedule_at(sim::milliseconds(50), [&] {
    sys.lan()->set_failed(1, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},  // R_2[1] = 1
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->aborted());
  EXPECT_FALSE(inits[0]->committed());
  // The aborted tentative checkpoint was discarded.
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kTentative), 0u);
  EXPECT_EQ(sys.stats().permanent_made, 0u);
  // Dependency state was restored so a later retry still works.
  EXPECT_TRUE(sys.cao(2).dependency_vector().test(1));
  EXPECT_FALSE(sys.cao(2).cp_state());
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(Failure, TransitiveDetectionByParticipant) {
  // P2 <- P3 <- P1(failed): P3 inherits, tries to request P1, detects the
  // failure and notifies the initiator, which aborts. P3's tentative is
  // discarded and its R restored.
  System sys(options(4));
  sys.simulator().schedule_at(sim::milliseconds(50), [&] {
    sys.lan()->set_failed(1, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 3},
      {sim::milliseconds(30), K::kSend, 3, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->aborted());
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kTentative), 0u);
  EXPECT_TRUE(sys.cao(3).dependency_vector().test(1));
  EXPECT_FALSE(sys.cao(3).cp_state());
}

TEST(Failure, RetryAfterRepairSucceeds) {
  System sys(options(4));
  sys.simulator().schedule_at(sim::milliseconds(50), [&] {
    sys.lan()->set_failed(1, true);
  });
  sys.simulator().schedule_at(sim::seconds(10), [&] {
    sys.lan()->set_failed(1, false);  // MH restarts
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},  // aborts
      {sim::seconds(20), K::kInitiate, 2, -1},        // succeeds
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 2u);
  EXPECT_TRUE(inits[0]->aborted());
  EXPECT_TRUE(inits[1]->committed());
  // The retry checkpoints both processes: the m1 dependency survived the
  // abort thanks to the restored R vector.
  EXPECT_EQ(inits[1]->tentative, 2u);
  EXPECT_EQ(sys.stats().permanent_made, 2u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(Failure, MidCoordinationFailureAbortsViaTimeout) {
  SystemOptions opts = options(4);
  opts.cs.decision_timeout = sim::seconds(30);
  System sys(opts);
  // P1 fails *after* receiving the request (it is reachable at request
  // time) and never replies; the initiator's decision timeout fires.
  sys.simulator().schedule_at(sim::milliseconds(150), [&] {
    sys.lan()->set_failed(1, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->aborted());
  EXPECT_EQ(inits[0]->aborted_at - inits[0]->started_at, sim::seconds(30));
  EXPECT_FALSE(sys.cao(2).cp_state());
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(Failure, RecoveryFallsBackToLastCommittedLine) {
  System sys(options(4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},  // commits at ~4 s
      {sim::seconds(10), K::kSend, 2, 3},
      {sim::seconds(11), K::kSend, 3, 1},
  });
  ckpt::RecoveryManager rm = sys.recovery();
  // A crash at t = 20 s recovers to the line committed at ~4 s; the two
  // later messages (4 events) are lost work.
  ckpt::RecoveryOutcome out = rm.recover_coordinated(sim::seconds(20));
  EXPECT_EQ(out.lost_events, 4u);
  EXPECT_TRUE(sys.log().find_orphans(out.line).empty());
  // The replay of the committed initiations gives the same line.
  ckpt::RecoveryOutcome replay =
      ckpt::recover_coordinated_at(sys.log(), sys.tracker(), sim::seconds(20));
  EXPECT_EQ(replay.line.cursors, out.line.cursors);
  EXPECT_EQ(replay.lost_events, out.lost_events);

  // A crash before the commit falls back to the initial line and loses
  // everything. The store holds only the line of now; the replay answers
  // for the past.
  ckpt::RecoveryOutcome early =
      ckpt::recover_coordinated_at(sys.log(), sys.tracker(), sim::seconds(1));
  EXPECT_EQ(early.lost_events, 6u);
}

TEST(Failure, AbortRestoresOldCsnForFilterCorrectness) {
  // After an abort, old_csn must roll back so a later request with the
  // pre-abort req_csn is still honoured (no missing checkpoints).
  System sys(options(4));
  sys.simulator().schedule_at(sim::milliseconds(50), [&] {
    sys.lan()->set_failed(3, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(20), K::kSend, 3, 1},  // makes P1 depend on P3
      {sim::milliseconds(100), K::kInitiate, 2, -1},  // aborts (P3 dead)
  });
  Csn old_after_abort = sys.cao(1).old_csn();
  EXPECT_EQ(old_after_abort, 0u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}


TEST(Failure, ZombiePendingIsReapedAfterTwiceTheTimeout) {
  // The initiator dies before deciding and never restarts: its abort
  // broadcast is lost. Participants must self-abort (reap) their pending
  // tentatives after 2x the decision timeout, restoring the dependency
  // info stashed inside and unblocking future coordinations.
  SystemOptions opts = options(4);
  opts.cs.decision_timeout = sim::seconds(30);
  System sys(opts);
  // P2 initiates and P1 inherits; P2 dies right after sending requests.
  sys.simulator().schedule_at(sim::milliseconds(101), [&] {
    sys.lan()->set_failed(2, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(50), K::kSend, 3, 1},  // P1's own dependency
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });

  // P1's tentative was reaped, its dependency on P3 restored, and the
  // system is quiescent again.
  EXPECT_GE(sys.stats().pending_reaped, 1u);
  EXPECT_FALSE(sys.cao(1).coordination_active());
  EXPECT_TRUE(sys.cao(1).dependency_vector().test(3));
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kTentative), 0u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(Failure, CommitReachesStableStorageOfFailedParticipant) {
  // The participant dies after replying but before the commit broadcast
  // lands. The tentative checkpoint lives at the MSS, so the commit must
  // still finalize it — otherwise the committed line would miss the
  // participant's entry and orphan its recorded receives.
  System sys(options(4));
  // P1 replies at ~4s (its transfer queues behind the initiator's);
  // it dies shortly after.
  sys.simulator().schedule_at(sim::milliseconds(4200), [&] {
    sys.lan()->set_failed(1, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  // Both line entries present despite P1 being down at commit time.
  EXPECT_EQ(inits[0]->line_updates.size(), 2u);
  EXPECT_EQ(sys.stats().permanent_made, 2u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

}  // namespace
}  // namespace mck
