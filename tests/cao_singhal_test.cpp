// Scenario tests for the mutable-checkpoint algorithm, replaying the
// situations of Figs 3-4 of the paper and the mobility-induced promotion
// path.
#include "core/cao_singhal.hpp"

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

SystemOptions lan_options(int n, core::CaoSinghalOptions cs = {}) {
  SystemOptions opts;
  opts.num_processes = n;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.cs = cs;
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

using K = ScriptStep::Kind;

TEST(CaoSinghal, InitiatorWithNoDependenciesCommitsAlone) {
  System sys(lan_options(4));
  run_script(sys, {{sim::milliseconds(10), K::kInitiate, 0, -1}});

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->tentative, 1u);
  EXPECT_EQ(inits[0]->requests, 0u);
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kPermanent), 1u);
  // Output-commit delay == one checkpoint transfer (512KB @ 2Mbps = 2s).
  EXPECT_EQ(inits[0]->committed_at - inits[0]->started_at, sim::seconds(2));
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(CaoSinghal, DependencyChainForcesMinimalSet) {
  // P2 depends on P3 (m: P3->P2); P3 depends on P1 (m: P1->P3).
  // P2's initiation must checkpoint exactly {P2, P3, P1} and leave P0/P4
  // alone.
  System sys(lan_options(5));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 3},
      {sim::milliseconds(30), K::kSend, 3, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->tentative, 3u);
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kPermanent), 3u);
  EXPECT_EQ(sys.store().of_process(0).size(), 1u);  // initial only
  EXPECT_EQ(sys.store().of_process(4).size(), 1u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(CaoSinghal, RedundantMutableDiscardedOnCommit) {
  // Fig. 3 pattern in LAN timing: P4 has sent a message, then receives a
  // computation message from checkpointed P3 (inside P2's checkpointing)
  // but is depended upon by nobody — its mutable checkpoint must be
  // discarded when P2's commit broadcast arrives.
  System sys(lan_options(5));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 3, 2},    // R_2[3] = 1
      {sim::milliseconds(20), K::kSend, 4, 1},    // sent_4 = 1
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      // P3 inherits at ~100.2ms; its message below carries the new csn
      // and P2's trigger.
      {sim::milliseconds(110), K::kSend, 3, 4},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->tentative, 2u);           // P2 and P3
  EXPECT_EQ(inits[0]->mutables_taken, 1u);      // P4
  EXPECT_EQ(inits[0]->mutables_promoted, 0u);
  EXPECT_EQ(inits[0]->mutables_discarded, 1u);  // redundant
  EXPECT_EQ(sys.cao(4).mutable_count(), 0u);
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kPermanent), 2u);
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kMutable), 0u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(CaoSinghal, MutableRestoresDependencyInfoOnDiscard) {
  // After the redundant mutable is discarded, P4's R/sent must reflect
  // the dependencies from before the mutable (the paper's
  // "R := R ∪ CP.R; sent := sent ∪ CP.sent").
  System sys(lan_options(5));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 3, 2},
      {sim::milliseconds(15), K::kSend, 1, 4},  // R_4[1] = 1 (pre-mutable)
      {sim::milliseconds(20), K::kSend, 4, 1},  // sent_4 = 1
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::milliseconds(110), K::kSend, 3, 4},
  });
  EXPECT_EQ(sys.cao(4).mutable_count(), 0u);
  EXPECT_TRUE(sys.cao(4).sent_flag());
  EXPECT_TRUE(sys.cao(4).dependency_vector().test(1));
  EXPECT_TRUE(sys.cao(4).dependency_vector().test(3));  // m from P3
}

TEST(CaoSinghal, ConcurrentInitiationProducesSecondMutable) {
  // Fig. 3's C1,2: while P2's checkpointing runs, P0 independently
  // initiates and sends a computation message; the receiver takes a
  // second mutable checkpoint, discarded at P0's commit.
  System sys(lan_options(5));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 3, 2},
      {sim::milliseconds(20), K::kSend, 4, 1},    // sent_4 = 1
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::milliseconds(110), K::kSend, 3, 4},   // mutable #1 (trigger P2)
      {sim::milliseconds(105), K::kInitiate, 0, -1},
      {sim::milliseconds(116), K::kSend, 4, 1},   // sent_4 = 1 again
      {sim::milliseconds(120), K::kSend, 0, 4},   // mutable #2 (trigger P0)
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 2u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_TRUE(inits[1]->committed());
  std::uint64_t mutables = sys.stats().mutable_taken;
  EXPECT_EQ(mutables, 2u);
  EXPECT_EQ(sys.stats().mutable_discarded, 2u);
  EXPECT_EQ(sys.stats().mutable_promoted, 0u);
  EXPECT_EQ(sys.cao(4).mutable_count(), 0u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(CaoSinghal, Fig4ReqCsnFilterSkipsUnnecessaryCheckpoint) {
  // Fig. 4: m1: P2->P3 before P2's own checkpointing; later P3 initiates
  // and requests P2 with a stale req_csn — P2 must NOT checkpoint again.
  System sys(lan_options(4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 2, 3},    // m1 (R_3[2] = 1)
      {sim::milliseconds(20), K::kSend, 1, 2},    // m2 (R_2[1] = 1)
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::seconds(20), K::kInitiate, 3, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 2u);
  EXPECT_EQ(inits[0]->tentative, 2u);  // P2 and P1
  EXPECT_EQ(inits[1]->tentative, 1u);  // P3 alone: request to P2 filtered
  EXPECT_EQ(inits[1]->duplicate_requests, 1u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(CaoSinghal, Fig4WithoutFilterTakesUnnecessaryCheckpoints) {
  core::CaoSinghalOptions cs;
  cs.req_csn_filter = false;
  System sys(lan_options(4, cs));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 2, 3},
      {sim::milliseconds(20), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::seconds(20), K::kInitiate, 3, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 2u);
  // Without the Section 3.1.3 filter, P2 takes the unnecessary C2,2 of
  // Fig. 4. (It does not re-force P1 here because its dependency vector
  // was correctly reset at C2,1.)
  EXPECT_EQ(inits[1]->tentative, 2u);
  // Both runs stay consistent — the filter is an optimization.
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(CaoSinghal, HandoffDelayedRequestPromotesMutable) {
  // The mobile case the algorithm was designed for: the checkpoint
  // request to P2 is rerouted after a handoff and overtaken by a
  // computation message from checkpointed P1, so P2 first takes a mutable
  // checkpoint and then *promotes* it when the request finally arrives.
  SystemOptions opts;
  opts.num_processes = 4;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = 2;
  opts.cellular.forward_penalty = sim::milliseconds(80);
  System sys(opts);

  // Dependencies: P0 depends on P1 (m: P1->P0); P1 depends on P2.
  // P2 has sent (to P3) in the current interval.
  sys.simulator().schedule_at(sim::milliseconds(102), [&] {
    // P2 moves while P1's request to it is in flight: the request chases
    // it through the old MSS and arrives late.
    sys.cellular()->handoff(2, 1 - sys.cellular()->mss_of(2));
  });
  run_script(sys, {
      {sim::milliseconds(5), K::kSend, 2, 3},   // sent_2 = 1
      {sim::milliseconds(10), K::kSend, 2, 1},  // R_1[2] = 1
      {sim::milliseconds(20), K::kSend, 1, 0},  // R_0[1] = 1
      {sim::milliseconds(100), K::kInitiate, 0, -1},
      // P1 inherits quickly, then sends m to P2 which arrives before the
      // rerouted request.
      {sim::milliseconds(115), K::kSend, 1, 2},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->mutables_taken, 1u);
  EXPECT_EQ(inits[0]->mutables_promoted, 1u);
  EXPECT_EQ(inits[0]->mutables_discarded, 0u);
  EXPECT_EQ(inits[0]->tentative, 3u);  // P0, P1, P2 (promoted)
  EXPECT_TRUE(sys.check_consistency().consistent);
  EXPECT_GE(sys.cellular()->messages_forwarded(), 1u);
}

TEST(CaoSinghal, LateMessagesAfterCommitDoNotForceCheckpoints) {
  System sys(lan_options(4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      // Long after commit: messages from checkpointed P2 carry a fresh
      // csn but no active trigger -> receivers must not checkpoint.
      {sim::seconds(30), K::kSend, 2, 3},
      {sim::seconds(31), K::kSend, 2, 1},
  });
  EXPECT_EQ(sys.stats().mutable_taken, 0u);
  EXPECT_EQ(sys.stats().tentative_taken, 2u);  // initiation only
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(CaoSinghal, SequentialInitiationsAdvanceTheLine) {
  System sys(lan_options(4));
  std::vector<ScriptStep> steps;
  sim::SimTime t = sim::milliseconds(10);
  for (int round = 0; round < 5; ++round) {
    steps.push_back({t, K::kSend, 1, 2});
    steps.push_back({t + sim::milliseconds(50), K::kSend, 3, 1});
    steps.push_back({t + sim::milliseconds(200), K::kInitiate, 2, -1});
    t += sim::seconds(30);
  }
  run_script(sys, steps);

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 5u);
  for (auto* st : inits) {
    EXPECT_TRUE(st->committed());
    EXPECT_EQ(st->tentative, 3u);  // P2 <- P1 <- P3 chain each round
  }
  EXPECT_TRUE(sys.check_consistency().consistent);
  // Each process participating keeps exactly one permanent checkpoint per
  // committed initiation (Lemma 1: inherits at most one request).
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kPermanent), 15u);
}

}  // namespace
}  // namespace mck
