// Kim-Park partial commit (Section 3.6): on a failure detected during
// checkpointing, processes not depending on the failed process commit
// while the initiator and the dependents abort — "the consistent recovery
// line is advanced for those processes that committed".
#include <gtest/gtest.h>

#include "full_history.hpp"
#include "harness/scheduler.hpp"
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
  opts.cs.failure_mode = core::FailureMode::kPartialCommit;
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

TEST(PartialCommit, IndependentBranchCommitsDespiteFailure) {
  // P2 depends on P1 (fails) and on P3 (healthy). Kim-Park: P3's
  // checkpoint commits; P2 (the initiator, depends on the failed P1)
  // aborts.
  System sys(options(5));
  sys.simulator().schedule_at(sim::milliseconds(50), [&] {
    sys.lan()->set_failed(1, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(20), K::kSend, 3, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_TRUE(inits[0]->partial_commit);
  // P3 committed; P2 (initiator) aborted.
  EXPECT_EQ(inits[0]->participants_aborted, 1u);
  ASSERT_EQ(inits[0]->line_updates.size(), 1u);
  EXPECT_EQ(inits[0]->line_updates[0].first, 3);
  EXPECT_EQ(sys.stats().permanent_made, 1u);
  // The initiator's dependency state was restored for a retry.
  EXPECT_TRUE(sys.cao(2).dependency_vector().test(1));
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(PartialCommit, TransitiveDependentOfFailedProcessAborts) {
  // Chain: P2 <- P3 <- P4 and P2 <- P1(fails)...
  // P3 depends on P4; neither touches P1 => both commit.
  // Initiator P2 aborts (depends on P1 directly).
  System sys(options(6));
  sys.simulator().schedule_at(sim::milliseconds(50), [&] {
    sys.lan()->set_failed(1, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(20), K::kSend, 3, 2},
      {sim::milliseconds(30), K::kSend, 4, 3},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->partial_commit);
  std::set<ProcessId> committed;
  for (auto& [pid, cur] : inits[0]->line_updates) {
    (void)cur;
    committed.insert(pid);
  }
  EXPECT_EQ(committed, (std::set<ProcessId>{3, 4}));
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(PartialCommit, DependentOnFailedViaTrafficAborts) {
  // P4 received from P1 (the failed process) in the current interval, so
  // its dependency vector names P1 and its checkpoint must abort even
  // though P4 itself is healthy.
  System sys(options(6));
  sys.simulator().schedule_at(sim::milliseconds(60), [&] {
    sys.lan()->set_failed(1, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},   // initiator dep on failed
      {sim::milliseconds(20), K::kSend, 1, 4},   // P4 depends on P1 too
      {sim::milliseconds(30), K::kSend, 4, 2},   // initiator dep on P4
      {sim::milliseconds(40), K::kSend, 3, 2},   // clean branch
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->partial_commit);
  std::set<ProcessId> committed;
  for (auto& [pid, cur] : inits[0]->line_updates) {
    (void)cur;
    committed.insert(pid);
  }
  // Only the clean branch survives.
  EXPECT_EQ(committed, (std::set<ProcessId>{3}));
  // P2 (initiator) and P4 aborted.
  EXPECT_EQ(inits[0]->participants_aborted, 2u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(PartialCommit, NoFailureBehavesLikeNormalCommit) {
  System sys(options(4));
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_FALSE(inits[0]->partial_commit);
  EXPECT_EQ(inits[0]->line_updates.size(), 2u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(PartialCommit, AbortAllModeSalvagesNothing) {
  // Same scenario as IndependentBranchCommitsDespiteFailure but with the
  // simple Section 3.6 abort-all policy: nothing commits.
  SystemOptions opts = options(5);
  opts.cs.failure_mode = core::FailureMode::kAbortAll;
  System sys(opts);
  sys.simulator().schedule_at(sim::milliseconds(50), [&] {
    sys.lan()->set_failed(1, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(20), K::kSend, 3, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->aborted());
  EXPECT_EQ(sys.stats().permanent_made, 0u);
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(PartialCommit, RecoveryLineAdvancesForCommittedProcesses) {
  System sys(options(5));
  sys.simulator().schedule_at(sim::milliseconds(50), [&] {
    sys.lan()->set_failed(1, true);
  });
  run_script(sys, {
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(20), K::kSend, 3, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
  });
  ckpt::RecoveryOutcome out =
      sys.recovery().recover_coordinated(sim::seconds(60));
  // P3's entry advanced past its send event; the others stay at 0.
  EXPECT_GT(out.line[3], 0u);
  EXPECT_EQ(out.line[2], 0u);
  EXPECT_TRUE(sys.log().find_orphans(out.line).empty());
  // The partial commit's line updates replay to the same line.
  EXPECT_EQ(ckpt::recover_coordinated_at(sys.log(), sys.tracker(),
                                         sim::seconds(60))
                .line.cursors,
            out.line.cursors);
}


TEST(PartialCommit, RandomizedFailureChurnStaysConsistent) {
  // Crash/repair churn under both failure policies: every committed line
  // (full or partial) must stay orphan-free.
  for (core::FailureMode mode :
       {core::FailureMode::kAbortAll, core::FailureMode::kPartialCommit}) {
    for (std::uint64_t seed : {501ull, 502ull}) {
      SystemOptions opts = options(10);
      opts.cs.failure_mode = mode;
      opts.cs.decision_timeout = sim::seconds(90);
      opts.seed = seed;
      System sys(opts);

      const sim::SimTime horizon = sim::seconds(3600);
      workload::PointToPointWorkload wl(
          sys.simulator(), sys.rng(), sys.n(), 0.05,
          [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
      wl.start(horizon);
      harness::SchedulerOptions so;
      so.interval = sim::seconds(200);
      harness::CheckpointScheduler sched(sys, so);
      sched.start(horizon);

      std::function<void(ProcessId)> churn = [&](ProcessId p) {
        sim::SimTime at =
            sys.simulator().now() + sys.rng().exponential(sim::seconds(400));
        if (at > horizon) return;
        sys.simulator().schedule_at(at, [&, p]() {
          sys.lan()->set_failed(p, true);
          sim::SimTime back =
              sys.simulator().now() + sys.rng().exponential(sim::seconds(45));
          sys.simulator().schedule_at(back, [&, p]() {
            sys.lan()->set_failed(p, false);
            sys.cao(p).on_restart();
            churn(p);
          });
        });
      };
      for (ProcessId p = 0; p < sys.n(); ++p) churn(p);

      sys.simulator().run_until(sim::kTimeNever);

      std::size_t committed = 0;
      for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
        if (st->committed()) ++committed;
      }
      EXPECT_GT(committed, 0u);
      ckpt::CheckResult res = sys.check_consistency();
      EXPECT_TRUE(res.consistent)
          << "mode=" << (mode == core::FailureMode::kAbortAll ? "abort" : "partial")
          << " seed=" << seed << ": " << res.describe();
    }
  }
}

}  // namespace
}  // namespace mck
