// Failure handling and rollback recovery (Sections 3.6 and 6):
//
//  1. an MH dies in the middle of a coordinated checkpointing -> the
//     initiation aborts cleanly and the system retries after repair;
//  2. a crash strikes mid-computation -> coordinated recovery restarts
//     instantly from the last committed line with one stable checkpoint
//     per process; the uncoordinated system buys a fresher line only by
//     writing ~30x more checkpoints to stable storage over the wireless
//     link, and must run a rollback search that can domino.
//
//   build/examples/failure_recovery
#include <cstdio>

#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "workload/traffic.hpp"

using namespace mck;

namespace {

void part1_abort_and_retry() {
  std::printf("=== part 1: MH failure during checkpointing ===\n\n");
  harness::SystemOptions opts;
  opts.num_processes = 6;
  opts.algorithm = harness::Algorithm::kCaoSinghal;
  opts.cs.decision_timeout = sim::seconds(60);
  harness::System sys(opts);

  workload::PointToPointWorkload traffic(
      sys.simulator(), sys.rng(), sys.n(), 0.1,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  traffic.start(sim::seconds(120));

  // P3 dies at t=59 s; a checkpointing starts at t=60 s.
  sys.simulator().schedule_at(sim::seconds(59), [&] {
    std::printf("[t=59s] MH hosting P3 fails (battery dead)\n");
    sys.lan()->set_failed(3, true);
  });
  sys.simulator().schedule_at(sim::seconds(60), [&] {
    std::printf("[t=60s] P0 initiates a coordinated checkpoint\n");
    sys.initiate(0);
  });
  sys.simulator().schedule_at(sim::seconds(200), [&] {
    std::printf("[t=200s] P3's MH restarts\n");
    sys.lan()->set_failed(3, false);
  });
  sys.simulator().schedule_at(sim::seconds(240), [&] {
    std::printf("[t=240s] P0 retries the checkpoint\n");
    sys.initiate(0);
  });
  sys.simulator().run_until(sim::kTimeNever);

  for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
    std::printf("  initiation at t=%.0fs: %s (%u checkpoints)\n",
                sim::to_seconds(st->started_at),
                st->committed()  ? "COMMITTED"
                : st->aborted()  ? "aborted (Section 3.6)"
                                 : "incomplete",
                st->tentative);
  }
  ckpt::CheckResult check = sys.check_consistency();
  std::printf("  consistency oracle: %s\n\n", check.describe().c_str());
}

void part2_recovery_comparison() {
  std::printf("=== part 2: crash recovery, coordinated vs uncoordinated ===\n\n");

  auto run = [](harness::Algorithm algo) {
    harness::SystemOptions opts;
    opts.num_processes = 8;
    opts.algorithm = algo;
    opts.seed = 99;
    auto sys = std::make_unique<harness::System>(opts);
    workload::PointToPointWorkload traffic(
        sys->simulator(), sys->rng(), sys->n(), 0.2,
        [s = sys.get()](ProcessId a, ProcessId b) { s->send(a, b); });
    traffic.start(sim::seconds(1800));
    harness::SchedulerOptions so;
    so.interval = sim::seconds(300);
    harness::CheckpointScheduler sched(*sys, so);
    sched.start(sim::seconds(1800));
    sys->simulator().run_until(sim::kTimeNever);
    return sys;
  };

  auto coordinated = run(harness::Algorithm::kCaoSinghal);
  auto uncoordinated = run(harness::Algorithm::kUncoordinated);

  // A crash once the run has drained: each system recovers from the
  // checkpoints it holds then.
  const sim::SimTime crash = coordinated->simulator().now();
  ckpt::RecoveryOutcome co =
      coordinated->recovery().recover_coordinated(crash);
  ckpt::RecoveryOutcome un = uncoordinated->recovery().recover_uncoordinated(
      uncoordinated->simulator().now());

  std::printf("crash at t=%.0fs, identical workload (seed 99):\n",
              sim::to_seconds(crash));
  std::printf(
      "  coordinated (mutable ckpts): restart from last committed line, "
      "%llu events lost, 1 stable checkpoint per process kept\n",
      (unsigned long long)co.lost_events);
  std::printf(
      "  uncoordinated [1]:           rollback search over %zu stored "
      "checkpoints, %llu events lost, %llu rollback steps%s\n",
      uncoordinated->store().count(ckpt::CkptKind::kInitial) +
          uncoordinated->store().count(ckpt::CkptKind::kTentative) +
          uncoordinated->store().count(ckpt::CkptKind::kPermanent),
      (unsigned long long)un.lost_events,
      (unsigned long long)un.rollback_steps,
      un.domino_to_start ? ", DOMINO to initial state" : "");
  std::printf(
      "  stable-storage checkpoints written: coordinated %llu vs "
      "uncoordinated %llu\n",
      (unsigned long long)coordinated->stats().tentative_taken,
      (unsigned long long)uncoordinated->stats().tentative_taken);
  double air_coord =
      static_cast<double>(coordinated->stats().tentative_taken) * 2.0;
  double air_unco =
      static_cast<double>(uncoordinated->stats().tentative_taken) * 2.0;
  std::printf(
      "  wireless airtime spent on checkpoints: %.0f s vs %.0f s - the\n"
      "  uncoordinated freshness is paid for with ~%.0fx more 2 Mbps\n"
      "  airtime (Section 6's core criticism), plus the domino risk.\n",
      air_coord, air_unco, air_unco / air_coord);
}

}  // namespace

int main() {
  part1_abort_and_retry();
  part2_recovery_comparison();
  return 0;
}
