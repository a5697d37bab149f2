// Quickstart: the mutable-checkpoint algorithm on the Fig. 3 scenario of
// the paper, with protocol tracing enabled so every decision is visible.
//
//   build/examples/quickstart
//
// Five processes on a 2 Mbps wireless LAN. P2 initiates a checkpointing
// process; P3 (a dependency) is forced to a tentative checkpoint; P4 —
// on which nobody depends — receives a computation message from
// checkpointed P3 first and protects itself with a *mutable* checkpoint
// (a memory copy, no wireless transfer), which is discarded as redundant
// when P2's commit arrives.
#include <cstdio>

#include "harness/system.hpp"
#include "util/log.hpp"
#include "workload/traffic.hpp"

using namespace mck;

int main() {
  util::Log::level() = util::LogLevel::kTrace;

  harness::SystemOptions opts;
  opts.num_processes = 5;
  opts.algorithm = harness::Algorithm::kCaoSinghal;
  harness::System sys(opts);

  std::printf("--- mutable checkpoints quickstart (Fig. 3 scenario) ---\n\n");

  using K = workload::ScriptStep::Kind;
  workload::ScriptedWorkload script(
      sys.simulator(),
      [&sys](ProcessId a, ProcessId b) {
        std::printf("[t=%.3fms] P%d sends a computation message to P%d\n",
                    sim::to_milliseconds(sys.simulator().now()), a, b);
        sys.send(a, b);
      },
      [&sys](ProcessId p) { sys.initiate(p); });

  script.run({
      {sim::milliseconds(10), K::kSend, 3, 2},   // P2 now depends on P3
      {sim::milliseconds(20), K::kSend, 4, 1},   // P4 has sent this interval
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::milliseconds(110), K::kSend, 3, 4},  // carries P2's trigger
  });
  sys.simulator().run_until(sim::kTimeNever);

  std::printf("\n--- outcome ---\n");
  for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
    std::printf(
        "initiation by P%d: %s after %.1f s — %u tentative checkpoint(s), "
        "%u mutable taken, %u promoted, %u discarded as redundant\n",
        st->initiator, st->committed() ? "committed" : "aborted",
        sim::to_seconds((st->committed() ? st->committed_at
                                         : st->aborted_at) -
                        st->started_at),
        st->tentative, st->mutables_taken, st->mutables_promoted,
        st->mutables_discarded);
  }

  std::printf("\ncheckpoints held now (discarded ones left the store):\n");
  for (ProcessId p = 0; p < sys.n(); ++p) {
    sys.store().for_each_live(p, [](const ckpt::CheckpointRecord& rec) {
      std::printf("  P%d csn=%u %s (taken t=%.3fms)\n", rec.pid, rec.csn,
                  ckpt::to_string(rec.kind),
                  sim::to_milliseconds(rec.taken_at));
    });
  }

  ckpt::CheckResult check = sys.check_consistency();
  std::printf("\nconsistency oracle: %s\n", check.describe().c_str());
  std::printf(
      "\nKey observation: P4's checkpoint never crossed the wireless link -\n"
      "a mutable checkpoint is a ~2.5 ms memory copy, vs the 2 s stable-\n"
      "storage transfer a tentative checkpoint costs.\n");
  return check.consistent ? 0 : 1;
}
