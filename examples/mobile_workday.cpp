// A day in the life of a mobile workgroup: twelve mobile hosts roam
// across four cells, occasionally disconnecting (commuting, flights,
// dead batteries), while a shared distributed application chats away and
// the mutable-checkpoint protocol takes a coordinated checkpoint every
// 15 minutes.
//
//   build/examples/mobile_workday
//
// Demonstrates: cellular routing, handoff rerouting, disconnection
// buffering, MSS-proxied checkpoints (Section 2.2), and the consistency
// oracle over a long mobile run.
#include <cstdio>

#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "mobile/mobility.hpp"
#include "workload/traffic.hpp"

using namespace mck;

int main() {
  harness::SystemOptions opts;
  opts.num_processes = 12;
  opts.algorithm = harness::Algorithm::kCaoSinghal;
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = 4;
  // A sluggish wide-area backbone between the MSSs: messages spend real
  // time in flight, so handoffs cause visible rerouting and checkpoint
  // requests can be overtaken by computation messages (mutable
  // checkpoints at work).
  opts.cellular.wired_latency = sim::milliseconds(80);
  opts.cellular.forward_penalty = sim::milliseconds(40);
  opts.seed = 2026;
  harness::System sys(opts);

  const sim::SimTime kDay = sim::seconds(8 * 3600);

  // Roaming and voluntary disconnections.
  mobile::MobilityParams mp;
  mp.mean_residence = sim::seconds(600);    // ~10 min per cell
  mp.disconnect_probability = 0.25;
  mp.mean_disconnect = sim::seconds(300);   // ~5 min offline
  mobile::MobilityModel mobility(sys.simulator(), sys.rng(), *sys.cellular(),
                                 mp);
  int disconnects = 0;
  mobility.on_disconnect = [&](ProcessId p) {
    ++disconnects;
    sys.cao(p).on_disconnect();  // deposit disconnect_checkpoint at MSS
  };
  mobility.start(kDay);

  // Application traffic.
  workload::PointToPointWorkload traffic(
      sys.simulator(), sys.rng(), sys.n(), /*msgs_per_second=*/0.3,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  traffic.start(kDay);

  // Coordinated checkpoints every 15 minutes.
  harness::SchedulerOptions so;
  so.interval = sim::seconds(900);
  harness::CheckpointScheduler scheduler(sys, so);
  scheduler.start(kDay);

  sys.simulator().run_until(sim::kTimeNever);

  std::printf("--- a mobile workday (8 simulated hours, 12 MHs, 4 cells) ---\n\n");
  std::printf("handoffs:                      %llu\n",
              (unsigned long long)sys.cellular()->handoffs());
  std::printf("voluntary disconnections:      %d\n", disconnects);
  std::printf("messages rerouted after move:  %llu\n",
              (unsigned long long)sys.cellular()->messages_forwarded());
  std::printf("messages buffered at MSSs:     %llu\n",
              (unsigned long long)sys.cellular()->messages_buffered());
  std::printf("computation messages:          %llu\n",
              (unsigned long long)sys.stats().msgs_sent[0]);
  std::printf("\n");

  std::size_t committed = 0;
  double tentative_sum = 0;
  std::uint64_t mutables = sys.stats().mutable_taken;
  for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
    if (!st->committed()) continue;
    ++committed;
    tentative_sum += st->tentative;
  }
  std::printf("checkpoint initiations committed: %zu\n", committed);
  if (committed > 0) {
    std::printf("stable checkpoints per initiation: %.2f (of %d processes)\n",
                tentative_sum / static_cast<double>(committed), sys.n());
  }
  std::printf("mutable checkpoints (memory only): %llu taken, %llu promoted\n",
              (unsigned long long)mutables,
              (unsigned long long)sys.stats().mutable_promoted);
  std::printf("disconnect checkpoints at MSSs:    %zu\n",
              sys.store().count(ckpt::CkptKind::kDisconnect));

  ckpt::CheckResult check = sys.check_consistency();
  std::printf("\nconsistency oracle: %s\n", check.describe().c_str());

  // What would a crash right now cost?
  ckpt::RecoveryOutcome rec =
      sys.recovery().recover_coordinated(sys.simulator().now());
  std::printf(
      "crash-now recovery: restart from the last committed line, losing "
      "%llu events\n",
      (unsigned long long)rec.lost_events);
  return check.consistent ? 0 : 1;
}
