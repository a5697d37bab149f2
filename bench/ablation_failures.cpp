// Failure-handling ablation (Section 3.6): abort-all vs the Kim-Park
// partial commit under random MH crash/repair cycles.
//
// Expected shape: both policies keep every committed line consistent;
// partial commit salvages checkpoints from initiations that abort-all
// throws away entirely, so more initiations advance (part of) the
// recovery line.
#include <cstring>

#include "bench_util.hpp"
#include "workload/traffic.hpp"

using namespace mck;

namespace {

struct Outcome {
  std::uint64_t initiations = 0;
  std::uint64_t full_commits = 0;
  std::uint64_t partial_commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t permanent_ckpts = 0;
  std::uint64_t participants_salvaged = 0;  // commits inside partials
  bool consistent = true;
};

// Set from --wire-sizes / --wire-fidelity before the sweeps run.
bool g_wire_sizes = false;
bool g_wire_fidelity = false;

Outcome run(core::FailureMode mode, double mtbf_s, std::uint64_t seed) {
  harness::SystemOptions opts;
  opts.timing.use_wire_sizes = g_wire_sizes;
  opts.timing.record_wire_bytes = g_wire_sizes;
  opts.wire_fidelity = g_wire_fidelity;
  opts.num_processes = 12;
  opts.algorithm = harness::Algorithm::kCaoSinghal;
  opts.cs.failure_mode = mode;
  opts.cs.decision_timeout = sim::seconds(120);
  opts.seed = seed;
  harness::System sys(opts);

  const sim::SimTime horizon = sim::seconds(2 * 3600);

  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.02,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(horizon);

  harness::SchedulerOptions so;
  so.interval = sim::seconds(300);
  harness::CheckpointScheduler sched(sys, so);
  sched.start(horizon);

  // Crash/repair injector: each process independently fails with the
  // given MTBF and repairs after ~60 s.
  std::function<void(ProcessId)> schedule_crash = [&](ProcessId p) {
    sim::SimTime at =
        sys.simulator().now() + sys.rng().exponential(sim::from_seconds(mtbf_s));
    if (at > horizon) return;
    sys.simulator().schedule_at(at, [&, p]() {
      sys.lan()->set_failed(p, true);
      sim::SimTime back =
          sys.simulator().now() + sys.rng().exponential(sim::seconds(60));
      sys.simulator().schedule_at(back, [&, p]() {
        sys.lan()->set_failed(p, false);
        sys.cao(p).on_restart();  // restarting coordinator aborts (3.6)
        schedule_crash(p);
      });
    });
  };
  for (ProcessId p = 0; p < sys.n(); ++p) schedule_crash(p);

  sys.simulator().run_until(sim::kTimeNever);

  Outcome out;
  for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
    ++out.initiations;
    if (st->aborted()) {
      ++out.aborts;
    } else if (st->committed() && st->partial_commit) {
      ++out.partial_commits;
      out.participants_salvaged += st->line_updates.size();
    } else if (st->committed()) {
      ++out.full_commits;
    }
  }
  out.permanent_ckpts = sys.stats().permanent_made;
  out.consistent = sys.check_consistency().consistent;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Single seeded runs per configuration (no replication), so --jobs has
  // nothing to parallelize here; both flags are still accepted so every
  // bench driver shares one command line.
  const bench::Args args(argc, argv,
                         {bench::kQuick, bench::kJobs, bench::kWireSizes,
                          bench::kWireFidelity});
  g_wire_sizes = args.has(bench::kWireSizes.name);
  g_wire_fidelity = args.has(bench::kWireFidelity.name);

  bench::banner(
      "Failure ablation (Section 3.6) - abort-all vs Kim-Park partial "
      "commit\nN = 12, crash/repair injection, 2 h simulated");

  for (double mtbf : {1200.0, 600.0, 300.0}) {
    std::printf("\n--- per-process MTBF %.0f s ---\n", mtbf);
    stats::TextTable table({"policy", "initiations", "full commits",
                            "partial commits", "aborts", "permanent ckpts",
                            "salvaged ckpts", "consistent"});
    struct Mode {
      const char* name;
      core::FailureMode mode;
    } modes[] = {
        {"abort-all (3.6 simple)", core::FailureMode::kAbortAll},
        {"Kim-Park partial [18]", core::FailureMode::kPartialCommit},
    };
    for (const Mode& m : modes) {
      Outcome o = run(m.mode, mtbf, 777);
      table.add_row(
          {m.name, stats::fmt_u("%llu", o.initiations),
           stats::fmt_u("%llu", o.full_commits),
           stats::fmt_u("%llu", o.partial_commits),
           stats::fmt_u("%llu", o.aborts),
           stats::fmt_u("%llu", o.permanent_ckpts),
           stats::fmt_u("%llu", o.participants_salvaged),
           o.consistent ? "yes" : "NO"});
    }
    table.print();
  }
  std::printf(
      "\nReading guide: under Kim-Park, initiations hit by a failure still\n"
      "advance the recovery line for the unaffected processes (salvaged\n"
      "ckpts) instead of aborting wholesale.\n");
  return 0;
}
