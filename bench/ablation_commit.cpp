// Ablation B (Section 3.3.5): second-phase strategy — broadcast commit
// vs the update approach of [6] vs the counter-based hybrid.
//
// Expected shape: with chatty workloads the broadcast costs ~N messages
// per initiation regardless; the update approach costs one commit per
// replier plus clear-notifications along send histories, so it wins when
// few processes communicated in the last interval and loses when many
// did — exactly the trade-off the paper describes.
#include <cstring>

#include "bench_util.hpp"

using namespace mck;

int main(int argc, char** argv) {
  const bench::Args args(argc, argv,
                         {bench::kQuick, bench::kJobs, bench::kWireSizes,
                          bench::kWireFidelity});
  const bool quick = args.quick();
  const int jobs = args.jobs();

  bench::banner(
      "Ablation B - commit dissemination (Section 3.3.5)\n"
      "N = 16, point-to-point, interval = 900 s");

  struct Mode {
    const char* name;
    core::CommitMode mode;
  } modes[] = {
      {"broadcast (3.3.4)", core::CommitMode::kBroadcast},
      {"update [6]", core::CommitMode::kUpdate},
      {"hybrid (counter)", core::CommitMode::kHybrid},
  };

  for (double rate : {0.002, 0.01, 0.05}) {
    std::printf("\n--- send rate %.3f msg/s per MH ---\n", rate);
    stats::TextTable table({"mode", "commit msgs/init", "clear msgs total",
                            "second-phase msgs/init", "doze wakeups/init",
                            "ckpts/init", "consistent"});
    for (const Mode& m : modes) {
      harness::ExperimentConfig cfg;
      cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
      cfg.sys.cs.commit_mode = m.mode;
      cfg.sys.num_processes = 16;
      cfg.sys.seed = 5000;
      cfg.rate = rate;
      cfg.ckpt_interval = sim::seconds(900);
      cfg.horizon = sim::seconds(quick ? 3600 : 2 * 3600);
      bench::apply_wire_flags(args, cfg);
      harness::RunResult res =
          harness::run_replicated(cfg, quick ? 1 : 3, jobs);

      double commits_per_init =
          res.committed > 0 ? static_cast<double>(
                                  res.stats.msgs_sent[static_cast<int>(
                                      rt::MsgKind::kCommit)]) /
                                  static_cast<double>(res.committed)
                            : 0;
      double clears = static_cast<double>(
          res.stats.msgs_sent[static_cast<int>(rt::MsgKind::kControl)]);
      double second_phase =
          res.committed > 0
              ? commits_per_init + clears / static_cast<double>(res.committed)
              : 0;
      // Section 1 / 5.3.2: every system message a dozing MH receives is a
      // wakeup; broadcast commits wake all N MHs every initiation.
      double wakeups =
          res.committed > 0
              ? static_cast<double>(res.stats.energy.totals().rx_sys_msgs) /
                    static_cast<double>(res.committed)
              : 0;
      table.add_row({m.name, bench::num(commits_per_init, "%.2f"),
                     bench::num(clears, "%.0f"),
                     bench::num(second_phase, "%.2f"),
                     bench::num(wakeups, "%.2f"),
                     bench::mean_ci(res.tentative_per_init),
                     res.consistent ? "yes" : "NO"});
    }
    table.print();
  }

  std::printf(
      "\nReading guide: broadcast always pays N-1 = 15 commit messages;\n"
      "the update approach pays (#repliers + #clear notifications), which\n"
      "is cheaper at low rates and crosses over as the dependency closure\n"
      "approaches N.\n");
  return 0;
}
