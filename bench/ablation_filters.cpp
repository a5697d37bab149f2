// Ablation C: the two request-suppression optimizations —
//  * MR filtering (Section 3.3.2): do not re-request processes the MR
//    structure shows were already requested with an adequate req_csn;
//  * req_csn filtering (Section 3.1.3 / Fig. 4): a process receiving a
//    request whose req_csn predates its current stable checkpoint skips
//    the checkpoint.
//
// Expected shape: disabling MR filtering inflates request messages
// (toward the Koo-Toueg O(N_min*N_dep) behaviour); disabling req_csn
// filtering inflates the number of tentative checkpoints. Consistency
// holds in every configuration — the filters are pure optimizations.
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
      "Ablation C - request filters (Sections 3.1.3, 3.3.2)\n"
      "N = 16, point-to-point, interval = 900 s");

  struct Conf {
    const char* name;
    bool mr;
    bool req_csn;
  } confs[] = {
      {"both filters (paper)", true, true},
      {"no MR filter", false, true},
      {"no req_csn filter", true, false},
      {"no filters", false, false},
  };

  for (double rate : {0.005, 0.02}) {
    std::printf("\n--- send rate %.3f msg/s per MH ---\n", rate);
    stats::TextTable table({"configuration", "requests/init",
                            "duplicate requests/init", "ckpts/init",
                            "consistent"});
    for (const Conf& c : confs) {
      harness::ExperimentConfig cfg;
      cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
      cfg.sys.cs.mr_filter = c.mr;
      cfg.sys.cs.req_csn_filter = c.req_csn;
      cfg.sys.num_processes = 16;
      cfg.sys.seed = 6000;
      cfg.rate = rate;
      cfg.ckpt_interval = sim::seconds(900);
      cfg.horizon = sim::seconds(quick ? 3600 : 2 * 3600);
      bench::apply_wire_flags(args, cfg);
      harness::RunResult res =
          harness::run_replicated(cfg, quick ? 1 : 3, jobs);

      double req_per_init =
          res.committed > 0
              ? static_cast<double>(res.stats.msgs_sent[static_cast<int>(
                    rt::MsgKind::kRequest)]) /
                    static_cast<double>(res.committed)
              : 0;
      table.add_row({c.name, bench::num(req_per_init, "%.2f"),
                     bench::mean_ci(res.duplicate_requests_per_init),
                     bench::mean_ci(res.tentative_per_init),
                     res.consistent ? "yes" : "NO"});
    }
    table.print();
  }
  return 0;
}
