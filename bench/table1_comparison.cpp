// Regenerates Table 1 of the paper: a comparison of the Koo-Toueg
// blocking min-process algorithm [19], the Elnozahy-Johnson-Zwaenepoel
// nonblocking all-process algorithm [13], and the mutable-checkpoint
// algorithm — measured on identical workloads, next to the paper's
// analytic formulas.
//
// Expected shape (paper):
//   checkpoints:   KT == ours == N_min;  EJZ == N
//   blocking time: KT ~ N_min * T_ch;    EJZ == ours == 0
//   output commit: ours ~ N_min * T_ch;  EJZ ~ N * T_ch
//   messages:      KT ~ 3*N_min*N_dep;   EJZ ~ 2 broadcasts + N replies;
//                  ours ~ 2*N_min + min(N_min, broadcast)
//   distributed:   KT yes, EJZ no, ours yes
#include <cstring>

#include "bench_util.hpp"

using namespace mck;

namespace {

struct Row {
  const char* name;
  harness::Algorithm algo;
  const char* analytic_ckpts;
  const char* analytic_block;
  const char* analytic_commit;
  const char* analytic_msgs;
  const char* distributed;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv,
                         {bench::kQuick, bench::kJobs, bench::kWireSizes,
                          bench::kWireFidelity, bench::kMetrics});
  const bool quick = args.quick();
  const int jobs = args.jobs();

  const Row rows[] = {
      {"Koo-Toueg [19]", harness::Algorithm::kKooToueg, "N_min",
       "N_min * T_ch", "N_min * T_ch", "3*N_min*N_dep*C_air", "yes"},
      {"Elnozahy [13]", harness::Algorithm::kElnozahy, "N",
       "0", "N * T_ch", "2*C_broad + N*C_air", "no"},
      {"Mutable ckpts (ours)", harness::Algorithm::kCaoSinghal, "N_min",
       "0", "~N_min * T_ch", "~2*N_min*C_air + min(N_min*C_air, C_broad)",
       "yes"},
  };

  for (double rate : {0.005, 0.02}) {
    char title[128];
    std::snprintf(title, sizeof title,
                  "Table 1 - algorithm comparison (N = 16, point-to-point, "
                  "rate = %.3f msg/s per MH)",
                  rate);
    bench::banner(title);

    const bool metrics = args.has(bench::kMetrics.name);
    std::vector<std::string> header = {
        "algorithm", "ckpts/init (measured | paper)",
        "blocked process-s/init (measured | paper)",
        "output commit s (measured | paper)",
        "T_msg ms / T_data s",
        "sys msgs/init (measured | paper)",
        "distributed"};
    if (metrics) bench::append_metrics_header(header);
    stats::TextTable table(std::move(header));

    for (const Row& row : rows) {
      harness::ExperimentConfig cfg;
      cfg.sys.algorithm = row.algo;
      cfg.sys.num_processes = 16;
      cfg.sys.seed = 3000;
      cfg.rate = rate;
      cfg.ckpt_interval = sim::seconds(900);
      cfg.horizon = sim::seconds(quick ? 2 * 3600 : 4 * 3600);
      bench::apply_wire_flags(args, cfg);
      bench::apply_metrics_flag(args, cfg);
      harness::RunResult res =
          harness::run_replicated(cfg, quick ? 2 : 4, jobs);

      std::vector<std::string> cells = {
          row.name,
          bench::mean_ci(res.tentative_per_init) + "  | " +
              row.analytic_ckpts,
          bench::mean_ci(res.blocked_s_per_init) + "  | " +
              row.analytic_block,
          bench::mean_ci(res.commit_delay_s) + "  | " + row.analytic_commit,
          bench::num(res.t_msg_s.mean() * 1000.0, "%.2f") + " / " +
              bench::num(res.t_data_s.mean(), "%.2f"),
          bench::mean_ci(res.sys_msgs_per_init) + "  | " + row.analytic_msgs,
          row.distributed};
      if (metrics) {
        for (std::string& c : bench::trace_metric_cells(res)) {
          cells.push_back(std::move(c));
        }
      }
      table.add_row(std::move(cells));
    }
    table.print();
  }

  // Flat-budget vs honest-bytes comparison: every algorithm runs with the
  // paper's 50 B charging while the codec records what the same messages
  // would really cost on the air (record_wire_bytes leaves timing alone,
  // so the message counts are the default-mode ones).
  bench::banner(
      "Table 1 addendum - flat 50 B budget vs honest codec bytes\n"
      "(N = 16, point-to-point, rate = 0.02 msg/s per MH)");
  {
    using A = harness::Algorithm;
    stats::TextTable table({"algorithm", "sys msgs", "flat B", "honest wire B",
                            "honest B/msg", "comp piggyback B"});
    for (A a : {A::kCaoSinghal, A::kKooToueg, A::kElnozahy, A::kChandyLamport,
                A::kLaiYang, A::kSimpleScheme, A::kRevisedScheme,
                A::kUncoordinated}) {
      harness::ExperimentConfig cfg;
      cfg.sys.algorithm = a;
      cfg.sys.num_processes = 16;
      cfg.sys.seed = 3000;
      cfg.rate = 0.02;
      cfg.ckpt_interval = sim::seconds(900);
      cfg.horizon = sim::seconds(quick ? 2 * 3600 : 4 * 3600);
      cfg.sys.timing.record_wire_bytes = true;
      bench::apply_wire_flags(args, cfg);
      harness::RunResult res =
          harness::run_replicated(cfg, quick ? 2 : 4, jobs);

      const std::uint64_t msgs = res.stats.system_msgs();
      const std::uint64_t honest = res.stats.system_wire_bytes();
      const std::uint64_t comp_extra =
          res.stats.wire_bytes_sent[static_cast<int>(
              rt::MsgKind::kComputation)] -
          res.stats.bytes_sent[static_cast<int>(rt::MsgKind::kComputation)];
      table.add_row(
          {harness::to_string(a),
           bench::num(static_cast<double>(msgs), "%.0f"),
           bench::num(static_cast<double>(res.stats.system_bytes()), "%.0f"),
           bench::num(static_cast<double>(honest), "%.0f"),
           msgs > 0 ? bench::num(static_cast<double>(honest) /
                                     static_cast<double>(msgs),
                                 "%.1f")
                    : "-",
           bench::num(static_cast<double>(comp_extra), "%.0f")});
    }
    table.print();
  }

  std::printf(
      "\nNotes:\n"
      " * T_ch = 2 s (512 KB checkpoint over the 2 Mbps wireless medium);\n"
      "   transfers serialize, so N_min * T_ch grows with the dependency\n"
      "   closure (up to 32 s at N_min = 16).\n"
      " * blocking time: only Koo-Toueg suppresses the computation.\n"
      " * commit messages of the broadcast phase are counted once per\n"
      "   recipient, matching the paper's C_broad accounting.\n"
      " * the addendum keeps the flat charging (timing unchanged) and\n"
      "   only measures honest bytes; pass --wire-sizes to also charge\n"
      "   them to the medium.\n");
  return 0;
}
