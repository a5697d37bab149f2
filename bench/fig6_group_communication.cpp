// Regenerates Fig. 6 of the paper: checkpoints per initiation in the
// group-communication environment. Sixteen processes in four groups, each
// with a leader; only leaders communicate across groups. Left panel:
// intragroup rate 1000x the intergroup rate; right panel: 10000x.
//
// Expected shape (paper): both tentative and redundant-mutable counts are
// lower than point-to-point, and lower still at ratio 10000 than at 1000.
#include <cstring>

#include "bench_util.hpp"

using namespace mck;

namespace {

void panel(double ratio, const bench::Args& args) {
  const bool quick = args.quick();
  char title[128];
  std::snprintf(title, sizeof title,
                "Fig. 6 (%s) - group communication, intragroup/intergroup "
                "rate ratio = %.0fx",
                ratio < 5000 ? "left" : "right", ratio);
  bench::banner(title);

  const double rates[] = {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1};
  const int reps = quick ? 2 : 5;

  const bool metrics = args.has(bench::kMetrics.name);
  std::vector<std::string> header = {
      "intragroup rate (msg/s)", "initiations", "tentative ckpts/init",
      "redundant mutable/init", "mutable/tentative %"};
  if (metrics) bench::append_metrics_header(header);
  stats::TextTable table(std::move(header));
  for (double rate : rates) {
    harness::ExperimentConfig cfg;
    cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
    cfg.sys.num_processes = 16;
    cfg.sys.seed = 2000 + static_cast<std::uint64_t>(ratio);
    cfg.workload = harness::WorkloadKind::kGroup;
    cfg.groups = 4;
    cfg.group_ratio = ratio;
    cfg.rate = rate;
    cfg.ckpt_interval = sim::seconds(900);
    cfg.horizon = sim::seconds(quick ? 2 * 3600 : 4 * 3600);
    bench::apply_wire_flags(args, cfg);
    bench::apply_metrics_flag(args, cfg);

    harness::RunResult res = harness::run_replicated(cfg, reps, args.jobs());
    double pct = res.tentative_per_init.mean() > 0
                     ? 100.0 * res.redundant_mutable_per_init.mean() /
                           res.tentative_per_init.mean()
                     : 0.0;
    std::vector<std::string> row = {
        bench::num(rate, "%.3f"),
        bench::num(static_cast<double>(res.committed), "%.0f"),
        bench::mean_ci(res.tentative_per_init),
        bench::mean_ci(res.redundant_mutable_per_init),
        bench::num(pct, "%.2f")};
    if (metrics) {
      for (std::string& c : bench::trace_metric_cells(res)) {
        row.push_back(std::move(c));
      }
    }
    table.add_row(std::move(row));
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv,
                         {bench::kQuick, bench::kJobs, bench::kWireSizes,
                          bench::kWireFidelity, bench::kMetrics});
  panel(1000.0, args);
  panel(10000.0, args);
  std::printf(
      "\nPaper's observations to compare against:\n"
      " * fewer checkpoints than point-to-point at the same rate (the\n"
      "   initiator's dependencies stay inside its group)\n"
      " * the 10000x panel is lower than the 1000x panel\n");
  return 0;
}
