// Regenerates Fig. 5 of the paper: number of tentative checkpoints and
// number of redundant mutable checkpoints per checkpoint initiation, as a
// function of the message sending rate, in the point-to-point
// communication environment (N = 16 MHs on a 2 Mbps wireless LAN,
// checkpoint interval 900 s).
//
// Expected shape (paper): tentative checkpoints grow towards N with the
// send rate; redundant mutable checkpoints first rise then fall and stay
// below ~4% of the tentative count. A second panel repeats the sweep with
// 802.11-style contention and frame loss, which widens the window in which
// a computation message can beat a checkpoint request — the regime where
// mutable checkpoints do real work.
#include <cstring>

#include "bench_util.hpp"

using namespace mck;

namespace {

void panel(const char* title, const bench::Args& args, bool realistic_radio) {
  const bool quick = args.quick();
  bench::banner(title);

  const double rates[] = {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1};
  const int reps = quick ? 2 : 5;

  const bool metrics = args.has(bench::kMetrics.name);
  std::vector<std::string> header = {
      "rate (msg/s per MH)",    "initiations",
      "tentative ckpts/init",   "redundant mutable/init",
      "mutable/tentative %",    "output commit delay (s)"};
  if (metrics) bench::append_metrics_header(header);
  stats::TextTable table(std::move(header));

  for (double rate : rates) {
    harness::ExperimentConfig cfg;
    cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
    cfg.sys.num_processes = 16;
    cfg.sys.seed = 1000;
    cfg.workload = harness::WorkloadKind::kPointToPoint;
    cfg.rate = rate;
    cfg.ckpt_interval = sim::seconds(900);
    cfg.horizon = sim::seconds(quick ? 2 * 3600 : 4 * 3600);
    if (realistic_radio) {
      cfg.sys.lan.mode = net::MediumMode::kShared;
      cfg.sys.lan.loss_probability = 0.10;
    }
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
        bench::num(pct, "%.2f"),
        bench::mean_ci(res.commit_delay_s)};
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

  panel(
      "Fig. 5 - checkpoints per initiation vs message sending rate\n"
      "point-to-point communication, N = 16, interval = 900 s",
      args, /*realistic_radio=*/false);
  panel(
      "Fig. 5 variant - same sweep under 802.11 contention + 10% frame\n"
      "loss (wider request/message race window)",
      args, /*realistic_radio=*/true);

  std::printf(
      "\nPaper's observations to compare against:\n"
      " * tentative checkpoints/initiation increase with the sending rate\n"
      " * redundant mutable checkpoints rise then fall, always < ~4%% of\n"
      "   the tentative checkpoints\n");
  return 0;
}
