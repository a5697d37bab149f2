// Ablation A (Section 3.1): why mutable checkpoints?
// Compares the "simple" and "revised" csn schemes of Section 3.1.1 —
// which force *stable* checkpoints on computation messages and cascade
// (avalanche effect) — against the mutable-checkpoint algorithm, plus
// the uncoordinated Acharya-Badrinath rule of Section 6.
//
// Expected shape: total stable checkpoints per initiation interval
// simple >= revised >> mutable-checkpoint algorithm; the schemes'
// message-forced checkpoints (avalanche links) grow with the send rate
// while ours stay zero (mutable checkpoints absorb them in memory).
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
      "Ablation A - csn schemes vs mutable checkpoints (Section 3.1)\n"
      "N = 16, point-to-point, interval = 900 s");

  struct Algo {
    const char* name;
    harness::Algorithm algo;
  } algos[] = {
      {"simple scheme (3.1.1)", harness::Algorithm::kSimpleScheme},
      {"revised scheme (3.1.1)", harness::Algorithm::kRevisedScheme},
      {"mutable ckpts (ours)", harness::Algorithm::kCaoSinghal},
      {"uncoordinated [1]", harness::Algorithm::kUncoordinated},
  };

  for (double rate : {0.005, 0.02, 0.1}) {
    char title[96];
    std::snprintf(title, sizeof title, "--- send rate %.3f msg/s per MH ---",
                  rate);
    std::printf("\n%s\n", title);
    stats::TextTable table({"scheme", "stable ckpts total",
                            "forced by message (avalanche)",
                            "explicit initiations",
                            "mutable ckpts (memory only)"});
    for (const Algo& a : algos) {
      harness::ExperimentConfig cfg;
      cfg.sys.algorithm = a.algo;
      cfg.sys.num_processes = 16;
      cfg.sys.seed = 4000;
      cfg.rate = rate;
      cfg.ckpt_interval = sim::seconds(900);
      cfg.horizon = sim::seconds(quick ? 3600 : 2 * 3600);
      bench::apply_wire_flags(args, cfg);
      harness::RunResult res =
          harness::run_replicated(cfg, quick ? 1 : 3, jobs);

      table.add_row(
          {a.name,
           bench::num(static_cast<double>(res.stats.tentative_taken), "%.0f"),
           bench::num(static_cast<double>(res.stats.forced_by_message),
                      "%.0f"),
           bench::num(static_cast<double>(res.initiations), "%.0f"),
           bench::num(static_cast<double>(res.stats.mutable_taken), "%.0f")});
    }
    table.print();
  }

  std::printf(
      "\nReading guide: every 'forced by message' checkpoint in the csn\n"
      "schemes is a 512 KB stable-storage transfer over the wireless link;\n"
      "the mutable-checkpoint algorithm replaces them with ~2.5 ms memory\n"
      "copies and discards the redundant ones.\n");
  return 0;
}
