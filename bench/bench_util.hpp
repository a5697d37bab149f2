// Shared helpers for the figure/table regeneration binaries.
//
// Every driver takes `--quick` (shorter horizon, fewer reps) and
// `--jobs N` (replication worker threads; default MCK_JOBS env, else 1).
// The job count never changes the numbers, only the wall-clock time.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/experiment.hpp"
#include "obs/round_metrics.hpp"
#include "stats/table.hpp"

namespace mck::bench {

/// True if `name` appears among the arguments.
inline bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Value of `--jobs N`, or 0 (= harness::resolve_jobs default) if absent.
inline int jobs_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) return std::atoi(argv[i + 1]);
  }
  return 0;
}

/// Applies `--wire-sizes` (honest codec byte charging + per-kind wire-byte
/// columns) and `--wire-fidelity` (codec round-trip on every hop) to a
/// config. Every driver accepts both; see EXPERIMENTS.md.
inline void apply_wire_flags(int argc, char** argv,
                             harness::ExperimentConfig& cfg) {
  if (has_flag(argc, argv, "--wire-sizes")) {
    cfg.sys.timing.use_wire_sizes = true;
    cfg.sys.timing.record_wire_bytes = true;
  }
  if (has_flag(argc, argv, "--wire-fidelity")) cfg.sys.wire_fidelity = true;
}

/// `--metrics`: capture a flight-recorder trace per repetition and append
/// derived columns to every table row. Off by default so the committed
/// golden outputs are untouched. Call once per config before running.
inline bool apply_metrics_flag(int argc, char** argv,
                               harness::ExperimentConfig& cfg) {
  bool on = has_flag(argc, argv, "--metrics");
  cfg.capture_trace = cfg.capture_trace || on;
  return on;
}

/// Header cells matching trace_metric_cells().
inline void append_metrics_header(std::vector<std::string>& header) {
  header.push_back("init->tent (s)");
  header.push_back("init->commit (s)");
  header.push_back("useless mutable");
  header.push_back("trace records");
}

/// Derived per-row trace columns: mean initiation->first-tentative and
/// initiation->commit latencies, useless-mutable count, record count.
inline std::vector<std::string> trace_metric_cells(
    const harness::RunResult& res) {
  const obs::TraceFold fold = obs::fold_runs(res.traces);
  const obs::TraceSummary& s = fold.summary();
  return {stats::fmt("%.3f", obs::mean_latency_s(
                                 fold.rounds(),
                                 &obs::RoundMetrics::tentative_latency)),
          stats::fmt("%.3f",
                     obs::mean_latency_s(fold.rounds(),
                                         &obs::RoundMetrics::commit_latency)),
          stats::fmt_u("%llu", s.discarded_mutable),
          stats::fmt_u("%llu", s.total)};
}

/// "mean +- ci" cell.
inline std::string mean_ci(const stats::Welford& w) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f +- %.3f", w.mean(),
                w.ci95_half_width());
  return buf;
}

inline std::string num(double v, const char* f = "%.3f") {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

inline void banner(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace mck::bench
