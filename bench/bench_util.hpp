// Shared helpers for the figure/table regeneration binaries.
//
// Every driver takes `--quick` (shorter horizon, fewer reps) and
// `--jobs N` (replication worker threads; default MCK_JOBS env, else 1),
// and rejects any flag it does not know (Args). The job count never
// changes the numbers, only the wall-clock time.
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/round_metrics.hpp"
#include "obs/timeline.hpp"
#include "stats/table.hpp"

namespace mck::bench {

/// One flag a driver accepts: a switch, or an option that takes one value
/// (`value` names it in the usage text).
struct Flag {
  const char* name;
  const char* value;  // nullptr for a switch
  const char* help;
};

inline constexpr Flag kQuick{"--quick", nullptr,
                             "shorter horizon, fewer repetitions"};
inline constexpr Flag kJobs{"--jobs", "N",
                            "replication threads (default: MCK_JOBS, else 1)"};
inline constexpr Flag kWireSizes{"--wire-sizes", nullptr,
                                 "charge every message its honest codec size"};
inline constexpr Flag kWireFidelity{"--wire-fidelity", nullptr,
                                    "round-trip every payload through the "
                                    "codec"};
inline constexpr Flag kMetrics{"--metrics", nullptr,
                               "append trace-derived columns to every row"};

/// A driver's command line, parsed strictly (tools/flags.hpp): an unknown
/// flag, a missing value or a --jobs that is not a positive integer prints
/// the usage to stderr and exits 2; --help prints it to stdout and exits
/// 0. Either way nothing runs.
class Args {
 public:
  Args(int argc, char** argv, std::vector<Flag> flags);

  /// The value of option `name` (the last one given), or `fallback`; a
  /// given switch's value is its name.
  const char* value(const char* name, const char* fallback = nullptr) const;

  /// True if the switch or option `name` was given.
  bool has(const char* name) const { return value(name) != nullptr; }

  /// The value of option `name` as a positive count, or `fallback`; a
  /// value that is not one is a usage error.
  int count(const char* name, int fallback) const;

  bool quick() const { return has(kQuick.name); }

  /// `--jobs N`, or 0 (= harness::resolve_jobs default) if absent.
  int jobs() const { return jobs_; }

 private:
  // Given flags in order: (name, value).
  std::vector<std::pair<const char*, const char*>> given_;
  int jobs_ = 0;
};

/// Applies `--wire-sizes` (honest codec byte charging + per-kind wire-byte
/// columns) and `--wire-fidelity` (codec round-trip on every hop) to a
/// config. Every driver accepts both; see EXPERIMENTS.md.
inline void apply_wire_flags(const Args& args,
                             harness::ExperimentConfig& cfg) {
  if (args.has(kWireSizes.name)) {
    cfg.sys.timing.use_wire_sizes = true;
    cfg.sys.timing.record_wire_bytes = true;
  }
  if (args.has(kWireFidelity.name)) cfg.sys.wire_fidelity = true;
}

/// The cellular scale configuration: fig_scale's sweep point at population
/// n, which perf_report also times. Callers add only their own flags.
inline harness::ExperimentConfig scale_config(int n) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
  cfg.sys.num_processes = n;
  cfg.sys.seed = 4242;
  cfg.sys.transport = harness::TransportKind::kCellular;
  // Hierarchical topology: the backbone stays small (4 MSSs at paper
  // scale, 32 at deployment scale) while cells absorb the population at
  // ~64 MHs per wireless cell.
  cfg.sys.cellular.num_mss = n <= 1000 ? 4 : 32;
  const int target_cells = n / 64;
  cfg.sys.cellular.cells_per_mss =
      std::max(1, target_cells / cfg.sys.cellular.num_mss);
  // Honest codec byte accounting without use_wire_sizes: recorded wire
  // bytes come from the real delta/varint encodings while message timing
  // keeps the paper's flat budgets, so the protocol schedule for a given
  // (n, seed) is independent of codec changes.
  cfg.sys.timing.record_wire_bytes = true;
  cfg.workload = harness::WorkloadKind::kPointToPoint;
  // A constant aggregate send budget (~36k computation messages over the
  // horizon) keeps every point's event count comparable: the sweep then
  // measures how per-message cost scales with n, not how much traffic n
  // hosts generate.
  const double aggregate_rate = 60.0;  // msgs/s across the population
  cfg.rate = aggregate_rate / n;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(600);
  // Past a few thousand hosts, only a handful of designated processes
  // schedule periodic initiations (see SchedulerOptions::initiator_limit);
  // everyone else checkpoints when the request wave reaches them.
  cfg.initiator_limit = n <= 1000 ? 0 : 4;
  return cfg;
}

/// Threads of this process, from /proc/self/status; 0 where procfs is
/// unavailable.
inline int thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int threads = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

/// Runs `fn` in a forked child and returns its result, and the child's
/// own peak resident set (ru_maxrss from wait4, KiB) in *rss_kib — the
/// peak of this one measurement, not of whatever the process ran before
/// (VmHWM never falls). The result crosses a pipe, so it must be
/// trivially copyable. Forks only from a single-threaded process: threads
/// `fn` starts live and end in the child. Exits 1 if the child fails.
template <typename Fn>
auto run_in_child(Fn&& fn, std::uint64_t* rss_kib) {
  using T = decltype(fn());
  static_assert(std::is_trivially_copyable_v<T>);
  auto die = [](const char* what) {
    std::fprintf(stderr, "run_in_child: %s\n", what);
    std::exit(1);
  };
  if (thread_count() > 1) die("the process is not single-threaded");
  int fds[2];
  if (pipe(fds) != 0) die("pipe failed");
  std::fflush(nullptr);  // the child must not repeat buffered output
  const pid_t pid = fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const T out = fn();
    const char* p = reinterpret_cast<const char*>(&out);
    std::size_t left = sizeof out;
    while (left > 0) {
      const ssize_t w = write(fds[1], p, left);
      if (w <= 0) _exit(1);
      p += w;
      left -= static_cast<std::size_t>(w);
    }
    std::fflush(nullptr);
    _exit(0);
  }
  close(fds[1]);
  T out{};
  char* p = reinterpret_cast<char*>(&out);
  std::size_t got = 0;
  while (got < sizeof out) {
    const ssize_t r = read(fds[0], p + got, sizeof out - got);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid) die("wait4 failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || got != sizeof out) {
    die("the measuring child failed");
  }
  *rss_kib = static_cast<std::uint64_t>(ru.ru_maxrss);
  return out;
}

/// Column-wise peak over a timeline run (signed columns compare as i64).
inline std::int64_t timeline_peak(const obs::TimelineRun& run, int col) {
  std::int64_t peak = 0;
  for (std::size_t k = 0; k < run.rows(); ++k) {
    peak = std::max(peak, obs::timeline_i64(run.row(k)[col]));
  }
  return peak;
}

/// `--metrics`: capture a flight-recorder trace per repetition and append
/// derived columns to every table row. Off by default so the committed
/// golden outputs are untouched. Call once per config before running.
inline bool apply_metrics_flag(const Args& args,
                               harness::ExperimentConfig& cfg) {
  bool on = args.has(kMetrics.name);
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
