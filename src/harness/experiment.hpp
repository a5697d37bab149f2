// Experiment runner: builds a System, drives a workload plus the
// checkpoint scheduler to a horizon, and aggregates the paper's metrics
// (Figs 5-6, Table 1). Fig/Table benches sweep parameters over this.
#pragma once

#include <string>

#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "obs/trace_io.hpp"
#include "stats/welford.hpp"

namespace mck::harness {

enum class WorkloadKind { kPointToPoint, kGroup };

struct ExperimentConfig {
  SystemOptions sys;
  WorkloadKind workload = WorkloadKind::kPointToPoint;
  /// Per-process computation-message send rate (msgs/s); for group
  /// workloads this is the intragroup rate.
  double rate = 0.1;
  int groups = 4;
  double group_ratio = 1000.0;  // intragroup / intergroup rate, Fig. 6
  sim::SimTime ckpt_interval = sim::seconds(900);
  sim::SimTime horizon = sim::seconds(4 * 3600);
  /// See SchedulerOptions::initiator_limit (0 = all processes initiate).
  int initiator_limit = 0;

  /// Flight-recorder capture of every record kind: each repetition
  /// records into its own obs::Tracer and lands in RunResult::traces.
  /// Deterministic — the trace bytes depend only on (config, seed), never
  /// on the job count.
  bool capture_trace = false;

  /// Tracer OOM guard: per-repetition record cap (0 = unlimited). When the
  /// cap is hit the tracer drops further records and stamps a kTruncated
  /// marker, which mcktrace/mckaudit surface — an honest partial trace
  /// instead of an OOM-killed run at 1M hosts.
  std::uint64_t trace_record_cap = 0;

  /// Run-health timeline (DESIGN.md 3f): each repetition samples the
  /// system gauges every timeline_interval of *simulated* time into
  /// RunResult::timelines. Deterministic — identical bytes for any job
  /// count.
  bool capture_timeline = false;
  sim::SimTime timeline_interval = sim::seconds(1);

  /// Periodic run-health line on stderr (wall-clock progress). Never
  /// touches stdout, so golden outputs are unaffected.
  bool progress = false;
};

struct RunResult {
  rt::RunStats stats;

  std::uint64_t initiations = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;

  // Per committed initiation (the units of Figs 5-6).
  stats::Welford tentative_per_init;
  stats::Welford mutable_per_init;
  stats::Welford redundant_mutable_per_init;
  stats::Welford sys_msgs_per_init;
  stats::Welford commit_delay_s;   // output-commit delay (Table 1)
  // T_ch decomposition (Section 5.3): synchronization vs transfer time.
  stats::Welford t_msg_s;
  stats::Welford t_data_s;
  stats::Welford blocked_s_per_init;
  stats::Welford duplicate_requests_per_init;

  // Whole-run.
  std::uint64_t comp_msgs = 0;
  std::uint64_t forced_checkpoints = 0;  // csn schemes / EJZ / uncoordinated
  bool consistent = true;
  std::size_t orphans = 0;
  std::size_t lines_checked = 0;

  /// One entry per repetition when ExperimentConfig::capture_trace is set
  /// (in rep-index order after run_replicated), empty otherwise.
  std::vector<obs::TraceRun> traces;

  /// One entry per repetition when ExperimentConfig::capture_timeline is
  /// set (in rep-index order after run_replicated), empty otherwise.
  std::vector<obs::TimelineRun> timelines;

  /// Merges another repetition (different seed) into this aggregate.
  void merge(const RunResult& o);
};

RunResult run_experiment(const ExperimentConfig& config);

/// SplitMix64 finalizer — the repo's standard seed mixer (see
/// replication_seed).
std::uint64_t splitmix64(std::uint64_t x);

/// Seed for replication `rep` of a run with base seed `base`. Rep 0 runs
/// the base seed itself; later reps mix (base, rep) through SplitMix64 so
/// every replication gets an independent RNG stream — two configs with
/// adjacent base seeds share none of their replicate streams (the old
/// `seed+rep` scheme shared almost all of them).
std::uint64_t replication_seed(std::uint64_t base, int rep);

/// Resolves a worker count: values >= 1 are used as-is; 0 (the default)
/// reads the MCK_JOBS environment variable, falling back to 1 (serial).
int resolve_jobs(int jobs);

/// Runs `reps` repetitions with seeds replication_seed(seed, 0..reps-1)
/// and merges them in rep-index order. Replications are independent
/// simulations, so with `jobs` > 1 they run on a worker pool; the merge
/// order is fixed, so the aggregate is bit-identical for any job count.
RunResult run_replicated(ExperimentConfig config, int reps, int jobs = 0);

}  // namespace mck::harness
