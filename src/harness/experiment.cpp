#include "harness/experiment.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "workload/traffic.hpp"

namespace mck::harness {

namespace {

/// Current resident set in KiB (Linux /proc; 0 where unavailable). Only
/// read on the --progress path, never in the hot loop.
std::uint64_t live_rss_kib() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
#else
  return 0;
#endif
}

/// Serial-engine drive loop with a periodic stderr run-health line:
/// sim-time progress against the horizon, wall-clock event throughput,
/// and live RSS. Writes to stderr only — stdout goldens are untouched.
void run_with_progress(sim::Simulator& sim, sim::SimTime horizon) {
  constexpr int kSlices = 20;
  const auto wall0 = std::chrono::steady_clock::now();
  for (int i = 1; i <= kSlices; ++i) {
    sim.run_until(horizon / kSlices * i);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    const double evps =
        wall_s > 0 ? static_cast<double>(sim.events_executed()) / wall_s : 0;
    std::fprintf(stderr,
                 "progress: sim %3d%%  t=%.0fs  events=%llu (%.2fM/s)  "
                 "rss=%llu MiB\n",
                 i * 100 / kSlices, sim::to_seconds(sim.now()),
                 static_cast<unsigned long long>(sim.events_executed()),
                 evps / 1e6,
                 static_cast<unsigned long long>(live_rss_kib() / 1024));
  }
  sim.run_until(sim::kTimeNever);  // drain in-flight coordinations
  std::fprintf(stderr, "progress: drained  events=%llu\n",
               static_cast<unsigned long long>(sim.events_executed()));
}

/// Folds per-initiation statistics (in the tracker's start order) into
/// the aggregate.
void aggregate_initiations(
    RunResult& result, const std::vector<const ckpt::InitiationStats*>& inits) {
  for (const ckpt::InitiationStats* st : inits) {
    ++result.initiations;
    if (st->aborted()) {
      ++result.aborted;
      continue;
    }
    if (!st->committed()) continue;  // cut off by the horizon
    ++result.committed;
    result.tentative_per_init.add(static_cast<double>(st->tentative));
    result.mutable_per_init.add(static_cast<double>(st->mutables_taken));
    // Redundant = never turned into a tentative checkpoint (Section 5).
    result.redundant_mutable_per_init.add(
        static_cast<double>(st->mutables_taken - st->mutables_promoted));
    result.sys_msgs_per_init.add(static_cast<double>(
        st->requests + st->replies + st->commits + st->aborts));
    result.commit_delay_s.add(
        sim::to_seconds(st->committed_at - st->started_at));
    result.t_msg_s.add(sim::to_seconds(st->t_msg()));
    result.t_data_s.add(sim::to_seconds(st->t_data()));
    result.blocked_s_per_init.add(sim::to_seconds(st->blocked_time));
    result.duplicate_requests_per_init.add(
        static_cast<double>(st->duplicate_requests));
  }
}

}  // namespace

void RunResult::merge(const RunResult& o) {
  initiations += o.initiations;
  committed += o.committed;
  aborted += o.aborted;
  tentative_per_init.merge(o.tentative_per_init);
  mutable_per_init.merge(o.mutable_per_init);
  redundant_mutable_per_init.merge(o.redundant_mutable_per_init);
  sys_msgs_per_init.merge(o.sys_msgs_per_init);
  commit_delay_s.merge(o.commit_delay_s);
  t_msg_s.merge(o.t_msg_s);
  t_data_s.merge(o.t_data_s);
  blocked_s_per_init.merge(o.blocked_s_per_init);
  duplicate_requests_per_init.merge(o.duplicate_requests_per_init);
  comp_msgs += o.comp_msgs;
  forced_checkpoints += o.forced_checkpoints;
  consistent = consistent && o.consistent;
  orphans += o.orphans;
  lines_checked += o.lines_checked;
  for (const obs::TraceRun& t : o.traces) traces.push_back(t);
  for (const obs::TimelineRun& t : o.timelines) timelines.push_back(t);

  for (int k = 0; k < rt::kMsgKindCount; ++k) {
    stats.msgs_sent[k] += o.stats.msgs_sent[k];
    stats.bytes_sent[k] += o.stats.bytes_sent[k];
    stats.wire_bytes_sent[k] += o.stats.wire_bytes_sent[k];
  }
  stats.deliveries += o.stats.deliveries;
  stats.tentative_taken += o.stats.tentative_taken;
  stats.mutable_taken += o.stats.mutable_taken;
  stats.mutable_promoted += o.stats.mutable_promoted;
  stats.mutable_discarded += o.stats.mutable_discarded;
  stats.permanent_made += o.stats.permanent_made;
  stats.forced_by_message += o.stats.forced_by_message;
  stats.checkpoint_cascades += o.stats.checkpoint_cascades;
  stats.pending_reaped += o.stats.pending_reaped;
  stats.blocked_time_total += o.stats.blocked_time_total;
  stats.blocked_sends_deferred += o.stats.blocked_sends_deferred;
  stats.mutable_overhead_time += o.stats.mutable_overhead_time;

  stats.energy.ensure(o.stats.energy.per_process.size());
  for (std::size_t i = 0; i < o.stats.energy.per_process.size(); ++i) {
    const stats::ProcessEnergy& src = o.stats.energy.per_process[i];
    stats::ProcessEnergy& dst = stats.energy.per_process[i];
    dst.tx_comp_msgs += src.tx_comp_msgs;
    dst.tx_sys_msgs += src.tx_sys_msgs;
    dst.rx_comp_msgs += src.rx_comp_msgs;
    dst.rx_sys_msgs += src.rx_sys_msgs;
    dst.tx_bytes += src.tx_bytes;
    dst.rx_bytes += src.rx_bytes;
    dst.bulk_bytes += src.bulk_bytes;
  }
}

RunResult run_experiment(const ExperimentConfig& config) {
  // The tracer lives on this frame: one per repetition, so replications
  // never share a buffer and the trace is identical for any job count.
  obs::Tracer tracer;
  SystemOptions sys_opts = config.sys;
  if (config.capture_trace) {
    tracer.enable();
    if (config.trace_record_cap > 0) {
      tracer.set_record_cap(config.trace_record_cap);
    }
    sys_opts.tracer = &tracer;
  }
  // Like the tracer, the sampler lives on this frame: one per repetition,
  // so replications never share gauges and the timeline bytes depend only
  // on (config, seed).
  obs::TimelineSampler sampler;
  if (config.capture_timeline) {
    const int mss_count = config.sys.transport == TransportKind::kCellular
                              ? config.sys.cellular.num_mss
                              : 0;
    sampler.configure(config.timeline_interval, mss_count);
    if (config.timeline_interval > 0) {
      sampler.reserve_rows(static_cast<std::size_t>(
                               config.horizon / config.timeline_interval) +
                           16);
    }
    sys_opts.timeline = &sampler;
  }
  System system(sys_opts);

  // Workload.
  workload::SendFn send = [&system](ProcessId src, ProcessId dst) {
    system.send(src, dst);
  };
  std::unique_ptr<workload::PointToPointWorkload> p2p;
  std::unique_ptr<workload::GroupWorkload> grp;
  if (config.workload == WorkloadKind::kPointToPoint) {
    p2p = std::make_unique<workload::PointToPointWorkload>(
        system.simulator(), system.rng(), system.n(), config.rate, send);
    p2p->start(config.horizon);
  } else {
    grp = std::make_unique<workload::GroupWorkload>(
        system.simulator(), system.rng(), system.n(), config.groups,
        config.rate, config.group_ratio, send);
    grp->start(config.horizon);
  }

  // Checkpoint initiations.
  SchedulerOptions sched_opts;
  sched_opts.interval = config.ckpt_interval;
  sched_opts.initiator_limit = config.initiator_limit;
  CheckpointScheduler scheduler(system, sched_opts);
  scheduler.start(config.horizon);

  // Run to quiescence (nothing schedules beyond the horizon except
  // in-flight coordinations, which terminate — Theorem 2). The drain
  // check counts live events only: cancelled tombstones still parked in
  // the queue are not remaining work.
  if (config.progress) {
    run_with_progress(system.simulator(), config.horizon);
  } else {
    system.simulator().run_until(sim::kTimeNever);
  }
  MCK_ASSERT_MSG(system.simulator().live_pending() == 0,
                 "experiment did not drain its event queue");

  // Aggregate.
  RunResult result;
  result.stats = system.stats();
  result.comp_msgs =
      system.stats().msgs_sent[static_cast<int>(rt::MsgKind::kComputation)];
  result.forced_checkpoints = system.stats().forced_by_message;

  aggregate_initiations(result, system.tracker().in_order());

  if (has_committed_lines(config.sys.algorithm)) {
    ckpt::CheckResult check = system.check_consistency();
    result.consistent = check.consistent;
    result.orphans = check.orphans.size();
    result.lines_checked = check.lines_checked;
    MCK_ASSERT_MSG(check.consistent,
                   "committed global checkpoint line has orphan messages");
  }

  if (config.capture_trace) {
    obs::TraceRun run;
    run.rep = 0;  // re-stamped by run_replicated
    run.seed = sys_opts.seed;
    run.records = tracer.take_records();
    // Digests computed here (a pure function of the records) ride to
    // write_trace_file, which then skips recomputing them — and any
    // consumer can localize a divergence before the file round-trip.
    run.digests =
        obs::compute_run_digests(run.records.data(), run.records.size());
    result.traces.push_back(std::move(run));
  }

  if (config.capture_timeline) {
    sampler.finalize(system.simulator().live_pending(),
                     system.simulator().slot_count(),
                     system.simulator().events_executed());
    result.timelines.push_back(sampler.take_run(sys_opts.seed));
  }
  return result;
}

// SplitMix64 finalizer (Steele/Lea/Flood, JPDC 2014): a bijective 64-bit
// mix whose outputs pass BigCrush even on consecutive inputs.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t replication_seed(std::uint64_t base, int rep) {
  MCK_ASSERT(rep >= 0);
  if (rep == 0) return base;
  // The rep-th output of a SplitMix64 generator seeded at `base`: the
  // streams of two different base seeds never track each other the way
  // base+1, base+2, ... did.
  return splitmix64(base +
                    0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rep - 1));
}

int resolve_jobs(int jobs) {
  if (jobs >= 1) return jobs;
  if (const char* env = std::getenv("MCK_JOBS")) {
    int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return 1;
}

RunResult run_replicated(ExperimentConfig config, int reps, int jobs) {
  MCK_ASSERT(reps >= 0);
  jobs = resolve_jobs(jobs);

  // Each replication is an independent simulation (its System owns the
  // event queue, RNG, stats, and transport), so they parallelize with no
  // shared mutable state; results land in a per-rep slot and merge in
  // rep-index order, making the aggregate independent of the job count.
  std::vector<RunResult> results(static_cast<std::size_t>(reps));
  std::atomic<int> next{0};
  auto worker = [&]() {
    for (;;) {
      int r = next.fetch_add(1, std::memory_order_relaxed);
      if (r >= reps) return;
      ExperimentConfig c = config;
      c.sys.seed = replication_seed(config.sys.seed, r);
      results[static_cast<std::size_t>(r)] = run_experiment(c);
    }
  };

  int workers = jobs < reps ? jobs : reps;
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  RunResult total;
  for (const RunResult& one : results) total.merge(one);
  for (std::size_t i = 0; i < total.traces.size(); ++i) {
    total.traces[i].rep = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < total.timelines.size(); ++i) {
    total.timelines[i].rep = static_cast<int>(i);
  }
  return total;
}

}  // namespace mck::harness
