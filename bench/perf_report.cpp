// Hot-path performance report. Measures three things and writes them to a
// JSON file (default BENCH_hotpath.json in the working directory):
//
//  1. Event-loop throughput (events/s) on a steady-state scheduling ring —
//     K pending events, each firing reschedules itself with a Message-sized
//     capture, with a protocol-style timer that is repeatedly scheduled and
//     cancelled. Its trajectory across commits lives in
//     BENCH_history.jsonl.
//
//  2. Allocations per event / per message, via an instrumented global
//     operator new local to this binary. Steady-state scheduling through
//     the Simulator must not allocate at all; pooled message payloads
//     must recycle their control-block nodes.
//
//  3. Whole-simulation throughput (sim-seconds per wall-second and
//     events/s) on a fig5-style Cao-Singhal run, so the report tracks the
//     end-to-end number and not just the queue microcosm.
//
// Usage: perf_report [--quick] [--out PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "bench_util.hpp"
#include "harness/experiment.hpp"
#include "sim/simulator.hpp"
#include "core/payloads.hpp"
#include "util/pool.hpp"

// ---------------------------------------------------------------------------
// Allocation instrumentation (binary-local). Counts every heap block the
// process requests; relaxed atomics keep the probe cheap enough that it
// does not distort the throughput numbers it is qualifying.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mck;
using Clock = std::chrono::steady_clock;

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// The ring workload: the message-delivery hot path in miniature.
//  * `pending` in-flight messages; each delivery constructs the next
//    message (pooled tagged payload + header) and schedules its arrival
//    event, which captures the full rt::Message — exactly what a transport
//    arrival closure hauls.
//  * every 4th delivery re-arms a far-future timeout and cancels the
//    previous one, the retry-timer idiom of the protocol layer.
// Deterministic: delays come from a fixed LCG.
// ---------------------------------------------------------------------------

struct RingState {
  std::uint64_t fired = 0;
  std::uint64_t sink = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  sim::SimTime next_delay() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<sim::SimTime>((lcg >> 33) % 1000 + 1);
  }
};

struct RingRunner {
  sim::Simulator& sim;
  RingState st;
  sim::EventHandle timer;

  rt::Message make_msg() {
    rt::Message m;
    m.src = static_cast<ProcessId>(st.fired & 15);
    m.dst = static_cast<ProcessId>((st.fired >> 4) & 15);
    m.kind = rt::MsgKind::kComputation;
    std::shared_ptr<core::CompPayload> p =
        util::make_pooled<core::CompPayload>();
    p->csn = static_cast<Csn>(st.fired);
    m.payload = std::move(p);
    return m;
  }

  void fire(rt::Message& msg) {
    ++st.fired;
    // "Deliver": touch the payload like a protocol handler would.
    st.sink += static_cast<std::uint64_t>(
        msg.payload_as<core::CompPayload>()->csn);
    if ((st.fired & 3u) == 0) {
      timer.cancel();
      timer = sim.schedule_after(1u << 20, [] {});
    }
    sim.schedule_after(st.next_delay(),
                       [this, m = make_msg()]() mutable { fire(m); });
  }

  // Returns {events/s, allocs/event} over `events` steady-state firings
  // after `pending` ring slots and `warmup` firings have primed the pools.
  std::pair<double, double> run(int pending, std::uint64_t warmup,
                                std::uint64_t events) {
    for (int i = 0; i < pending; ++i) {
      sim.schedule_after(st.next_delay(), [this, m = make_msg()]() mutable {
        fire(m);
      });
    }
    while (st.fired < warmup) sim.step();
    std::uint64_t a0 = allocs();
    Clock::time_point t0 = Clock::now();
    std::uint64_t target = st.fired + events;
    while (st.fired < target) sim.step();
    double dt = secs_since(t0);
    std::uint64_t a1 = allocs();
    return {static_cast<double>(events) / dt,
            static_cast<double>(a1 - a0) / static_cast<double>(events)};
  }
};

// Pooled vs fresh payload churn: steady-state allocations per message
// payload acquired and dropped, mirroring what a request/reply exchange
// does to the heap.
std::pair<double, double> measure_payload_churn(std::uint64_t iters) {
  // Warm the pool.
  for (int i = 0; i < 64; ++i) {
    auto p = util::make_pooled<core::CompPayload>();
    (void)p;
  }
  std::uint64_t a0 = allocs();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto p = util::make_pooled<core::CompPayload>();
    p->csn = static_cast<Csn>(i & 15);
  }
  double pooled =
      static_cast<double>(allocs() - a0) / static_cast<double>(iters);
  a0 = allocs();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto p = std::make_shared<core::CompPayload>();
    p->csn = static_cast<Csn>(i & 15);
  }
  double fresh =
      static_cast<double>(allocs() - a0) / static_cast<double>(iters);
  return {pooled, fresh};
}

// Fig5-style end-to-end run: sim-seconds per wall-second and events/s.
struct SimThroughput {
  double sim_seconds_per_wall_second;
  double events_per_sec;
  double horizon_s;
};

SimThroughput measure_sim_throughput(bool quick) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
  cfg.sys.num_processes = 16;
  cfg.sys.seed = 1000;
  cfg.workload = harness::WorkloadKind::kPointToPoint;
  cfg.rate = 0.1;
  cfg.ckpt_interval = sim::seconds(900);
  cfg.horizon = sim::seconds(quick ? 3600 : 4 * 3600);

  // One throwaway rep to fault in code paths, then the timed rep.
  harness::run_experiment(cfg);
  Clock::time_point t0 = Clock::now();
  harness::RunResult res = harness::run_experiment(cfg);
  double dt = secs_since(t0);

  double horizon_s = sim::to_seconds(cfg.horizon);
  return {horizon_s / dt,
          static_cast<double>(res.stats.deliveries) / dt, horizon_s};
}

// ---------------------------------------------------------------------------
// Scale path (the fig_scale workload, in-process). n = 1k is the
// throughput point — small enough that scheduler noise swamps single
// runs, so the best of `kScaleTrials` is reported; n = 1M is the memory
// point — peak RSS comes from VmHWM, which is a process-wide high-water
// mark, valid here because every stage before it stays under ~100 MB.
// The configs mirror bench/fig_scale's run_point() exactly.
// ---------------------------------------------------------------------------

constexpr int kScaleTrials = 5;

struct ScalePathPerf {
  double n1k_deliveries_per_sec = 0;  // best of kScaleTrials
  double n1k_wall_s = 0;              // fastest trial
  double n1M_wall_s = 0;
  std::uint64_t n1M_peak_rss_kib = 0;
  // Headline run-health numbers from the n=1M point's timeline (the
  // sampler is on for that run; its cost is part of n1M_wall_s, so the
  // report measures the instrumented configuration CI actually ships).
  std::uint64_t n1M_timeline_rows = 0;
  std::uint64_t n1M_peak_queue_depth = 0;
  std::int64_t n1M_peak_in_flight = 0;
  std::int64_t n1M_peak_blocked = 0;
};

/// Column-wise peak over a timeline run (signed columns compare as i64).
std::int64_t timeline_peak_i64(const obs::TimelineRun& run, int col) {
  std::int64_t peak = 0;
  for (std::size_t k = 0; k < run.rows(); ++k) {
    peak = std::max(peak, obs::timeline_i64(run.row(k)[col]));
  }
  return peak;
}

harness::ExperimentConfig scale_cfg(int n) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
  cfg.sys.num_processes = n;
  cfg.sys.seed = 4242;
  cfg.sys.transport = harness::TransportKind::kCellular;
  cfg.sys.cellular.num_mss = n <= 1000 ? 4 : 32;
  cfg.sys.cellular.cells_per_mss =
      std::max(1, (n / 64) / cfg.sys.cellular.num_mss);
  cfg.sys.timing.record_wire_bytes = true;
  cfg.workload = harness::WorkloadKind::kPointToPoint;
  cfg.rate = 60.0 / n;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(600);
  cfg.initiator_limit = n <= 1000 ? 0 : 4;
  return cfg;
}

std::uint64_t vm_hwm_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %llu", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

ScalePathPerf measure_scale_path() {
  ScalePathPerf out;
  {
    harness::ExperimentConfig cfg = scale_cfg(1000);
    for (int t = 0; t < kScaleTrials; ++t) {
      Clock::time_point t0 = Clock::now();
      harness::RunResult res = harness::run_experiment(cfg);
      double wall = secs_since(t0);
      double dps =
          wall > 0 ? static_cast<double>(res.stats.deliveries) / wall : 0;
      if (dps > out.n1k_deliveries_per_sec) {
        out.n1k_deliveries_per_sec = dps;
        out.n1k_wall_s = wall;
      }
    }
  }
  {
    harness::ExperimentConfig cfg = scale_cfg(1000000);
    cfg.capture_timeline = true;
    cfg.timeline_interval = sim::seconds(1);
    Clock::time_point t0 = Clock::now();
    harness::RunResult res = harness::run_experiment(cfg);
    out.n1M_wall_s = secs_since(t0);
    out.n1M_peak_rss_kib = vm_hwm_kib();
    if (!res.timelines.empty()) {
      const obs::TimelineRun& tl = res.timelines.front();
      out.n1M_timeline_rows = tl.rows();
      out.n1M_peak_queue_depth = static_cast<std::uint64_t>(
          timeline_peak_i64(tl, obs::kColQueueDepth));
      out.n1M_peak_in_flight = timeline_peak_i64(tl, obs::kColInFlight);
      out.n1M_peak_blocked = timeline_peak_i64(tl, obs::kColBlockedProcs);
    }
  }
  return out;
}

void usage() {
  std::fprintf(stderr,
               "usage: perf_report [--quick] [--out PATH]\n"
               "                   [--history PATH] [--sha SHA] [--stamp TS]\n"
               "  --history PATH  append a one-line JSONL summary of this run\n"
               "                  (default BENCH_history.jsonl; \"\" disables)\n"
               "  --sha SHA       git commit the run measures (history key)\n"
               "  --stamp TS      timestamp string for the history line\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::has_flag(argc, argv, "--quick");
  const char* out_path = "BENCH_hotpath.json";
  const char* history_path = "BENCH_history.jsonl";
  const char* sha = "";
  const char* stamp = "";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--history") == 0) history_path = argv[i + 1];
    if (std::strcmp(argv[i], "--sha") == 0) sha = argv[i + 1];
    if (std::strcmp(argv[i], "--stamp") == 0) stamp = argv[i + 1];
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    }
  }

  int pending = 256;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--pending") == 0) pending = std::atoi(argv[i + 1]);
  }
  const std::uint64_t warmup = quick ? 50'000 : 200'000;
  const std::uint64_t events = quick ? 500'000 : 4'000'000;

  std::printf("perf_report: ring pending=%d warmup=%llu events=%llu%s\n",
              pending, static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(events), quick ? " (quick)" : "");

  // Keep the best of a few repetitions, so one-off scheduler noise does
  // not set the number.
  double cur_eps = 0, cur_ape = 0;
  const int reps = 3;
  for (int r = 0; r < reps; ++r) {
    sim::Simulator s;
    RingRunner ring{s, {}, {}};
    auto [eps, ape] = ring.run(pending, warmup, events);
    if (eps > cur_eps) {
      cur_eps = eps;
      cur_ape = ape;
    }
  }
  std::printf("event loop: %.0f ev/s (%.3f allocs/ev)\n", cur_eps, cur_ape);

  auto [pooled_apm, fresh_apm] = measure_payload_churn(quick ? 200'000
                                                            : 1'000'000);
  std::printf("payload churn: pooled %.3f allocs/msg, fresh %.3f allocs/msg\n",
              pooled_apm, fresh_apm);

  SimThroughput st = measure_sim_throughput(quick);
  std::printf("fig5-style run: %.0f sim-seconds/wall-second, "
              "%.0f deliveries/s\n",
              st.sim_seconds_per_wall_second, st.events_per_sec);

  ScalePathPerf sc = measure_scale_path();
  std::printf("scale path: n=1k best-of-%d %.0f deliveries/s (%.2fs), "
              "n=1M %.2fs peak rss %llu KiB\n",
              kScaleTrials, sc.n1k_deliveries_per_sec, sc.n1k_wall_s,
              sc.n1M_wall_s,
              static_cast<unsigned long long>(sc.n1M_peak_rss_kib));
  std::printf("scale timeline: n=1M rows=%llu peak queue=%llu "
              "in-flight=%lld blocked=%lld\n",
              static_cast<unsigned long long>(sc.n1M_timeline_rows),
              static_cast<unsigned long long>(sc.n1M_peak_queue_depth),
              static_cast<long long>(sc.n1M_peak_in_flight),
              static_cast<long long>(sc.n1M_peak_blocked));

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "perf_report: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"quick\": %s,\n"
               "  \"event_loop\": {\n"
               "    \"ring_pending\": %d,\n"
               "    \"ring_events\": %llu,\n"
               "    \"current_events_per_sec\": %.1f\n"
               "  },\n"
               "  \"allocs\": {\n"
               "    \"per_event_current\": %.4f,\n"
               "    \"per_pooled_message\": %.4f,\n"
               "    \"per_fresh_message\": %.4f\n"
               "  },\n"
               "  \"sim_throughput\": {\n"
               "    \"workload\": \"cao_singhal n=16 rate=0.1 p2p, horizon %.0fs\",\n"
               "    \"sim_seconds_per_wall_second\": %.1f,\n"
               "    \"deliveries_per_sec\": %.1f\n"
               "  },\n"
               "  \"scale_path\": {\n"
               "    \"workload\": \"fig_scale points, in-process (n=1k "
               "best-of-%d, n=1M once)\",\n"
               "    \"n1k_deliveries_per_sec\": %.1f,\n"
               "    \"n1k_wall_s\": %.3f,\n"
               "    \"n1M_wall_s\": %.3f,\n"
               "    \"n1M_peak_rss_kib\": %llu,\n"
               "    \"n1M_timeline_rows\": %llu,\n"
               "    \"n1M_peak_queue_depth\": %llu,\n"
               "    \"n1M_peak_in_flight\": %lld,\n"
               "    \"n1M_peak_blocked\": %lld\n"
               "  }\n"
               "}\n",
               quick ? "true" : "false", pending,
               static_cast<unsigned long long>(events), cur_eps, cur_ape,
               pooled_apm, fresh_apm, st.horizon_s,
               st.sim_seconds_per_wall_second, st.events_per_sec, kScaleTrials, sc.n1k_deliveries_per_sec, sc.n1k_wall_s,
               sc.n1M_wall_s,
               static_cast<unsigned long long>(sc.n1M_peak_rss_kib),
               static_cast<unsigned long long>(sc.n1M_timeline_rows),
               static_cast<unsigned long long>(sc.n1M_peak_queue_depth),
               static_cast<long long>(sc.n1M_peak_in_flight),
               static_cast<long long>(sc.n1M_peak_blocked));
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  // The snapshot above overwrites; the history file accumulates — one
  // compact JSONL line per run, keyed by (git sha, timestamp) so trends
  // across commits survive the snapshot churn.
  if (history_path[0] != '\0') {
    std::FILE* h = std::fopen(history_path, "a");
    if (!h) {
      std::fprintf(stderr, "perf_report: cannot append to %s\n", history_path);
      return 1;
    }
    std::fprintf(h,
                 "{\"sha\":\"%s\",\"stamp\":\"%s\",\"quick\":%s,"
                 "\"current_events_per_sec\":%.1f,"
                 "\"allocs_per_event_current\":%.4f,"
                 "\"sim_seconds_per_wall_second\":%.1f,"
                 "\"deliveries_per_sec\":%.1f,"
                 "\"n1k_deliveries_per_sec\":%.1f,"
                 "\"n1M_wall_s\":%.3f,"
                 "\"n1M_peak_rss_kib\":%llu}\n",
                 sha, stamp, quick ? "true" : "false", cur_eps, cur_ape,
                 st.sim_seconds_per_wall_second,
                 st.events_per_sec, sc.n1k_deliveries_per_sec, sc.n1M_wall_s,
                 static_cast<unsigned long long>(sc.n1M_peak_rss_kib));
    std::fclose(h);
    std::printf("appended %s\n", history_path);
  }

  return 0;
}
