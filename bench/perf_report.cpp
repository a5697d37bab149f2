// Hot-path performance report. Measures three things and writes them to a
// JSON file (default BENCH_hotpath.json in the working directory):
//
//  1. Event-loop throughput (events/s) on a steady-state scheduling ring —
//     K pending events, each firing reschedules itself with a Message-sized
//     capture, with a protocol-style timer that is repeatedly scheduled and
//     cancelled — at K = 256 (--pending) and at K = 16,384, the queue
//     depth of a cellular request wave (simbench cell-coord peaks near
//     41k pending events). Its trajectory across commits lives in
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
//  4. Trace-audit throughput (records/s) and heap growth of
//     obs::audit_records on a fixed in-process cellular n=1024 trace, and
//     that trace's resident bytes per record (obs::TraceRecords::bytes).
//
//  5. ns per csn-map get+raise pair (util::SparseCsnMap) in each
//     representation: n=64 holding every pid (dense) and n=100k holding
//     200 (sparse).
//
// Usage: perf_report [--quick] [--out PATH] [--history PATH] [--sha SHA]
//                    [--stamp TS] [--pending K]; --help lists them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <memory>
#include <new>
#include <vector>

#include "bench_util.hpp"
#include "harness/experiment.hpp"
#include "obs/audit.hpp"
#include "sim/simulator.hpp"
#include "core/payloads.hpp"
#include "util/pool.hpp"
#include "util/sparse_csn.hpp"

// ---------------------------------------------------------------------------
// Allocation instrumentation (binary-local). Counts every heap block the
// process requests and the bytes live through operator new, with their
// high-water mark; relaxed atomics keep the probe cheap enough that it
// does not distort the throughput numbers it is qualifying.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live =
        g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
    if (live > g_peak_bytes.load(std::memory_order_relaxed)) {
      g_peak_bytes.store(live, std::memory_order_relaxed);
    }
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

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
// Scale path (the fig_scale workload). n = 1k is the throughput point —
// small enough that scheduler noise swamps single runs, so the best of
// `kScaleTrials` is reported; n = 1M is the memory point — it runs in a
// forked child, whose own peak RSS (wait4's ru_maxrss) is reported, so
// the stages before it do not count. The configs mirror bench/fig_scale's
// run_point() exactly.
// ---------------------------------------------------------------------------

constexpr int kScaleTrials = 5;

// The second ring point: a queue as deep as a cellular request wave,
// where the heap is 7 levels deep and most slots are cold.
constexpr int kLargeRingPending = 16384;

// The n = 1M point, as measured in its child. The headline run-health
// numbers come from its timeline (the sampler is on for that run; its
// cost is part of wall_s, so the report measures the instrumented
// configuration CI actually ships).
struct MillionPoint {
  double wall_s = 0;
  std::uint64_t timeline_rows = 0;
  std::uint64_t peak_queue_depth = 0;
  std::int64_t peak_in_flight = 0;
  std::int64_t peak_blocked = 0;
};

struct ScalePathPerf {
  double n1k_deliveries_per_sec = 0;  // best of kScaleTrials
  double n1k_wall_s = 0;              // fastest trial
  MillionPoint n1M;
  std::uint64_t n1M_peak_rss_kib = 0;
};

MillionPoint measure_million() {
  harness::ExperimentConfig cfg = bench::scale_config(1000000);
  cfg.capture_timeline = true;
  cfg.timeline_interval = sim::seconds(1);
  MillionPoint out;
  Clock::time_point t0 = Clock::now();
  harness::RunResult res = harness::run_experiment(cfg);
  out.wall_s = secs_since(t0);
  if (!res.timelines.empty()) {
    const obs::TimelineRun& tl = res.timelines.front();
    out.timeline_rows = tl.rows();
    out.peak_queue_depth = static_cast<std::uint64_t>(
        bench::timeline_peak(tl, obs::kColQueueDepth));
    out.peak_in_flight = bench::timeline_peak(tl, obs::kColInFlight);
    out.peak_blocked = bench::timeline_peak(tl, obs::kColBlockedProcs);
  }
  return out;
}

ScalePathPerf measure_scale_path() {
  ScalePathPerf out;
  {
    harness::ExperimentConfig cfg = bench::scale_config(1000);
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
  out.n1M = bench::run_in_child(measure_million, &out.n1M_peak_rss_kib);
  return out;
}

// ---------------------------------------------------------------------------
// Trace audit: records/s of obs::audit_records (best of kAuditTrials) and
// the heap it needs on top of the records, as the peak of bytes live
// through operator new during the audit minus the bytes live before it;
// and what the records themselves hold, as resident encoded bytes per
// record.
// The trace is close to simbench's cell-mobile-audit, without mobility:
// Cao-Singhal, cellular with 4 MSSs, n=1024, 0.1 msg/s, 1 h (10 min in
// --quick mode).
// ---------------------------------------------------------------------------

constexpr int kAuditTrials = 3;

struct AuditPerf {
  std::uint64_t records = 0;
  double trace_bytes_per_record = 0;
  double records_per_sec = 0;  // best of kAuditTrials
  double heap_growth_mib = 0;  // largest of kAuditTrials
  bool ok = false;
};

AuditPerf measure_audit(bool quick) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
  cfg.sys.num_processes = 1024;
  cfg.sys.seed = 1;
  cfg.sys.transport = harness::TransportKind::kCellular;
  cfg.sys.cellular.num_mss = 4;
  cfg.workload = harness::WorkloadKind::kPointToPoint;
  cfg.rate = 0.1;
  cfg.ckpt_interval = sim::seconds(900);
  cfg.horizon = sim::seconds(quick ? 600 : 3600);
  cfg.capture_trace = true;
  harness::RunResult res = harness::run_experiment(cfg);

  AuditPerf out;
  if (res.traces.empty()) return out;
  const obs::TraceRecords& records = res.traces.front().records;
  out.records = records.size();
  out.trace_bytes_per_record =
      records.empty() ? 0.0
                      : static_cast<double>(records.bytes()) /
                            static_cast<double>(records.size());
  out.ok = true;
  for (int t = 0; t < kAuditTrials; ++t) {
    const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    g_peak_bytes.store(before, std::memory_order_relaxed);
    Clock::time_point t0 = Clock::now();
    obs::AuditReport rep;
    obs::audit_records(records, cfg.sys.num_processes, 0, rep);
    const double dt = secs_since(t0);
    const double growth =
        static_cast<double>(g_peak_bytes.load(std::memory_order_relaxed) -
                            before) /
        (1024.0 * 1024.0);
    out.ok = out.ok && rep.ok();
    out.records_per_sec =
        std::max(out.records_per_sec, static_cast<double>(out.records) / dt);
    out.heap_growth_mib = std::max(out.heap_growth_mib, growth);
  }
  return out;
}

// ---------------------------------------------------------------------------
// csn maps: the receive-side check of every computation message is a get
// and a raise on the sender's pid. ns per pair over `ops` pairs on pids
// drawn by a fixed LCG from the populated ones, best of kCsnTrials.
// ---------------------------------------------------------------------------

constexpr int kCsnTrials = 3;

struct CsnMapPerf {
  double ns_per_op = 0;
  bool dense = false;
};

CsnMapPerf measure_csn_map(std::size_t n, std::size_t entries,
                           std::uint64_t ops) {
  const std::size_t stride = n / entries;
  util::SparseCsnMap m(n);
  for (std::size_t i = 0; i < entries; ++i) m.raise(i * stride, 1);
  CsnMapPerf out;
  out.dense = m.dense();
  std::uint64_t lcg = 1;
  for (int t = 0; t < kCsnTrials; ++t) {
    Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t p = (lcg >> 33) % entries * stride;
      m.raise(p, m.get(p) + 1);
    }
    const double ns = secs_since(t0) * 1e9 / static_cast<double>(ops);
    if (t == 0 || ns < out.ns_per_op) out.ns_per_op = ns;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(
      argc, argv,
      {{"--quick", nullptr, "shorter measurements"},
       {"--out", "PATH", "report file (default BENCH_hotpath.json)"},
       {"--history", "PATH",
        "append a JSONL summary line (default BENCH_history.jsonl; \"\" "
        "disables)"},
       {"--sha", "SHA", "git commit the run measures (history key)"},
       {"--stamp", "TS", "timestamp string for the history line"},
       {"--pending", "K", "pending events in the scheduling ring (default "
                          "256)"}});
  const bool quick = args.quick();
  const char* out_path = args.value("--out", "BENCH_hotpath.json");
  const char* history_path = args.value("--history", "BENCH_history.jsonl");
  const char* sha = args.value("--sha", "");
  const char* stamp = args.value("--stamp", "");
  const int pending = args.count("--pending", 256);
  const std::uint64_t warmup = quick ? 50'000 : 200'000;
  const std::uint64_t events = quick ? 500'000 : 4'000'000;

  std::printf("perf_report: ring pending=%d warmup=%llu events=%llu%s\n",
              pending, static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(events), quick ? " (quick)" : "");

  // Keep the best of a few repetitions, so one-off scheduler noise does
  // not set the number.
  auto best_ring = [&](int k) {
    double best_eps = 0, best_ape = 0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
      sim::Simulator s;
      RingRunner ring{s, {}, {}};
      auto [eps, ape] = ring.run(k, warmup, events);
      if (eps > best_eps) {
        best_eps = eps;
        best_ape = ape;
      }
    }
    return std::pair{best_eps, best_ape};
  };
  const auto [cur_eps, cur_ape] = best_ring(pending);
  std::printf("event loop: %.0f ev/s (%.3f allocs/ev)\n", cur_eps, cur_ape);
  const auto [large_eps, large_ape] = best_ring(kLargeRingPending);
  std::printf("event loop, %d pending: %.0f ev/s (%.3f allocs/ev)\n",
              kLargeRingPending, large_eps, large_ape);

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
              sc.n1M.wall_s,
              static_cast<unsigned long long>(sc.n1M_peak_rss_kib));
  std::printf("scale timeline: n=1M rows=%llu peak queue=%llu "
              "in-flight=%lld blocked=%lld\n",
              static_cast<unsigned long long>(sc.n1M.timeline_rows),
              static_cast<unsigned long long>(sc.n1M.peak_queue_depth),
              static_cast<long long>(sc.n1M.peak_in_flight),
              static_cast<long long>(sc.n1M.peak_blocked));

  const std::uint64_t csn_ops = quick ? 2'000'000 : 20'000'000;
  const CsnMapPerf csn_dense = measure_csn_map(64, 64, csn_ops);
  const CsnMapPerf csn_sparse = measure_csn_map(100000, 200, csn_ops);
  std::printf("csn map get+raise: n=64 %.2f ns/op (%s), n=100k/200 "
              "entries %.2f ns/op (%s)\n",
              csn_dense.ns_per_op, csn_dense.dense ? "dense" : "sparse",
              csn_sparse.ns_per_op, csn_sparse.dense ? "dense" : "sparse");

  AuditPerf au = measure_audit(quick);
  std::printf("trace audit: %llu records (%.2f B each), best-of-%d %.0f "
              "records/s, heap growth %.1f MiB%s\n",
              static_cast<unsigned long long>(au.records),
              au.trace_bytes_per_record, kAuditTrials,
              au.records_per_sec, au.heap_growth_mib,
              au.ok ? "" : " (AUDIT FAILED)");
  if (!au.ok) {
    std::fprintf(stderr, "perf_report: the audited trace has violations\n");
    return 1;
  }

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
               "    \"current_events_per_sec\": %.1f,\n"
               "    \"large_ring_pending\": %d,\n"
               "    \"large_ring_events_per_sec\": %.1f\n"
               "  },\n"
               "  \"allocs\": {\n"
               "    \"per_event_current\": %.4f,\n"
               "    \"per_event_large_ring\": %.4f,\n"
               "    \"per_pooled_message\": %.4f,\n"
               "    \"per_fresh_message\": %.4f\n"
               "  },\n"
               "  \"sim_throughput\": {\n"
               "    \"workload\": \"cao_singhal n=16 rate=0.1 p2p, horizon %.0fs\",\n"
               "    \"sim_seconds_per_wall_second\": %.1f,\n"
               "    \"deliveries_per_sec\": %.1f\n"
               "  },\n"
               "  \"scale_path\": {\n"
               "    \"workload\": \"fig_scale points (n=1k best-of-%d "
               "in-process, n=1M once in a forked child)\",\n"
               "    \"n1k_deliveries_per_sec\": %.1f,\n"
               "    \"n1k_wall_s\": %.3f,\n"
               "    \"n1M_wall_s\": %.3f,\n"
               "    \"n1M_peak_rss_kib\": %llu,\n"
               "    \"n1M_timeline_rows\": %llu,\n"
               "    \"n1M_peak_queue_depth\": %llu,\n"
               "    \"n1M_peak_in_flight\": %lld,\n"
               "    \"n1M_peak_blocked\": %lld\n"
               "  },\n"
               "  \"audit\": {\n"
               "    \"workload\": \"obs::audit_records, cao_singhal cellular "
               "n=1024 rate=0.1, horizon %.0fs, best-of-%d\",\n"
               "    \"records\": %llu,\n"
               "    \"trace_bytes_per_record\": %.2f,\n"
               "    \"records_per_sec\": %.1f,\n"
               "    \"heap_growth_mib\": %.1f\n"
               "  },\n"
               "  \"csn_map\": {\n"
               "    \"workload\": \"util::SparseCsnMap get+raise pairs, "
               "best-of-%d\",\n"
               "    \"n64_full_ns_per_op\": %.2f,\n"
               "    \"n64_full_dense\": %s,\n"
               "    \"n100k_200_ns_per_op\": %.2f,\n"
               "    \"n100k_200_dense\": %s\n"
               "  }\n"
               "}\n",
               quick ? "true" : "false", pending,
               static_cast<unsigned long long>(events), cur_eps,
               kLargeRingPending, large_eps, cur_ape, large_ape, pooled_apm, fresh_apm, st.horizon_s,
               st.sim_seconds_per_wall_second, st.events_per_sec, kScaleTrials, sc.n1k_deliveries_per_sec, sc.n1k_wall_s,
               sc.n1M.wall_s,
               static_cast<unsigned long long>(sc.n1M_peak_rss_kib),
               static_cast<unsigned long long>(sc.n1M.timeline_rows),
               static_cast<unsigned long long>(sc.n1M.peak_queue_depth),
               static_cast<long long>(sc.n1M.peak_in_flight),
               static_cast<long long>(sc.n1M.peak_blocked),
               quick ? 600.0 : 3600.0, kAuditTrials,
               static_cast<unsigned long long>(au.records),
               au.trace_bytes_per_record, au.records_per_sec,
               au.heap_growth_mib, kCsnTrials, csn_dense.ns_per_op,
               csn_dense.dense ? "true" : "false", csn_sparse.ns_per_op,
               csn_sparse.dense ? "true" : "false");
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
                 "\"large_ring_events_per_sec\":%.1f,"
                 "\"allocs_per_event_current\":%.4f,"
                 "\"sim_seconds_per_wall_second\":%.1f,"
                 "\"deliveries_per_sec\":%.1f,"
                 "\"n1k_deliveries_per_sec\":%.1f,"
                 "\"n1M_wall_s\":%.3f,"
                 "\"n1M_peak_rss_kib\":%llu,"
                 "\"audit_records_per_sec\":%.1f,"
                 "\"audit_heap_growth_mib\":%.1f,"
                 "\"trace_bytes_per_record\":%.2f,"
                 "\"csn_dense_ns_per_op\":%.2f,"
                 "\"csn_sparse_ns_per_op\":%.2f}\n",
                 sha, stamp, quick ? "true" : "false", cur_eps, large_eps,
                 cur_ape,
                 st.sim_seconds_per_wall_second,
                 st.events_per_sec, sc.n1k_deliveries_per_sec, sc.n1M.wall_s,
                 static_cast<unsigned long long>(sc.n1M_peak_rss_kib),
                 au.records_per_sec, au.heap_growth_mib,
                 au.trace_bytes_per_record, csn_dense.ns_per_op,
                 csn_sparse.ns_per_op);
    std::fclose(h);
    std::printf("appended %s\n", history_path);
  }

  return 0;
}
