// Population-scale sweep: the same mutable-checkpoint protocol from
// n = 16 (the paper's evaluation) up to n = 1M mobile hosts on the
// hierarchical cellular topology (few MSS backbone routers, cells_per_mss
// wireless cells each).
//
// What the sweep demonstrates: with the sparse dependency structures
// (IntervalSet / SparseCsnMap / SparseMr) and the delta/varint wire
// codec, per-message work and piggyback bytes are a function of *active*
// dependencies, not of the population — so "coordination bytes per system
// message" stays flat while n grows five orders of magnitude, where the
// dense representations grew O(n) per message.
//
// Output:
//   * stdout — a deterministic table (protocol metrics only; no
//     wall-clock or RSS columns), so the n = 16 row can be byte-pinned
//     against tests/golden/fig_scale_n16.txt (--golden prints exactly
//     that row).
//   * stderr — wall-clock / memory measurements (events/s, peak RSS).
//     Each point runs in its own forked child, so its peak RSS is that
//     point's alone, whatever ran before it.
//   * --out FILE — the full sweep as JSON, including the wall-clock
//     numbers, for the BENCH_hotpath.json scale trajectory and the CI
//     artifact.
//
// Flags: --quick (n = 16 and 1k only), --golden (n = 16 only), --out F,
// --trace F (flight-recorder trace of the n = 1k point, for
// `mckaudit check`), --timeline PREFIX (run-health timeline of
// every point, written to PREFIX_n<N>.mcktl), --jobs N, --wire-sizes,
// --wire-fidelity; --help prints them.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_io.hpp"

using namespace mck;

namespace {

// What the table, the stderr lines and the JSON report of one point need;
// trivially copyable, since the point runs in a child and sends it back.
struct ScalePoint {
  int n = 0;
  int num_mss = 0;
  int cells_per_mss = 0;
  std::uint64_t committed = 0;
  std::uint64_t system_msgs = 0;
  std::uint64_t system_wire_bytes = 0;
  std::uint64_t comp_msgs = 0;
  std::uint64_t comp_bytes = 0;
  std::uint64_t tentative = 0;
  std::uint64_t mutable_taken = 0;
  std::uint64_t deliveries = 0;
  double wall_s = 0.0;
  std::uint64_t rss_kib = 0;  // set by the parent from the child's rusage
  // Headline gauges from the point's timeline (0 when --timeline is off).
  std::uint64_t tl_rows = 0;
  std::int64_t tl_peak_in_flight = 0;
  std::int64_t tl_peak_blocked = 0;
  std::uint64_t tl_peak_queue = 0;
};

ScalePoint run_point(int n, const bench::Args& args,
                     const std::string& trace_path,
                     const std::string& timeline_path) {
  harness::ExperimentConfig cfg = bench::scale_config(n);
  cfg.capture_trace = !trace_path.empty();
  cfg.capture_timeline = !timeline_path.empty();
  cfg.timeline_interval = sim::seconds(1);
  bench::apply_wire_flags(args, cfg);

  ScalePoint pt;
  pt.n = n;
  pt.num_mss = cfg.sys.cellular.num_mss;
  pt.cells_per_mss = cfg.sys.cellular.cells_per_mss;

  auto t0 = std::chrono::steady_clock::now();
  const harness::RunResult res =
      harness::run_replicated(cfg, /*reps=*/1, args.jobs());
  pt.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  const rt::RunStats& st = res.stats;
  pt.committed = res.committed;
  pt.system_msgs = st.system_msgs();
  pt.system_wire_bytes = st.system_wire_bytes();
  pt.comp_msgs = st.msgs_sent[static_cast<int>(rt::MsgKind::kComputation)];
  pt.comp_bytes =
      st.wire_bytes_sent[static_cast<int>(rt::MsgKind::kComputation)];
  pt.tentative = st.tentative_taken;
  pt.mutable_taken = st.mutable_taken;
  pt.deliveries = st.deliveries;

  if (!trace_path.empty()) {
    obs::TraceFileMeta meta;
    meta.num_processes = n;
    meta.algo = harness::to_string(cfg.sys.algorithm);
    std::string err;
    if (!obs::write_trace_file(trace_path, meta, res.traces, &err)) {
      std::fprintf(stderr, "fig_scale: cannot write trace: %s\n",
                   err.c_str());
      std::exit(1);
    }
  }
  if (!timeline_path.empty()) {
    obs::TimelineFileMeta meta;
    meta.num_processes = n;
    meta.algo = harness::to_string(cfg.sys.algorithm);
    meta.columns = obs::builtin_timeline_schema();
    std::string err;
    if (!obs::write_timeline_file(timeline_path, meta, res.timelines,
                                  &err)) {
      std::fprintf(stderr, "fig_scale: cannot write timeline: %s\n",
                   err.c_str());
      std::exit(1);
    }
  }
  if (!res.timelines.empty()) {
    const obs::TimelineRun& tl = res.timelines.front();
    pt.tl_rows = tl.rows();
    pt.tl_peak_in_flight = bench::timeline_peak(tl, obs::kColInFlight);
    pt.tl_peak_blocked = bench::timeline_peak(tl, obs::kColBlockedProcs);
    pt.tl_peak_queue = static_cast<std::uint64_t>(
        bench::timeline_peak(tl, obs::kColQueueDepth));
  }
  return pt;
}

double per_msg(std::uint64_t bytes, std::uint64_t msgs) {
  return msgs > 0 ? static_cast<double>(bytes) / static_cast<double>(msgs)
                  : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(
      argc, argv,
      {{"--quick", nullptr, "n = 16 and 1k only"},
       {"--golden", nullptr, "n = 16 only, the row tests/golden pins"},
       bench::kJobs,
       {"--out", "FILE", "write the sweep as JSON"},
       {"--trace", "FILE", "flight-recorder trace of the n = 1k point"},
       {"--timeline", "PREFIX", "timeline of every point, PREFIX_n<N>.mcktl"},
       bench::kWireSizes, bench::kWireFidelity});
  const bool quick = args.quick();
  const bool golden = args.has("--golden");
  const char* out_path = args.value("--out");
  const char* trace_path = args.value("--trace");
  const char* tl_prefix = args.value("--timeline");

  std::vector<int> ns;
  if (golden) {
    ns = {16};
  } else if (quick) {
    ns = {16, 1000};
  } else {
    ns = {16, 1000, 100000, 1000000};
  }

  bench::banner(
      "Scale sweep - mutable checkpoints from n=16 to n=1M hosts\n"
      "hierarchical cellular topology, sparse dependency structures");

  stats::TextTable table({"n", "mss", "cells/mss", "committed",
                          "coord msgs", "coord bytes/msg", "comp bytes/msg",
                          "tentative ckpts", "mutable ckpts"});
  std::vector<ScalePoint> points;
  for (int n : ns) {
    const bool trace_this = trace_path != nullptr && n == 1000;
    std::string tl_path;
    if (tl_prefix != nullptr) {
      tl_path = std::string(tl_prefix) + "_n" + std::to_string(n) + ".mcktl";
    }
    // The parent stays single-threaded: the point's replication threads
    // start and join in the child.
    std::uint64_t rss_kib = 0;
    points.push_back(bench::run_in_child(
        [&] {
          return run_point(n, args, trace_this ? trace_path : "", tl_path);
        },
        &rss_kib));
    ScalePoint& pt = points.back();
    pt.rss_kib = rss_kib;
    table.add_row(
        {bench::num(pt.n, "%.0f"), bench::num(pt.num_mss, "%.0f"),
         bench::num(pt.cells_per_mss, "%.0f"),
         bench::num(static_cast<double>(pt.committed), "%.0f"),
         bench::num(static_cast<double>(pt.system_msgs), "%.0f"),
         bench::num(per_msg(pt.system_wire_bytes, pt.system_msgs), "%.1f"),
         bench::num(per_msg(pt.comp_bytes, pt.comp_msgs), "%.1f"),
         bench::num(static_cast<double>(pt.tentative), "%.0f"),
         bench::num(static_cast<double>(pt.mutable_taken), "%.0f")});
    std::fprintf(stderr,
                 "fig_scale: n=%d wall=%.2fs events/s=%.0f peak_rss=%llu KiB\n",
                 pt.n, pt.wall_s,
                 pt.wall_s > 0
                     ? static_cast<double>(pt.deliveries) / pt.wall_s
                     : 0.0,
                 static_cast<unsigned long long>(pt.rss_kib));
    if (pt.tl_rows > 0) {
      std::fprintf(stderr,
                   "fig_scale: n=%d timeline rows=%llu peak queue=%llu "
                   "in-flight=%lld blocked=%lld\n",
                   pt.n, static_cast<unsigned long long>(pt.tl_rows),
                   static_cast<unsigned long long>(pt.tl_peak_queue),
                   static_cast<long long>(pt.tl_peak_in_flight),
                   static_cast<long long>(pt.tl_peak_blocked));
    }
  }
  table.print();
  std::printf(
      "\nReading the sweep: coordination bytes per system message track the\n"
      "active dependency count (the request wave), not n - the dense forms\n"
      "this replaces grew O(n) bytes per message and O(n^2) per wave.\n");

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fig_scale: cannot open %s\n", out_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ScalePoint& pt = points[i];
      std::fprintf(
          f,
          "    {\"n\": %d, \"num_mss\": %d, \"cells_per_mss\": %d,\n"
          "     \"committed\": %llu, \"coordination_msgs\": %llu,\n"
          "     \"coord_bytes_per_msg\": %.2f, \"comp_bytes_per_msg\": %.2f,\n"
          "     \"tentative\": %llu, \"mutable\": %llu,\n"
          "     \"events_per_sec\": %.1f, \"wall_s\": %.3f,\n"
          "     \"peak_rss_kib\": %llu,\n"
          "     \"timeline_rows\": %llu, \"timeline_peak_queue\": %llu,\n"
          "     \"timeline_peak_in_flight\": %lld,\n"
          "     \"timeline_peak_blocked\": %lld}%s\n",
          pt.n, pt.num_mss, pt.cells_per_mss,
          static_cast<unsigned long long>(pt.committed),
          static_cast<unsigned long long>(pt.system_msgs),
          per_msg(pt.system_wire_bytes, pt.system_msgs),
          per_msg(pt.comp_bytes, pt.comp_msgs),
          static_cast<unsigned long long>(pt.tentative),
          static_cast<unsigned long long>(pt.mutable_taken),
          pt.wall_s > 0 ? static_cast<double>(pt.deliveries) / pt.wall_s
                        : 0.0,
          pt.wall_s, static_cast<unsigned long long>(pt.rss_kib),
          static_cast<unsigned long long>(pt.tl_rows),
          static_cast<unsigned long long>(pt.tl_peak_queue),
          static_cast<long long>(pt.tl_peak_in_flight),
          static_cast<long long>(pt.tl_peak_blocked),
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return 0;
}
