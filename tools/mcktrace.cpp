// mcktrace — inspect flight-recorder traces written by mcksim --trace.
//
//   mcktrace dump FILE [--kind NAME] [--pid P] [--rep R] [--limit N]
//   mcktrace stats FILE
//   mcktrace export FILE --chrome [--out OUT.json]
//   mcktrace timeline FILE [--csv | --chrome] [--rep R] [--out OUT]
//
// dump prints one line per record (filterable); stats prints the whole-run
// tallies and the per-round latency breakdown; export --chrome emits a
// Chrome trace-event JSON (load in chrome://tracing or Perfetto);
// timeline inspects MCKTL02 run-health timelines written by
// mcksim --timeline (sparklines + per-column stats by default, CSV or
// Chrome counter tracks on request).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "flags.hpp"
#include "obs/diff.hpp"
#include "obs/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/round_metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_io.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"

using namespace mck;
using namespace mck::cli;

void cli::usage(const char* msg) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: mcktrace COMMAND FILE [options]\n"
               "  dump FILE           print records, one per line\n"
               "    --kind NAME       only this record kind (e.g. msg-send)\n"
               "    --pid P           only this process (-1 = simulator)\n"
               "    --rep R           only this replication\n"
               "    --limit N         stop after N records\n"
               "  stats FILE          whole-run tallies + round breakdown\n"
               "  export FILE --chrome [--out OUT.json]\n"
               "                      Chrome trace-event JSON (stdout when\n"
               "                      --out is omitted)\n"
               "  timeline FILE       run-health timeline (mcksim --timeline)\n"
               "                      default: sparklines + per-column stats\n"
               "    --csv             dump every row as CSV\n"
               "    --chrome          Chrome counter-track JSON\n"
               "    --rep R           only this replication\n"
               "    --out OUT         write to OUT instead of stdout\n");
  std::exit(2);
}

namespace {

obs::TraceFile load(const std::string& path) {
  std::string err;
  std::optional<obs::TraceFile> f = obs::read_trace_file(path, &err);
  if (!f) {
    std::fprintf(stderr, "mcktrace: %s\n", err.c_str());
    std::exit(1);
  }
  return std::move(*f);
}

int cmd_dump(const obs::TraceFile& f, int filter_kind, int filter_pid,
             bool pid_set, int filter_rep, std::uint64_t limit) {
  // --limit applies after the kind/pid/rep filters: "first N matching
  // records", not "matches among the first N". Matching continues past
  // the limit so the trailer reports the full match count.
  std::uint64_t matched = 0, total = 0;
  for (const obs::TraceRun& run : f.runs) {
    if (filter_rep >= 0 && run.rep != filter_rep) continue;
    for (const obs::TraceRecord& r : run.records) {
      ++total;
      if (filter_kind >= 0 && r.kind != filter_kind) continue;
      if (pid_set && r.pid != filter_pid) continue;
      if (matched++ < limit) {
        std::printf("%s\n", obs::format_record_line(run.rep, r).c_str());
      }
    }
  }
  std::printf("matched %llu of %llu records%s\n",
              (unsigned long long)matched, (unsigned long long)total,
              matched > limit ? " (output capped by --limit)" : "");
  return 0;
}

int cmd_stats(const obs::TraceFile& f) {
  const obs::TraceFold fold = obs::fold_runs(f.runs);
  const std::vector<obs::TruncationMark>& marks = fold.summary().truncations;
  std::printf("trace: algo=%s n=%d runs=%zu records=%llu\n", f.meta.algo.c_str(),
              f.meta.num_processes, f.runs.size(),
              (unsigned long long)f.total_records());
  for (std::size_t i = 0; i < f.runs.size(); ++i) {
    const obs::TraceRun& run = f.runs[i];
    std::printf("  rep %d: seed=%llu records=%zu\n", run.rep,
                (unsigned long long)run.seed, run.records.size());
    for (const obs::TruncationMark& m : marks) {
      if (m.run != i) continue;
      std::printf("  rep %d: TRUNCATED — %llu record(s) dropped in "
                  "[%.6fs, %.6fs]\n",
                  run.rep, (unsigned long long)m.dropped,
                  sim::to_seconds(m.since), sim::to_seconds(m.at));
    }
  }
  if (!marks.empty()) {
    std::printf("warning: trace hit its record cap; tallies below cover "
                "the recorded prefix only\n");
  }
  obs::Registry reg = obs::build_registry(fold);
  std::printf("%s", reg.render().c_str());
  return 0;
}

// ---- Timeline inspection --------------------------------------------------
//
// MCKTL02 files are schema-driven: everything below walks
// f.meta.columns rather than the compiled-in kCol* constants, so the
// tool keeps working when the schema grows.

obs::TimelineFile load_timeline(const std::string& path) {
  std::string err;
  std::optional<obs::TimelineFile> f = obs::read_timeline_file(path, &err);
  if (!f) {
    std::fprintf(stderr, "mcktrace: %s\n", err.c_str());
    std::exit(1);
  }
  return std::move(*f);
}

double cell_value(obs::TimelineValue v, std::uint64_t bits) {
  switch (v) {
    case obs::TimelineValue::kU64:
      return static_cast<double>(bits);
    case obs::TimelineValue::kI64:
      return static_cast<double>(obs::timeline_i64(bits));
    case obs::TimelineValue::kF64:
      return obs::timeline_f64(bits);
  }
  return 0.0;
}

std::FILE* open_out(const std::string& out_path) {
  if (out_path.empty()) return stdout;
  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "mcktrace: cannot open %s\n", out_path.c_str());
    std::exit(1);
  }
  return out;
}

int cmd_timeline_csv(const obs::TimelineFile& f, int filter_rep,
                     const std::string& out_path) {
  std::FILE* out = open_out(out_path);
  const std::size_t cols = f.meta.columns.size();
  std::fprintf(out, "rep");
  for (const obs::TimelineColumnMeta& c : f.meta.columns) {
    std::fprintf(out, ",%s", c.name.c_str());
  }
  std::fprintf(out, "\n");
  for (const obs::TimelineRun& run : f.runs) {
    if (filter_rep >= 0 && run.rep != filter_rep) continue;
    const std::size_t rows = cols > 0 ? run.data.size() / cols : 0;
    for (std::size_t k = 0; k < rows; ++k) {
      std::fprintf(out, "%d", run.rep);
      for (std::size_t c = 0; c < cols; ++c) {
        std::fputc(',', out);
        std::fputs(obs::timeline_cell_text(f.meta.columns[c].value,
                                           run.data[k * cols + c])
                       .c_str(),
                   out);
      }
      std::fputc('\n', out);
    }
  }
  if (out != stdout) std::fclose(out);
  return 0;
}

int cmd_timeline_chrome(const obs::TimelineFile& f, int filter_rep,
                        const std::string& out_path) {
  std::FILE* out = open_out(out_path);
  const std::size_t cols = f.meta.columns.size();
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const obs::TimelineRun& run : f.runs) {
    if (filter_rep >= 0 && run.rep != filter_rep) continue;
    const std::size_t rows = cols > 0 ? run.data.size() / cols : 0;
    for (std::size_t k = 0; k < rows; ++k) {
      const std::uint64_t* row = run.data.data() + k * cols;
      // Column 0 is sim time by schema convention; fall back to
      // k * interval if the file has no columns before it.
      const double ts_us =
          cols > 0 ? static_cast<double>(row[0]) / 1000.0
                   : static_cast<double>(run.interval_ns) * k / 1000.0;
      for (std::size_t c = 1; c < cols; ++c) {
        std::fprintf(out, "%s", first ? "\n" : ",\n");
        first = false;
        std::fprintf(out,
                     "{\"ph\":\"C\",\"name\":\"%s\",\"pid\":%d,\"ts\":%.3f,"
                     "\"args\":{\"v\":%.17g}}",
                     f.meta.columns[c].name.c_str(), run.rep, ts_us,
                     cell_value(f.meta.columns[c].value, row[c]));
      }
    }
  }
  std::fprintf(out, "\n]}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

/// Resamples one column into a fixed-width terminal sparkline (max over
/// each pixel's tick range, scaled to the column's own [min, max]).
std::string sparkline(const obs::TimelineRun& run, std::size_t cols,
                      std::size_t col, obs::TimelineValue v, double lo,
                      double hi) {
  static const char* kLevels[] = {"\xe2\x96\x81", "\xe2\x96\x82",
                                  "\xe2\x96\x83", "\xe2\x96\x84",
                                  "\xe2\x96\x85", "\xe2\x96\x86",
                                  "\xe2\x96\x87", "\xe2\x96\x88"};
  constexpr std::size_t kWidth = 48;
  const std::size_t rows = cols > 0 ? run.data.size() / cols : 0;
  if (rows == 0) return "";
  const std::size_t width = std::min(kWidth, rows);
  std::string out;
  for (std::size_t px = 0; px < width; ++px) {
    const std::size_t k0 = px * rows / width;
    const std::size_t k1 = std::max(k0 + 1, (px + 1) * rows / width);
    double m = cell_value(v, run.data[k0 * cols + col]);
    for (std::size_t k = k0 + 1; k < k1; ++k) {
      m = std::max(m, cell_value(v, run.data[k * cols + col]));
    }
    int level = 0;
    if (hi > lo) {
      level = static_cast<int>((m - lo) / (hi - lo) * 7.0 + 0.5);
      level = std::clamp(level, 0, 7);
    }
    out += kLevels[level];
  }
  return out;
}

int cmd_timeline_stats(const obs::TimelineFile& f, int filter_rep) {
  const std::size_t cols = f.meta.columns.size();
  std::printf("timeline: algo=%s n=%d runs=%zu columns=%zu\n",
              f.meta.algo.c_str(), f.meta.num_processes, f.runs.size(), cols);
  for (const obs::TimelineRun& run : f.runs) {
    if (filter_rep >= 0 && run.rep != filter_rep) continue;
    const std::size_t rows = cols > 0 ? run.data.size() / cols : 0;
    std::printf("rep %d: seed=%llu interval=%.3fs rows=%zu span=%.0fs\n",
                run.rep, (unsigned long long)run.seed,
                static_cast<double>(run.interval_ns) / 1e9, rows,
                static_cast<double>(run.interval_ns) * rows / 1e9);
    if (rows == 0) continue;
    std::printf("  %-20s %12s %12s %12s %12s  %s\n", "column", "min", "mean",
                "max", "p95", "timeline");
    for (std::size_t c = 1; c < cols; ++c) {
      const obs::TimelineValue v = f.meta.columns[c].value;
      // Two passes: the observed range sizes the histogram buckets, the
      // second pass fills them for the p95 estimate.
      double lo = cell_value(v, run.data[c]);
      double hi = lo;
      for (std::size_t k = 1; k < rows; ++k) {
        const double x = cell_value(v, run.data[k * cols + c]);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      std::vector<double> bounds;
      constexpr int kBuckets = 32;
      for (int b = 1; b < kBuckets; ++b) {
        bounds.push_back(lo + (hi - lo) * b / kBuckets);
      }
      obs::Histogram h(std::move(bounds));
      for (std::size_t k = 0; k < rows; ++k) {
        h.observe(cell_value(v, run.data[k * cols + c]));
      }
      std::printf("  %-20s %12g %12g %12g %12g  %s\n",
                  f.meta.columns[c].name.c_str(), h.min(), h.mean(), h.max(),
                  h.p95(),
                  sparkline(run, cols, c, v, h.min(), h.max()).c_str());
    }
  }
  return 0;
}

// ---- Chrome trace-event export --------------------------------------------
//
// One JSON object per record (skipping the simulator's per-event firings,
// which would dwarf everything else): queue depth becomes a counter track,
// block/unblock become complete spans, checkpoint rounds become async
// begin/end pairs, everything else an instant. pid = replication,
// tid = process. Matched send -> deliver pairs additionally get flow
// arrows ("s"/"f" phases), one per recipient for broadcasts.

double to_us(sim::SimTime t) { return static_cast<double>(t) / 1000.0; }

int cmd_export_chrome(const obs::TraceFile& f, const std::string& out_path) {
  std::FILE* out = open_out(out_path);

  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  auto emit = [&](const char* fmt, auto... args) {
    std::fprintf(out, "%s", first ? "\n" : ",\n");
    first = false;
    std::fprintf(out, fmt, args...);
  };

  for (const obs::TraceRun& run : f.runs) {
    // Flow arrows for every matched (send, deliver) pair of this rep.
    // Ids are strings scoped by rep + message id + recipient so that a
    // broadcast fans out into one arrow per destination.
    const obs::CausalGraph g =
        obs::build_graph(run.records, f.meta.num_processes);
    for (std::size_t i = 0; i < g.num_hops(); ++i) {
      const obs::MsgHop h = g.hop(i);
      emit("{\"ph\":\"s\",\"cat\":\"msg\",\"name\":\"%s\","
           "\"id\":\"r%d.m%llu.d%d\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
           obs::msg_kind_name(h.kind), run.rep, (unsigned long long)h.id, h.dst,
           run.rep, h.src, to_us(h.sent_at));
      emit("{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"msg\",\"name\":\"%s\","
           "\"id\":\"r%d.m%llu.d%d\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
           obs::msg_kind_name(h.kind), run.rep, (unsigned long long)h.id, h.dst,
           run.rep, h.dst, to_us(h.delivered_at));
    }
    for (const obs::TraceRecord& r : run.records) {
      using K = obs::TraceKind;
      auto k = static_cast<K>(r.kind);
      switch (k) {
        case K::kEventFire:
        case K::kEventCancel:
        case K::kCount:
          break;  // too dense / not a record
        case K::kQueueDepth:
          emit("{\"ph\":\"C\",\"name\":\"queue depth\",\"pid\":%d,\"ts\":%.3f,"
               "\"args\":{\"live\":%llu,\"heap\":%llu}}",
               run.rep, to_us(r.at), (unsigned long long)r.arg0,
               (unsigned long long)r.arg1);
          break;
        case K::kBlock:
          break;  // rendered from the matching kUnblock, which has the span
        case K::kUnblock:
          emit("{\"ph\":\"X\",\"name\":\"blocked\",\"cat\":\"blocking\","
               "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
               run.rep, r.pid,
               to_us(r.at - static_cast<sim::SimTime>(r.arg0)),
               to_us(static_cast<sim::SimTime>(r.arg0)));
          break;
        case K::kInitStart:
          emit("{\"ph\":\"b\",\"cat\":\"round\",\"name\":\"round\","
               "\"id\":\"%llu\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
               (unsigned long long)r.arg0, run.rep, r.pid, to_us(r.at));
          break;
        case K::kRoundCommit:
        case K::kRoundAbort:
          emit("{\"ph\":\"e\",\"cat\":\"round\",\"name\":\"round\","
               "\"id\":\"%llu\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
               "\"args\":{\"outcome\":\"%s\"}}",
               (unsigned long long)r.arg0, run.rep, r.pid, to_us(r.at),
               k == K::kRoundCommit ? "commit" : "abort");
          break;
        default: {
          std::string name = obs::to_string(k);
          std::string args;
          args += util::json_escape(obs::format_record(r));
          emit("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\",\"pid\":%d,"
               "\"tid\":%d,\"ts\":%.3f,\"args\":{\"detail\":\"%s\"}}",
               name.c_str(), run.rep, r.pid, to_us(r.at), args.c_str());
          break;
        }
      }
    }
  }
  std::fprintf(out, "\n]}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  std::string cmd = argv[1];
  std::string path = argv[2];

  int filter_kind = -1;
  int filter_pid = 0;
  bool pid_set = false;
  int filter_rep = -1;
  std::uint64_t limit = ~0ull;
  bool chrome = false;
  bool csv = false;
  std::string out_path;

  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--kind") {
      std::string name = next();
      for (int k = 0; k < obs::kTraceKindCount; ++k) {
        if (name == obs::to_string(static_cast<obs::TraceKind>(k))) {
          filter_kind = k;
        }
      }
      if (filter_kind < 0) usage("unknown --kind");
    } else if (arg == "--pid") {
      filter_pid = parse_count("--pid", next(), -1);
      pid_set = true;
    } else if (arg == "--rep") {
      filter_rep = parse_count("--rep", next(), 0);
    } else if (arg == "--limit") {
      const long long n = parse_int("--limit", next());
      if (n < 0) usage("--limit must be >= 0");
      limit = static_cast<std::uint64_t>(n);
    } else if (arg == "--chrome") {
      chrome = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--out" || arg == "-o") {
      out_path = next();
    } else {
      usage(("unknown option: " + arg).c_str());
    }
  }

  if (cmd == "timeline") {
    obs::TimelineFile tf = load_timeline(path);
    if (csv && chrome) usage("--csv and --chrome are exclusive");
    if (csv) return cmd_timeline_csv(tf, filter_rep, out_path);
    if (chrome) return cmd_timeline_chrome(tf, filter_rep, out_path);
    return cmd_timeline_stats(tf, filter_rep);
  }

  obs::TraceFile f = load(path);
  if (cmd == "dump") return cmd_dump(f, filter_kind, filter_pid, pid_set,
                                     filter_rep, limit);
  if (cmd == "stats") return cmd_stats(f);
  if (cmd == "export") {
    if (!chrome) usage("export needs --chrome");
    return cmd_export_chrome(f, out_path);
  }
  usage(("unknown command: " + cmd).c_str());
}
