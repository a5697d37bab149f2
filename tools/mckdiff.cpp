// mckdiff — explain the first divergence between two trace or timeline
// files instead of cmp's "byte X differs".
//
//   mckdiff A B [--context K] [--align-window W] [--json] [--out F]
//
// A and B are both MCKTRC02 traces or both MCKTL02 timelines
// (autodetected by magic). The report names the first diverging
// (rep, record index), classifies it (timestamp / ordering /
// payload-field / missing-record / extra-record / truncation), and
// prints the last K happens-before predecessors of the diverging record
// on each side with decoded fields. The digest footers find the diverging
// chunk in O(chunks) 64-bit compares, so no non-diverging chunk is
// decoded.
//
// Exit codes: 0 identical, 1 diverged, 2 usage or I/O error — so CI can
// `mckdiff a b || { upload report; exit 1; }` where it used to `cmp`.
// --json writes a machine-readable report (to --out F if given, else
// stdout); the human text then goes to stderr so both remain usable.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "flags.hpp"
#include "obs/diff.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_io.hpp"
#include "util/json.hpp"

using namespace mck;
using namespace mck::cli;

void cli::usage(const char* msg) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: mckdiff A B [options]\n"
               "  A, B              two trace files (MCKTRC02) or\n"
               "                    two timeline files (MCKTL02)\n"
               "  --context K       causal-backtrace length per side "
               "(default 8)\n"
               "  --align-window W  lookahead for missing/extra-record\n"
               "                    realignment (default 64)\n"
               "  --json            emit a machine-readable report\n"
               "  --out F           write the report to F instead of stdout\n"
               "exit status: 0 identical, 1 diverged, 2 error\n");
  std::exit(2);
}

namespace {

enum class FileType { kTrace, kTimeline, kUnknown };

FileType sniff(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "mckdiff: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  char magic[8] = {};
  std::size_t got = std::fread(magic, 1, sizeof magic, f);
  std::fclose(f);
  if (got != sizeof magic) return FileType::kUnknown;
  if (std::memcmp(magic, obs::kTraceFileMagic, sizeof magic) == 0) {
    return FileType::kTrace;
  }
  if (std::memcmp(magic, obs::kTimelineFileMagic, sizeof magic) == 0) {
    return FileType::kTimeline;
  }
  return FileType::kUnknown;
}

// ---- JSON helpers ---------------------------------------------------------

void json_kv(std::string& out, const char* key, const std::string& v,
             bool comma = true) {
  out += '"';
  out += key;
  out += "\":\"";
  out += util::json_escape(v);
  out += '"';
  if (comma) out += ',';
}

void json_kv(std::string& out, const char* key, std::uint64_t v,
             bool comma = true) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", (unsigned long long)v);
  out += '"';
  out += key;
  out += "\":";
  out += buf;
  if (comma) out += ',';
}

void json_record(std::string& out, const obs::TraceRecord& r) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"at\":%llu,\"pid\":%d,\"kind\":\"%s\",\"sub\":%u,"
                "\"aux\":%u,\"arg0\":%llu,\"arg1\":%llu,\"decoded\":\"",
                (unsigned long long)r.at, r.pid,
                obs::to_string(static_cast<obs::TraceKind>(r.kind)), r.sub,
                r.aux, (unsigned long long)r.arg0,
                (unsigned long long)r.arg1);
  out += buf;
  out += util::json_escape(obs::format_record(r));
  out += "\"}";
}

void json_backtrace(std::string& out, const char* key,
                    const std::vector<obs::BacktraceEntry>& bt,
                    bool comma = true) {
  out += '"';
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < bt.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"index\":";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu,", (unsigned long long)bt[i].index);
    out += buf;
    out += "\"record\":";
    json_record(out, bt[i].rec);
    out += '}';
  }
  out += ']';
  if (comma) out += ',';
}

void json_meta_issues(std::string& out, const std::vector<std::string>& v) {
  out += "\"meta_issues\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += util::json_escape(v[i]);
    out += '"';
  }
  out += "],";
}

std::string trace_diff_json(const std::string& a, const std::string& b,
                            const obs::TraceDiff& d) {
  std::string out = "{";
  json_kv(out, "mode", std::string("trace"));
  json_kv(out, "a", a);
  json_kv(out, "b", b);
  out += d.identical ? "\"identical\":true," : "\"identical\":false,";
  json_meta_issues(out, d.meta_issues);
  out += "\"stats\":{";
  out += d.stats.used_digests ? "\"used_digests\":true,"
                              : "\"used_digests\":false,";
  json_kv(out, "chunks_total", d.stats.chunks_total);
  json_kv(out, "chunks_skipped", d.stats.chunks_skipped);
  json_kv(out, "records_scanned", d.stats.records_scanned, false);
  out += "},";
  if (d.first) {
    const obs::RunDivergence& f = *d.first;
    out += "\"first\":{";
    json_kv(out, "rep", static_cast<std::uint64_t>(f.rep));
    json_kv(out, "index", f.index);
    json_kv(out, "chunk", f.chunk);
    json_kv(out, "class", std::string(obs::to_string(f.cls)));
    json_kv(out, "field", f.field);
    out += "\"a\":";
    if (f.has_a) {
      json_record(out, f.a);
    } else {
      out += "null";
    }
    out += ",\"b\":";
    if (f.has_b) {
      json_record(out, f.b);
    } else {
      out += "null";
    }
    out += ',';
    json_backtrace(out, "backtrace_a", f.backtrace_a);
    json_backtrace(out, "backtrace_b", f.backtrace_b, false);
    out += "}}";
  } else {
    out += "\"first\":null}";
  }
  out += '\n';
  return out;
}

std::string timeline_diff_json(const std::string& a, const std::string& b,
                               const obs::TimelineDiff& d) {
  std::string out = "{";
  json_kv(out, "mode", std::string("timeline"));
  json_kv(out, "a", a);
  json_kv(out, "b", b);
  out += d.identical ? "\"identical\":true," : "\"identical\":false,";
  json_meta_issues(out, d.meta_issues);
  if (d.first) {
    const obs::TimelineDivergence& f = *d.first;
    out += "\"first\":{";
    json_kv(out, "rep", static_cast<std::uint64_t>(f.rep));
    json_kv(out, "row", f.row);
    json_kv(out, "col", static_cast<std::uint64_t>(f.col));
    json_kv(out, "column", f.column);
    json_kv(out, "class", std::string(obs::to_string(f.cls)));
    json_kv(out, "a_bits", f.a_bits);
    json_kv(out, "b_bits", f.b_bits);
    out += "\"context\":[";
    for (std::size_t i = 0; i < f.context.size(); ++i) {
      if (i > 0) out += ',';
      out += '{';
      json_kv(out, "row", f.context[i].row);
      json_kv(out, "a_bits", f.context[i].a_bits);
      json_kv(out, "b_bits", f.context[i].b_bits, false);
      out += '}';
    }
    out += "]}}";
  } else {
    out += "\"first\":null}";
  }
  out += '\n';
  return out;
}

// ---- report sink ----------------------------------------------------------

/// Writes the report. With --json the JSON goes to --out (or stdout) and
/// the human text to stderr, so CI can archive one and show the other.
int finish(bool identical, bool json, const std::string& out_path,
           const std::string& json_text, const std::string& human_text) {
  if (json) {
    std::FILE* out = stdout;
    if (!out_path.empty()) {
      out = std::fopen(out_path.c_str(), "wb");
      if (out == nullptr) {
        std::fprintf(stderr, "mckdiff: cannot open %s\n", out_path.c_str());
        return 2;
      }
    }
    std::fputs(json_text.c_str(), out);
    if (out != stdout) std::fclose(out);
    std::fputs(human_text.c_str(), stderr);
  } else if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "mckdiff: cannot open %s\n", out_path.c_str());
      return 2;
    }
    std::fputs(human_text.c_str(), out);
    std::fclose(out);
  } else {
    std::fputs(human_text.c_str(), stdout);
  }
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  std::string path_a = argv[1];
  std::string path_b = argv[2];
  obs::DiffOptions opt;
  bool json = false;
  std::string out_path;

  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--context") {
      opt.context = parse_count("--context", next(), 0);
    } else if (arg == "--align-window") {
      opt.align_window = parse_count("--align-window", next(), 1);
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--out" || arg == "-o") {
      out_path = next();
    } else {
      usage(("unknown option: " + arg).c_str());
    }
  }

  FileType ta = sniff(path_a);
  FileType tb = sniff(path_b);
  if (ta == FileType::kUnknown || tb == FileType::kUnknown) {
    std::fprintf(stderr, "mckdiff: %s is neither MCKTRC02 nor MCKTL02\n",
                 (ta == FileType::kUnknown ? path_a : path_b).c_str());
    return 2;
  }
  if (ta != tb) {
    std::fprintf(stderr,
                 "mckdiff: cannot compare a trace with a timeline "
                 "(%s vs %s)\n",
                 path_a.c_str(), path_b.c_str());
    return 2;
  }

  std::string err;
  if (ta == FileType::kTrace) {
    std::optional<obs::TraceFile> a = obs::read_trace_file(path_a, &err);
    if (!a) {
      std::fprintf(stderr, "mckdiff: %s\n", err.c_str());
      return 2;
    }
    std::optional<obs::TraceFile> b = obs::read_trace_file(path_b, &err);
    if (!b) {
      std::fprintf(stderr, "mckdiff: %s\n", err.c_str());
      return 2;
    }
    obs::TraceDiff d = obs::diff_traces(*a, *b, opt);
    return finish(d.identical, json, out_path,
                  json ? trace_diff_json(path_a, path_b, d) : std::string(),
                  obs::render_trace_diff(d));
  }

  std::optional<obs::TimelineFile> a = obs::read_timeline_file(path_a, &err);
  if (!a) {
    std::fprintf(stderr, "mckdiff: %s\n", err.c_str());
    return 2;
  }
  std::optional<obs::TimelineFile> b = obs::read_timeline_file(path_b, &err);
  if (!b) {
    std::fprintf(stderr, "mckdiff: %s\n", err.c_str());
    return 2;
  }
  obs::TimelineDiff d = obs::diff_timelines(*a, *b, opt);
  return finish(d.identical, json, out_path,
                json ? timeline_diff_json(path_a, path_b, d) : std::string(),
                obs::render_timeline_diff(d));
}
