// mckaudit — offline audit of flight-recorder traces (mcksim --trace).
//
//   mckaudit check FILE [--sample K]
//   mckaudit report FILE [--json] [--out OUT] [--sample K]
//
// check prints the verdict summary and exits 1 if any violation was found.
// report adds the per-round critical-path attribution table (wire / retry /
// MSS-buffer / participant / initiator-wait time per committed round);
// --json emits the machine-readable document instead (schema in
// EXPERIMENTS.md, "Auditing a run").
//
// --sample K audits only K of the trace's replications, chosen by a
// deterministic stride over the run list (always including rep 0), so
// spot-checking a huge sweep stays tractable: audit cost is linear in the
// records examined, and K runs bound it regardless of how many
// replications the trace holds. Verdicts still name the original rep ids.
//
// The auditor shares no code with the system under test beyond the trace
// schema: it re-derives happens-before, the committed lines (trace-level
// Theorem 1), weight conservation, checkpoint lifecycle legality, and the
// blocking discipline from the records alone.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "flags.hpp"
#include "obs/audit.hpp"
#include "obs/trace_io.hpp"

using namespace mck;
using namespace mck::cli;

void cli::usage(const char* msg) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: mckaudit COMMAND FILE [options]\n"
               "  check FILE          audit, print the verdict summary\n"
               "  report FILE         verdict + per-round critical-path table\n"
               "    --json            machine-readable JSON instead\n"
               "    --out OUT         write to OUT instead of stdout\n"
               "  --sample K          audit only K replications (deterministic\n"
               "                      stride over the trace's runs)\n"
               "exit status: 0 clean, 1 violations found, 2 usage error\n");
  std::exit(2);
}

int main(int argc, char** argv) {
  if (argc < 3) usage();
  std::string cmd = argv[1];
  std::string path = argv[2];
  bool json = false;
  std::string out_path;
  int sample = 0;  // 0 = audit every replication

  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--out" || arg == "-o") {
      if (i + 1 >= argc) usage("missing value");
      out_path = argv[++i];
    } else if (arg == "--sample") {
      if (i + 1 >= argc) usage("missing value");
      sample = parse_count("--sample", argv[++i], 1);
    } else {
      usage(("unknown option: " + arg).c_str());
    }
  }
  if (cmd != "check" && cmd != "report") {
    usage(("unknown command: " + cmd).c_str());
  }

  std::string err;
  std::optional<obs::TraceFile> f = obs::read_trace_file(path, &err);
  if (!f) {
    std::fprintf(stderr, "mckaudit: %s\n", err.c_str());
    return 2;
  }

  // Before auditing semantics, check integrity: every stored chunk/run
  // digest must match the records it covers. A mismatch means the file
  // was modified after writing — auditing it would attribute the
  // corruption to the protocol.
  std::vector<obs::DigestMismatch> bad = obs::verify_trace_digests(*f);
  if (!bad.empty()) {
    for (const obs::DigestMismatch& m : bad) {
      if (m.chunk < 0) {
        std::fprintf(stderr,
                     "mckaudit: rep %d run digest mismatch "
                     "(stored %016llx, computed %016llx)\n",
                     m.rep, (unsigned long long)m.stored,
                     (unsigned long long)m.computed);
      } else {
        std::fprintf(stderr,
                     "mckaudit: rep %d chunk %lld digest mismatch "
                     "(records %lld..%lld; stored %016llx, computed %016llx)\n",
                     m.rep, (long long)m.chunk,
                     (long long)m.chunk * obs::kDigestChunkRecords,
                     (long long)(m.chunk + 1) * obs::kDigestChunkRecords - 1,
                     (unsigned long long)m.stored,
                     (unsigned long long)m.computed);
      }
    }
    std::fprintf(stderr,
                 "mckaudit: %s fails digest verification (%zu mismatch(es)) "
                 "— refusing to audit corrupt records\n",
                 path.c_str(), bad.size());
    return 1;
  }

  if (sample > 0 && static_cast<std::size_t>(sample) < f->runs.size()) {
    // Every K-th run starting from the first: index i * stride is strictly
    // increasing and stays in range for i < K, so exactly K distinct runs
    // are kept, spread evenly across the replication range.
    const std::size_t stride = f->runs.size() / static_cast<std::size_t>(sample);
    std::vector<obs::TraceRun> picked;
    picked.reserve(static_cast<std::size_t>(sample));
    for (std::size_t i = 0; i < static_cast<std::size_t>(sample); ++i) {
      picked.push_back(std::move(f->runs[i * stride]));
    }
    std::fprintf(stderr, "mckaudit: sampling %zu of %zu replication(s)\n",
                 picked.size(), f->runs.size());
    f->runs = std::move(picked);
  }

  obs::AuditReport report = obs::audit_file(*f);
  std::string text = cmd == "check"
                         ? obs::render_report(report, false)
                         : json ? obs::report_json(report, &f->meta)
                                : obs::render_report(report, true);

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "mckaudit: cannot open %s\n", out_path.c_str());
      return 2;
    }
  }
  std::fprintf(out, "%s", text.c_str());
  if (out != stdout) {
    std::fclose(out);
    // Still tell the terminal what the verdict was.
    std::fprintf(stderr, "mckaudit: %s (%zu violation(s)) -> %s\n",
                 report.ok() ? "OK" : "FAIL", report.violations.size(),
                 out_path.c_str());
  }
  return report.ok() ? 0 : 1;
}
