// Structural trace diff: turns "two files differ" into "which record
// diverged first, why, and what causal history led each side there".
//
// Every byte-identity assertion in the repo (CI jobs/timeline smokes,
// timeline_test) fails through this engine instead of
// a bare cmp/memcmp: the digest footer (obs/digest.hpp) localizes the
// first diverging chunk in O(chunks) 64-bit comparisons, a record scan
// inside that one chunk pins the exact (rep, record index), a classifier
// names the divergence (timestamp / ordering / payload-field / missing /
// extra / truncation), and a happens-before walk (the same reconstruction
// obs/graph.hpp uses for the auditor) prints the last K causal
// predecessors of the diverging record on each side with their decoded
// fields. Non-diverging chunks are never decoded.
//
// Records are decoded with the MsgKind / CkptKind name mirrors and the
// initiation label of obs/trace.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/timeline.hpp"
#include "obs/trace_io.hpp"

namespace mck::obs {

// ---------------------------------------------------------------------------
// Record formatting (the one formatter behind `mcktrace dump` and every
// diff report).
// ---------------------------------------------------------------------------

/// Kind-specific human rendering of the sub/aux/arg fields, following the
/// per-kind conventions documented in obs/trace.hpp.
std::string format_record(const TraceRecord& r);

/// Full dump line: "rep=R <time> <pid> <kind> <detail>".
std::string format_record_line(int rep, const TraceRecord& r);

// ---------------------------------------------------------------------------
// Divergence classification
// ---------------------------------------------------------------------------

enum class DivergenceClass {
  kTimestamp,     // same record, different simulation time
  kOrdering,      // adjacent records swapped
  kPayloadField,  // same position, field(s) other than the time differ
  kMissingRecord, // B lacks record(s) present in A at this index
  kExtraRecord,   // B has record(s) A lacks at this index
  kTruncation,    // one side's record stream ends early
};

const char* to_string(DivergenceClass c);

/// One entry of a causal backtrace: a record and its index in the run.
struct BacktraceEntry {
  std::uint64_t index = 0;
  TraceRecord rec{};
};

/// The first diverging record of one (run, run) pair.
struct RunDivergence {
  int rep = 0;
  std::uint64_t index = 0;  // record index within the run
  std::uint64_t chunk = 0;  // index / kDigestChunkRecords
  DivergenceClass cls = DivergenceClass::kPayloadField;
  bool has_a = false, has_b = false;  // side has a record at `index`
  TraceRecord a{}, b{};
  /// kPayloadField: comma-separated names of the differing raw fields
  /// (at, pid, kind, sub, aux, arg0, arg1). kMissingRecord/kExtraRecord:
  /// how many records ahead the realignment was found, as text.
  std::string field;
  /// Last K happens-before predecessors of the diverging record, oldest
  /// first (program order of the record's process, plus the matched send
  /// of every delivery crossed — the obs/graph happens-before edges).
  std::vector<BacktraceEntry> backtrace_a, backtrace_b;
};

/// How the search used the digest footer.
struct TraceDiffStats {
  bool used_digests = false;
  std::uint64_t chunks_total = 0;        // chunk pairs examined via digest
  std::uint64_t chunks_skipped = 0;      // equal-digest chunks not scanned
  std::uint64_t records_scanned = 0;     // records compared one-by-one
};

struct TraceDiff {
  bool identical = true;
  /// Header/meta disagreements (process count, algo, run count, per-run
  /// rep/seed). A meta mismatch alone still reports identical = false.
  std::vector<std::string> meta_issues;
  std::optional<RunDivergence> first;
  TraceDiffStats stats;
};

struct DiffOptions {
  int context = 8;        // backtrace length K per side
  int align_window = 64;  // lookahead for missing/extra realignment
};

/// Structural diff of two trace files. Stops at the first diverging
/// record (runs are compared in order); digest footers, when present on
/// both sides, localize the diverging chunk before any record is read.
TraceDiff diff_traces(const TraceFile& a, const TraceFile& b,
                      const DiffOptions& opt = {});

/// First divergence of one record-stream pair (the timeline_test
/// failure path). std::nullopt when the streams are
/// byte-identical. `rep` only labels the result.
std::optional<RunDivergence> diff_records(const std::vector<TraceRecord>& a,
                                          const std::vector<TraceRecord>& b,
                                          int rep = 0,
                                          const DiffOptions& opt = {});

/// Human rendering of a divergence: classification, both decoded
/// records, and the two causal backtraces.
std::string render_divergence(const RunDivergence& d);

/// Whole-report text: meta issues, digest-search stats, divergence.
std::string render_trace_diff(const TraceDiff& d);

// ---------------------------------------------------------------------------
// Timeline (MCKTL02) diff
// ---------------------------------------------------------------------------

/// First diverging cell of a timeline pair, named by the schema.
struct TimelineDivergence {
  int rep = 0;
  std::uint64_t row = 0;
  int col = 0;
  std::string column;            // schema name of the column
  TimelineValue value = TimelineValue::kU64;
  DivergenceClass cls = DivergenceClass::kPayloadField;
  bool has_a = false, has_b = false;  // side has this row
  std::uint64_t a_bits = 0, b_bits = 0;
  sim::SimTime at_a = 0, at_b = 0;    // row time (column 0) on each side
  /// Context: the same column's last K (row, a, b) values before the
  /// divergence, oldest first.
  struct ContextRow {
    std::uint64_t row = 0;
    std::uint64_t a_bits = 0, b_bits = 0;
  };
  std::vector<ContextRow> context;
};

struct TimelineDiff {
  bool identical = true;
  std::vector<std::string> meta_issues;
  std::optional<TimelineDivergence> first;
};

TimelineDiff diff_timelines(const TimelineFile& a, const TimelineFile& b,
                            const DiffOptions& opt = {});

/// Row-pair diff against an explicit schema (the timeline_test failure
/// path, where runs exist in memory without a file).
std::optional<TimelineDivergence> diff_timeline_runs(
    const TimelineRun& a, const TimelineRun& b,
    const std::vector<TimelineColumnMeta>& schema, const DiffOptions& opt = {});

std::string render_timeline_divergence(const TimelineDivergence& d);
std::string render_timeline_diff(const TimelineDiff& d);

}  // namespace mck::obs
