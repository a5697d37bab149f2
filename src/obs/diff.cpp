#include "obs/diff.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <unordered_set>

namespace mck::obs {

// ---------------------------------------------------------------------------
// Record formatting
// ---------------------------------------------------------------------------

std::string format_record(const TraceRecord& r) {
  using K = TraceKind;
  char buf[160];
  auto k = static_cast<K>(r.kind);
  switch (k) {
    case K::kEventFire:
      std::snprintf(buf, sizeof(buf), "seq=%llu slot=%llu",
                    (unsigned long long)r.arg0, (unsigned long long)r.arg1);
      break;
    case K::kEventCancel:
      std::snprintf(buf, sizeof(buf), "slot=%llu gen=%llu",
                    (unsigned long long)r.arg0, (unsigned long long)r.arg1);
      break;
    case K::kQueueDepth:
      std::snprintf(buf, sizeof(buf), "live=%llu heap=%llu",
                    (unsigned long long)r.arg0, (unsigned long long)r.arg1);
      break;
    case K::kMsgSend:
    case K::kMsgDeliver: {
      char peer[24];
      if (k == K::kMsgSend && r.aux == kBroadcastDst) {
        std::snprintf(peer, sizeof(peer), "dst=*");
      } else {
        std::snprintf(peer, sizeof(peer), "%s=%u",
                      k == K::kMsgSend ? "dst" : "src", r.aux);
      }
      char ev[32];
      ev[0] = '\0';
      if (msg_stamp_of(r.arg1) != 0) {
        std::snprintf(ev, sizeof(ev), " ev=%llu",
                      (unsigned long long)(msg_stamp_of(r.arg1) - 1));
      }
      std::snprintf(buf, sizeof(buf), "%s id=%llu %s bytes=%llu%s",
                    msg_kind_name(r.sub), (unsigned long long)r.arg0, peer,
                    (unsigned long long)msg_bytes_of(r.arg1), ev);
      break;
    }
    case K::kMsgRetry:
      std::snprintf(buf, sizeof(buf), "%s id=%llu dst=%u retries=%llu "
                    "extra=%.6fs",
                    msg_kind_name(r.sub), (unsigned long long)r.arg0, r.aux,
                    (unsigned long long)retry_count_of(r.arg1),
                    sim::to_seconds(retry_extra_of(r.arg1)));
      break;
    case K::kMsgBuffered:
      std::snprintf(buf, sizeof(buf), "%s id=%llu at-mss=%u depth=%llu",
                    msg_kind_name(r.sub), (unsigned long long)r.arg0, r.aux,
                    (unsigned long long)r.arg1);
      break;
    case K::kMsgForwarded:
      std::snprintf(buf, sizeof(buf), "%s id=%llu mss=%u->%llu",
                    msg_kind_name(r.sub), (unsigned long long)r.arg0, r.aux,
                    (unsigned long long)r.arg1);
      break;
    case K::kHandoff:
      std::snprintf(buf, sizeof(buf), "mss=%llu->%llu",
                    (unsigned long long)r.arg0, (unsigned long long)r.arg1);
      break;
    case K::kDisconnect:
      std::snprintf(buf, sizeof(buf), "at-mss=%llu",
                    (unsigned long long)r.arg0);
      break;
    case K::kReconnect:
      std::snprintf(buf, sizeof(buf), "at-mss=%llu buffered=%llu",
                    (unsigned long long)r.arg0, (unsigned long long)r.arg1);
      break;
    case K::kBlock:
      buf[0] = '\0';
      break;
    case K::kUnblock:
      std::snprintf(buf, sizeof(buf), "blocked=%.6fs",
                    sim::to_seconds(static_cast<sim::SimTime>(r.arg0)));
      break;
    case K::kInitStart:
      std::snprintf(buf, sizeof(buf), "init=%s",
                    initiation_label(r.arg0).c_str());
      break;
    case K::kRoundCommit:
    case K::kRoundAbort:
      std::snprintf(buf, sizeof(buf), "init=%s latency=%.6fs",
                    initiation_label(r.arg0).c_str(),
                    sim::to_seconds(static_cast<sim::SimTime>(r.arg1)));
      break;
    case K::kCkptTaken:
      std::snprintf(buf, sizeof(buf), "%s init=%s ref=%llu csn=%llu",
                    ckpt_kind_name(r.sub), initiation_label(r.arg0).c_str(),
                    (unsigned long long)(r.arg1 >> 32),
                    (unsigned long long)(r.arg1 & 0xffffffffull));
      break;
    case K::kCkptPromoted:
      std::snprintf(buf, sizeof(buf), "%s->tentative init=%s ref=%llu",
                    ckpt_kind_name(r.sub), initiation_label(r.arg0).c_str(),
                    (unsigned long long)r.arg1);
      break;
    case K::kCkptPermanent:
    case K::kCkptDiscarded:
      std::snprintf(buf, sizeof(buf), "%s init=%s ref=%llu",
                    ckpt_kind_name(r.sub), initiation_label(r.arg0).c_str(),
                    (unsigned long long)r.arg1);
      break;
    case K::kWeightSplit:
      std::snprintf(buf, sizeof(buf), "init=%s dst=%u sent-weight=%g",
                    initiation_label(r.arg0).c_str(), r.aux,
                    std::bit_cast<double>(r.arg1));
      break;
    case K::kWeightReturn:
      std::snprintf(buf, sizeof(buf), "init=%s from=%u acc-weight=%g",
                    initiation_label(r.arg0).c_str(), r.aux,
                    std::bit_cast<double>(r.arg1));
      break;
    case K::kCkptCursor:
      std::snprintf(buf, sizeof(buf), "%s ref=%llu cursor=%llu",
                    ckpt_kind_name(r.sub), (unsigned long long)r.arg0,
                    (unsigned long long)r.arg1);
      break;
    case K::kTruncated:
      std::snprintf(buf, sizeof(buf), "dropped=%llu since=%.6fs",
                    (unsigned long long)r.arg0,
                    sim::to_seconds(static_cast<sim::SimTime>(r.arg1)));
      break;
    case K::kCount:
      buf[0] = '\0';
      break;
  }
  return buf;
}

std::string format_record_line(int rep, const TraceRecord& r) {
  char head[64];
  std::snprintf(head, sizeof(head), "rep=%d %12.6f %4d %-14s ", rep,
                sim::to_seconds(r.at), r.pid,
                to_string(static_cast<TraceKind>(r.kind)));
  return std::string(head) + format_record(r);
}

// ---------------------------------------------------------------------------
// Divergence classification
// ---------------------------------------------------------------------------

const char* to_string(DivergenceClass c) {
  switch (c) {
    case DivergenceClass::kTimestamp: return "timestamp";
    case DivergenceClass::kOrdering: return "ordering";
    case DivergenceClass::kPayloadField: return "payload-field";
    case DivergenceClass::kMissingRecord: return "missing-record";
    case DivergenceClass::kExtraRecord: return "extra-record";
    case DivergenceClass::kTruncation: return "truncation";
  }
  return "?";
}

namespace {

bool rec_eq(const TraceRecord& x, const TraceRecord& y) {
  return std::memcmp(&x, &y, sizeof(TraceRecord)) == 0;
}

/// Equal in every field except the simulation time.
bool rest_eq(const TraceRecord& x, const TraceRecord& y) {
  return x.arg0 == y.arg0 && x.arg1 == y.arg1 && x.pid == y.pid &&
         x.kind == y.kind && x.sub == y.sub && x.aux == y.aux;
}

/// Do a[i..] and b[j..] agree for the next `count` records (bounded by
/// the shorter stream)? Realignment evidence for missing/extra records.
bool aligns(const TraceRecords& a, std::size_t i,
            const TraceRecords& b, std::size_t j,
            std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    if (i + k >= a.size() || j + k >= b.size()) return true;  // ran off: ok
    if (!rec_eq(a[i + k], b[j + k])) return false;
  }
  return true;
}

/// Comma-joined names of the raw fields where x and y disagree.
std::string field_diff_list(const TraceRecord& x, const TraceRecord& y) {
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (x.at != y.at) add("at");
  if (x.pid != y.pid) add("pid");
  if (x.kind != y.kind) add("kind");
  if (x.sub != y.sub) add("sub");
  if (x.aux != y.aux) add("aux");
  if (x.arg0 != y.arg0) add("arg0");
  if (x.arg1 != y.arg1) add("arg1");
  return out;
}

bool carries_msg_id(std::uint8_t kind) {
  auto k = static_cast<TraceKind>(kind);
  return k == TraceKind::kMsgDeliver || k == TraceKind::kMsgBuffered ||
         k == TraceKind::kMsgForwarded || k == TraceKind::kMsgRetry;
}

bool backtrace_noise(std::uint8_t kind) {
  auto k = static_cast<TraceKind>(kind);
  return k == TraceKind::kEventFire || k == TraceKind::kEventCancel ||
         k == TraceKind::kQueueDepth || k == TraceKind::kTruncated;
}

/// Last `k` happens-before predecessors of recs[idx], oldest first: the
/// record's process in program order, plus — whenever a delivery is
/// crossed — the matched send (and from there the sender's history), the
/// same edges obs/graph.hpp rebuilds for the auditor. Simulator-global
/// bookkeeping records (event firings, queue-depth samples) are skipped.
std::vector<BacktraceEntry> causal_backtrace(const TraceRecords& records,
                                             std::uint64_t idx, int k) {
  std::vector<BacktraceEntry> out;
  if (records.empty() || k <= 0) return out;
  idx = std::min<std::uint64_t>(idx, records.size() - 1);
  RecordCache recs(&records);
  const TraceRecord div = recs[static_cast<std::size_t>(idx)];

  std::unordered_set<std::int32_t> pids{div.pid};
  std::unordered_set<std::uint64_t> wanted_msgs;
  if (carries_msg_id(div.kind)) wanted_msgs.insert(div.arg0);
  // A simulator-global record (pid < 0) has no per-process cone; show the
  // last K protocol records outright rather than an empty backtrace.
  const bool global = div.pid < 0;

  for (std::size_t j = static_cast<std::size_t>(idx); j-- > 0;) {
    const TraceRecord& r = recs[j];
    if (backtrace_noise(r.kind)) continue;
    bool include = global || pids.count(r.pid) != 0;
    if (!include &&
        r.kind == static_cast<std::uint8_t>(TraceKind::kMsgSend) &&
        wanted_msgs.count(r.arg0) != 0) {
      // The matched send of a delivery already in the cone: pull the
      // sender's history in from here back.
      include = true;
      pids.insert(r.pid);
    }
    if (!include) continue;
    if (carries_msg_id(r.kind)) wanted_msgs.insert(r.arg0);
    out.push_back(BacktraceEntry{static_cast<std::uint64_t>(j), r});
    if (static_cast<int>(out.size()) == k) break;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// Builds the full RunDivergence for streams known to differ first at
/// index `i` (i == min(size) means one stream ended).
RunDivergence classify(const TraceRecords& a, const TraceRecords& b, int rep,
                       std::uint64_t i, const DiffOptions& opt) {
  RunDivergence d;
  d.rep = rep;
  d.index = i;
  d.chunk = i / kDigestChunkRecords;
  d.has_a = i < a.size();
  d.has_b = i < b.size();
  if (d.has_a) d.a = a[static_cast<std::size_t>(i)];
  if (d.has_b) d.b = b[static_cast<std::size_t>(i)];

  const std::size_t w = static_cast<std::size_t>(
      opt.align_window > 0 ? opt.align_window : 64);
  if (!d.has_a || !d.has_b) {
    d.cls = DivergenceClass::kTruncation;
  } else if (rest_eq(d.a, d.b)) {
    d.cls = DivergenceClass::kTimestamp;
    d.field = "at";
  } else if (i + 1 < a.size() && i + 1 < b.size() &&
             rec_eq(a[static_cast<std::size_t>(i)],
                    b[static_cast<std::size_t>(i) + 1]) &&
             rec_eq(a[static_cast<std::size_t>(i) + 1],
                    b[static_cast<std::size_t>(i)])) {
    d.cls = DivergenceClass::kOrdering;
  } else {
    // Realign: does B's record appear later in A (B missing records), or
    // A's record later in B (B has extra records)? Prefer the closer
    // realignment; demand a few subsequent records agree as evidence.
    std::size_t miss_j = 0, extra_j = 0;
    for (std::size_t j = static_cast<std::size_t>(i) + 1;
         j <= i + w && j < a.size(); ++j) {
      if (rec_eq(a[j], d.b) && aligns(a, j + 1, b, i + 1, 4)) {
        miss_j = j;
        break;
      }
    }
    for (std::size_t j = static_cast<std::size_t>(i) + 1;
         j <= i + w && j < b.size(); ++j) {
      if (rec_eq(d.a, b[j]) && aligns(a, i + 1, b, j + 1, 4)) {
        extra_j = j;
        break;
      }
    }
    char buf[64];
    if (miss_j != 0 && (extra_j == 0 || miss_j <= extra_j)) {
      d.cls = DivergenceClass::kMissingRecord;
      std::snprintf(buf, sizeof buf, "%llu record(s) absent from B",
                    (unsigned long long)(miss_j - i));
      d.field = buf;
    } else if (extra_j != 0) {
      d.cls = DivergenceClass::kExtraRecord;
      std::snprintf(buf, sizeof buf, "%llu record(s) extra in B",
                    (unsigned long long)(extra_j - i));
      d.field = buf;
    } else {
      d.cls = DivergenceClass::kPayloadField;
      d.field = field_diff_list(d.a, d.b);
    }
  }
  d.backtrace_a = causal_backtrace(a, i, opt.context);
  d.backtrace_b = causal_backtrace(b, i, opt.context);
  return d;
}

/// Scans for the first differing index at or after `start`. Returns
/// min(size) when only the lengths differ, npos when truly identical.
constexpr std::uint64_t kNoDivergence = ~0ull;

std::uint64_t scan_first_diff(const TraceRecords& a, const TraceRecords& b,
                              std::uint64_t start,
                              std::uint64_t* records_scanned) {
  const std::size_t lim = std::min(a.size(), b.size());
  std::size_t i = static_cast<std::size_t>(start);
  for (auto x = a.from(i), y = b.from(i); i < lim && rec_eq(*x, *y);
       ++x, ++y) {
    ++i;
  }
  if (records_scanned != nullptr) *records_scanned += i - start;
  if (i < lim) return i;
  if (a.size() != b.size()) return lim;
  return kNoDivergence;
}

/// The header checks trace and timeline diffs share, in report order:
/// process count, algorithm, `schema` (file-specific checks), then the
/// replication count.
template <class File, class Note, class Schema>
void compare_meta(const File& a, const File& b, Note&& note,
                  Schema&& schema) {
  char buf[160];
  if (a.meta.num_processes != b.meta.num_processes) {
    std::snprintf(buf, sizeof buf, "process count differs: %d vs %d",
                  a.meta.num_processes, b.meta.num_processes);
    note(buf);
  }
  if (a.meta.algo != b.meta.algo) {
    note("algorithm differs: " + a.meta.algo + " vs " + b.meta.algo);
  }
  schema();
  if (a.runs.size() != b.runs.size()) {
    std::snprintf(buf, sizeof buf, "replication count differs: %zu vs %zu",
                  a.runs.size(), b.runs.size());
    note(buf);
  }
}

}  // namespace

std::optional<RunDivergence> diff_records(const TraceRecords& a,
                                          const TraceRecords& b,
                                          int rep, const DiffOptions& opt) {
  std::uint64_t i = scan_first_diff(a, b, 0, nullptr);
  if (i == kNoDivergence) return std::nullopt;
  return classify(a, b, rep, i, opt);
}

TraceDiff diff_traces(const TraceFile& a, const TraceFile& b,
                      const DiffOptions& opt) {
  TraceDiff out;
  char buf[160];
  auto meta_issue = [&out](const std::string& s) {
    out.meta_issues.push_back(s);
    out.identical = false;
  };

  compare_meta(a, b, meta_issue, [] {});

  const std::size_t pairs = std::min(a.runs.size(), b.runs.size());
  for (std::size_t k = 0; k < pairs; ++k) {
    const TraceRun& ra = a.runs[k];
    const TraceRun& rb = b.runs[k];
    if (ra.rep != rb.rep) {
      std::snprintf(buf, sizeof buf, "run %zu rep index differs: %d vs %d",
                    k, ra.rep, rb.rep);
      meta_issue(buf);
    }
    if (ra.seed != rb.seed) {
      std::snprintf(buf, sizeof buf,
                    "rep %d seed differs: %llu vs %llu", ra.rep,
                    (unsigned long long)ra.seed, (unsigned long long)rb.seed);
      meta_issue(buf);
    }

    std::uint64_t start = 0;
    bool need_scan = true;
    if (ra.digests.present() && rb.digests.present()) {
      // O(chunks) localization: compare the stored chunk digests and
      // only scan records inside the first disagreeing chunk.
      out.stats.used_digests = true;
      const std::size_t ca = ra.digests.chunks.size();
      const std::size_t cb = rb.digests.chunks.size();
      const std::size_t common = std::min(ca, cb);
      out.stats.chunks_total += std::max(ca, cb);
      std::size_t c = 0;
      while (c < common && ra.digests.chunks[c] == rb.digests.chunks[c]) ++c;
      out.stats.chunks_skipped += c;
      if (c == common && ca == cb &&
          ra.records.size() == rb.records.size()) {
        // Every chunk digest agrees: confirm identity by comparing the
        // encoded bytes (canonical, so equal records give equal bytes; no
        // record is decoded). A digest collision hiding a real difference
        // falls through to the full scan.
        if (ra.records == rb.records) {
          need_scan = false;
        } else {
          start = 0;  // collision: pay the linear scan
        }
      } else {
        start = static_cast<std::uint64_t>(c) * kDigestChunkRecords;
      }
    }
    if (!need_scan) continue;
    std::uint64_t i =
        scan_first_diff(ra.records, rb.records, start, &out.stats.records_scanned);
    if (i == kNoDivergence) continue;
    out.identical = false;
    out.first = classify(ra.records, rb.records, ra.rep, i, opt);
    break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

namespace {

void render_side(std::string& out, const char* label, bool has,
                 const TraceRecord& rec, std::uint64_t stream_end) {
  out += "  ";
  out += label;
  out += ": ";
  if (has) {
    out += format_record_line(-1, rec).substr(std::strlen("rep=-1 "));
  } else {
    char buf[64];
    std::snprintf(buf, sizeof buf, "<absent — stream ends at %llu record(s)>",
                  (unsigned long long)stream_end);
    out += buf;
  }
  out += '\n';
}

void render_backtrace(std::string& out, const char* label,
                      const std::vector<BacktraceEntry>& bt) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "  causal backtrace %s (%zu predecessor%s):\n",
                label, bt.size(), bt.size() == 1 ? "" : "s");
  out += buf;
  for (const BacktraceEntry& e : bt) {
    std::snprintf(buf, sizeof buf, "    [%8llu] ",
                  (unsigned long long)e.index);
    out += buf;
    out += format_record_line(-1, e.rec).substr(std::strlen("rep=-1 "));
    out += '\n';
  }
}

}  // namespace

std::string render_divergence(const RunDivergence& d) {
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "first divergence: rep %d, record %llu (chunk %llu): %s",
                d.rep, (unsigned long long)d.index,
                (unsigned long long)d.chunk, to_string(d.cls));
  out += buf;
  if (!d.field.empty()) {
    out += " [";
    out += d.field;
    out += ']';
  }
  out += '\n';
  // Stream end = index when the record is absent (the scan stopped at
  // min(sizes), so the absent side ended exactly there).
  render_side(out, "A", d.has_a, d.a, d.index);
  render_side(out, "B", d.has_b, d.b, d.index);
  render_backtrace(out, "A", d.backtrace_a);
  render_backtrace(out, "B", d.backtrace_b);
  return out;
}

std::string render_trace_diff(const TraceDiff& d) {
  std::string out;
  for (const std::string& m : d.meta_issues) {
    out += "meta: " + m + "\n";
  }
  if (d.stats.used_digests) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "digest search: %llu chunk(s), %llu skipped by digest, "
                  "%llu record(s) scanned\n",
                  (unsigned long long)d.stats.chunks_total,
                  (unsigned long long)d.stats.chunks_skipped,
                  (unsigned long long)d.stats.records_scanned);
    out += buf;
  }
  if (d.first) {
    out += render_divergence(*d.first);
  } else if (d.identical) {
    out += "traces identical\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Timeline diff
// ---------------------------------------------------------------------------

std::optional<TimelineDivergence> diff_timeline_runs(
    const TimelineRun& a, const TimelineRun& b,
    const std::vector<TimelineColumnMeta>& schema, const DiffOptions& opt) {
  const std::size_t cols = schema.size();
  if (cols == 0) return std::nullopt;
  const std::size_t rows_a = a.data.size() / cols;
  const std::size_t rows_b = b.data.size() / cols;
  const std::size_t rows = std::min(rows_a, rows_b);

  auto cell = [cols](const TimelineRun& r, std::size_t k, std::size_t c) {
    return r.data[k * cols + c];
  };

  auto make = [&](std::size_t k, std::size_t c, DivergenceClass cls,
                  bool has_a, bool has_b) {
    TimelineDivergence d;
    d.rep = a.rep;
    d.row = k;
    d.col = static_cast<int>(c);
    d.column = schema[c].name;
    d.value = schema[c].value;
    d.cls = cls;
    d.has_a = has_a;
    d.has_b = has_b;
    if (has_a) {
      d.a_bits = cell(a, k, c);
      d.at_a = static_cast<sim::SimTime>(cell(a, k, 0));
    }
    if (has_b) {
      d.b_bits = cell(b, k, c);
      d.at_b = static_cast<sim::SimTime>(cell(b, k, 0));
    }
    const std::size_t ctx = static_cast<std::size_t>(
        opt.context > 0 ? opt.context : 8);
    const std::size_t from = k > ctx ? k - ctx : 0;
    for (std::size_t j = from; j < k; ++j) {
      d.context.push_back(TimelineDivergence::ContextRow{
          j, j < rows_a ? cell(a, j, c) : 0, j < rows_b ? cell(b, j, c) : 0});
    }
    return d;
  };

  for (std::size_t k = 0; k < rows; ++k) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (cell(a, k, c) != cell(b, k, c)) {
        return make(k, c, DivergenceClass::kPayloadField, true, true);
      }
    }
  }
  if (rows_a != rows_b) {
    return make(rows, 0, DivergenceClass::kTruncation, rows < rows_a,
                rows < rows_b);
  }
  // Rows agree; the post-quiescence final row is part of the contract too
  // — but only when both sides carry one: MCKTL02 does not persist it, so
  // a file-loaded run legitimately has none.
  if (a.final_row.empty() || b.final_row.empty()) return std::nullopt;
  const std::size_t fin = std::min(a.final_row.size(), b.final_row.size());
  for (std::size_t c = 0; c < fin; ++c) {
    if (a.final_row[c] != b.final_row[c]) {
      TimelineDivergence d;
      d.rep = a.rep;
      d.row = rows;
      d.col = static_cast<int>(c);
      d.column = c < cols ? schema[c].name : "?";
      d.value = c < cols ? schema[c].value : TimelineValue::kU64;
      d.cls = DivergenceClass::kPayloadField;
      d.has_a = d.has_b = true;
      d.a_bits = a.final_row[c];
      d.b_bits = b.final_row[c];
      return d;
    }
  }
  if (a.final_row.size() != b.final_row.size()) {
    TimelineDivergence d;
    d.rep = a.rep;
    d.row = rows;
    d.col = 0;
    d.column = "(final row width)";
    d.cls = DivergenceClass::kTruncation;
    d.has_a = !a.final_row.empty();
    d.has_b = !b.final_row.empty();
    return d;
  }
  return std::nullopt;
}

TimelineDiff diff_timelines(const TimelineFile& a, const TimelineFile& b,
                            const DiffOptions& opt) {
  TimelineDiff out;
  char buf[160];
  auto meta_issue = [&out](const std::string& s) {
    out.meta_issues.push_back(s);
    out.identical = false;
  };

  compare_meta(a, b, meta_issue, [&] {
    if (a.meta.columns.size() != b.meta.columns.size()) {
      std::snprintf(buf, sizeof buf,
                    "schema width differs: %zu vs %zu columns",
                    a.meta.columns.size(), b.meta.columns.size());
      meta_issue(buf);
      return;
    }
    for (std::size_t c = 0; c < a.meta.columns.size(); ++c) {
      if (a.meta.columns[c].name != b.meta.columns[c].name) {
        meta_issue("column " + std::to_string(c) + " named " +
                   a.meta.columns[c].name + " vs " + b.meta.columns[c].name);
      }
    }
  });
  if (!out.meta_issues.empty() &&
      a.meta.columns.size() != b.meta.columns.size()) {
    return out;  // row-major cells are incomparable across schemas
  }

  const std::size_t pairs = std::min(a.runs.size(), b.runs.size());
  for (std::size_t k = 0; k < pairs; ++k) {
    const TimelineRun& ra = a.runs[k];
    const TimelineRun& rb = b.runs[k];
    if (ra.rep != rb.rep || ra.seed != rb.seed) {
      std::snprintf(buf, sizeof buf,
                    "run %zu identity differs: rep %d seed %llu vs rep %d "
                    "seed %llu",
                    k, ra.rep, (unsigned long long)ra.seed, rb.rep,
                    (unsigned long long)rb.seed);
      meta_issue(buf);
    }
    if (ra.interval_ns != rb.interval_ns) {
      std::snprintf(buf, sizeof buf,
                    "rep %d sampling interval differs: %llu vs %llu ns",
                    ra.rep, (unsigned long long)ra.interval_ns,
                    (unsigned long long)rb.interval_ns);
      meta_issue(buf);
    }
    std::optional<TimelineDivergence> d =
        diff_timeline_runs(ra, rb, a.meta.columns, opt);
    if (d) {
      out.identical = false;
      out.first = std::move(d);
      break;
    }
  }
  return out;
}

std::string render_timeline_divergence(const TimelineDivergence& d) {
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "first divergence: rep %d, row %llu, column %s: %s\n", d.rep,
                (unsigned long long)d.row, d.column.c_str(), to_string(d.cls));
  out += buf;
  if (d.cls == DivergenceClass::kTruncation) {
    std::snprintf(buf, sizeof buf, "  A %s row %llu, B %s row %llu\n",
                  d.has_a ? "has" : "lacks", (unsigned long long)d.row,
                  d.has_b ? "has" : "lacks", (unsigned long long)d.row);
    out += buf;
  } else {
    std::snprintf(buf, sizeof buf, "  A (t=%.3fs): %s\n  B (t=%.3fs): %s\n",
                  sim::to_seconds(d.at_a),
                  timeline_cell_text(d.value, d.a_bits).c_str(),
                  sim::to_seconds(d.at_b),
                  timeline_cell_text(d.value, d.b_bits).c_str());
    out += buf;
  }
  if (!d.context.empty()) {
    out += "  preceding rows of this column (A | B):\n";
    for (const TimelineDivergence::ContextRow& c : d.context) {
      std::snprintf(buf, sizeof buf, "    row %8llu: %s | %s\n",
                    (unsigned long long)c.row,
                    timeline_cell_text(d.value, c.a_bits).c_str(),
                    timeline_cell_text(d.value, c.b_bits).c_str());
      out += buf;
    }
  }
  return out;
}

std::string render_timeline_diff(const TimelineDiff& d) {
  std::string out;
  for (const std::string& m : d.meta_issues) {
    out += "meta: " + m + "\n";
  }
  if (d.first) {
    out += render_timeline_divergence(*d.first);
  } else if (d.identical) {
    out += "timelines identical\n";
  }
  return out;
}

}  // namespace mck::obs
