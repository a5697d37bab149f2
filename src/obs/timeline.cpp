#include "obs/timeline.hpp"

#include <cstdio>
#include <cstring>

#include "obs/file_io.hpp"

namespace mck::obs {

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

namespace {

constexpr TimelineColumn kColumns[kTimelineNumColumns] = {
    {"time_ns", TimelineValue::kU64},
    {"events_executed", TimelineValue::kU64},
    {"queue_depth", TimelineValue::kU64},
    {"event_slots", TimelineValue::kU64},
    {"arena_bytes", TimelineValue::kU64},
    {"arena_reserved", TimelineValue::kU64},
    {"in_flight", TimelineValue::kI64},
    {"buffered_now", TimelineValue::kI64},
    {"blocked_procs", TimelineValue::kI64},
    {"active_inits", TimelineValue::kI64},
    {"outstanding_weight", TimelineValue::kF64},
    {"ckpt_mutable", TimelineValue::kI64},
    {"ckpt_tentative", TimelineValue::kI64},
    {"ckpt_permanent", TimelineValue::kI64},
    {"ckpt_disconnect", TimelineValue::kI64},
    {"disconnected_mhs", TimelineValue::kI64},
    {"mss_buf_min", TimelineValue::kU64},
    {"mss_buf_max", TimelineValue::kU64},
    {"mss_buf_sum", TimelineValue::kU64},
    {"mss_count", TimelineValue::kU64},
    {"msgs_sent", TimelineValue::kU64},
    {"deliveries", TimelineValue::kU64},
    {"bytes_comp", TimelineValue::kU64},
    {"bytes_sys", TimelineValue::kU64},
    {"wire_bytes_comp", TimelineValue::kU64},
    {"wire_bytes_sys", TimelineValue::kU64},
    {"buffered_total", TimelineValue::kU64},
    {"forwarded_total", TimelineValue::kU64},
};

}  // namespace

const TimelineColumn* timeline_columns() { return kColumns; }

std::vector<TimelineColumnMeta> builtin_timeline_schema() {
  std::vector<TimelineColumnMeta> out;
  out.reserve(kTimelineNumColumns);
  for (const TimelineColumn& c : kColumns) {
    out.push_back(TimelineColumnMeta{c.name, c.value});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

void TimelineSampler::configure(sim::SimTime interval, int mss_count) {
  interval_ = interval > 0 ? interval : 0;
  next_due_ = interval_ > 0 ? 0 : sim::kTimeNever;
  counters_.mss_depth.assign(static_cast<std::size_t>(mss_count), 0);
}

void TimelineSampler::add_pull(int col, std::uint64_t (*fn)(const void*),
                               const void* ctx) {
  pulls_.push_back(PullSource{col, fn, ctx});
}

void TimelineSampler::reserve_rows(std::size_t rows) {
  data_.reserve(rows * kTimelineNumColumns);
}

void TimelineSampler::fill_row(std::uint64_t* row, sim::SimTime at,
                               std::uint64_t live, std::uint64_t slots,
                               std::uint64_t executed) const {
  row[kColTime] = static_cast<std::uint64_t>(at);
  row[kColEventsExecuted] = executed;
  row[kColQueueDepth] = live;
  row[kColEventSlots] = slots;
  const TimelineCounters& c = counters_;
  row[kColInFlight] = timeline_bits_i64(c.in_flight);
  row[kColBufferedNow] = timeline_bits_i64(c.buffered_now);
  row[kColBlockedProcs] = timeline_bits_i64(c.blocked);
  row[kColActiveInits] = timeline_bits_i64(c.active_inits);
  row[kColOutstandingWeight] = timeline_bits_f64(c.outstanding_weight);
  row[kColCkptMutable] = timeline_bits_i64(c.ckpt_live[kRawCkptMutable]);
  row[kColCkptTentative] = timeline_bits_i64(c.ckpt_live[kRawCkptTentative]);
  row[kColCkptPermanent] = timeline_bits_i64(c.ckpt_live[kRawCkptPermanent]);
  row[kColCkptDisconnect] =
      timeline_bits_i64(c.ckpt_live[kRawCkptDisconnect]);
  row[kColDisconnectedMhs] = timeline_bits_i64(c.disconnected);
  std::uint64_t mn = 0, mx = 0, sum = 0;
  if (!c.mss_depth.empty()) {
    mn = UINT64_MAX;
    for (std::int64_t d : c.mss_depth) {
      std::uint64_t v = d > 0 ? static_cast<std::uint64_t>(d) : 0;
      if (v < mn) mn = v;
      if (v > mx) mx = v;
      sum += v;
    }
  }
  row[kColMssBufMin] = mn;
  row[kColMssBufMax] = mx;
  row[kColMssBufSum] = sum;
  row[kColMssCount] = c.mss_depth.size();
  for (const PullSource& p : pulls_) {
    row[p.col] = p.fn(p.ctx);
  }
}

void TimelineSampler::emit_row(sim::SimTime at, std::uint64_t live,
                               std::uint64_t slots, std::uint64_t executed) {
  const std::size_t base = data_.size();
  data_.resize(base + kTimelineNumColumns);
  fill_row(data_.data() + base, at, live, slots, executed);
}

void TimelineSampler::finalize(std::uint64_t live, std::uint64_t slots,
                               std::uint64_t executed) {
  final_row_.assign(kTimelineNumColumns, 0);
  fill_row(final_row_.data(), 0, live, slots, executed);
}

TimelineRun TimelineSampler::take_run(std::uint64_t seed) {
  TimelineRun run;
  run.seed = seed;
  run.interval_ns = static_cast<std::uint64_t>(interval_);
  run.data = std::move(data_);
  run.final_row = std::move(final_row_);
  if (run.final_row.empty()) {
    // finalize() not called (e.g. disabled sampler): fall back to zeros
    // so every run carries a full-width final row.
    run.final_row.assign(kTimelineNumColumns, 0);
  }
  data_.clear();
  final_row_.clear();
  next_due_ = sim::kTimeNever;
  return run;
}

// ---------------------------------------------------------------------------
// MCKTL02 I/O
// ---------------------------------------------------------------------------

namespace {

using io::read_all;
using io::read_pod;
using io::set_error;
using io::write_all;
using io::write_pod;

constexpr char kTlRunMagic[4] = {'T', 'L', 'R', '.'};

}  // namespace

bool write_timeline_file(const std::string& path, const TimelineFileMeta& meta,
                         const std::vector<TimelineRun>& runs,
                         std::string* err) {
  io::FilePtr f = io::open_file(path, "wb", err);
  if (!f) return false;
  bool ok = io::write_header(f.get(), kTimelineFileMagic, meta.num_processes,
                             meta.algo);
  ok = ok && write_pod(f.get(), static_cast<std::uint32_t>(meta.columns.size()));
  for (const TimelineColumnMeta& c : meta.columns) {
    ok = ok && write_pod(f.get(), static_cast<std::uint8_t>(c.value));
    ok = ok && write_pod(f.get(), static_cast<std::uint16_t>(c.name.size()));
    ok = ok && write_all(f.get(), c.name.data(), c.name.size());
  }
  const std::size_t cols = meta.columns.size();
  for (const TimelineRun& run : runs) {
    ok = ok && write_all(f.get(), kTlRunMagic, sizeof kTlRunMagic);
    ok = ok && write_pod(f.get(), static_cast<std::uint32_t>(run.rep));
    ok = ok && write_pod(f.get(), run.seed);
    ok = ok && write_pod(f.get(), run.interval_ns);
    const std::uint64_t row_count = cols > 0 ? run.data.size() / cols : 0;
    ok = ok && write_pod(f.get(), row_count);
    ok = ok && write_all(f.get(), run.data.data(),
                         row_count * cols * sizeof(std::uint64_t));
  }
  return io::finish_write(f.get(), ok, path, err);
}

std::optional<TimelineFile> read_timeline_file(const std::string& path,
                                               std::string* err) {
  io::FilePtr f = io::open_file(path, "rb", err);
  if (!f) return std::nullopt;
  TimelineFile out;
  if (!io::read_header(f.get(), kTimelineFileMagic, path, "timeline",
                       out.meta.num_processes, out.meta.algo, err)) {
    return std::nullopt;
  }
  std::uint32_t num_cols = 0;
  if (!read_pod(f.get(), num_cols) || num_cols == 0 || num_cols > 1024) {
    set_error(err, path + ": corrupt schema block");
    return std::nullopt;
  }
  out.meta.columns.resize(num_cols);
  for (TimelineColumnMeta& c : out.meta.columns) {
    std::uint8_t value = 0;
    std::uint16_t name_len = 0;
    if (!read_pod(f.get(), value) || !read_pod(f.get(), name_len) ||
        name_len > 256) {
      set_error(err, path + ": corrupt column descriptor");
      return std::nullopt;
    }
    c.value = static_cast<TimelineValue>(value);
    c.name.resize(name_len);
    if (!read_all(f.get(), c.name.data(), name_len)) {
      set_error(err, path + ": truncated column name");
      return std::nullopt;
    }
  }
  for (;;) {
    char run_magic[4];
    std::size_t got = std::fread(run_magic, 1, sizeof run_magic, f.get());
    if (got == 0) break;  // clean EOF
    if (got != sizeof run_magic ||
        std::memcmp(run_magic, kTlRunMagic, sizeof kTlRunMagic) != 0) {
      set_error(err, path + ": corrupt run section");
      return std::nullopt;
    }
    TimelineRun run;
    std::uint32_t rep = 0;
    std::uint64_t row_count = 0;
    if (!read_pod(f.get(), rep) || !read_pod(f.get(), run.seed) ||
        !read_pod(f.get(), run.interval_ns) || !read_pod(f.get(), row_count)) {
      set_error(err, path + ": truncated run header");
      return std::nullopt;
    }
    run.rep = static_cast<int>(rep);
    if (row_count > (1ull << 30)) {
      set_error(err, path + ": implausible row count");
      return std::nullopt;
    }
    run.data.resize(row_count * num_cols);
    if (!read_all(f.get(), run.data.data(),
                  row_count * num_cols * sizeof(std::uint64_t))) {
      set_error(err, path + ": truncated rows");
      return std::nullopt;
    }
    out.runs.push_back(std::move(run));
  }
  return out;
}

}  // namespace mck::obs
