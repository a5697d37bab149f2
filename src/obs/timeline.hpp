// Deterministic run-health timeline: periodic columnar snapshots of
// system gauges, driven by the simulated clock (never the wall clock).
//
// The timeline is the telemetry tier between the per-event flight
// recorder (obs::Tracer — exact but O(events) memory) and the final CSV
// row (one aggregate, no time axis): every `interval` of simulated time
// the sampler appends one fixed-width row of gauges — in-flight and
// buffered messages, blocked processes, outstanding initiator weight,
// live checkpoint counts by kind, disconnected MHs, per-MSS buffer-depth
// aggregates, event-queue depth and cumulative traffic by class. A row
// is O(columns) to record, independent of n, so a 1M-host run produces
// the same few-KiB-per-sim-minute stream as a 16-host run.
//
// Determinism contract: rows are a pure function of (config, seed), so
// timeline bytes are identical for any --jobs count. Instrumented layers
// update gauges through a TimelineCounters struct behind the same
// branch-on-null discipline as obs::Tracer; sampling itself hooks the
// simulator's event loop *before* an event fires, so row k records the
// state after every event with at < k*interval and nothing later — no
// scheduled sampling events exist that could perturb event ordering or
// goldens.
//
// File format MCKTL02 (little-endian):
//   file header:  magic "MCKTL02\0" (8 B), u32 num_processes,
//                 u32 algo name length + name bytes (obs/file_io.hpp)
//   schema:       u32 column count, then per column: u8 TimelineValue,
//                 u16 name length + name bytes
//   per run:      magic "TLR." (4 B), u32 rep, u64 seed, u64 interval_ns,
//                 u64 row count, row count * columns * u64 cells
// Readers consume the schema, so columns can be appended without breaking
// tools. Any other magic, including the version-1 layout's, is rejected.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace mck::obs {

// ---------------------------------------------------------------------------
// Column schema
// ---------------------------------------------------------------------------

/// How a column's 8-byte cell is interpreted when rendering.
enum class TimelineValue : std::uint8_t {
  kU64 = 0,  // unsigned counter / gauge
  kI64 = 1,  // signed gauge stored as two's-complement
  kF64 = 2,  // IEEE double stored by bit pattern
};

struct TimelineColumn {
  const char* name;
  TimelineValue value;
};

// Column indices, in wire order. A file carries its own schema and the
// reader takes columns from it, so a column can be added or dropped
// without breaking old files; these constants index the rows of the
// running build only.
enum : int {
  kColTime = 0,             // sim time of the tick, ns
  kColEventsExecuted = 1,   // cumulative events fired (engine)
  kColQueueDepth = 2,       // live pending events
  kColEventSlots = 3,       // slot-pool high-water mark (256/chunk)
  kColInFlight = 4,         // messages on the wire (i64 gauge)
  kColBufferedNow = 5,      // messages parked at MSSs (i64 gauge)
  kColBlockedProcs = 6,     // processes blocked by the protocol
  kColActiveInits = 7,      // open checkpointing rounds
  kColOutstandingWeight = 8,  // initiator weight not yet returned (f64)
  kColCkptMutable = 9,      // live checkpoints by kind (store census)
  kColCkptTentative = 10,
  kColCkptPermanent = 11,
  kColCkptDisconnect = 12,
  kColDisconnectedMhs = 13,
  kColMssBufMin = 14,       // per-MSS buffer depth aggregates
  kColMssBufMax = 15,
  kColMssBufSum = 16,
  kColMssCount = 17,        // MSSs contributing to the aggregates
  kColMsgsSent = 18,        // cumulative totals (pulled from RunStats)
  kColDeliveries = 19,
  kColBytesComp = 20,       // computation-message payload bytes
  kColBytesSys = 21,        // system-message payload bytes
  kColWireBytesComp = 22,   // honest wire bytes (0 unless recorded)
  kColWireBytesSys = 23,
  kColBufferedTotal = 24,   // cumulative MSS buffer arrivals
  kColForwardedTotal = 25,  // cumulative handoff reroutes
  kTimelineNumColumns = 26,
};

/// The built-in schema, indexed by the kCol* constants above.
const TimelineColumn* timeline_columns();

// ---------------------------------------------------------------------------
// TimelineCounters — the gauges the instrumented layers push into.
// ---------------------------------------------------------------------------

/// Shared gauge block. Every instrumented owner (transports, protocol
/// layer, coordination tracker) holds a pointer to one
/// of these — nullptr when the timeline is off — and bumps the gauge at
/// the state transition it owns. All updates are O(1).
struct TimelineCounters {
  std::int64_t in_flight = 0;      // transport: stamped, not yet consumed
  std::int64_t buffered_now = 0;   // cellular: parked for a disconnected MH
  std::int64_t blocked = 0;        // protocol: block()/unblock()
  std::int64_t active_inits = 0;   // tracker: open rounds
  double outstanding_weight = 0;   // cao-singhal: weight in flight
  std::int64_t disconnected = 0;   // cellular: MHs currently disconnected
  // Per-MSS buffer depths, indexed by MssId. LAN: empty.
  std::vector<std::int64_t> mss_depth;
};

// ---------------------------------------------------------------------------
// TimelineRun — the sampled rows of one replication.
// ---------------------------------------------------------------------------

struct TimelineRun {
  int rep = 0;
  std::uint64_t seed = 0;
  std::uint64_t interval_ns = 0;
  // Row-major cells, kTimelineNumColumns per row.
  std::vector<std::uint64_t> data;
  // Post-quiescence state of every column (time cell unused). Held in
  // memory only: MCKTL02 does not persist it.
  std::vector<std::uint64_t> final_row;

  std::size_t rows() const { return data.size() / kTimelineNumColumns; }
  const std::uint64_t* row(std::size_t k) const {
    return data.data() + k * kTimelineNumColumns;
  }
};

// ---------------------------------------------------------------------------
// TimelineSampler
// ---------------------------------------------------------------------------

/// Samples the gauges every `interval` of simulated time. The simulator
/// calls `sample_due()` from its event loop when the next event's time
/// has reached `next_due()` — a single compare per event when enabled,
/// a single pointer test when not attached at all.
class TimelineSampler {
 public:
  /// Cumulative-counter sources sampled at each tick (RunStats totals,
  /// transport counters). The function pointer + context
  /// shape keeps this header free of harness/rt dependencies; the
  /// harness registers the accessors.
  struct PullSource {
    int col = 0;
    std::uint64_t (*fn)(const void*) = nullptr;
    const void* ctx = nullptr;
  };

  /// Arms the sampler. `mss_count` gauges sized into the counter block
  /// (0 for LAN).
  void configure(sim::SimTime interval, int mss_count = 0);

  bool enabled() const { return interval_ > 0; }
  sim::SimTime interval() const { return interval_; }

  /// Time of the next tick, kTimeNever when disarmed — keeps the event
  /// loop's check to one compare.
  sim::SimTime next_due() const { return next_due_; }

  /// Registers a counter or gauge to be read at every tick.
  void add_pull(int col, std::uint64_t (*fn)(const void*), const void* ctx);

  /// Pre-sizes the row storage (rows, not cells) so steady-state
  /// sampling stays allocation-free.
  void reserve_rows(std::size_t rows);

  TimelineCounters* counters() { return &counters_; }

  /// Emits every tick with time <= `at`. Called by the simulator before
  /// executing the event at `at`, so each row records the state after
  /// all strictly-earlier events. `live`, `slots`, `executed` are the
  /// engine gauges of the owning simulator.
  void sample_due(sim::SimTime at, std::uint64_t live, std::uint64_t slots,
                  std::uint64_t executed) {
    while (next_due_ <= at) {
      emit_row(next_due_, live, slots, executed);
      next_due_ += interval_;
    }
  }

  /// Captures the post-quiescence state into the run's final_row. Call
  /// after the simulation drains, before take_run().
  void finalize(std::uint64_t live, std::uint64_t slots,
                std::uint64_t executed);

  /// Moves the sampled rows out, stamped with `seed`; resets the sampler
  /// for reuse is NOT supported — one run per sampler.
  TimelineRun take_run(std::uint64_t seed);

 private:
  void emit_row(sim::SimTime at, std::uint64_t live, std::uint64_t slots,
                std::uint64_t executed);
  void fill_row(std::uint64_t* row, sim::SimTime at, std::uint64_t live,
                std::uint64_t slots, std::uint64_t executed) const;

  sim::SimTime interval_ = 0;
  sim::SimTime next_due_ = sim::kTimeNever;
  TimelineCounters counters_;
  std::vector<PullSource> pulls_;
  std::vector<std::uint64_t> data_;
  std::vector<std::uint64_t> final_row_;
};

// ---------------------------------------------------------------------------
// MCKTL02 file I/O
// ---------------------------------------------------------------------------

/// The file magic, "MCKTL02\0".
inline constexpr char kTimelineFileMagic[8] = {'M', 'C', 'K', 'T',
                                               'L', '0', '2', '\0'};

struct TimelineColumnMeta {
  std::string name;
  TimelineValue value = TimelineValue::kU64;
};

struct TimelineFileMeta {
  int num_processes = 0;
  std::string algo;
  std::vector<TimelineColumnMeta> columns;
};

struct TimelineFile {
  TimelineFileMeta meta;
  std::vector<TimelineRun> runs;
};

/// Built-in schema as file metadata (the writer's column block).
std::vector<TimelineColumnMeta> builtin_timeline_schema();

/// Writes `runs` to `path` in MCKTL02 format. Returns false and sets
/// *err on I/O failure.
bool write_timeline_file(const std::string& path, const TimelineFileMeta& meta,
                         const std::vector<TimelineRun>& runs,
                         std::string* err);

/// Reads an MCKTL02 file; nullopt + *err on malformed input (bad magic,
/// truncated header, implausible counts).
std::optional<TimelineFile> read_timeline_file(const std::string& path,
                                               std::string* err);

// ---------------------------------------------------------------------------
// Cell interpretation helpers
// ---------------------------------------------------------------------------

inline std::uint64_t timeline_bits_i64(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}
inline std::int64_t timeline_i64(std::uint64_t bits) {
  return static_cast<std::int64_t>(bits);
}
inline std::uint64_t timeline_bits_f64(double v) {
  return std::bit_cast<std::uint64_t>(v);
}
inline double timeline_f64(std::uint64_t bits) {
  return std::bit_cast<double>(bits);
}

/// One cell as text: %llu, %lld or %.17g by its column's value type.
std::string timeline_cell_text(TimelineValue v, std::uint64_t bits);

}  // namespace mck::obs
