// Deterministic flight recorder: typed trace records appended through a
// Tracer facade.
//
// Invariants (see DESIGN.md "Flight recorder"):
//  * Zero overhead when off. Every instrumentation site is guarded by a
//    single null-pointer (or mask-bit) test on a value that never changes
//    during a run — no record is built, no branch beyond the test, and
//    the steady state stays allocation-free (tests/hotpath_alloc_test).
//  * Deterministic output. Records carry *simulation* time only and are
//    appended in event-execution order; each replication owns a private
//    Tracer and the harness concatenates per-rep buffers in rep-index
//    order, so a trace file is byte-identical for any --jobs count.
//  * No allocation in steady state. Records land in chunked bump-pointer
//    buffers; a chunk allocation every kChunkRecords records is the only
//    cold spot, and chunk addresses are stable (no reallocation).
//
// This header is intentionally dependency-light (sim/time.hpp and
// util/types.hpp only, both header-only) so the simulator and the
// checkpoint substrate can include it without a library cycle. It also
// holds the record conventions every reader shares: the raw-byte mirrors
// of the MsgKind/CkptKind `sub` discriminators and their names, and the
// initiation label. File I/O, the record formatter (format_record) and
// derived metrics live in the mck_obs library (trace_io.hpp, diff.hpp,
// round_metrics.hpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "util/types.hpp"

namespace mck::obs {

/// Every instrumentation point in the tree. The `sub`/`aux`/`arg` fields
/// of a TraceRecord are kind-specific; the conventions are documented per
/// enumerator and rendered by obs::format_record (diff.hpp).
enum class TraceKind : std::uint8_t {
  // ---- simulator -----------------------------------------------------
  kEventFire = 0,   // pid=-1  arg0=seq  arg1=slot
  kEventCancel,     // pid=-1  arg0=slot arg1=generation
  kQueueDepth,      // pid=-1  arg0=live pending  arg1=heap size (sampled)
  // ---- message path (protocol base + transports) ---------------------
  // kMsgSend / kMsgDeliver pack an audit stamp into arg1's high 32 bits:
  // the sender's (receiver's) event-log index of the message + 1 for
  // computation messages, 0 for system messages (which are not dependency
  // events). Low 32 bits carry the byte size. See pack_msg_stamp below.
  kMsgSend,         // sub=MsgKind  aux=dst (kBroadcastDst)  arg0=id
                    //   arg1=(event+1)<<32 | bytes
  kMsgDeliver,      // sub=MsgKind  aux=src  arg0=id  arg1=(event+1)<<32 | bytes
  kMsgRetry,        // lan link-layer retransmission: aux=dst  arg0=id
                    //   arg1=extra delay (ns)<<8 | min(#retries, 255)
  kMsgBuffered,     // MSS buffers for a disconnected MH: sub=MsgKind  arg0=id
                    //   aux=MSS  arg1=buffer depth after the append
  kMsgForwarded,    // handoff reroute: aux=forwarding MSS  arg0=id
                    //   arg1=MSS the message was originally routed to
  // ---- mobility ------------------------------------------------------
  kHandoff,         // arg0=from MSS  arg1=to MSS
  kDisconnect,      // voluntary disconnection of pid
  kReconnect,       // arg0=MSS reconnected at
  // ---- blocking ------------------------------------------------------
  kBlock,           // pid suspends its computation
  kUnblock,         // arg0=blocked duration (ns)
  // ---- checkpoint rounds ---------------------------------------------
  kInitStart,       // pid=initiator  arg0=initiation id
  kRoundCommit,     // pid=initiator  arg0=initiation id  arg1=latency (ns)
  kRoundAbort,      // pid=initiator  arg0=initiation id  arg1=latency (ns)
  // ---- checkpoint lifecycle (CheckpointStore) ------------------------
  kCkptTaken,       // sub=CkptKind  arg0=initiation  arg1=(ref<<32)|csn
  kCkptPromoted,    // mutable/disconnect -> tentative: sub=old CkptKind
                    //   arg0=initiation  arg1=ref
  kCkptPermanent,   // arg0=initiation  arg1=ref
  kCkptDiscarded,   // sub=CkptKind  arg0=initiation  arg1=ref
  // ---- weight-based termination (Section 3.3.4) ----------------------
  kWeightSplit,     // aux=dst of the request  arg0=initiation
                    //   arg1=bit pattern of the sent weight (double)
  kWeightReturn,    // pid=initiator  aux=replier  arg0=initiation
                    //   arg1=bit pattern of the accumulated weight (double)
  // ---- audit companion records ---------------------------------------
  kCkptCursor,      // event-log cursor of a just-taken checkpoint:
                    //   sub=CkptKind  arg0=ref  arg1=event cursor
  // ---- recorder self-reports -----------------------------------------
  kTruncated,       // record cap hit, tail dropped: pid=-1
                    //   arg0=records dropped  arg1=at of first dropped (ns)
                    //   at=time of the last dropped record
  kCount
};

inline constexpr int kTraceKindCount = static_cast<int>(TraceKind::kCount);
static_assert(kTraceKindCount <= 64, "kind mask is a 64-bit word");

/// aux value of a kMsgSend record for a broadcast (one record per
/// broadcast, mirroring RunStats::msgs_sent accounting).
inline constexpr std::uint16_t kBroadcastDst = 0xFFFF;

inline const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kEventFire: return "event-fire";
    case TraceKind::kEventCancel: return "event-cancel";
    case TraceKind::kQueueDepth: return "queue-depth";
    case TraceKind::kMsgSend: return "msg-send";
    case TraceKind::kMsgDeliver: return "msg-deliver";
    case TraceKind::kMsgRetry: return "msg-retry";
    case TraceKind::kMsgBuffered: return "msg-buffered";
    case TraceKind::kMsgForwarded: return "msg-forwarded";
    case TraceKind::kHandoff: return "handoff";
    case TraceKind::kDisconnect: return "disconnect";
    case TraceKind::kReconnect: return "reconnect";
    case TraceKind::kBlock: return "block";
    case TraceKind::kUnblock: return "unblock";
    case TraceKind::kInitStart: return "init-start";
    case TraceKind::kRoundCommit: return "round-commit";
    case TraceKind::kRoundAbort: return "round-abort";
    case TraceKind::kCkptTaken: return "ckpt-taken";
    case TraceKind::kCkptPromoted: return "ckpt-promoted";
    case TraceKind::kCkptPermanent: return "ckpt-permanent";
    case TraceKind::kCkptDiscarded: return "ckpt-discarded";
    case TraceKind::kWeightSplit: return "weight-split";
    case TraceKind::kWeightReturn: return "weight-return";
    case TraceKind::kCkptCursor: return "ckpt-cursor";
    case TraceKind::kTruncated: return "truncated";
    case TraceKind::kCount: break;
  }
  return "?";
}

// ---- sub-byte discriminators -----------------------------------------
// Records store rt::MsgKind and ckpt::CkptKind as raw `sub` bytes. obs is
// the independent-witness layer and links neither rt nor ckpt, so it
// mirrors both enums here; rt/message.hpp and ckpt/store.hpp
// static_assert every value against the real enum.

/// rt::MsgKind as stored in `sub`.
enum RawMsgKind : std::uint8_t {
  kRawMsgComputation = 0,
  kRawMsgRequest,
  kRawMsgReply,
  kRawMsgCommit,
  kRawMsgAbort,
  kRawMsgMarker,
  kRawMsgControl,
  kRawMsgKindCount
};

/// ckpt::CkptKind as stored in `sub`.
enum RawCkptKind : std::uint8_t {
  kRawCkptInitial = 0,
  kRawCkptPermanent,
  kRawCkptTentative,
  kRawCkptMutable,
  kRawCkptDisconnect,
  kRawCkptKindCount
};

/// rt::to_string(MsgKind) of a raw `sub` byte; "?" out of range.
inline const char* msg_kind_name(std::uint8_t sub) {
  static constexpr const char* kNames[kRawMsgKindCount] = {
      "computation", "request", "reply", "commit", "abort", "marker",
      "control"};
  return sub < kRawMsgKindCount ? kNames[sub] : "?";
}

/// ckpt::to_string(CkptKind) of a raw `sub` byte; "?" out of range.
inline const char* ckpt_kind_name(std::uint8_t sub) {
  static constexpr const char* kNames[kRawCkptKindCount] = {
      "initial", "permanent", "tentative", "mutable", "disconnect"};
  return sub < kRawCkptKindCount ? kNames[sub] : "?";
}

/// "(P<pid>,<inum>)" for an initiation id, which packs the paper's
/// trigger (pid, inum) high/low (ckpt::make_initiation_id).
inline std::string initiation_label(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "(P%u,%u)",
                static_cast<unsigned>(id >> 32),
                static_cast<unsigned>(id & 0xffffffffu));
  return buf;
}

// ---- arg1 packing for the audit stamps -------------------------------
// kMsgSend / kMsgDeliver: high 32 bits carry the event-log index of the
// message at that endpoint, plus one (so 0 means "no stamp": a system
// message). Low 32 bits carry the message size in bytes.
inline constexpr std::uint64_t pack_msg_stamp(std::uint64_t event_plus1,
                                              std::uint64_t bytes) {
  return (event_plus1 << 32) | (bytes & 0xffffffffull);
}
inline constexpr std::uint64_t msg_stamp_of(std::uint64_t arg1) {
  return arg1 >> 32;
}
inline constexpr std::uint64_t msg_bytes_of(std::uint64_t arg1) {
  return arg1 & 0xffffffffull;
}

// kMsgRetry: high 56 bits carry the total extra delay the retransmissions
// added (ns); low 8 bits the retry count. Both fields saturate at their
// field maximum — an extra delay >= 2^56 ns would otherwise shift into the
// count byte and corrupt both fields on decode.
inline constexpr std::uint64_t kRetryExtraMax = (1ull << 56) - 1;

inline constexpr std::uint64_t pack_retry(sim::SimTime extra_ns,
                                          std::uint64_t retries) {
  std::uint64_t extra = static_cast<std::uint64_t>(extra_ns);
  if (extra > kRetryExtraMax) extra = kRetryExtraMax;
  return (extra << 8) | (retries > 255 ? 255 : retries);
}
inline constexpr std::uint64_t retry_count_of(std::uint64_t arg1) {
  return arg1 & 0xff;
}
inline constexpr sim::SimTime retry_extra_of(std::uint64_t arg1) {
  return static_cast<sim::SimTime>(arg1 >> 8);
}

/// One trace record: 32 bytes, trivially copyable — written to disk raw
/// (trace_io.hpp) and memcmp-comparable for determinism tests.
struct TraceRecord {
  sim::SimTime at;      // simulation time (ns)
  std::uint64_t arg0;
  std::uint64_t arg1;
  std::int32_t pid;     // process, or -1 for simulator-global records
  std::uint8_t kind;    // TraceKind
  std::uint8_t sub;     // kind-specific discriminator (MsgKind, CkptKind)
  std::uint16_t aux;    // kind-specific small operand (peer pid, MSS id)
};
static_assert(sizeof(TraceRecord) == 32, "records are written to disk raw");
static_assert(std::is_trivially_copyable_v<TraceRecord>);

/// Bump-pointer recorder. Off (the default) it records nothing; callers
/// additionally keep their Tracer pointer null when tracing is off, so
/// the hot path pays one predictable branch and nothing else.
class Tracer {
 public:
  static constexpr std::uint64_t kAllKinds =
      (kTraceKindCount == 64) ? ~0ull : (1ull << kTraceKindCount) - 1;

  static constexpr std::uint64_t mask_of(TraceKind k) {
    return 1ull << static_cast<int>(k);
  }

  /// Turns recording on for the kinds in `mask`. Pre-allocates the first
  /// chunk so the first record in the run is as cheap as the rest.
  void enable(std::uint64_t mask = kAllKinds) {
    mask_ = mask;
    if (chunks_.empty()) grow();
  }
  void disable() { mask_ = 0; }
  bool enabled(TraceKind k) const { return (mask_ & mask_of(k)) != 0; }
  std::uint64_t mask() const { return mask_; }

  /// Caps the buffer at `cap` records (0 = unlimited, the default). Past
  /// the cap, records are counted and dropped instead of growing the
  /// chunk list, and take_records() appends one final kTruncated marker
  /// carrying the drop count — so tracing a 100k+-host run degrades to an
  /// honest, bounded prefix instead of an OOM kill. Downstream consumers
  /// (mcktrace stats, mckaudit) must surface the marker: a truncated rep
  /// cannot be certified.
  void set_record_cap(std::uint64_t cap) { cap_ = cap; }
  std::uint64_t record_cap() const { return cap_; }
  bool truncated() const { return dropped_ > 0; }
  std::uint64_t dropped() const { return dropped_; }

  void record(TraceKind kind, sim::SimTime at, std::int32_t pid,
              std::uint8_t sub, std::uint16_t aux, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0) {
    if ((mask_ & mask_of(kind)) == 0) return;
    if (cap_ != 0 && count_ >= cap_) {
      if (dropped_ == 0) first_dropped_at_ = at;
      last_dropped_at_ = at;
      ++dropped_;
      return;
    }
    if (fill_ == kChunkRecords) grow();
    TraceRecord& r = cur_[fill_++];
    r.at = at;
    r.arg0 = arg0;
    r.arg1 = arg1;
    r.pid = pid;
    r.kind = static_cast<std::uint8_t>(kind);
    r.sub = sub;
    r.aux = aux;
    last_at_ = at;
    ++count_;
  }

  std::uint64_t size() const { return count_; }

  /// Simulation time of the most recent record (kTimeZero before any).
  /// Lets sites without a clock of their own (CheckpointStore::discard)
  /// stamp records monotonically.
  sim::SimTime last_at() const { return last_at_; }

  /// Copies every record out, in append order, and resets the buffers.
  /// A capped tracer that dropped records appends one kTruncated marker
  /// stamped with the drop count and the dropped time range.
  std::vector<TraceRecord> take_records() {
    std::vector<TraceRecord> out;
    out.reserve(static_cast<std::size_t>(count_) + (dropped_ > 0 ? 1 : 0));
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      std::size_t n = c + 1 == chunks_.size() ? fill_ : kChunkRecords;
      const TraceRecord* p = chunks_[c].get();
      out.insert(out.end(), p, p + n);
    }
    if (dropped_ > 0) {
      TraceRecord r{};
      r.at = last_dropped_at_;
      r.arg0 = dropped_;
      r.arg1 = static_cast<std::uint64_t>(first_dropped_at_);
      r.pid = -1;
      r.kind = static_cast<std::uint8_t>(TraceKind::kTruncated);
      out.push_back(r);
    }
    chunks_.clear();
    cur_ = nullptr;
    fill_ = kChunkRecords;  // forces grow() on the next record
    count_ = 0;
    dropped_ = 0;
    first_dropped_at_ = sim::kTimeZero;
    last_dropped_at_ = sim::kTimeZero;
    return out;
  }

 private:
  static constexpr std::size_t kChunkRecords = 4096;  // 128 KB per chunk

  void grow() {
    chunks_.push_back(std::make_unique<TraceRecord[]>(kChunkRecords));
    cur_ = chunks_.back().get();
    fill_ = 0;
  }

  std::uint64_t mask_ = 0;
  TraceRecord* cur_ = nullptr;
  std::size_t fill_ = kChunkRecords;
  std::uint64_t count_ = 0;
  std::uint64_t cap_ = 0;  // 0 = unlimited
  std::uint64_t dropped_ = 0;
  sim::SimTime first_dropped_at_ = sim::kTimeZero;
  sim::SimTime last_dropped_at_ = sim::kTimeZero;
  sim::SimTime last_at_ = sim::kTimeZero;
  std::vector<std::unique_ptr<TraceRecord[]>> chunks_;
};

}  // namespace mck::obs
