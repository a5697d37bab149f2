// Checkpoint records and their lifecycle.
//
// The paper's taxonomy (Sections 2.2, 3.1):
//   - permanent:  committed state on stable storage at an MSS,
//   - tentative:  on stable storage, awaiting commit/abort,
//   - mutable:    saved locally (MH main memory / local disk), may later be
//                 turned into a tentative checkpoint or discarded,
//   - disconnect: checkpoint left at the MSS when an MH voluntarily
//                 disconnects (Section 2.2),
//   - initial:    the implicit state before any event (csn 0).
//
// The store keeps only the checkpoints that exist now (Section 6): a
// discarded checkpoint leaves it, and with auto-GC a new permanent erases
// the one it supersedes. What the queries need of the past is folded into
// per-process state as it happens. Tests that need the whole history
// rebuild it from the trace (tests/full_history.hpp, HistoryStore).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ckpt/event_log.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace mck::ckpt {

enum class CkptKind : std::uint8_t {
  kInitial,
  kPermanent,
  kTentative,
  kMutable,
  kDisconnect,
};

// Trace records carry CkptKind as a raw `sub` byte; obs/trace.hpp
// mirrors it (obs must not depend on ckpt).
static_assert(static_cast<int>(CkptKind::kInitial) == obs::kRawCkptInitial &&
                  static_cast<int>(CkptKind::kPermanent) ==
                      obs::kRawCkptPermanent &&
                  static_cast<int>(CkptKind::kTentative) ==
                      obs::kRawCkptTentative &&
                  static_cast<int>(CkptKind::kMutable) ==
                      obs::kRawCkptMutable &&
                  static_cast<int>(CkptKind::kDisconnect) ==
                      obs::kRawCkptDisconnect &&
                  static_cast<int>(CkptKind::kDisconnect) + 1 ==
                      obs::kRawCkptKindCount,
              "update the CkptKind mirror in obs/trace.hpp");

inline const char* to_string(CkptKind k) {
  switch (k) {
    case CkptKind::kInitial: return "initial";
    case CkptKind::kPermanent: return "permanent";
    case CkptKind::kTentative: return "tentative";
    case CkptKind::kMutable: return "mutable";
    case CkptKind::kDisconnect: return "disconnect";
  }
  return "?";
}

/// Identifier of a checkpointing initiation: the paper's trigger tuple
/// (pid, inum) packed into 64 bits. 0 means "no initiation".
using InitiationId = std::uint64_t;

inline InitiationId make_initiation_id(ProcessId pid, Csn inum) {
  return (static_cast<InitiationId>(static_cast<std::uint32_t>(pid)) << 32) |
         inum;
}
inline ProcessId initiation_pid(InitiationId id) {
  return static_cast<ProcessId>(id >> 32);
}
inline Csn initiation_inum(InitiationId id) {
  return static_cast<Csn>(id & 0xffffffffu);
}

using CkptRef = std::uint32_t;
inline constexpr CkptRef kNoCkpt = UINT32_MAX;

struct CheckpointRecord {
  CkptRef ref = kNoCkpt;
  ProcessId pid = kInvalidProcess;
  Csn csn = 0;
  CkptKind kind = CkptKind::kInitial;
  std::uint64_t event_cursor = 0;  // events of pid with index < cursor are saved
  InitiationId initiation = 0;     // trigger that caused it (0: local decision)
  sim::SimTime taken_at = 0;
};

class CheckpointStore {
 public:
  /// Every process starts at its implicit initial checkpoint (ref = pid,
  /// csn 0, covering no events); refs of taken checkpoints count up from
  /// num_processes.
  explicit CheckpointStore(int num_processes)
      : procs_(static_cast<std::size_t>(num_processes)),
        next_ref_(static_cast<CkptRef>(num_processes)) {
    census_[static_cast<int>(CkptKind::kInitial)] =
        static_cast<std::size_t>(num_processes);
  }

  /// Attaches a flight recorder (null = off): every take / promote /
  /// make_permanent / discard is traced, which covers the checkpoint
  /// lifecycle of all eight protocols from one place.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Takes a tentative, mutable or disconnect checkpoint of `pid`. A
  /// process takes its checkpoints in time order.
  CkptRef take(ProcessId pid, CkptKind kind, Csn csn, InitiationId initiation,
               std::uint64_t event_cursor, sim::SimTime at) {
    MCK_ASSERT(kind != CkptKind::kInitial && kind != CkptKind::kPermanent);
    Proc& p = proc(pid);
    MCK_ASSERT(p.newest == kNoCkpt || node(p.newest).rec.taken_at <= at);
    const CkptRef ref = next_ref_++;
    Node& n = live_[ref];
    n.rec = {ref, pid, csn, kind, event_cursor, initiation, at};
    n.older = p.newest;
    p.newest = ref;
    ++census_[static_cast<int>(kind)];
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kCkptTaken, at, pid,
                      static_cast<std::uint8_t>(kind), 0, initiation,
                      (static_cast<std::uint64_t>(ref) << 32) | csn);
      // Companion record: the event-log cursor is the protocol-free
      // definition of "which events this checkpoint covers" — it is what
      // the offline auditor replays Theorem 1 against.
      tracer_->record(obs::TraceKind::kCkptCursor, at, pid,
                      static_cast<std::uint8_t>(kind), 0,
                      static_cast<std::uint64_t>(ref), event_cursor);
    }
    if (kind == CkptKind::kTentative) {
      ++p.stable;
      note_occupancy(pid);
    }
    return ref;
  }

  /// A live checkpoint (taken, and not yet discarded or reclaimed).
  const CheckpointRecord& get(CkptRef ref) const { return node(ref).rec; }

  /// Mutable or disconnect checkpoint is flushed to stable storage.
  void promote_to_tentative(CkptRef ref, InitiationId initiation,
                            sim::SimTime at) {
    CheckpointRecord& rec = node(ref).rec;
    MCK_ASSERT(rec.kind == CkptKind::kMutable ||
               rec.kind == CkptKind::kDisconnect);
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kCkptPromoted, at, rec.pid,
                      static_cast<std::uint8_t>(rec.kind), 0, initiation, ref);
    }
    --census_[static_cast<int>(rec.kind)];
    ++census_[static_cast<int>(CkptKind::kTentative)];
    ++proc(rec.pid).stable;
    rec.kind = CkptKind::kTentative;
    rec.initiation = initiation;
  }

  /// Tentative checkpoint `ref` becomes permanent. With auto-GC on, the
  /// permanent it supersedes leaves the store.
  void make_permanent(CkptRef ref, sim::SimTime at) {
    CheckpointRecord& rec = node(ref).rec;
    MCK_ASSERT(rec.kind == CkptKind::kTentative);
    --census_[static_cast<int>(CkptKind::kTentative)];
    ++census_[static_cast<int>(CkptKind::kPermanent)];
    rec.kind = CkptKind::kPermanent;
    Proc& p = proc(rec.pid);
    p.permanent_cursor = std::max(p.permanent_cursor, rec.event_cursor);
    p.permanent_taken_at = std::max(p.permanent_taken_at, rec.taken_at);
    last_permanent_at_ = at;
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kCkptPermanent, at, rec.pid, 0, 0,
                      rec.initiation, ref);
    }
    const ProcessId pid = rec.pid;  // `rec` may move when GC erases
    if (auto_gc_) garbage_collect(pid, ref);
    note_occupancy(pid);
  }

  /// Enables the coordinated-checkpointing storage discipline: a newly
  /// permanent checkpoint reclaims its predecessors. Uncoordinated
  /// protocols leave this off — they must keep every checkpoint for the
  /// rollback search, which is exactly the storage overhead Section 6
  /// criticises.
  void set_auto_gc(bool on) { auto_gc_ = on; }
  bool auto_gc() const { return auto_gc_; }

  /// Stable-storage checkpoints of `pid` held now (tentative or
  /// permanent). The paper's Section 6 claim: for coordinated
  /// checkpointing this never exceeds 2 — one permanent plus one
  /// in-flight tentative.
  std::size_t stable_live(ProcessId pid) const { return proc(pid).stable; }

  /// Highest simultaneous stable-storage occupancy observed for any
  /// process (updated whenever a tentative is taken or a checkpoint
  /// becomes permanent).
  std::size_t peak_stable_occupancy() const { return peak_occupancy_; }

  /// Drops a tentative, mutable or disconnect checkpoint.
  void discard(CkptRef ref) {
    const CheckpointRecord& rec = node(ref).rec;
    MCK_ASSERT(rec.kind != CkptKind::kPermanent);
    if (tracer_ != nullptr) {
      // discard() has no time parameter; the tracer's last stamped time is
      // the current event's time (monotone), so the record stays ordered.
      tracer_->record(obs::TraceKind::kCkptDiscarded, tracer_->last_at(),
                      rec.pid, static_cast<std::uint8_t>(rec.kind), 0,
                      rec.initiation, ref);
    }
    remove(ref);
  }

  /// Calls fn(record) for every live checkpoint of `pid`, newest first
  /// (the implicit initial checkpoint excluded).
  template <typename Fn>
  void for_each_live(ProcessId pid, Fn&& fn) const {
    for (CkptRef r = proc(pid).newest; r != kNoCkpt; r = node(r).older) {
      fn(node(r).rec);
    }
  }

  /// Event cursor of the newest permanent checkpoint of `pid`: the
  /// largest cursor ever made permanent, 0 for the initial checkpoint.
  std::uint64_t permanent_cursor(ProcessId pid) const {
    return proc(pid).permanent_cursor;
  }

  /// When the latest make_permanent happened (0 if none yet).
  sim::SimTime last_permanent_at() const { return last_permanent_at_; }

  /// When process `pid` last took a checkpoint headed for stable storage
  /// (tentative or already permanent); 0 if never. Used by the paper's
  /// checkpoint-interval rule: "If a process takes a checkpoint before its
  /// scheduled checkpoint time, the next checkpoint will be scheduled 900s
  /// after that time."
  sim::SimTime last_stable_taken_at(ProcessId pid) const {
    const Proc& p = proc(pid);
    // Live records run newest first, so the first tentative is the newest
    // one, and none past a record no newer than the newest permanent
    // counts.
    for (CkptRef r = p.newest; r != kNoCkpt;) {
      const Node& n = node(r);
      if (n.rec.taken_at <= p.permanent_taken_at) break;
      if (n.rec.kind == CkptKind::kTentative) return n.rec.taken_at;
      r = n.older;
    }
    return p.permanent_taken_at;
  }

  /// Number of live checkpoints of `kind`; kInitial counts every process,
  /// whose initial checkpoint is never reclaimed.
  std::size_t count(CkptKind kind) const {
    return census_[static_cast<int>(kind)];
  }

 private:
  struct Node {
    CheckpointRecord rec;
    CkptRef older = kNoCkpt;  // next live record of the same process
  };

  struct Proc {
    std::uint64_t permanent_cursor = 0;
    sim::SimTime permanent_taken_at = 0;  // newest among permanents ever made
    CkptRef newest = kNoCkpt;             // head of the live list
    std::uint32_t stable = 0;             // live tentatives and permanents
  };

  Proc& proc(ProcessId pid) { return procs_[static_cast<std::size_t>(pid)]; }
  const Proc& proc(ProcessId pid) const {
    return procs_[static_cast<std::size_t>(pid)];
  }
  const Node& node(CkptRef ref) const {
    const Node* n = live_.find(ref);
    MCK_ASSERT_MSG(n != nullptr, "checkpoint is not live");
    return *n;
  }
  Node& node(CkptRef ref) {
    return const_cast<Node&>(std::as_const(*this).node(ref));
  }

  /// A new permanent checkpoint supersedes older permanents of the same
  /// process: their stable storage is reclaimed (Section 3.3.4's garbage
  /// collection; Section 6: "each process needs to store only one
  /// permanent checkpoint").
  void garbage_collect(ProcessId pid, CkptRef keep) {
    for (CkptRef r = proc(pid).newest; r != kNoCkpt;) {
      const Node& n = node(r);
      const CkptRef older = n.older;  // `n` goes with remove(r)
      if (r != keep && n.rec.kind == CkptKind::kPermanent) remove(r);
      r = older;
    }
  }

  /// Unlinks `ref` from its process's live list and erases it.
  void remove(CkptRef ref) {
    const Node& n = node(ref);
    Proc& p = proc(n.rec.pid);
    --census_[static_cast<int>(n.rec.kind)];
    if (n.rec.kind == CkptKind::kTentative ||
        n.rec.kind == CkptKind::kPermanent) {
      --p.stable;
    }
    if (p.newest == ref) {
      p.newest = n.older;
    } else {
      CkptRef r = p.newest;
      while (node(r).older != ref) r = node(r).older;
      node(r).older = n.older;
    }
    live_.erase(ref);
  }

  void note_occupancy(ProcessId pid) {
    peak_occupancy_ = std::max(peak_occupancy_, stable_live(pid));
  }

  util::FlatMap<Node> live_;  // ref -> live record
  std::vector<Proc> procs_;
  CkptRef next_ref_;
  std::size_t census_[obs::kRawCkptKindCount] = {};
  sim::SimTime last_permanent_at_ = 0;
  std::size_t peak_occupancy_ = 0;
  bool auto_gc_ = false;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace mck::ckpt
