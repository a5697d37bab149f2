// Full-history references for tests of the history-free event log and
// checkpoint store.
//
// A System's EventLog retires the records behind settled lines, so a test
// that needs the whole history (random lines anywhere in the past, a
// record-by-record comparison, the per-line reference checker) rebuilds it
// from the run's flight-recorder records. The computation kMsgSend and
// kMsgDeliver records stamp the send and receive event + 1
// (obs::msg_stamp_of), so the rebuilt log equals the one a never-retiring
// run would have kept. The same records carry the send and receive times,
// which the log does not keep; message_times reads them.
//
// The CheckpointStore keeps only the checkpoints that exist now.
// HistoryStore rebuilds every checkpoint ever taken from the
// checkpoint-lifecycle records and answers the queries the store answers,
// by walking that history. line_after and recover_coordinated_at replay
// the committed initiations to give the line at any point in the past.
#pragma once

#include <string>
#include <vector>

#include "ckpt/checker.hpp"
#include "ckpt/event_log.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/store.hpp"
#include "ckpt/tracker.hpp"
#include "obs/trace.hpp"

namespace mck::ckpt {

/// The trace kinds full_history reads.
inline constexpr std::uint64_t kFullHistoryKinds =
    obs::Tracer::mask_of(obs::TraceKind::kMsgSend) |
    obs::Tracer::mask_of(obs::TraceKind::kMsgDeliver);

/// The never-retired event log of one run of `num_processes` processes,
/// rebuilt from its records in append order.
EventLog full_history(const obs::TraceRecords& records,
                      int num_processes);

/// Simulation times of one computation message's send and receive.
struct MessageTimes {
  sim::SimTime sent_at = 0;
  sim::SimTime recv_at = 0;  // 0 while never received
};

/// The send and receive times of every computation message in `records`,
/// in send order: entry i belongs to full_history(records).messages()[i].
std::vector<MessageTimes> message_times(
    const obs::TraceRecords& records);

/// Empty if `live` (a log that retires) holds exactly the records of
/// `full` that it has not retired, in order and field for field; else the
/// first difference.
std::string live_log_mismatch(const EventLog& full, const EventLog& live);

/// Reference oracle: the per-line loop, one find_orphans and one
/// count_in_transit scan of the whole log per committed line.
CheckResult check_per_line(const EventLog& log,
                           const CoordinationTracker& tracker);

/// Empty if the two results are equal (orphans in order); else the first
/// difference.
std::string check_result_mismatch(const CheckResult& got,
                                  const CheckResult& want);

/// The line in effect after committed initiation `id`: the committed
/// initiations replayed in commit order, up to and including `id`.
Line line_after(const CoordinationTracker& tracker, int num_processes,
                InitiationId id);

/// Coordinated recovery at any time `t`: the line of the initiations
/// committed at or before `t`, and the events of `log` past it.
RecoveryOutcome recover_coordinated_at(const EventLog& log,
                                       const CoordinationTracker& tracker,
                                       sim::SimTime t);

/// The trace kinds HistoryStore reads.
inline constexpr std::uint64_t kHistoryStoreKinds =
    obs::Tracer::mask_of(obs::TraceKind::kCkptTaken) |
    obs::Tracer::mask_of(obs::TraceKind::kCkptCursor) |
    obs::Tracer::mask_of(obs::TraceKind::kCkptPromoted) |
    obs::Tracer::mask_of(obs::TraceKind::kCkptPermanent) |
    obs::Tracer::mask_of(obs::TraceKind::kCkptDiscarded);

/// Every checkpoint a run ever took, with its fate, rebuilt from the
/// run's checkpoint-lifecycle records; records may be fed in batches.
class HistoryStore {
 public:
  struct Entry {
    CheckpointRecord rec;
    bool discarded = false;
    bool promoted = false;           // taken mutable or disconnect
    sim::SimTime finalized_at = -1;  // when made permanent
    sim::SimTime gc_at = -1;         // when a newer permanent reclaimed it
  };

  /// `auto_gc` mirrors CheckpointStore::set_auto_gc.
  HistoryStore(int num_processes, bool auto_gc);

  void replay(const obs::TraceRecords& records);

  /// Every checkpoint by ref, the initial ones (refs 0..n-1) first.
  const std::vector<Entry>& entries() const { return all_; }

  /// Stable checkpoints of `pid` alive at `t`: tentative or permanent,
  /// taken by `t`, neither discarded nor reclaimed by `t`.
  std::size_t stable_live_at(ProcessId pid, sim::SimTime t) const;
  /// Newest taken_at of a non-discarded tentative or permanent of `pid`.
  sim::SimTime last_stable_taken_at(ProcessId pid) const;
  /// The largest cursor of a permanent (or initial) checkpoint per process.
  Line latest_permanent_line() const;
  /// Checkpoints of `kind` neither discarded nor reclaimed.
  std::size_t live_count(CkptKind kind) const;
  /// Checkpoints ever made permanent.
  std::size_t permanent_made() const;
  /// Refs of the checkpoints of `pid` neither discarded nor reclaimed,
  /// newest first, the initial one excluded.
  std::vector<CkptRef> live_of(ProcessId pid) const;

 private:
  bool auto_gc_;
  std::vector<Entry> all_;
  std::vector<std::vector<CkptRef>> by_process_;
};

}  // namespace mck::ckpt
