// Per-initiation bookkeeping shared by all protocols: which processes took
// tentative / mutable checkpoints, how many system messages were spent,
// when the initiation started and committed. The harness reads this to
// produce the paper's metrics (Figs 5-6, Table 1); the consistency checker
// reads it to rebuild committed global checkpoint lines.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "ckpt/store.hpp"
#include "obs/timeline.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace mck::ckpt {

struct InitiationStats {
  InitiationId id = 0;
  ProcessId initiator = kInvalidProcess;
  std::size_t seq = 0;  // position in start order
  sim::SimTime started_at = 0;
  sim::SimTime committed_at = -1;  // initiator's decision time
  sim::SimTime aborted_at = -1;
  bool committed() const { return committed_at >= 0; }
  bool aborted() const { return aborted_at >= 0; }

  // Kim-Park partial commit (Section 3.6): the initiation committed, but
  // processes depending on a failed process aborted their tentative
  // checkpoints.
  bool partial_commit = false;
  std::uint32_t participants_aborted = 0;

  // Checkpoint counts for this initiation.
  std::uint32_t tentative = 0;          // incl. initiator's own
  std::uint32_t mutables_taken = 0;     // mutable checkpoints attributed here
  std::uint32_t mutables_promoted = 0;  // turned into tentative
  std::uint32_t mutables_discarded = 0; // redundant (Section 5 definition)

  // System-message counts attributed to this initiation.
  std::uint64_t requests = 0;
  std::uint64_t replies = 0;
  std::uint64_t commits = 0;  // commit messages (N for broadcast)
  std::uint64_t aborts = 0;
  std::uint64_t duplicate_requests = 0;  // requests ignored by the receiver

  // Blocking (Koo-Toueg): total process-seconds blocked for this initiation.
  sim::SimTime blocked_time = 0;

  // T_ch decomposition (Section 5.3: T_ch = T_msg + T_data + T_disk):
  // when the last checkpoint request of this initiation was *processed*
  // (the synchronization phase T_msg ends here; the rest of the commit
  // delay is checkpoint-transfer time T_data).
  sim::SimTime last_request_at = -1;

  sim::SimTime t_msg() const {
    return last_request_at < 0 ? 0 : last_request_at - started_at;
  }
  sim::SimTime t_data() const {
    if (!committed()) return 0;
    sim::SimTime sync_end = last_request_at < 0 ? started_at : last_request_at;
    return committed_at - sync_end;
  }

  // Contributions to the committed global checkpoint line:
  // (pid, event cursor of the checkpoint made permanent here).
  std::vector<std::pair<ProcessId, std::uint64_t>> line_updates;

  // Timeline bookkeeping: whether this initiation is counted in the
  // active-initiations gauge (set by open(); lazy registration via at()
  // never counts, so the decision only decrements what open() added).
  bool timeline_counted = false;
};

class CoordinationTracker {
 public:
  /// Attaches a flight recorder (null = off): initiation start, commit
  /// and abort are traced here, one place for all eight protocols.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches the timeline gauge block (null = off). The tracker owns the
  /// active-initiations gauge: +1 when open() first registers an
  /// initiation, -1 when the initiator decides (commit or abort).
  void set_timeline(obs::TimelineCounters* t) { timeline_ = t; }

  InitiationStats& open(InitiationId id, ProcessId initiator,
                        sim::SimTime now) {
    InitiationStats& s = map_[id];
    if (s.id == 0) {
      s.id = id;
      s.initiator = initiator;
      s.started_at = now;
      s.seq = order_.size();
      order_.push_back(id);
      if (timeline_ != nullptr) {
        ++timeline_->active_inits;
        s.timeline_counted = true;
      }
      if (tracer_ != nullptr) {
        tracer_->record(obs::TraceKind::kInitStart, now, initiator, 0, 0, id,
                        0);
      }
    }
    return s;
  }

  /// The initiator's commit decision. Protocols must use this (not write
  /// committed_at directly) so the decision lands in the trace.
  void mark_committed(InitiationStats& s, sim::SimTime now) {
    MCK_ASSERT_MSG(!s.committed(), "initiation committed twice");
    MCK_ASSERT_MSG(decisions_.empty() || decisions_.back()->committed_at <= now,
                   "commit decisions go back in time");
    s.committed_at = now;
    decisions_.push_back(&s);
    if (s.timeline_counted) {
      --timeline_->active_inits;
      s.timeline_counted = false;
    }
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kRoundCommit, now, s.initiator, 0, 0,
                      s.id, static_cast<std::uint64_t>(now - s.started_at));
    }
  }

  void mark_aborted(InitiationStats& s, sim::SimTime now) {
    s.aborted_at = now;
    if (s.timeline_counted) {
      --timeline_->active_inits;
      s.timeline_counted = false;
    }
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kRoundAbort, now, s.initiator, 0, 0,
                      s.id, static_cast<std::uint64_t>(now - s.started_at));
    }
  }

  /// Initiation must already exist (a participant reports into it).
  InitiationStats& at(InitiationId id) {
    InitiationStats& s = map_[id];
    if (s.id == 0) {
      // A participant can observe an initiation before the harness does
      // (message reordering across MSSs); register it lazily.
      s.id = id;
      s.initiator = initiation_pid(id);
      s.seq = order_.size();
      order_.push_back(id);
    }
    return s;
  }

  /// Initiations in start order.
  std::vector<const InitiationStats*> in_order() const {
    std::vector<const InitiationStats*> out;
    out.reserve(order_.size());
    for (InitiationId id : order_) out.push_back(&map_.at(id));
    return out;
  }

  /// Committed initiations in commit order (ties keep start order): the
  /// order in which their line updates build the global checkpoint line.
  std::vector<const InitiationStats*> committed_in_commit_order() const {
    std::vector<const InitiationStats*> out;
    for (InitiationId id : order_) {
      const InitiationStats& s = map_.at(id);
      if (s.committed()) out.push_back(&s);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const InitiationStats* a, const InitiationStats* b) {
                       return a->committed_at < b->committed_at;
                     });
    return out;
  }

  /// Initiations committed through mark_committed, in decision order,
  /// which is non-decreasing commit time (ties in any order).
  const std::vector<const InitiationStats*>& commit_decisions() const {
    return decisions_;
  }

  std::size_t initiation_count() const { return order_.size(); }

 private:
  std::map<InitiationId, InitiationStats> map_;
  std::vector<InitiationId> order_;
  std::vector<const InitiationStats*> decisions_;
  obs::Tracer* tracer_ = nullptr;
  obs::TimelineCounters* timeline_ = nullptr;
};

}  // namespace mck::ckpt
