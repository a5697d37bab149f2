// Rollback-recovery over the checkpoints the store holds now.
//
// Two recovery modes, matching the paper's comparison of coordinated vs
// uncoordinated checkpointing (Sections 1 and 6):
//
//  * Coordinated: restart from the last *committed* global checkpoint line
//    — by construction consistent, one stable checkpoint per process. A
//    coordinated protocol makes a checkpoint permanent only once its
//    initiation committed, so the store's permanent line is that line.
//  * Uncoordinated: search for the most recent consistent line among all
//    local checkpoints using classic rollback propagation; this is where
//    the domino effect appears and is measured.
//
// The store keeps no history, so both recover at the current state;
// tests/full_history.hpp replays committed initiations for past times.
#pragma once

#include <cstdint>

#include "ckpt/event_log.hpp"
#include "ckpt/store.hpp"

namespace mck::ckpt {

struct RecoveryOutcome {
  Line line;                          // cursors restarted from
  std::uint64_t lost_events = 0;      // sum over processes of events undone
  std::uint64_t rollback_steps = 0;   // checkpoint hops walked backwards
  bool domino_to_start = false;       // some process fell back to its
                                      // initial state during the search
};

/// The outcome of restarting every process of `log` from `line`: its
/// lost events are the events past the line.
RecoveryOutcome restart_from(const EventLog& log, Line line,
                             std::uint64_t rollback_steps = 0,
                             bool domino = false);

class RecoveryManager {
 public:
  RecoveryManager(const EventLog& log, const CheckpointStore& store)
      : log_(log), store_(store) {}

  /// Coordinated recovery at time `t`: the line of every process's newest
  /// permanent checkpoint. Needs a coordinated store (auto-GC on) and a
  /// `t` no earlier than its latest make_permanent.
  RecoveryOutcome recover_coordinated(sim::SimTime t) const;

  /// Uncoordinated recovery at time `t`: rollback propagation over every
  /// live checkpoint taken at or before `t` (permanent, tentative and
  /// mutable alike). Needs a store with auto-GC off and a log that retired
  /// nothing: those algorithms never reclaim or discard a checkpoint, so
  /// the live records are their whole history.
  RecoveryOutcome recover_uncoordinated(sim::SimTime t) const;

 private:
  const EventLog& log_;
  const CheckpointStore& store_;
};

}  // namespace mck::ckpt
