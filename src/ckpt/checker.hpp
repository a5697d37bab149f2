// Consistency checker: the executable oracle for Theorem 1.
//
// Replays committed initiations in commit order and verifies that the
// global checkpoint line after every commit contains no orphan message.
// Lines only move forward, so each process's cursor is a step function of
// the line index (util::LineSteps, the kernel the trace auditor shares):
// one replay records its rises, and one sweep over the event log finds,
// per record, the first line covering its send and the first covering its
// receive. For K lines and M records that costs O(M log K), where a scan
// per line would cost O(K M). The result equals a per-line
// EventLog::find_orphans / count_in_transit loop, orphans included
// (line-major, log order within a line, repeated per line).
// Coordinated protocols must always pass; the scripted
// Prakash-Singhal-style scenario (Fig. 2) must fail, which is how the tests
// validate the checker itself.
//
// The checker lives as long as the run and keeps the log history-free.
// settle() takes the lines that are final in commit order; a record whose
// send and receive both lie below the settled line has a final verdict on
// every line (its first covering lines are settled ones), so the checker
// keeps that verdict and the log retires the record. It retires whenever
// the log has grown by a quarter of what the last retirement left live,
// which in a steady run is every settle, so the log peaks near two
// checkpoint intervals of traffic: the one the settled line lags by and
// the one since. check_all() sweeps the live records against every
// committed line and merges the retained verdicts, so its result is the
// one a never-retired log would give.
//
// The checker answers the Theorem 1 question only. The line in effect
// after a given initiation, and recovery at a past time, replay the
// committed initiations in tests/full_history.hpp, where they are the
// tests' oracle; RecoveryManager reads the store's live permanent line.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "ckpt/event_log.hpp"
#include "ckpt/tracker.hpp"
#include "util/line_steps.hpp"

namespace mck::ckpt {

struct CheckResult {
  bool consistent = true;
  std::vector<Orphan> orphans;          // across all committed lines
  std::size_t lines_checked = 0;
  std::size_t in_transit_total = 0;     // informational (lost-message count)
  std::string describe() const;
};

class ConsistencyChecker {
 public:
  ConsistencyChecker(EventLog& log, const CoordinationTracker& tracker)
      : log_(log), tracker_(tracker), settled_steps_(log.num_processes()) {}

  /// Settles every initiation committed (CoordinationTracker::
  /// mark_committed) strictly before `now`, in commit order, and retires
  /// the log records behind the settled line. Call it only when no
  /// coordination is active anywhere: participants append their line
  /// updates when the commit reaches them, so only then is every line
  /// committed before `now` final. A line committed at `now` may still be
  /// reordered before a tied one, so it waits.
  void settle(sim::SimTime now);

  /// Checks every committed initiation's line: one sweep of the live
  /// records, merged with the verdicts of the retired ones.
  CheckResult check_all() const;

 private:
  void retire();

  EventLog& log_;
  const CoordinationTracker& tracker_;

  std::vector<const InitiationStats*> settled_;  // commit order
  std::size_t settled_updates_ = 0;  // their line updates; must not change
  util::LineSteps settled_steps_;
  std::size_t live_after_retire_ = 0;  // log size after the last retirement

  // Verdicts of the retired records: orphans as (line index in commit
  // order, orphan), and their in-transit count.
  std::vector<std::pair<std::size_t, Orphan>> retired_orphans_;
  std::size_t retired_in_transit_ = 0;
};

}  // namespace mck::ckpt
