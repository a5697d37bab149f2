// Consistency checker: the executable oracle for Theorem 1.
//
// Replays committed initiations in commit order and verifies that the
// global checkpoint line after every commit contains no orphan message.
// Lines only move forward, so each process's cursor is a step function of
// the line index: one replay records its rises, and one sweep over the
// event log finds, per record, the first line covering its send and the
// first covering its receive. For K lines and M records that costs
// O(M log K), where a scan per line would cost O(K M). The result equals
// a per-line EventLog::find_orphans / count_in_transit loop, orphans
// included (line-major, log order within a line, repeated per line).
// Coordinated protocols must always pass; the scripted
// Prakash-Singhal-style scenario (Fig. 2) must fail, which is how the tests
// validate the checker itself.
#pragma once

#include <string>
#include <vector>

#include "ckpt/event_log.hpp"
#include "ckpt/tracker.hpp"

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
  ConsistencyChecker(const EventLog& log, const CoordinationTracker& tracker)
      : log_(log), tracker_(tracker) {}

  /// Checks every committed initiation's line in one sweep of the log.
  CheckResult check_all() const;

  /// Line in effect after the given committed initiation (commit order).
  Line line_after(InitiationId id) const;

 private:
  const EventLog& log_;
  const CoordinationTracker& tracker_;
};

}  // namespace mck::ckpt
