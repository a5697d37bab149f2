// The Theorem 1 line-sweep kernel: committed checkpoint lines, in commit
// order, as one step function per process.
//
// Line k is the global checkpoint line after the k-th commit. A line only
// raises a process's cursor, so each cursor is a step function of the
// line index, and "the first line covering event e of process p" (the
// first line whose cursor for p is greater than e) is a search over the
// points where p's cursor rises. A message is an orphan on the lines that
// cover its receive but not its send, so both Theorem 1 oracles judge a
// message by two such searches: the consistency checker over the event log
// (ckpt/checker.hpp) and the trace auditor over the flight-recorder
// records (obs/audit.cpp). This is the one search they share; it knows
// only process ids, cursors and line indices.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mck::util {

/// The lines added so far as one rise list per process that some line
/// raises; the others cost four bytes each (lines at n = 1M touch few
/// processes).
class LineSteps {
 public:
  /// (process, cursor): from this line on, the process's events below
  /// `cursor` are inside the line.
  using Update = std::pair<std::int32_t, std::uint64_t>;

  /// Cursor of the sentinel close() appends; no real event reaches it.
  static constexpr std::uint64_t kNoEvent =
      std::numeric_limits<std::uint64_t>::max();

  explicit LineSteps(int num_processes) : n_(num_processes) {}

  /// Applies the updates of line `k` (the next one in commit order).
  void add_line(std::span<const Update> updates, std::size_t k) {
    if (slot_.empty()) slot_.resize(static_cast<std::size_t>(n_), 0);
    for (const auto& [pid, entry] : updates) {
      // A later checkpoint never moves the line backwards.
      if (entry <= cursor(pid)) continue;
      std::uint32_t& i = slot_[static_cast<std::size_t>(pid)];
      if (i == 0) {
        steps_.emplace_back();
        i = static_cast<std::uint32_t>(steps_.size());
      }
      // Lines only move forward, so rises arrive sorted on both keys.
      steps_[i - 1].rises.push_back(Rise{entry, k});
    }
  }

  /// Entry of process p on the last line added (before close()).
  std::uint64_t cursor(std::int32_t p) const {
    const std::uint32_t i = slot(p);
    return i == 0 ? 0 : steps_[i - 1].rises.back().cursor;
  }

  /// After the last line: ends every rise list with a sentinel no event
  /// reaches, so an event no line covers answers `num_lines`.
  void close(std::size_t num_lines) {
    num_lines_ = num_lines;
    for (Steps& s : steps_) s.rises.push_back(Rise{kNoEvent, num_lines});
  }

  /// First line covering event `event` of process p: an event below
  /// cursor(p), or any real event once closed.
  std::size_t first_line_covering(std::int32_t p, std::uint64_t event) {
    const std::uint32_t i = slot(p);
    return i == 0 ? num_lines_ : steps_[i - 1].first_line_covering(event);
  }

 private:
  /// From line `line` on (commit order) the line covers this process's
  /// events below `cursor`.
  struct Rise {
    std::uint64_t cursor;
    std::size_t line;
  };

  struct Steps {
    std::vector<Rise> rises;
    std::size_t hint = 0;

    /// `event` is below the last rise. Queries come in nearly increasing
    /// event order, so the previous answer is tried first and a binary
    /// search runs only when it is wrong.
    std::size_t first_line_covering(std::uint64_t event) {
      auto above = [](std::uint64_t e, const Rise& r) { return e < r.cursor; };
      auto it = rises.begin() + static_cast<std::ptrdiff_t>(hint);
      if (event >= it->cursor) {
        it = std::upper_bound(it + 1, rises.end(), event, above);
      } else if (it != rises.begin() && event < (it - 1)->cursor) {
        it = std::upper_bound(rises.begin(), it - 1, event, above);
      } else {
        return it->line;
      }
      hint = static_cast<std::size_t>(it - rises.begin());
      return it->line;
    }
  };

  std::uint32_t slot(std::int32_t p) const {
    MCK_ASSERT(p >= 0 && p < n_);
    return slot_.empty() ? 0 : slot_[static_cast<std::size_t>(p)];
  }

  int n_;
  std::vector<std::uint32_t> slot_;  // pid -> steps_ index + 1; 0 = none
  std::vector<Steps> steps_;
  std::size_t num_lines_ = 0;  // set by close()
};

}  // namespace mck::util
