#include "ckpt/checker.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace mck::ckpt {

namespace {

/// A point where one process's cursor on the line rises: from line `line`
/// on (commit order) the line covers that process's events below `cursor`.
struct Rise {
  std::uint64_t cursor;
  std::size_t line;
};

/// One process's cursor as a step function of the line index.
class CursorSteps {
 public:
  /// Lines only move forward, so rises arrive sorted on both keys.
  void add(std::uint64_t cursor, std::size_t line) {
    rises_.push_back(Rise{cursor, line});
  }

  /// Ends the list with a sentinel no event reaches: past the last rise,
  /// the answer is "no line", i.e. `num_lines`.
  void close(std::size_t num_lines) { add(kNoEvent, num_lines); }

  /// First line covering `event` (its cursor is greater than `event`), or
  /// `num_lines` if no line does; `event` is a real event, not kNoEvent.
  /// Queries come in nearly increasing event order, so the previous answer
  /// is tried first and a binary search runs only when it is wrong.
  std::size_t first_line_covering(std::uint64_t event) {
    auto above = [](std::uint64_t e, const Rise& r) { return e < r.cursor; };
    auto it = rises_.begin() + static_cast<std::ptrdiff_t>(hint_);
    if (event >= it->cursor) {
      it = std::upper_bound(it + 1, rises_.end(), event, above);
    } else if (it != rises_.begin() && event < (it - 1)->cursor) {
      it = std::upper_bound(rises_.begin(), it - 1, event, above);
    } else {
      return it->line;
    }
    hint_ = static_cast<std::size_t>(it - rises_.begin());
    return it->line;
  }

 private:
  std::vector<Rise> rises_;
  std::size_t hint_ = 0;
};

}  // namespace

CheckResult ConsistencyChecker::check_all() const {
  const std::vector<const InitiationStats*> committed =
      tracker_.committed_in_commit_order();
  const std::size_t num_lines = committed.size();

  // Replay the lines once, keeping only where each cursor rises.
  std::vector<CursorSteps> steps(
      static_cast<std::size_t>(log_.num_processes()));
  Line line(steps.size());
  for (std::size_t k = 0; k < num_lines; ++k) {
    for (const auto& [pid, cursor] : committed[k]->line_updates) {
      // A later checkpoint never moves the line backwards.
      if (cursor > line[pid]) {
        line[pid] = cursor;
        steps[static_cast<std::size_t>(pid)].add(cursor, k);
      }
    }
  }
  for (CursorSteps& s : steps) s.close(num_lines);

  // One pass over the records. A record's send is inside lines [ks, K)
  // and its receive inside [kr, K), so it is an orphan on [kr, ks) and in
  // transit on [ks, kr).
  const std::vector<MsgRecord>& msgs = log_.messages();
  std::vector<std::pair<std::size_t, std::size_t>> orphan_at;  // (line, record)
  CheckResult result;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const MsgRecord& m = msgs[i];
    std::size_t ks =
        steps[static_cast<std::size_t>(m.src)].first_line_covering(
            m.send_event);
    std::size_t kr =
        m.recv_event == kNoEvent
            ? num_lines
            : steps[static_cast<std::size_t>(m.dst)].first_line_covering(
                  m.recv_event);
    if (kr < ks) {
      for (std::size_t k = kr; k < ks; ++k) orphan_at.emplace_back(k, i);
    } else {
      result.in_transit_total += kr - ks;
    }
  }

  // Report line-major, in record order within a line, like a per-line scan.
  std::sort(orphan_at.begin(), orphan_at.end());
  result.orphans.reserve(orphan_at.size());
  for (const auto& [k, i] : orphan_at) {
    const MsgRecord& m = msgs[i];
    result.orphans.push_back(
        Orphan{m.id, m.src, m.dst, m.send_event, m.recv_event});
  }
  result.consistent = result.orphans.empty();
  result.lines_checked = num_lines;
  return result;
}

Line ConsistencyChecker::line_after(InitiationId id) const {
  Line line(static_cast<std::size_t>(log_.num_processes()));
  for (const InitiationStats* s : tracker_.committed_in_commit_order()) {
    for (const auto& [pid, cursor] : s->line_updates) {
      if (cursor > line[pid]) line[pid] = cursor;
    }
    if (s->id == id) break;
  }
  return line;
}

std::string CheckResult::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: %zu lines checked, %zu orphans, %zu in-transit",
                consistent ? "consistent" : "INCONSISTENT", lines_checked,
                orphans.size(), in_transit_total);
  std::string out = buf;
  for (const Orphan& o : orphans) {
    std::snprintf(buf, sizeof buf,
                  "\n  orphan msg %llu: P%d(ev %llu) -> P%d(ev %llu)",
                  static_cast<unsigned long long>(o.msg), o.src,
                  static_cast<unsigned long long>(o.send_event), o.dst,
                  static_cast<unsigned long long>(o.recv_event));
    out += buf;
  }
  return out;
}

}  // namespace mck::ckpt
