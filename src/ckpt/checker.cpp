#include "ckpt/checker.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"

namespace mck::ckpt {

namespace {

using OrphanAt = std::pair<std::size_t, Orphan>;

/// A record's send is inside lines [ks, K) and its receive inside [kr, K),
/// so it is an orphan on [kr, ks) and in transit on [ks, kr).
void judge(const MsgRecord& m, std::size_t ks, std::size_t kr,
           std::vector<OrphanAt>& orphans, std::size_t& in_transit) {
  if (kr < ks) {
    for (std::size_t k = kr; k < ks; ++k) {
      orphans.emplace_back(
          k, Orphan{m.id, m.src, m.dst, m.send_event, m.recv_event});
    }
  } else {
    in_transit += kr - ks;
  }
}

}  // namespace

void ConsistencyChecker::settle(sim::SimTime now) {
  const std::vector<const InitiationStats*>& decided =
      tracker_.commit_decisions();
  const std::size_t begin = settled_.size();
  std::size_t end = begin;
  while (end < decided.size() && decided[end]->committed_at < now) ++end;
  if (end == begin) return;

  // Decisions arrive in commit-time order; ties go by start order, as in
  // CoordinationTracker::committed_in_commit_order.
  settled_.insert(settled_.end(), decided.begin() + begin,
                  decided.begin() + end);
  std::sort(settled_.begin() + begin, settled_.end(),
            [](const InitiationStats* a, const InitiationStats* b) {
              return a->committed_at != b->committed_at
                         ? a->committed_at < b->committed_at
                         : a->seq < b->seq;
            });
  for (std::size_t k = begin; k < end; ++k) {
    settled_steps_.add_line(settled_[k]->line_updates, k);
    settled_updates_ += settled_[k]->line_updates.size();
  }

  // Retire once the log has grown by a quarter of what the last retirement
  // left live. A retirement scans at most five times that growth, so the
  // total work stays O(M) even when some process is never covered and its
  // records stay live. Doubling was the rule before and misfired: a settle
  // comes once per checkpoint interval, and the settled line lags the
  // traffic by about one interval, so each interval adds a little less
  // than what stays live. At every other settle the log sat just under
  // 2x and was skipped, and the log peaked at 3x its live records.
  const std::size_t live = live_after_retire_;
  if (log_.messages().size() >= live + live / 4) retire();
}

void ConsistencyChecker::retire() {
  // Both events lie below the settled line, so both first covering lines
  // are settled ones and the verdict is final.
  util::LineSteps& steps = settled_steps_;
  log_.retire_below(
      [&steps](ProcessId p) { return steps.cursor(p); },
      [this, &steps](const MsgRecord& m) {
        judge(m, steps.first_line_covering(m.src, m.send_event),
              steps.first_line_covering(m.dst, m.recv_event),
              retired_orphans_, retired_in_transit_);
      });
  live_after_retire_ = log_.messages().size();
}

CheckResult ConsistencyChecker::check_all() const {
  const std::vector<const InitiationStats*> committed =
      tracker_.committed_in_commit_order();
  const std::size_t num_lines = committed.size();

  // The settled lines must still be the first ones, unchanged.
  MCK_ASSERT(settled_.size() <= num_lines);
  std::size_t updates = 0;
  for (std::size_t k = 0; k < settled_.size(); ++k) {
    MCK_ASSERT_MSG(committed[k] == settled_[k],
                   "commit order changed below a settled line");
    updates += committed[k]->line_updates.size();
  }
  MCK_ASSERT_MSG(updates == settled_updates_, "a settled line changed");

  // Replay the lines once, keeping only where each cursor rises.
  util::LineSteps steps(log_.num_processes());
  for (std::size_t k = 0; k < num_lines; ++k) {
    steps.add_line(committed[k]->line_updates, k);
  }
  steps.close(num_lines);

  // One pass over the live records, on top of the retired verdicts.
  std::vector<OrphanAt> orphan_at = retired_orphans_;
  CheckResult result;
  result.in_transit_total = retired_in_transit_;
  for (const MsgRecord& m : log_.messages()) {
    std::size_t ks = steps.first_line_covering(m.src, m.send_event);
    std::size_t kr = m.recv_event == kNoEvent
                         ? num_lines
                         : steps.first_line_covering(m.dst, m.recv_event);
    judge(m, ks, kr, orphan_at, result.in_transit_total);
  }

  // Report line-major, in log (id) order within a line, like a per-line
  // scan.
  std::sort(orphan_at.begin(), orphan_at.end(),
            [](const OrphanAt& a, const OrphanAt& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second.msg < b.second.msg;
            });
  result.orphans.reserve(orphan_at.size());
  for (const OrphanAt& o : orphan_at) result.orphans.push_back(o.second);
  result.consistent = result.orphans.empty();
  result.lines_checked = num_lines;
  return result;
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
