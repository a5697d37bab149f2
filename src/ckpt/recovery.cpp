#include "ckpt/recovery.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mck::ckpt {

RecoveryOutcome RecoveryManager::finish(Line line,
                                        std::uint64_t rollback_steps,
                                        bool domino) const {
  RecoveryOutcome out;
  out.rollback_steps = rollback_steps;
  out.domino_to_start = domino;
  out.lost_events = 0;
  for (int p = 0; p < log_.num_processes(); ++p) {
    std::uint64_t cur = log_.cursor(p);
    MCK_ASSERT(line[p] <= cur);
    out.lost_events += cur - line[p];
  }
  out.line = std::move(line);
  return out;
}

RecoveryOutcome RecoveryManager::recover_coordinated(sim::SimTime t) const {
  Line line(static_cast<std::size_t>(log_.num_processes()));
  // Replay committed initiations up to time t in commit order.
  for (const InitiationStats* s : tracker_.committed_in_commit_order()) {
    if (s->committed_at > t) break;
    for (const auto& [pid, cursor] : s->line_updates) {
      if (cursor > line[pid]) line[pid] = cursor;
    }
  }
  return finish(std::move(line), 0, false);
}

RecoveryOutcome RecoveryManager::recover_uncoordinated(sim::SimTime t) const {
  // The rollback search may fall below any committed line, so it needs
  // the whole history; only coordinated runs retire records.
  MCK_ASSERT_MSG(log_.retired() == 0,
                 "recover_uncoordinated: the event log retired records");
  const int n = log_.num_processes();
  // Candidate cursors per process: all checkpoints taken at or before t,
  // sorted ascending (includes the implicit initial checkpoint at 0).
  std::vector<std::vector<std::uint64_t>> cand(static_cast<std::size_t>(n));
  for (const CheckpointRecord& rec : store_.all()) {
    if (rec.discarded || rec.taken_at > t) continue;
    cand[static_cast<std::size_t>(rec.pid)].push_back(rec.event_cursor);
  }
  Line line(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    auto& v = cand[static_cast<std::size_t>(p)];
    std::sort(v.begin(), v.end());
    line[p] = v.empty() ? 0 : v.back();
  }

  // Rollback propagation: while an orphan exists, the receiver retreats to
  // its latest checkpoint that excludes the offending receive event.
  std::uint64_t steps = 0;
  bool domino = false;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Orphan> orphans = log_.find_orphans(line);
    for (const Orphan& o : orphans) {
      if (o.recv_event >= line[o.dst]) continue;  // already resolved
      const auto& v = cand[static_cast<std::size_t>(o.dst)];
      // Largest candidate cursor <= recv_event (receive excluded).
      std::uint64_t best = 0;
      for (std::uint64_t c : v) {
        if (c <= o.recv_event && c > best) best = c;
      }
      MCK_ASSERT(best < line[o.dst]);
      line[o.dst] = best;
      ++steps;
      if (best == 0) domino = true;
      changed = true;
    }
  }
  MCK_ASSERT(log_.find_orphans(line).empty());
  return finish(std::move(line), steps, domino);
}

}  // namespace mck::ckpt
