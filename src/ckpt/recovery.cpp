#include "ckpt/recovery.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace mck::ckpt {

RecoveryOutcome restart_from(const EventLog& log, Line line,
                             std::uint64_t rollback_steps, bool domino) {
  RecoveryOutcome out;
  out.rollback_steps = rollback_steps;
  out.domino_to_start = domino;
  for (int p = 0; p < log.num_processes(); ++p) {
    std::uint64_t cur = log.cursor(p);
    MCK_ASSERT(line[p] <= cur);
    out.lost_events += cur - line[p];
  }
  out.line = std::move(line);
  return out;
}

RecoveryOutcome RecoveryManager::recover_coordinated(sim::SimTime t) const {
  MCK_ASSERT_MSG(store_.auto_gc(),
                 "recover_coordinated: the store keeps no committed line");
  MCK_ASSERT_MSG(t >= store_.last_permanent_at(),
                 "recover_coordinated: t is before the latest permanent "
                 "checkpoint");
  const int n = log_.num_processes();
  Line line(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) line[p] = store_.permanent_cursor(p);
  return restart_from(log_, std::move(line));
}

RecoveryOutcome RecoveryManager::recover_uncoordinated(sim::SimTime t) const {
  // The rollback search may fall below any committed line, so it needs
  // the whole history; only coordinated runs retire records or reclaim
  // checkpoints.
  MCK_ASSERT_MSG(log_.retired() == 0,
                 "recover_uncoordinated: the event log retired records");
  MCK_ASSERT_MSG(!store_.auto_gc(),
                 "recover_uncoordinated: the store reclaims checkpoints");
  // The newest checkpoint of `p` taken by `t` that covers no event at or
  // past `limit`; the implicit initial checkpoint (cursor 0) if none does.
  auto latest = [this, t](ProcessId p, std::uint64_t limit) {
    std::uint64_t best = 0;
    store_.for_each_live(p, [&](const CheckpointRecord& rec) {
      if (rec.taken_at <= t && rec.event_cursor <= limit) {
        best = std::max(best, rec.event_cursor);
      }
    });
    return best;
  };
  const int n = log_.num_processes();
  Line line(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) line[p] = latest(p, UINT64_MAX);

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
      const std::uint64_t best = latest(o.dst, o.recv_event);
      MCK_ASSERT(best < line[o.dst]);
      line[o.dst] = best;
      ++steps;
      if (best == 0) domino = true;
      changed = true;
    }
  }
  MCK_ASSERT(log_.find_orphans(line).empty());
  return restart_from(log_, std::move(line), steps, domino);
}

}  // namespace mck::ckpt
