#include "full_history.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/assert.hpp"

namespace mck::ckpt {

EventLog full_history(const obs::TraceRecords& records,
                      int num_processes) {
  EventLog log(num_processes);
  for (const obs::TraceRecord& r : records) {
    const auto kind = static_cast<obs::TraceKind>(r.kind);
    const bool computation = r.sub == obs::kRawMsgComputation;
    if (kind == obs::TraceKind::kMsgSend) {
      // Every send, system messages included, took the next id.
      const MessageId id = computation ? log.record_send(r.pid, r.aux)
                                       : log.next_msg_id();
      MCK_ASSERT_MSG(id == r.arg0, "trace skips a message id");
      MCK_ASSERT(!computation ||
                 log.cursor(r.pid) == obs::msg_stamp_of(r.arg1));
    } else if (kind == obs::TraceKind::kMsgDeliver && computation) {
      MCK_ASSERT(log.cursor(r.pid) + 1 == obs::msg_stamp_of(r.arg1));
      log.record_recv(r.arg0, r.pid);
    }
  }
  return log;
}

std::vector<MessageTimes> message_times(
    const obs::TraceRecords& records) {
  std::vector<MessageTimes> times;
  std::unordered_map<MessageId, std::size_t> slot;  // id -> times index
  for (const obs::TraceRecord& r : records) {
    if (r.sub != obs::kRawMsgComputation) continue;
    const auto kind = static_cast<obs::TraceKind>(r.kind);
    if (kind == obs::TraceKind::kMsgSend) {
      slot.emplace(r.arg0, times.size());
      times.push_back(MessageTimes{r.at, 0});
    } else if (kind == obs::TraceKind::kMsgDeliver) {
      auto it = slot.find(r.arg0);
      MCK_ASSERT_MSG(it != slot.end(), "delivery of a message never sent");
      times[it->second].recv_at = r.at;
    }
  }
  return times;
}

namespace {

bool same_record(const MsgRecord& a, const MsgRecord& b) {
  return a.id == b.id && a.src == b.src && a.dst == b.dst &&
         a.send_event == b.send_event && a.recv_event == b.recv_event;
}

std::string describe(const char* what, MessageId id) {
  return std::string(what) + " (msg " + std::to_string(id) + ")";
}

}  // namespace

std::string live_log_mismatch(const EventLog& full, const EventLog& live) {
  const std::vector<MsgRecord>& all = full.messages();
  const std::vector<MsgRecord>& kept = live.messages();
  if (all.size() != kept.size() + live.retired()) {
    return "full history has " + std::to_string(all.size()) +
           " records; the live log keeps " + std::to_string(kept.size()) +
           " and retired " + std::to_string(live.retired());
  }
  std::size_t j = 0;
  for (const MsgRecord& m : all) {
    if (j < kept.size() && kept[j].id == m.id) {
      if (!same_record(kept[j], m)) return describe("records differ", m.id);
      ++j;
    } else if (m.recv_event == kNoEvent) {
      return describe("an unreceived record was retired", m.id);
    }
  }
  if (j != kept.size()) {
    return describe("live record not in the history", kept[j].id);
  }
  for (int p = 0; p < full.num_processes(); ++p) {
    if (full.cursor(p) != live.cursor(p)) {
      return "cursor of P" + std::to_string(p) + " differs";
    }
  }
  return "";
}

CheckResult check_per_line(const EventLog& log,
                           const CoordinationTracker& tracker) {
  std::vector<const InitiationStats*> inits;
  for (const InitiationStats* s : tracker.in_order()) {
    if (s->committed()) inits.push_back(s);
  }
  std::stable_sort(inits.begin(), inits.end(),
                   [](const InitiationStats* a, const InitiationStats* b) {
                     return a->committed_at < b->committed_at;
                   });
  CheckResult result;
  Line line(static_cast<std::size_t>(log.num_processes()));
  for (const InitiationStats* s : inits) {
    for (const auto& [pid, cursor] : s->line_updates) {
      line[pid] = std::max(line[pid], cursor);
    }
    std::vector<Orphan> orphans = log.find_orphans(line);
    result.orphans.insert(result.orphans.end(), orphans.begin(),
                          orphans.end());
    result.in_transit_total += log.count_in_transit(line);
    ++result.lines_checked;
  }
  result.consistent = result.orphans.empty();
  return result;
}

std::string check_result_mismatch(const CheckResult& got,
                                  const CheckResult& want) {
  if (got.consistent != want.consistent) return "consistent differs";
  if (got.lines_checked != want.lines_checked) return "lines_checked differs";
  if (got.in_transit_total != want.in_transit_total) {
    return "in_transit_total " + std::to_string(got.in_transit_total) +
           " != " + std::to_string(want.in_transit_total);
  }
  if (got.orphans.size() != want.orphans.size()) {
    return "orphan count " + std::to_string(got.orphans.size()) +
           " != " + std::to_string(want.orphans.size());
  }
  for (std::size_t i = 0; i < want.orphans.size(); ++i) {
    const Orphan& a = got.orphans[i];
    const Orphan& b = want.orphans[i];
    if (a.msg != b.msg || a.src != b.src || a.dst != b.dst ||
        a.send_event != b.send_event || a.recv_event != b.recv_event) {
      return "orphan " + std::to_string(i) + " differs";
    }
  }
  return "";
}

Line line_after(const CoordinationTracker& tracker, int num_processes,
                InitiationId id) {
  Line line(static_cast<std::size_t>(num_processes));
  for (const InitiationStats* s : tracker.committed_in_commit_order()) {
    for (const auto& [pid, cursor] : s->line_updates) {
      line[pid] = std::max(line[pid], cursor);
    }
    if (s->id == id) break;
  }
  return line;
}

RecoveryOutcome recover_coordinated_at(const EventLog& log,
                                       const CoordinationTracker& tracker,
                                       sim::SimTime t) {
  Line line(static_cast<std::size_t>(log.num_processes()));
  for (const InitiationStats* s : tracker.committed_in_commit_order()) {
    if (s->committed_at > t) break;
    for (const auto& [pid, cursor] : s->line_updates) {
      line[pid] = std::max(line[pid], cursor);
    }
  }
  return restart_from(log, std::move(line));
}

HistoryStore::HistoryStore(int num_processes, bool auto_gc)
    : auto_gc_(auto_gc),
      by_process_(static_cast<std::size_t>(num_processes)) {
  for (ProcessId p = 0; p < num_processes; ++p) {
    Entry e;
    e.rec.ref = static_cast<CkptRef>(p);
    e.rec.pid = p;
    all_.push_back(e);
    by_process_[static_cast<std::size_t>(p)].push_back(e.rec.ref);
  }
}

void HistoryStore::replay(const obs::TraceRecords& records) {
  auto entry = [this](std::uint64_t ref) -> Entry& {
    MCK_ASSERT_MSG(ref < all_.size(), "trace names an unknown checkpoint");
    return all_[static_cast<std::size_t>(ref)];
  };
  for (const obs::TraceRecord& r : records) {
    switch (static_cast<obs::TraceKind>(r.kind)) {
      case obs::TraceKind::kCkptTaken: {
        Entry e;
        e.rec.ref = static_cast<CkptRef>(r.arg1 >> 32);
        e.rec.pid = r.pid;
        e.rec.csn = static_cast<Csn>(r.arg1 & 0xffffffffu);
        e.rec.kind = static_cast<CkptKind>(r.sub);
        e.rec.initiation = r.arg0;
        e.rec.taken_at = r.at;
        MCK_ASSERT_MSG(e.rec.ref == all_.size(), "checkpoint refs skip");
        all_.push_back(e);
        by_process_[static_cast<std::size_t>(r.pid)].push_back(e.rec.ref);
        break;
      }
      case obs::TraceKind::kCkptCursor:
        entry(r.arg0).rec.event_cursor = r.arg1;
        break;
      case obs::TraceKind::kCkptPromoted: {
        Entry& e = entry(r.arg1);
        e.rec.kind = CkptKind::kTentative;
        e.rec.initiation = r.arg0;
        e.promoted = true;
        break;
      }
      case obs::TraceKind::kCkptPermanent: {
        Entry& e = entry(r.arg1);
        e.rec.kind = CkptKind::kPermanent;
        e.finalized_at = r.at;
        if (!auto_gc_) break;
        for (CkptRef ref : by_process_[static_cast<std::size_t>(r.pid)]) {
          Entry& old = all_[ref];
          if (ref != e.rec.ref && old.rec.kind == CkptKind::kPermanent &&
              old.gc_at < 0) {
            old.gc_at = r.at;
          }
        }
        break;
      }
      case obs::TraceKind::kCkptDiscarded:
        entry(r.arg1).discarded = true;
        break;
      default:
        break;
    }
  }
}

std::size_t HistoryStore::stable_live_at(ProcessId pid, sim::SimTime t) const {
  std::size_t n = 0;
  for (CkptRef ref : by_process_[static_cast<std::size_t>(pid)]) {
    const Entry& e = all_[ref];
    if (e.rec.kind != CkptKind::kTentative &&
        e.rec.kind != CkptKind::kPermanent) {
      continue;
    }
    if (e.rec.taken_at > t || e.discarded) continue;
    if (e.gc_at >= 0 && e.gc_at <= t) continue;
    ++n;
  }
  return n;
}

sim::SimTime HistoryStore::last_stable_taken_at(ProcessId pid) const {
  sim::SimTime last = 0;
  for (CkptRef ref : by_process_[static_cast<std::size_t>(pid)]) {
    const Entry& e = all_[ref];
    if (e.discarded) continue;
    if (e.rec.kind != CkptKind::kTentative &&
        e.rec.kind != CkptKind::kPermanent) {
      continue;
    }
    last = std::max(last, e.rec.taken_at);
  }
  return last;
}

Line HistoryStore::latest_permanent_line() const {
  Line line(by_process_.size());
  for (const Entry& e : all_) {
    if (e.rec.kind != CkptKind::kPermanent &&
        e.rec.kind != CkptKind::kInitial) {
      continue;
    }
    line[e.rec.pid] = std::max(line[e.rec.pid], e.rec.event_cursor);
  }
  return line;
}

std::size_t HistoryStore::live_count(CkptKind kind) const {
  std::size_t n = 0;
  for (const Entry& e : all_) {
    if (e.rec.kind == kind && !e.discarded && e.gc_at < 0) ++n;
  }
  return n;
}

std::size_t HistoryStore::permanent_made() const {
  std::size_t n = 0;
  for (const Entry& e : all_) {
    if (e.rec.kind == CkptKind::kPermanent) ++n;
  }
  return n;
}

std::vector<CkptRef> HistoryStore::live_of(ProcessId pid) const {
  std::vector<CkptRef> refs;
  const std::vector<CkptRef>& hist = by_process_[static_cast<std::size_t>(pid)];
  for (auto it = hist.rbegin(); it != hist.rend(); ++it) {
    const Entry& e = all_[*it];
    if (e.rec.kind == CkptKind::kInitial || e.discarded || e.gc_at >= 0) {
      continue;
    }
    refs.push_back(*it);
  }
  return refs;
}

}  // namespace mck::ckpt
