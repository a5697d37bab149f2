#include "full_history.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/assert.hpp"

namespace mck::ckpt {

EventLog full_history(const std::vector<obs::TraceRecord>& records,
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
    const std::vector<obs::TraceRecord>& records) {
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

}  // namespace mck::ckpt
