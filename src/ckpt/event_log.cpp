#include "ckpt/event_log.hpp"

#include "util/assert.hpp"

namespace mck::ckpt {

MessageId EventLog::record_send(ProcessId src, ProcessId dst) {
  MessageId id = next_msg_id();
  MsgRecord rec;
  rec.id = id;
  rec.src = src;
  rec.dst = dst;
  rec.send_event = cursors_[static_cast<std::size_t>(src)]++;
  in_transit_[id] = msgs_.size();
  msgs_.push_back(rec);
  return id;
}

void EventLog::record_recv(MessageId id, ProcessId dst) {
  const std::size_t* slot = in_transit_.find(id);
  MCK_ASSERT_MSG(slot != nullptr,
                 "record_recv: unknown or already received message id");
  MsgRecord& rec = msgs_[*slot];
  MCK_ASSERT_MSG(rec.dst == dst, "message delivered to wrong process");
  rec.recv_event = cursors_[static_cast<std::size_t>(dst)]++;
  in_transit_.erase(id);
}

std::vector<Orphan> EventLog::find_orphans(const Line& line) const {
  MCK_ASSERT(line.size() == cursors_.size());
  MCK_ASSERT_MSG(at_or_past_frontier([&line](ProcessId p) { return line[p]; }),
                 "find_orphans: line below the retirement frontier");
  std::vector<Orphan> out;
  for (const MsgRecord& m : msgs_) {
    if (m.recv_event == kNoEvent) continue;
    if (m.recv_event < line[m.dst] && m.send_event >= line[m.src]) {
      out.push_back(Orphan{m.id, m.src, m.dst, m.send_event, m.recv_event});
    }
  }
  return out;
}

std::size_t EventLog::count_in_transit(const Line& line) const {
  MCK_ASSERT(line.size() == cursors_.size());
  MCK_ASSERT_MSG(at_or_past_frontier([&line](ProcessId p) { return line[p]; }),
                 "count_in_transit: line below the retirement frontier");
  std::size_t n = 0;
  for (const MsgRecord& m : msgs_) {
    bool send_in = m.send_event < line[m.src];
    bool recv_in = m.recv_event != kNoEvent && m.recv_event < line[m.dst];
    if (send_in && !recv_in) ++n;
  }
  return n;
}

}  // namespace mck::ckpt
