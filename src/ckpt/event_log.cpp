#include "ckpt/event_log.hpp"

#include "util/assert.hpp"

namespace mck::ckpt {

MessageId EventLog::record_send(ProcessId src, ProcessId dst,
                                sim::SimTime at) {
  MessageId id = next_msg_id();
  MsgRecord rec;
  rec.id = id;
  rec.src = src;
  rec.dst = dst;
  rec.send_event = cursors_[static_cast<std::size_t>(src)]++;
  rec.sent_at = at;
  if (index_by_id_.size() <= id) index_by_id_.resize(id + 1, 0);
  index_by_id_[id] = msgs_.size() + 1;
  msgs_.push_back(rec);
  return id;
}

void EventLog::record_recv(MessageId id, ProcessId dst, sim::SimTime at) {
  MCK_ASSERT_MSG(id < index_by_id_.size() && index_by_id_[id] != 0,
                 "record_recv: unknown message id");
  MsgRecord& rec = msgs_[index_by_id_[id] - 1];
  MCK_ASSERT_MSG(rec.dst == dst, "message delivered to wrong process");
  MCK_ASSERT_MSG(rec.recv_event == kNoEvent, "message received twice");
  rec.recv_event = cursors_[static_cast<std::size_t>(dst)]++;
  rec.recv_at = at;
}

std::vector<Orphan> EventLog::find_orphans(const Line& line) const {
  MCK_ASSERT(line.size() == cursors_.size());
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
  std::size_t n = 0;
  for (const MsgRecord& m : msgs_) {
    bool send_in = m.send_event < line[m.src];
    bool recv_in = m.recv_event != kNoEvent && m.recv_event < line[m.dst];
    if (send_in && !recv_in) ++n;
  }
  return n;
}

}  // namespace mck::ckpt
