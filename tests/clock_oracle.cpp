#include "clock_oracle.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mck::ckpt {

namespace {

struct Ev {
  sim::SimTime at;
  bool is_recv;
  ProcessId p;
  std::uint64_t idx;       // event index at p
  std::size_t msg_slot;    // index into the message snapshot
};

}  // namespace

ClockOracle::ClockOracle(const EventLog& log)
    : n_(log.num_processes()),
      zero_(static_cast<std::size_t>(log.num_processes())),
      clocks_(static_cast<std::size_t>(log.num_processes())) {
  const std::vector<MsgRecord>& msgs = log.messages();

  std::vector<Ev> events;
  events.reserve(msgs.size() * 2);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const MsgRecord& m = msgs[i];
    events.push_back(Ev{m.sent_at, false, m.src, m.send_event, i});
    if (m.recv_event != kNoEvent) {
      events.push_back(Ev{m.recv_at, true, m.dst, m.recv_event, i});
    }
  }
  // Causal order: receives happen strictly after their sends in simulated
  // time; ties between unrelated events are broken arbitrarily but
  // per-process event order is preserved via the event index.
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.p != b.p) return a.p < b.p;
    return a.idx < b.idx;
  });

  std::vector<util::VectorClock> current(
      static_cast<std::size_t>(n_),
      util::VectorClock(static_cast<std::size_t>(n_)));
  std::vector<util::VectorClock> at_send(msgs.size());

  for (const Ev& ev : events) {
    util::VectorClock& vc = current[static_cast<std::size_t>(ev.p)];
    if (ev.is_recv) {
      MCK_ASSERT_MSG(at_send[ev.msg_slot].size() != 0,
                     "receive processed before its send");
      vc.merge(at_send[ev.msg_slot]);
    }
    vc.tick(ev.p);
    auto& hist = clocks_[static_cast<std::size_t>(ev.p)];
    MCK_ASSERT_MSG(hist.size() == ev.idx, "per-process event order broken");
    hist.push_back(vc);
    if (!ev.is_recv) {
      at_send[ev.msg_slot] = vc;
    }
  }
}

const util::VectorClock& ClockOracle::clock_at(ProcessId p,
                                               std::uint64_t cursor) const {
  if (cursor == 0) return zero_;
  const auto& hist = clocks_[static_cast<std::size_t>(p)];
  MCK_ASSERT(cursor <= hist.size());
  return hist[cursor - 1];
}

bool ClockOracle::line_consistent(const Line& line) const {
  MCK_ASSERT(static_cast<int>(line.size()) == n_);
  for (ProcessId p = 0; p < n_; ++p) {
    const util::VectorClock& vc = clock_at(p, line[p]);
    if (vc.size() == 0) continue;  // zero clock
    for (ProcessId q = 0; q < n_; ++q) {
      if (q == p) continue;
      if (vc[static_cast<std::size_t>(q)] > line[q]) return false;
    }
  }
  return true;
}

}  // namespace mck::ckpt
