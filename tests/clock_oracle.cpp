#include "clock_oracle.hpp"

#include "util/assert.hpp"

namespace mck::ckpt {

namespace {

// One event of a process: the send or the receive of a message snapshot
// slot.
struct Ev {
  bool is_recv = false;
  std::size_t msg_slot = kUnset;

  static constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
};

}  // namespace

ClockOracle::ClockOracle(const EventLog& log)
    : n_(log.num_processes()),
      zero_(static_cast<std::size_t>(log.num_processes())),
      clocks_(static_cast<std::size_t>(log.num_processes())) {
  const std::vector<MsgRecord>& msgs = log.messages();

  // Each process's events in index order. The log must be a full history:
  // every index below a process's cursor is exactly one send or receive.
  std::vector<std::vector<Ev>> events(static_cast<std::size_t>(n_));
  for (ProcessId p = 0; p < n_; ++p) {
    events[static_cast<std::size_t>(p)].resize(log.cursor(p));
  }
  auto place = [&events](ProcessId p, std::uint64_t idx, Ev ev) {
    auto& evs = events[static_cast<std::size_t>(p)];
    MCK_ASSERT_MSG(idx < evs.size() && evs[idx].msg_slot == Ev::kUnset,
                   "per-process event order broken");
    evs[idx] = ev;
  };
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const MsgRecord& m = msgs[i];
    place(m.src, m.send_event, Ev{false, i});
    if (m.recv_event != kNoEvent) place(m.dst, m.recv_event, Ev{true, i});
  }

  // Causal order without trusting any clock: run each process through its
  // events until it reaches a receive whose send has not run yet; that
  // send wakes it again.
  std::vector<util::VectorClock> current(
      static_cast<std::size_t>(n_),
      util::VectorClock(static_cast<std::size_t>(n_)));
  std::vector<util::VectorClock> at_send(msgs.size());
  std::vector<std::size_t> next(static_cast<std::size_t>(n_), 0);
  std::vector<ProcessId> ready;
  for (ProcessId p = 0; p < n_; ++p) ready.push_back(p);
  while (!ready.empty()) {
    const ProcessId p = ready.back();
    ready.pop_back();
    const auto ps = static_cast<std::size_t>(p);
    const std::vector<Ev>& evs = events[ps];
    util::VectorClock& vc = current[ps];
    for (; next[ps] < evs.size(); ++next[ps]) {
      const Ev& ev = evs[next[ps]];
      MCK_ASSERT_MSG(ev.msg_slot != Ev::kUnset,
                     "per-process event order broken");
      if (ev.is_recv) {
        if (at_send[ev.msg_slot].size() == 0) break;  // woken by the send
        vc.merge(at_send[ev.msg_slot]);
      }
      vc.tick(p);
      clocks_[ps].push_back(vc);
      if (!ev.is_recv) {
        at_send[ev.msg_slot] = vc;
        const auto q = static_cast<std::size_t>(msgs[ev.msg_slot].dst);
        const std::vector<Ev>& qevs = events[q];
        if (next[q] < qevs.size() && qevs[next[q]].is_recv &&
            qevs[next[q]].msg_slot == ev.msg_slot) {
          ready.push_back(static_cast<ProcessId>(q));
        }
      }
    }
  }
  for (ProcessId p = 0; p < n_; ++p) {
    MCK_ASSERT_MSG(next[static_cast<std::size_t>(p)] ==
                       events[static_cast<std::size_t>(p)].size(),
                   "receive processed before its send");
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
