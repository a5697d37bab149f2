// Second, independent consistency oracle based on vector clocks: rebuilds
// the causal history of the run from the event log's event indices alone
// (no timestamps: a receive follows its send and each process's events
// follow one another, and that is all causality is) and decides line
// consistency by the classical condition
//     line is consistent  <=>  forall p, q:  VC_p(line[p])[q] <= line[q],
// where VC_p(c) is P_p's vector clock after its first c events. Tests
// cross-check this against the direct orphan scan of EventLog.
#pragma once

#include <vector>

#include "ckpt/event_log.hpp"
#include "vector_clock.hpp"

namespace mck::ckpt {

class ClockOracle {
 public:
  /// Snapshots the log's current contents (later log growth is ignored).
  explicit ClockOracle(const EventLog& log);

  /// Vector clock of P_p after its first `cursor` events.
  const util::VectorClock& clock_at(ProcessId p, std::uint64_t cursor) const;

  /// The classical vector-clock consistency condition.
  bool line_consistent(const Line& line) const;

  int num_processes() const { return n_; }

 private:
  int n_;
  util::VectorClock zero_;
  // clocks_[p][k] = clock after the (k+1)-th event of P_p.
  std::vector<std::vector<util::VectorClock>> clocks_;
};

}  // namespace mck::ckpt
