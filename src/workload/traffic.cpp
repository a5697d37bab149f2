#include "workload/traffic.hpp"

#include "util/assert.hpp"

namespace mck::workload {

// ---------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------

void PointToPointWorkload::start(sim::SimTime horizon) {
  MCK_ASSERT(n_ >= 2);
  horizon_ = horizon;
  for (ProcessId p = 0; p < n_; ++p) schedule(p);
}

void PointToPointWorkload::schedule(ProcessId p) {
  sim::SimTime at =
      sim::add_saturating(sim_.now(), rng_.exponential(mean_gap_));
  if (at > horizon_) return;
  sim_.schedule_at(at, [this, p]() {
    ProcessId dst =
        static_cast<ProcessId>(rng_.uniform_int(0, n_ - 2));
    if (dst >= p) ++dst;  // uniform over the others
    send_(p, dst);
    schedule(p);
  });
}

// ---------------------------------------------------------------------
// Group communication
// ---------------------------------------------------------------------

GroupWorkload::GroupWorkload(sim::Simulator& sim, sim::Rng& rng,
                             int num_processes, int num_groups,
                             double intra_msgs_per_second, double ratio,
                             SendFn send)
    : sim_(sim),
      rng_(rng),
      n_(num_processes),
      groups_(num_groups),
      intra_gap_(mean_gap(intra_msgs_per_second)),
      inter_gap_(mean_gap(intra_msgs_per_second, ratio)),
      send_(std::move(send)) {
  MCK_ASSERT(intra_gap_ > 0 && inter_gap_ > 0);
  MCK_ASSERT(num_groups >= 2);
  MCK_ASSERT(num_processes % num_groups == 0);
  MCK_ASSERT(num_processes / num_groups >= 2);
}

void GroupWorkload::start(sim::SimTime horizon) {
  horizon_ = horizon;
  for (ProcessId p = 0; p < n_; ++p) {
    schedule_intra(p);
    if (is_leader(p)) schedule_inter(p);
  }
}

ProcessId GroupWorkload::pick_group_member(int group, ProcessId exclude) {
  int size = n_ / groups_;
  ProcessId base = static_cast<ProcessId>(group * size);
  ProcessId dst =
      base + static_cast<ProcessId>(rng_.uniform_int(0, size - 2));
  if (dst >= exclude) ++dst;
  return dst;
}

ProcessId GroupWorkload::pick_leader(ProcessId exclude) {
  int size = n_ / groups_;
  int my_group = exclude / size;
  int g = static_cast<int>(rng_.uniform_int(0, groups_ - 2));
  if (g >= my_group) ++g;
  return static_cast<ProcessId>(g * size);
}

void GroupWorkload::schedule_intra(ProcessId p) {
  sim::SimTime at =
      sim::add_saturating(sim_.now(), rng_.exponential(intra_gap_));
  if (at > horizon_) return;
  sim_.schedule_at(at, [this, p]() {
    send_(p, pick_group_member(group_of(p), p));
    schedule_intra(p);
  });
}

void GroupWorkload::schedule_inter(ProcessId leader) {
  sim::SimTime at =
      sim::add_saturating(sim_.now(), rng_.exponential(inter_gap_));
  if (at > horizon_) return;
  sim_.schedule_at(at, [this, leader]() {
    send_(leader, pick_leader(leader));
    schedule_inter(leader);
  });
}

// ---------------------------------------------------------------------
// Scripted
// ---------------------------------------------------------------------

void ScriptedWorkload::run(const std::vector<ScriptStep>& steps) {
  for (const ScriptStep& s : steps) {
    MCK_ASSERT(s.at >= sim_.now());
    if (s.kind == ScriptStep::Kind::kSend) {
      sim_.schedule_at(s.at, [this, s]() { send_(s.a, s.b); });
    } else {
      sim_.schedule_at(s.at, [this, s]() { initiate_(s.a); });
    }
  }
}

}  // namespace mck::workload
