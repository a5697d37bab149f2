#include "harness/scheduler.hpp"

#include <algorithm>

namespace mck::harness {

/// How long a due initiation waits before it tries again, when a
/// coordination is still active or its MH is disconnected.
constexpr sim::SimTime kRetryDelay = sim::seconds(5);

void CheckpointScheduler::start(sim::SimTime horizon) {
  horizon_ = horizon;
  const ProcessId count =
      opts_.initiator_limit > 0
          ? std::min<ProcessId>(opts_.initiator_limit, sys_.n())
          : sys_.n();
  for (ProcessId p = 0; p < count; ++p) {
    sim::SimTime first = opts_.interval;
    if (opts_.stagger_start) {
      // An interval shorter than 4 ns per initiator leaves no jitter.
      const sim::SimTime jitter_mean = opts_.interval / (4 * count);
      first = opts_.interval / count * (p + 1);
      if (jitter_mean > 0) {
        first =
            sim::add_saturating(first, sys_.rng().exponential(jitter_mean));
      }
    }
    schedule_at(p, first);
  }
}

void CheckpointScheduler::schedule_at(ProcessId p, sim::SimTime at) {
  if (at > horizon_) return;
  sys_.simulator().schedule_at(at, [this, p]() { fire(p); });
}

void CheckpointScheduler::fire(ProcessId p) {
  sim::SimTime now = sys_.simulator().now();
  // Interval rule: if p checkpointed recently (e.g. forced by another
  // initiation), push the scheduled checkpoint out.
  sim::SimTime last = sys_.store().last_stable_taken_at(p);
  if (last > 0 && now - last < opts_.interval) {
    schedule_at(p, sim::add_saturating(last, opts_.interval));
    return;
  }
  if (opts_.serialize) {
    if (sys_.any_coordination_active()) {
      ++retries_;
      schedule_at(p, now + kRetryDelay);
      return;
    }
    // Quiescent: every commit has reached its participants, so every
    // line committed before now is final.
    sys_.settle_committed_lines();
  }
  if (sys_.cellular() != nullptr && sys_.cellular()->is_disconnected(p)) {
    // A disconnected MH does not start checkpointing on its own; its
    // scheduled checkpoint waits for reconnection.
    ++retries_;
    schedule_at(p, now + kRetryDelay);
    return;
  }
  ++fired_;
  sys_.initiate(p);
  schedule_at(p, sim::add_saturating(now, opts_.interval));
}

}  // namespace mck::harness
