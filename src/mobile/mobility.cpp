#include "mobile/mobility.hpp"

namespace mck::mobile {

void MobilityModel::start(sim::SimTime horizon) {
  horizon_ = horizon;
  for (ProcessId p = 0; p < transport_.num_processes(); ++p) {
    schedule_next(p);
  }
}

void MobilityModel::schedule_next(ProcessId pid) {
  sim::SimTime dwell = rng_.exponential(params_.mean_residence);
  sim::SimTime at = sim::add_saturating(sim_.now(), dwell);
  if (at > horizon_) return;
  sim_.schedule_at(at, [this, pid]() { move(pid); });
}

void MobilityModel::move(ProcessId pid) {
  if (transport_.is_disconnected(pid)) {
    schedule_next(pid);
    return;
  }
  if (rng_.bernoulli(params_.disconnect_probability)) {
    if (on_disconnect) on_disconnect(pid);
    transport_.disconnect(pid);
    sim::SimTime back = sim::add_saturating(
        sim_.now(), rng_.exponential(params_.mean_disconnect));
    sim_.schedule_at(back, [this, pid]() {
      MssId cell = static_cast<MssId>(
          rng_.uniform_int(0, transport_.num_mss() - 1));
      transport_.reconnect(pid, cell);
      if (on_reconnect) on_reconnect(pid);
      schedule_next(pid);
    });
  } else {
    MssId cell =
        static_cast<MssId>(rng_.uniform_int(0, transport_.num_mss() - 1));
    transport_.handoff(pid, cell);
    schedule_next(pid);
  }
}

}  // namespace mck::mobile
