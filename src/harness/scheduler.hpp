// Periodic checkpoint initiation, following Section 5.1: "A checkpoint is
// scheduled at each process with an interval of 900 seconds. If a process
// takes a checkpoint before its scheduled checkpoint time, the next
// checkpoint will be scheduled 900s after that time." Initiations are
// serialized (the paper's "at most one checkpointing is in progress"
// assumption): a due initiation is retried shortly if a coordination is
// still active anywhere. When none is, every committed line is final, so
// the scheduler settles them there (System::settle_committed_lines).
#pragma once

#include "harness/system.hpp"

namespace mck::harness {

struct SchedulerOptions {
  sim::SimTime interval = sim::seconds(900);
  bool serialize = true;
  /// First checkpoints are spread uniformly over one interval so the
  /// processes do not all fire at once.
  bool stagger_start = true;
  /// 0 = every process schedules initiations (the paper's setup). k > 0 =
  /// only processes 0..k-1 do — at 100k-1M hosts, letting all n schedule
  /// periodic initiations serializes into one giant retry storm (and n
  /// timer events); real deployments designate few initiators. Processes
  /// beyond the limit still checkpoint when a request wave reaches them.
  int initiator_limit = 0;
};

class CheckpointScheduler {
 public:
  CheckpointScheduler(System& system, SchedulerOptions opts)
      : sys_(system), opts_(opts) {}

  /// Schedules initiations for every process until `horizon`.
  void start(sim::SimTime horizon);

  std::uint64_t initiations_fired() const { return fired_; }
  std::uint64_t retries() const { return retries_; }

 private:
  void schedule_at(ProcessId p, sim::SimTime at);
  void fire(ProcessId p);

  System& sys_;
  SchedulerOptions opts_;
  sim::SimTime horizon_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace mck::harness
