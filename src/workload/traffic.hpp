// Workload generators for the evaluation (Section 5.1):
//
//  * Point-to-point: every process sends computation messages with
//    exponentially distributed inter-send times; destinations uniform
//    over the other processes.
//  * Group communication: processes arranged into groups, each with a
//    leader. Intragroup destinations uniform over the group; only leaders
//    talk across groups, at a rate `intra/inter ratio` times slower.
//  * Scripted: a fixed list of (time, action) steps — used to replay the
//    message patterns of Figs 1-4 deterministically.
#pragma once

#include <functional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace mck::workload {

/// The harness wires this to CheckpointProtocol::send_computation.
using SendFn = std::function<void(ProcessId src, ProcessId dst)>;

/// The mean gap both generators draw exponential send gaps from: `ratio`
/// times the mean of `msgs_per_second` sends a second. 0 when that mean
/// does not round into [1 ns, kTimeNever), so a caller can reject the
/// rate before it builds a generator.
inline sim::SimTime mean_gap(double msgs_per_second, double ratio = 1.0) {
  return sim::checked_from_seconds(ratio / msgs_per_second);
}

class PointToPointWorkload {
 public:
  PointToPointWorkload(sim::Simulator& sim, sim::Rng& rng, int num_processes,
                       double msgs_per_second, SendFn send)
      : sim_(sim),
        rng_(rng),
        n_(num_processes),
        mean_gap_(mean_gap(msgs_per_second)),
        send_(std::move(send)) {
    MCK_ASSERT(mean_gap_ > 0);
  }

  void start(sim::SimTime horizon);

 private:
  void schedule(ProcessId p);

  sim::Simulator& sim_;
  sim::Rng& rng_;
  int n_;
  sim::SimTime mean_gap_;
  SendFn send_;
  sim::SimTime horizon_ = 0;
};

class GroupWorkload {
 public:
  /// `ratio`: how many times faster intragroup sending is than intergroup
  /// sending for a leader (1000x / 10000x in Fig. 6).
  GroupWorkload(sim::Simulator& sim, sim::Rng& rng, int num_processes,
                int num_groups, double intra_msgs_per_second, double ratio,
                SendFn send);

  void start(sim::SimTime horizon);

  bool is_leader(ProcessId p) const {
    return p % (n_ / groups_) == 0;
  }
  int group_of(ProcessId p) const { return p / (n_ / groups_); }

 private:
  void schedule_intra(ProcessId p);
  void schedule_inter(ProcessId leader);
  ProcessId pick_group_member(int group, ProcessId exclude);
  ProcessId pick_leader(ProcessId exclude);

  sim::Simulator& sim_;
  sim::Rng& rng_;
  int n_;
  int groups_;
  sim::SimTime intra_gap_;
  sim::SimTime inter_gap_;
  SendFn send_;
  sim::SimTime horizon_ = 0;
};

/// Deterministic scripted workload for scenario tests and examples.
struct ScriptStep {
  sim::SimTime at = 0;
  enum class Kind { kSend, kInitiate } kind = Kind::kSend;
  ProcessId a = kInvalidProcess;  // sender / initiator
  ProcessId b = kInvalidProcess;  // destination (kSend only)
};

class ScriptedWorkload {
 public:
  ScriptedWorkload(sim::Simulator& sim, SendFn send,
                   std::function<void(ProcessId)> initiate)
      : sim_(sim), send_(std::move(send)), initiate_(std::move(initiate)) {}

  void run(const std::vector<ScriptStep>& steps);

 private:
  sim::Simulator& sim_;
  SendFn send_;
  std::function<void(ProcessId)> initiate_;
};

}  // namespace mck::workload
