// Koo-Toueg [19]: the classic *blocking*, min-process, two-phase
// coordinated checkpointing algorithm — Table 1's blocking baseline.
//
// Request propagation follows the dependency tree: a process that takes a
// tentative checkpoint sends requests to every process it received from in
// the current interval (no MR filtering — this is the 3*Nmin*Ndep message
// behaviour of Table 1), waits for all children's replies, then answers
// its parent. From the moment it takes the tentative checkpoint until the
// commit/abort arrives, the process *blocks its underlying computation*
// (sends are suppressed; the harness measures the blocked time).
#pragma once

#include <optional>
#include <vector>

#include "ckpt/store.hpp"
#include "rt/protocol.hpp"
#include "util/interval_set.hpp"

namespace mck::baselines {

class KooTouegProtocol final : public rt::CheckpointProtocol {
 public:
  void start();

  void initiate() override;
  bool in_checkpointing() const override { return coordinating_; }
  bool coordination_active() const override { return coordinating_; }

  // Test introspection.
  Csn own_csn() const { return own_csn_; }
  const util::IntervalSet& dependency_vector() const { return R_; }

 protected:
  std::shared_ptr<const rt::Payload> computation_payload(
      ProcessId dst) override;
  void handle_computation(const rt::Message& m) override;
  void handle_system(const rt::Message& m) override;

 private:
  struct Coordination {
    ckpt::InitiationId initiation = 0;
    ProcessId parent = kInvalidProcess;  // kInvalid => we are the initiator
    int outstanding_children = 0;
    bool transfer_done = false;
    bool reply_sent = false;
    ckpt::CkptRef ref = ckpt::kNoCkpt;
    std::vector<ProcessId> children;
  };

  void take_tentative_and_propagate(ckpt::InitiationId init,
                                    ProcessId parent);
  void maybe_reply();
  void finish_commit(ckpt::InitiationId init);

  ckpt::InitiationStats& stats_of(ckpt::InitiationId init);

  util::IntervalSet R_;
  std::vector<Csn> csn_;  // csn_[j]: last csn seen from P_j
  Csn own_csn_ = 0;       // our stable-checkpoint count
  bool sent_ = false;
  bool coordinating_ = false;
  std::optional<Coordination> coord_;
};

}  // namespace mck::baselines
