// Elnozahy-Johnson-Zwaenepoel [13]: the nonblocking *all-process*
// baseline of Table 1. A distinguished initiator broadcasts a checkpoint
// request carrying a new global checkpoint sequence number; every process
// takes a checkpoint. Computation messages piggyback the csn, and a
// message with a higher csn forces the receiver to checkpoint before
// processing it, which is how orphans are avoided without blocking.
#pragma once

#include <vector>

#include "ckpt/store.hpp"
#include "rt/protocol.hpp"

namespace mck::baselines {

class ElnozahyProtocol final : public rt::CheckpointProtocol {
 public:
  void start();

  void initiate() override;
  bool in_checkpointing() const override { return pending_init_ != 0; }
  bool coordination_active() const override {
    return pending_init_ != 0 || awaiting_replies_ > 0;
  }

  Csn csn() const { return csn_; }

 protected:
  std::shared_ptr<const rt::Payload> computation_payload(
      ProcessId dst) override;
  void handle_computation(const rt::Message& m) override;
  void handle_system(const rt::Message& m) override;

 private:
  void take_checkpoint(Csn new_csn, ckpt::InitiationId init);
  void maybe_commit(ckpt::InitiationId init);

  Csn csn_ = 0;  // global checkpoint index this process is at
  ckpt::InitiationId pending_init_ = 0;  // uncommitted tentative's initiation
  ckpt::CkptRef pending_ref_ = ckpt::kNoCkpt;
  bool transfer_done_ = false;

  // Initiator-side.
  int awaiting_replies_ = 0;
};

}  // namespace mck::baselines
