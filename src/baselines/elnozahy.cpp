#include "baselines/elnozahy.hpp"

#include "baselines/payloads.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace mck::baselines {

void ElnozahyProtocol::start() {}

std::shared_ptr<const rt::Payload> ElnozahyProtocol::computation_payload(
    ProcessId /*dst*/) {
  auto p = util::make_pooled<EjComp>();
  p->csn = csn_;
  p->initiation = pending_init_;
  return p;
}

void ElnozahyProtocol::take_checkpoint(Csn new_csn, ckpt::InitiationId init) {
  if (csn_ >= new_csn) return;  // already at (or past) this global index
  MCK_ASSERT_MSG(pending_init_ == 0 || pending_init_ == init,
                 "EJZ requires serialized initiations");
  csn_ = new_csn;
  pending_init_ = init;
  pending_ref_ = take_tentative(init, csn_);

  const ProcessId initiator = ckpt::initiation_pid(init);
  sim::SimTime done = start_stable_transfer();
  ctx_.sim->schedule_at(done, [this, init, initiator]() {
    if (pending_init_ != init) return;
    if (initiator == self()) {
      transfer_done_ = true;
      maybe_commit(init);
      return;
    }
    auto rp = util::make_pooled<EjReply>();
    rp->initiation = init;
    send_system(rt::MsgKind::kReply, initiator, std::move(rp));
    ++ctx_.tracker->at(init).replies;
  });
}

// The initiator commits once its own checkpoint is stable *and* every
// reply is in, whichever of the two happens last.
void ElnozahyProtocol::maybe_commit(ckpt::InitiationId init) {
  if (pending_init_ != init || awaiting_replies_ > 0 || !transfer_done_) {
    return;
  }
  ckpt::InitiationStats& st = ctx_.tracker->at(init);
  ctx_.tracker->mark_committed(st, ctx_.sim->now());
  auto cm = util::make_pooled<EjCommit>();
  cm->initiation = init;
  broadcast_system(rt::MsgKind::kCommit, cm);
  st.commits += static_cast<std::uint64_t>(ctx_.num_processes - 1);
  make_permanent(pending_ref_);
  pending_init_ = 0;
  pending_ref_ = ckpt::kNoCkpt;
}

void ElnozahyProtocol::initiate() {
  if (coordination_active()) return;
  Csn c = csn_ + 1;
  ckpt::InitiationId init = ckpt::make_initiation_id(self(), c);
  ctx_.tracker->open(init, self(), ctx_.sim->now());
  awaiting_replies_ = ctx_.num_processes - 1;
  transfer_done_ = false;
  take_checkpoint(c, init);

  auto rq = util::make_pooled<EjRequest>();
  rq->csn = c;
  rq->initiation = init;
  broadcast_system(rt::MsgKind::kRequest, rq);
  ctx_.tracker->at(init).requests +=
      static_cast<std::uint64_t>(ctx_.num_processes - 1);
}

void ElnozahyProtocol::handle_computation(const rt::Message& m) {
  const EjComp* p = m.payload_as<EjComp>();
  MCK_ASSERT(p != nullptr);
  if (p->csn > csn_) {
    // Forced checkpoint before processing — the csn rule of [13].
    ++ctx_.stats->forced_by_message;
    take_checkpoint(p->csn, p->initiation);
  }
  process_computation(m);
}

void ElnozahyProtocol::handle_system(const rt::Message& m) {
  MCK_ASSERT(m.payload != nullptr);
  switch (m.payload->tag()) {
    case rt::PayloadTag::kEjRequest: {
      const auto* p = static_cast<const EjRequest*>(m.payload.get());
      ctx_.tracker->at(p->initiation).last_request_at = ctx_.sim->now();
      take_checkpoint(p->csn, p->initiation);
      break;
    }
    case rt::PayloadTag::kEjReply: {
      const auto* p = static_cast<const EjReply*>(m.payload.get());
      if (pending_init_ != p->initiation) return;
      MCK_ASSERT(awaiting_replies_ > 0);
      --awaiting_replies_;
      maybe_commit(p->initiation);
      break;
    }
    case rt::PayloadTag::kEjCommit: {
      const auto* p = static_cast<const EjCommit*>(m.payload.get());
      if (pending_init_ != p->initiation) return;
      make_permanent(pending_ref_);
      pending_init_ = 0;
      pending_ref_ = ckpt::kNoCkpt;
      break;
    }
    default:
      MCK_ASSERT_MSG(false, "unexpected system message in EJZ");
  }
}

}  // namespace mck::baselines
