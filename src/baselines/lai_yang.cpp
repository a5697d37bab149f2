#include "baselines/lai_yang.hpp"

#include "baselines/payloads.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace mck::baselines {

std::shared_ptr<const rt::Payload> LaiYangProtocol::computation_payload(
    ProcessId /*dst*/) {
  auto p = util::make_pooled<LyComp>();
  p->round = round_;
  p->initiation = pending_init_;
  return p;
}

void LaiYangProtocol::take_snapshot(Csn new_round, ckpt::InitiationId init) {
  if (round_ >= new_round) return;
  MCK_ASSERT_MSG(pending_init_ == 0 || pending_init_ == init,
                 "Lai-Yang requires serialized rounds");
  round_ = new_round;
  pending_init_ = init;
  channel_state_msgs_ = 0;
  pending_ref_ = take_tentative(init, round_);

  const ProcessId initiator = ckpt::initiation_pid(init);
  sim::SimTime done = start_stable_transfer();
  ctx_.sim->schedule_at(done, [this, init, initiator]() {
    if (pending_init_ != init) return;
    if (initiator == self()) {
      transfer_done_ = true;
      maybe_commit(init);
      return;
    }
    auto rp = util::make_pooled<LyReply>();
    rp->initiation = init;
    send_system(rt::MsgKind::kReply, initiator, std::move(rp));
    ++ctx_.tracker->at(init).replies;
  });
}

void LaiYangProtocol::maybe_commit(ckpt::InitiationId init) {
  if (pending_init_ != init || awaiting_replies_ > 0 || !transfer_done_) {
    return;
  }
  ckpt::InitiationStats& st = ctx_.tracker->at(init);
  ctx_.tracker->mark_committed(st, ctx_.sim->now());
  auto cm = util::make_pooled<LyCommit>();
  cm->initiation = init;
  broadcast_system(rt::MsgKind::kCommit, cm);
  st.commits += static_cast<std::uint64_t>(ctx_.num_processes - 1);
  make_permanent(pending_ref_);
  pending_init_ = 0;
  pending_ref_ = ckpt::kNoCkpt;
}

void LaiYangProtocol::initiate() {
  if (coordination_active()) return;
  Csn next = round_ + 1;
  ckpt::InitiationId init = ckpt::make_initiation_id(self(), next);
  ctx_.tracker->open(init, self(), ctx_.sim->now());
  awaiting_replies_ = ctx_.num_processes - 1;
  transfer_done_ = false;
  take_snapshot(next, init);
  auto an = util::make_pooled<LyAnnounce>();
  an->round = next;
  an->initiation = init;
  broadcast_system(rt::MsgKind::kRequest, an);
  ctx_.tracker->at(init).requests +=
      static_cast<std::uint64_t>(ctx_.num_processes - 1);
}

void LaiYangProtocol::handle_computation(const rt::Message& m) {
  const LyComp* p = m.payload_as<LyComp>();
  MCK_ASSERT(p != nullptr);
  if (p->round > round_) {
    // A red message reaching a white process: snapshot before processing
    // — the flag rule of [21]; works without FIFO channels.
    ++ctx_.stats->forced_by_message;
    take_snapshot(p->round, p->initiation);
  } else if (p->round < round_) {
    // A white message reaching a red process: it crossed the cut and
    // belongs to the recorded channel state.
    ++channel_state_msgs_;
  }
  process_computation(m);
}

void LaiYangProtocol::handle_system(const rt::Message& m) {
  MCK_ASSERT(m.payload != nullptr);
  switch (m.payload->tag()) {
    case rt::PayloadTag::kLyAnnounce: {
      const auto* p = static_cast<const LyAnnounce*>(m.payload.get());
      ctx_.tracker->at(p->initiation).last_request_at = ctx_.sim->now();
      take_snapshot(p->round, p->initiation);
      break;
    }
    case rt::PayloadTag::kLyReply: {
      const auto* p = static_cast<const LyReply*>(m.payload.get());
      if (pending_init_ != p->initiation) return;
      --awaiting_replies_;
      maybe_commit(p->initiation);
      break;
    }
    case rt::PayloadTag::kLyCommit: {
      const auto* p = static_cast<const LyCommit*>(m.payload.get());
      if (pending_init_ != p->initiation) return;
      make_permanent(pending_ref_);
      pending_init_ = 0;
      pending_ref_ = ckpt::kNoCkpt;
      break;
    }
    default:
      MCK_ASSERT_MSG(false, "unexpected system message in Lai-Yang");
  }
}

}  // namespace mck::baselines
