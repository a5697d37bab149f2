#include "baselines/chandy_lamport.hpp"

#include "baselines/payloads.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace mck::baselines {

void ChandyLamportProtocol::start() {
  marker_seen_.assign(static_cast<std::size_t>(ctx_.num_processes), 0);
}

std::shared_ptr<const rt::Payload>
ChandyLamportProtocol::computation_payload(ProcessId /*dst*/) {
  return nullptr;  // Chandy-Lamport piggybacks nothing
}

void ChandyLamportProtocol::take_snapshot(ckpt::InitiationId init) {
  MCK_ASSERT(!recording_);
  recording_ = true;
  init_ = init;
  transfer_done_ = false;
  done_sent_ = false;
  channel_state_msgs_ = 0;
  std::fill(marker_seen_.begin(), marker_seen_.end(), 0);
  marker_seen_[static_cast<std::size_t>(self())] = 1;  // no self channel

  pending_ref_ = take_tentative(init, 0);

  // Send a marker on every outgoing channel: N-1 system messages per
  // process, O(N^2) total.
  for (ProcessId k = 0; k < ctx_.num_processes; ++k) {
    if (k == self()) continue;
    auto mk = util::make_pooled<ClMarker>();
    mk->initiation = init;
    send_system(rt::MsgKind::kMarker, k, std::move(mk));
    ++ctx_.tracker->at(init).requests;
  }

  sim::SimTime done = start_stable_transfer();
  ctx_.sim->schedule_at(done, [this, init]() {
    if (init_ != init) return;
    transfer_done_ = true;
    finish_recording();
  });
}

void ChandyLamportProtocol::finish_recording() {
  if (!recording_ || done_sent_ || !transfer_done_) return;
  for (std::size_t i = 0; i < marker_seen_.size(); ++i) {
    if (!marker_seen_[i]) return;  // still recording some channel
  }
  done_sent_ = true;
  const ProcessId initiator = ckpt::initiation_pid(init_);
  if (initiator == self()) {
    --awaiting_done_;
    maybe_commit();
  } else {
    auto dn = util::make_pooled<ClDone>();
    dn->initiation = init_;
    send_system(rt::MsgKind::kReply, initiator, std::move(dn));
    ++ctx_.tracker->at(init_).replies;
  }
}

void ChandyLamportProtocol::maybe_commit() {
  if (init_ == 0 || ckpt::initiation_pid(init_) != self()) return;
  if (awaiting_done_ > 0 || !done_sent_) return;
  ckpt::InitiationStats& st = ctx_.tracker->at(init_);
  ctx_.tracker->mark_committed(st, ctx_.sim->now());
  auto cm = util::make_pooled<ClCommit>();
  cm->initiation = init_;
  broadcast_system(rt::MsgKind::kCommit, cm);
  st.commits += static_cast<std::uint64_t>(ctx_.num_processes - 1);
  make_permanent(pending_ref_);
  pending_ref_ = ckpt::kNoCkpt;
  recording_ = false;
  init_ = 0;
}

void ChandyLamportProtocol::initiate() {
  if (coordination_active()) return;
  ckpt::InitiationId init =
      ckpt::make_initiation_id(self(), static_cast<Csn>(ctx_.sim->now() & 0xffffffff));
  ctx_.tracker->open(init, self(), ctx_.sim->now());
  awaiting_done_ = ctx_.num_processes;  // N-1 reports + our own
  take_snapshot(init);
}

void ChandyLamportProtocol::handle_computation(const rt::Message& m) {
  if (recording_ && !marker_seen_[static_cast<std::size_t>(m.src)]) {
    // Message crosses the cut: belongs to the recorded channel state.
    ++channel_state_msgs_;
  }
  process_computation(m);
}

void ChandyLamportProtocol::handle_system(const rt::Message& m) {
  MCK_ASSERT(m.payload != nullptr);
  switch (m.payload->tag()) {
    case rt::PayloadTag::kClMarker: {
      const auto* p = static_cast<const ClMarker*>(m.payload.get());
      ctx_.tracker->at(p->initiation).last_request_at = ctx_.sim->now();
      if (!recording_ && init_ != p->initiation) {
        take_snapshot(p->initiation);
      }
      if (recording_ && init_ == p->initiation) {
        marker_seen_[static_cast<std::size_t>(m.src)] = 1;
        finish_recording();
      }
      break;
    }
    case rt::PayloadTag::kClDone: {
      const auto* p = static_cast<const ClDone*>(m.payload.get());
      if (init_ != p->initiation) return;
      --awaiting_done_;
      maybe_commit();
      break;
    }
    case rt::PayloadTag::kClCommit: {
      const auto* p = static_cast<const ClCommit*>(m.payload.get());
      if (init_ != p->initiation || pending_ref_ == ckpt::kNoCkpt) return;
      make_permanent(pending_ref_);
      pending_ref_ = ckpt::kNoCkpt;
      recording_ = false;
      init_ = 0;
      break;
    }
    default:
      MCK_ASSERT_MSG(false, "unexpected system message in Chandy-Lamport");
  }
}

}  // namespace mck::baselines
