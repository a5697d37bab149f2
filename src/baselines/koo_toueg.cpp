#include "baselines/koo_toueg.hpp"

#include <algorithm>

#include "baselines/payloads.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"
#include "util/log.hpp"

namespace mck::baselines {

void KooTouegProtocol::start() {
  R_ = util::IntervalSet(static_cast<std::size_t>(ctx_.num_processes));
  csn_.assign(static_cast<std::size_t>(ctx_.num_processes), 0);
}

ckpt::InitiationStats& KooTouegProtocol::stats_of(ckpt::InitiationId init) {
  return ctx_.tracker->at(init);
}

std::shared_ptr<const rt::Payload> KooTouegProtocol::computation_payload(
    ProcessId /*dst*/) {
  auto p = util::make_pooled<KtComp>();
  p->csn = own_csn_;
  sent_ = true;
  return p;
}

void KooTouegProtocol::handle_computation(const rt::Message& m) {
  const KtComp* p = m.payload_as<KtComp>();
  MCK_ASSERT(p != nullptr);
  std::size_t j = static_cast<std::size_t>(m.src);
  if (p->csn > csn_[j]) csn_[j] = p->csn;
  R_.set(j);
  process_computation(m);
}

void KooTouegProtocol::initiate() {
  if (coordinating_) return;
  ckpt::InitiationId init = ckpt::make_initiation_id(self(), own_csn_ + 1);
  ctx_.tracker->open(init, self(), ctx_.sim->now());
  take_tentative_and_propagate(init, kInvalidProcess);
}

void KooTouegProtocol::take_tentative_and_propagate(ckpt::InitiationId init,
                                                    ProcessId parent) {
  MCK_ASSERT(!coordinating_);
  coordinating_ = true;

  Coordination c;
  c.initiation = init;
  c.parent = parent;

  ++own_csn_;
  c.ref = take_tentative(init, own_csn_);
  ckpt::InitiationStats& st = stats_of(init);

  // Koo-Toueg blocks the underlying computation from the tentative
  // checkpoint until the commit arrives.
  block();

  // Propagate to every dependency, in increasing pid order (no MR
  // filtering — the O(Nmin * Ndep) message behaviour of Table 1).
  R_.for_each([&](std::size_t j) {
    const ProcessId k = static_cast<ProcessId>(j);
    if (k == self()) return;
    auto rq = util::make_pooled<KtRequest>();
    rq->initiation = init;
    rq->req_csn = csn_[j];
    send_system(rt::MsgKind::kRequest, k, std::move(rq));
    ++st.requests;
    c.children.push_back(k);
    ++c.outstanding_children;
  });

  sent_ = false;
  R_.reset();
  coord_ = std::move(c);

  // Reply to the parent only once the checkpoint data reached stable
  // storage and all children answered.
  sim::SimTime done = start_stable_transfer();
  ctx_.sim->schedule_at(done, [this, init]() {
    if (coord_ && coord_->initiation == init) {
      coord_->transfer_done = true;
      maybe_reply();
    }
  });
}

void KooTouegProtocol::maybe_reply() {
  MCK_ASSERT(coord_.has_value());
  Coordination& c = *coord_;
  if (!c.transfer_done || c.outstanding_children > 0 || c.reply_sent) return;
  c.reply_sent = true;
  if (c.parent == kInvalidProcess) {
    // We are the initiator: phase 2 — commit down the tree.
    ctx_.tracker->mark_committed(stats_of(c.initiation), ctx_.sim->now());
    finish_commit(c.initiation);
  } else {
    auto rp = util::make_pooled<KtReply>();
    rp->initiation = c.initiation;
    send_system(rt::MsgKind::kReply, c.parent, std::move(rp));
    ++stats_of(c.initiation).replies;
  }
}

void KooTouegProtocol::finish_commit(ckpt::InitiationId init) {
  MCK_ASSERT(coord_ && coord_->initiation == init);
  Coordination c = *coord_;
  coord_.reset();
  coordinating_ = false;

  const ckpt::CheckpointRecord& rec = make_permanent(c.ref);
  ckpt::InitiationStats& st = stats_of(init);
  st.blocked_time += ctx_.sim->now() - rec.taken_at;

  for (ProcessId child : c.children) {
    auto cm = util::make_pooled<KtCommit>();
    cm->initiation = init;
    send_system(rt::MsgKind::kCommit, child, std::move(cm));
    ++st.commits;
  }
  unblock();
}

void KooTouegProtocol::handle_system(const rt::Message& m) {
  MCK_ASSERT(m.payload != nullptr);
  switch (m.payload->tag()) {
    case rt::PayloadTag::kKtRequest: {
      const auto* p = static_cast<const KtRequest*>(m.payload.get());
      ctx_.tracker->at(p->initiation).last_request_at = ctx_.sim->now();
      if (coordinating_) {
        // Already part of this coordination (dependency cycles) — answer
        // immediately so the tree unwinds.
        MCK_ASSERT_MSG(coord_ && coord_->initiation == p->initiation,
                       "Koo-Toueg requires serialized initiations");
        auto rp = util::make_pooled<KtReply>();
        rp->initiation = p->initiation;
        send_system(rt::MsgKind::kReply, m.src, std::move(rp));
        ++stats_of(p->initiation).replies;
        ++stats_of(p->initiation).duplicate_requests;
        return;
      }
      if (own_csn_ > p->req_csn) {
        // We checkpointed after the message that created the dependency.
        auto rp = util::make_pooled<KtReply>();
        rp->initiation = p->initiation;
        send_system(rt::MsgKind::kReply, m.src, std::move(rp));
        ++stats_of(p->initiation).replies;
        ++stats_of(p->initiation).duplicate_requests;
        return;
      }
      take_tentative_and_propagate(p->initiation, m.src);
      break;
    }
    case rt::PayloadTag::kKtReply: {
      const auto* p = static_cast<const KtReply*>(m.payload.get());
      if (!coord_ || coord_->initiation != p->initiation) return;
      --coord_->outstanding_children;
      MCK_ASSERT(coord_->outstanding_children >= 0);
      maybe_reply();
      break;
    }
    case rt::PayloadTag::kKtCommit: {
      const auto* p = static_cast<const KtCommit*>(m.payload.get());
      // A process that answered several parents appears in several child
      // lists and receives a commit from each; only the first matters.
      if (!coord_ || coord_->initiation != p->initiation) return;
      finish_commit(p->initiation);
      break;
    }
    default:
      MCK_ASSERT_MSG(false, "unexpected system message in Koo-Toueg");
  }
}

}  // namespace mck::baselines
