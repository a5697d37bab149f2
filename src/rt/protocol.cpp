#include "rt/protocol.hpp"

#include "rt/wire.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mck::rt {

namespace {

/// One guarded append; the null test is the entire cost when tracing is
/// off (ctx.tracer never changes during a run).
inline void trace(const ProcessContext& ctx, obs::TraceKind kind,
                  std::uint8_t sub, std::uint16_t aux, std::uint64_t arg0,
                  std::uint64_t arg1) {
  if (ctx.tracer != nullptr) {
    ctx.tracer->record(kind, ctx.sim->now(), ctx.self, sub, aux, arg0, arg1);
  }
}

}  // namespace

void CheckpointProtocol::bind(const ProcessContext& ctx) {
  ctx_ = ctx;
  // Size the per-process energy ledger once, instead of re-checking the
  // vector size on every send/deliver in the hot path.
  if (ctx_.stats != nullptr && ctx_.num_processes > 0) {
    ctx_.stats->energy.ensure(static_cast<std::size_t>(ctx_.num_processes));
  }
}

std::uint64_t CheckpointProtocol::system_payload_wire_size(
    const Payload& p) const {
  return ctx_.codec != nullptr ? ctx_.codec->wire_size(p) : 0;
}

void CheckpointProtocol::send_computation(ProcessId dst) {
  MCK_ASSERT(ctx_.sim != nullptr);
  MCK_ASSERT(dst != ctx_.self);
  if (blocked_) {
    deferred_sends_.push_back(dst);
    ++ctx_.stats->blocked_sends_deferred;
    return;
  }
  Message m;
  m.kind = MsgKind::kComputation;
  m.src = ctx_.self;
  m.dst = dst;
  m.size_bytes = ctx_.timing->comp_msg_bytes;
  m.sent_at = ctx_.sim->now();
  m.payload = computation_payload(dst);
  // Honest accounting: the piggybacked csn/trigger/round rides on top of
  // the 1 KB application data (the budget already covers the framing).
  const bool want_honest =
      (ctx_.timing->use_wire_sizes || ctx_.timing->record_wire_bytes) &&
      ctx_.codec != nullptr;
  std::uint64_t honest = m.size_bytes;
  if (want_honest && m.payload != nullptr) {
    honest += ctx_.codec->payload_bytes(*m.payload);
  }
  if (ctx_.timing->use_wire_sizes) m.size_bytes = honest;
  m.id = ctx_.log->record_send(ctx_.self, dst);
  // cursor() just advanced past this send, so it equals send_event + 1 —
  // exactly the audit stamp convention (0 is reserved for system messages).
  trace(ctx_, obs::TraceKind::kMsgSend, static_cast<std::uint8_t>(m.kind),
        static_cast<std::uint16_t>(dst), m.id,
        obs::pack_msg_stamp(ctx_.log->cursor(ctx_.self), m.size_bytes));
  ++ctx_.stats->msgs_sent[static_cast<int>(m.kind)];
  ctx_.stats->bytes_sent[static_cast<int>(m.kind)] += m.size_bytes;
  if (ctx_.timing->record_wire_bytes || ctx_.timing->use_wire_sizes) {
    ctx_.stats->wire_bytes_sent[static_cast<int>(m.kind)] += honest;
  }
  stats::ProcessEnergy& e =
      ctx_.stats->energy.per_process[static_cast<std::size_t>(ctx_.self)];
  ++e.tx_comp_msgs;
  e.tx_bytes += m.size_bytes;
  ctx_.net->send(std::move(m));
}

void CheckpointProtocol::on_deliver(const Message& m) {
  // A computation message is processed synchronously below and nothing
  // advances the event cursor in between (forced checkpoints do not log
  // events), so the receive-event index it will be logged under is the
  // current cursor; stamp it (+1) for the offline auditor.
  const std::uint64_t recv_stamp = m.kind == MsgKind::kComputation
                                       ? ctx_.log->cursor(ctx_.self) + 1
                                       : 0;
  trace(ctx_, obs::TraceKind::kMsgDeliver, static_cast<std::uint8_t>(m.kind),
        static_cast<std::uint16_t>(m.src), m.id,
        obs::pack_msg_stamp(recv_stamp, m.size_bytes));
  ++ctx_.stats->deliveries;
  stats::ProcessEnergy& e =
      ctx_.stats->energy.per_process[static_cast<std::size_t>(ctx_.self)];
  e.rx_bytes += m.size_bytes;
  if (m.kind == MsgKind::kComputation) {
    ++e.rx_comp_msgs;
    handle_computation(m);
  } else {
    ++e.rx_sys_msgs;  // a dozing MH is woken by this message
    handle_system(m);
  }
}

void CheckpointProtocol::post_system(MsgKind kind, ProcessId dst,
                                     std::shared_ptr<const Payload> payload) {
  MCK_ASSERT(is_system(kind));
  const bool broadcast = dst == kInvalidProcess;
  Message m;
  m.kind = kind;
  m.src = ctx_.self;
  m.dst = dst;
  m.size_bytes = ctx_.timing->sys_msg_bytes;
  const bool want_honest =
      ctx_.timing->use_wire_sizes || ctx_.timing->record_wire_bytes;
  std::uint64_t honest = m.size_bytes;
  if (want_honest && payload != nullptr) {
    std::uint64_t ws = system_payload_wire_size(*payload);
    if (ws > 0) honest = ws;
  }
  if (ctx_.timing->use_wire_sizes) m.size_bytes = honest;
  m.sent_at = ctx_.sim->now();
  m.payload = std::move(payload);
  m.id = ctx_.log->next_msg_id();
  // A broadcast is one transmission on the shared medium but is counted
  // once per recipient for byte accounting symmetry with [13].
  trace(ctx_, obs::TraceKind::kMsgSend, static_cast<std::uint8_t>(kind),
        broadcast ? obs::kBroadcastDst : static_cast<std::uint16_t>(dst),
        m.id, m.size_bytes);
  ++ctx_.stats->msgs_sent[static_cast<int>(kind)];
  ctx_.stats->bytes_sent[static_cast<int>(kind)] += m.size_bytes;
  if (want_honest) {
    ctx_.stats->wire_bytes_sent[static_cast<int>(kind)] += honest;
  }
  stats::ProcessEnergy& e =
      ctx_.stats->energy.per_process[static_cast<std::size_t>(ctx_.self)];
  ++e.tx_sys_msgs;
  e.tx_bytes += m.size_bytes;
  if (broadcast) {
    ctx_.net->broadcast(std::move(m));
  } else {
    ctx_.net->send(std::move(m));
  }
}

void CheckpointProtocol::process_computation(const Message& m) {
  ctx_.log->record_recv(m.id, ctx_.self);
  if (on_app_message) on_app_message(m);
}

void CheckpointProtocol::charge_mutable_save() {
  ctx_.stats->mutable_overhead_time += ctx_.timing->mutable_save_delay;
}

sim::SimTime CheckpointProtocol::start_stable_transfer() {
  sim::SimTime done =
      ctx_.net->transfer_bulk(ctx_.self, ctx_.timing->ckpt_bytes);
  if (done > ctx_.sim->now()) {
    // Radio airtime was actually spent (a disconnected MH's checkpoint is
    // converted at the MSS for free, Section 2.2).
    ctx_.stats->energy.per_process[static_cast<std::size_t>(ctx_.self)]
        .bulk_bytes += ctx_.timing->ckpt_bytes;
  }
  return done + ctx_.timing->disk_delay;
}

ckpt::CkptRef CheckpointProtocol::take_tentative(ckpt::InitiationId init,
                                                Csn csn) {
  const ckpt::CkptRef ref =
      ctx_.store->take(ctx_.self, ckpt::CkptKind::kTentative, csn, init,
                       ctx_.log->cursor(ctx_.self), ctx_.sim->now());
  ++ctx_.stats->tentative_taken;
  ++ctx_.tracker->at(init).tentative;
  return ref;
}

const ckpt::CheckpointRecord& CheckpointProtocol::make_permanent(
    ckpt::CkptRef ref) {
  ctx_.store->make_permanent(ref, ctx_.sim->now());
  ++ctx_.stats->permanent_made;
  const ckpt::CheckpointRecord& rec = ctx_.store->get(ref);
  ctx_.tracker->at(rec.initiation)
      .line_updates.emplace_back(ctx_.self, rec.event_cursor);
  return rec;
}

void CheckpointProtocol::block() {
  if (blocked_) return;
  blocked_ = true;
  blocked_since_ = ctx_.sim->now();
  if (ctx_.timeline != nullptr) ++ctx_.timeline->blocked;
  trace(ctx_, obs::TraceKind::kBlock, 0, 0, 0, 0);
}

void CheckpointProtocol::unblock() {
  if (!blocked_) return;
  blocked_ = false;
  if (ctx_.timeline != nullptr) --ctx_.timeline->blocked;
  sim::SimTime blocked_for = ctx_.sim->now() - blocked_since_;
  ctx_.stats->blocked_time_total += blocked_for;
  trace(ctx_, obs::TraceKind::kUnblock, 0, 0,
        static_cast<std::uint64_t>(blocked_for), 0);
  blocked_since_ = -1;
  dispatch_deferred();
}

void CheckpointProtocol::dispatch_deferred() {
  std::vector<ProcessId> pending;
  pending.swap(deferred_sends_);
  for (ProcessId dst : pending) {
    send_computation(dst);
  }
}

}  // namespace mck::rt
