#include "net/lan.hpp"

#include "util/assert.hpp"

namespace mck::net {

LanTransport::LanTransport(sim::Simulator& sim, int num_processes,
                           LanParams params, sim::Rng* rng)
    : sim_(sim),
      params_(params),
      rng_(rng),
      sinks_(static_cast<std::size_t>(num_processes)),
      fifo_(num_processes) {
  MCK_ASSERT(num_processes > 0);
  MCK_ASSERT(params_.bandwidth_bps > 0);
  MCK_ASSERT_MSG(params_.loss_probability == 0.0 || rng_ != nullptr,
                 "lossy links need an Rng");
  MCK_ASSERT(params_.loss_probability < 1.0);
}

sim::SimTime LanTransport::retry_jitter(const rt::Message& msg) {
  if (params_.loss_probability <= 0.0) return 0;
  sim::SimTime extra = 0;
  std::uint64_t retries = 0;
  while (rng_->bernoulli(params_.loss_probability)) {
    ++retransmissions_;
    ++retries;
    extra += tx_time(msg.size_bytes) + params_.retry_backoff;
  }
  if (retries > 0 && tracer_ != nullptr) {
    tracer_->record(obs::TraceKind::kMsgRetry, sim_.now(), msg.src,
                    static_cast<std::uint8_t>(msg.kind),
                    static_cast<std::uint16_t>(msg.dst), msg.id,
                    obs::pack_retry(extra, retries));
  }
  return extra;
}

void LanTransport::set_sink(ProcessId pid, rt::DeliverFn fn) {
  MCK_ASSERT(pid >= 0 && pid < num_processes());
  sinks_[static_cast<std::size_t>(pid)] = std::move(fn);
}

sim::SimTime LanTransport::tx_time(std::uint64_t bytes) const {
  double secs = static_cast<double>(bytes) * 8.0 / params_.bandwidth_bps;
  return sim::from_seconds(secs);
}

sim::SimTime LanTransport::reserve_medium(std::uint64_t bytes) {
  sim::SimTime start = std::max(sim_.now(), medium_free_at_);
  sim::SimTime end = start + tx_time(bytes);
  medium_free_at_ = end;
  return end;
}

void LanTransport::set_failed(ProcessId pid, bool failed) {
  if (failed_.empty()) {
    failed_.assign(static_cast<std::size_t>(num_processes()), 0);
  }
  failed_[static_cast<std::size_t>(pid)] = failed ? 1 : 0;
}

namespace {

// Termination messages (commit / abort / clear) act on the *stable
// storage* side of a process: the tentative checkpoint they finalize or
// discard lives at the MSS, which stays up when the MH fails. Dropping
// them would strand committed lines without the failed participant's
// entry — an orphan factory — so they are delivered regardless of the
// MH's health; everything else is lost on a failed endpoint.
bool survives_endpoint_failure(rt::MsgKind k) {
  return k == rt::MsgKind::kCommit || k == rt::MsgKind::kAbort ||
         k == rt::MsgKind::kControl;
}

}  // namespace

void LanTransport::deliver_at(sim::SimTime at, rt::Message msg) {
  MCK_ASSERT(msg.dst >= 0 && msg.dst < num_processes());
  // Fail-stop: a failed process does not send.
  if (!reachable(msg.src)) return;
  if (!reachable(msg.dst) && !survives_endpoint_failure(msg.kind)) return;
  fifo_.stamp(msg);
  ++transmissions_;
  if (timeline_ != nullptr) ++timeline_->in_flight;
  sim_.schedule_at(at, [this, m = std::move(msg)]() mutable {
    arrive(std::move(m));
  });
}

void LanTransport::arrive(rt::Message msg) {
  // FIFO per ordered pair (Section 2.1): overtakers wait for their
  // predecessors.
  fifo_.arrive(std::move(msg), [this](rt::Message m) {
    // Consumed either way below: delivered to the sink or dropped for a
    // failed endpoint — both take it off the wire.
    if (timeline_ != nullptr) --timeline_->in_flight;
    if (!reachable(m.dst) && !survives_endpoint_failure(m.kind)) {
      return;  // failed meanwhile
    }
    MCK_ASSERT_MSG(static_cast<bool>(sinks_[static_cast<std::size_t>(m.dst)]),
                   "no delivery sink registered");
    decode_from_wire(m);  // wire-fidelity mode: re-materialize the payload
    sinks_[static_cast<std::size_t>(m.dst)](m);
  });
}

void LanTransport::send(rt::Message msg) {
  encode_for_wire(msg);
  sim::SimTime arrive;
  if (params_.mode == MediumMode::kShared) {
    arrive = reserve_medium(msg.size_bytes) + params_.propagation_delay;
  } else {
    arrive = sim_.now() + tx_time(msg.size_bytes) + params_.propagation_delay;
  }
  arrive += retry_jitter(msg);
  deliver_at(arrive, std::move(msg));
}

void LanTransport::broadcast(rt::Message msg) {
  // One transmission on the air reaches every host; each non-sender
  // process gets a copy (in fidelity mode the copies share the encoded
  // buffer but each recipient decodes its own payload object).
  encode_for_wire(msg);
  sim::SimTime arrive;
  if (params_.mode == MediumMode::kShared) {
    arrive = reserve_medium(msg.size_bytes) + params_.propagation_delay;
  } else {
    arrive = sim_.now() + tx_time(msg.size_bytes) + params_.propagation_delay;
  }
  for (ProcessId p = 0; p < num_processes(); ++p) {
    if (p == msg.src) continue;
    rt::Message copy = msg;
    copy.dst = p;
    deliver_at(arrive, std::move(copy));
  }
}

sim::SimTime LanTransport::transfer_bulk(ProcessId /*src*/,
                                         std::uint64_t bytes) {
  // Checkpoint data always contends for the shared wireless medium.
  return reserve_medium(bytes);
}

}  // namespace mck::net
