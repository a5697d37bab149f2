#include "mobile/cellular.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/assert.hpp"

namespace mck::mobile {

namespace {

/// Topology parameters come straight from user-facing flags, so bad
/// values get a clear construction-time error instead of a raw assert (or
/// a modulo-by-zero) deep in placement code.
int validate_topology(int num_processes, const CellularParams& params) {
  if (num_processes < 1) {
    throw std::invalid_argument("cellular topology: num_processes must be "
                                ">= 1, got " + std::to_string(num_processes));
  }
  if (params.num_mss <= 0) {
    throw std::invalid_argument("cellular topology: num_mss must be > 0, "
                                "got " + std::to_string(params.num_mss));
  }
  if (params.cells_per_mss <= 0) {
    throw std::invalid_argument("cellular topology: cells_per_mss must be "
                                "> 0, got " +
                                std::to_string(params.cells_per_mss));
  }
  return num_processes;
}

}  // namespace

CellularTransport::CellularTransport(sim::Simulator& sim, int num_processes,
                                     CellularParams params)
    : sim_(sim),
      params_(params),
      sinks_(static_cast<std::size_t>(validate_topology(num_processes,
                                                        params))),
      mss_of_(static_cast<std::size_t>(num_processes)),
      cell_of_(static_cast<std::size_t>(num_processes)),
      disconnected_(static_cast<std::size_t>(num_processes), 0),
      comp_fifo_(num_processes),
      sys_fifo_(num_processes),
      cell_medium_free_(
          static_cast<std::size_t>(params.num_mss) *
              static_cast<std::size_t>(std::max(params.cells_per_mss, 1)),
          0) {
  // Static placement: MHs spread round-robin over the cells; cell c hangs
  // off MSS c % num_mss, which keeps mss_of(p) = p % num_mss for every
  // cells_per_mss (see cell_of() in the header).
  const int cells = num_cells();
  for (int p = 0; p < num_processes; ++p) {
    const int c = p % cells;
    cell_of_[static_cast<std::size_t>(p)] = c;
    mss_of_[static_cast<std::size_t>(p)] = c % params_.num_mss;
  }
}

void CellularTransport::set_sink(ProcessId pid, rt::DeliverFn fn) {
  MCK_ASSERT(pid >= 0 && pid < num_processes());
  sinks_[static_cast<std::size_t>(pid)] = std::move(fn);
}

sim::SimTime CellularTransport::wireless_tx(std::uint64_t bytes) const {
  return sim::from_seconds(static_cast<double>(bytes) * 8.0 /
                           params_.wireless_bps);
}

sim::SimTime CellularTransport::wired_tx(std::uint64_t bytes) const {
  return sim::from_seconds(static_cast<double>(bytes) * 8.0 /
                           params_.wired_bps);
}

sim::SimTime CellularTransport::path_delay(MssId from, MssId to,
                                           std::uint64_t bytes) const {
  sim::SimTime d = wireless_tx(bytes);  // MH -> MSS uplink
  if (from != to) d += params_.wired_latency + wired_tx(bytes);
  d += wireless_tx(bytes);  // MSS -> MH downlink
  return d;
}

void CellularTransport::launch(rt::Message msg) {
  MCK_ASSERT(msg.dst >= 0 && msg.dst < num_processes());
  encode_for_wire(msg);
  if (msg.kind == rt::MsgKind::kComputation) {
    comp_fifo_.stamp(msg);
  } else {
    sys_fifo_.stamp(msg);
  }
  if (timeline_ != nullptr) ++timeline_->in_flight;
  MssId src_mss = mss_of_[static_cast<std::size_t>(msg.src)];
  MssId dst_mss = mss_of_[static_cast<std::size_t>(msg.dst)];
  sim::SimTime at = sim_.now() + path_delay(src_mss, dst_mss, msg.size_bytes);
  sim_.schedule_at(at, [this, m = std::move(msg), dst_mss]() mutable {
    arrive(std::move(m), dst_mss);
  });
}

void CellularTransport::send(rt::Message msg) { launch(std::move(msg)); }

void CellularTransport::broadcast(rt::Message msg) {
  // The initiator's MSS floods the wired backbone; each MSS transmits in
  // its own cell. A naive fan-out schedules one arrival event per
  // recipient — at n = 1M that is a million heap events per commit or
  // abort broadcast. But every recipient's arrival time falls in exactly
  // one of two classes: same-MSS (uplink + downlink) or cross-MSS (one
  // backbone hop more, identical for every remote MSS). The original
  // per-recipient events within a class carried consecutive heap
  // sequence numbers, i.e. they ran back-to-back in ascending pid order,
  // so one batch event per class that walks its recipients in ascending
  // pid reproduces the exact global execution order with two scheduled
  // events instead of n - 1. Per-recipient state that must be captured
  // at send time (the FIFO stamp, the routing snapshot for in-flight
  // handoffs) rides in the 12-byte batch entries.
  const ProcessId n = num_processes();
  encode_for_wire(msg);
  net::FifoSequencer& fifo =
      msg.kind == rt::MsgKind::kComputation ? comp_fifo_ : sys_fifo_;
  const MssId src_mss = mss_of_[static_cast<std::size_t>(msg.src)];
  const std::uint64_t bytes = msg.size_bytes;
  const sim::SimTime d_local = path_delay(src_mss, src_mss, bytes);
  const sim::SimTime d_remote =
      d_local + params_.wired_latency + wired_tx(bytes);
  // Degenerate configs (zero backbone cost) collapse both classes onto
  // one arrival time; everything then goes into a single batch so the
  // ascending-pid walk stays globally ascending.
  const bool single_class = d_remote == d_local;
  auto local = std::make_shared<BroadcastBatch>();
  auto remote = std::make_shared<BroadcastBatch>();
  local->entries.reserve(static_cast<std::size_t>(n) - 1);
  if (!single_class) {
    remote->entries.reserve(static_cast<std::size_t>(n) - 1);
  }
  for (ProcessId p = 0; p < n; ++p) {
    if (p == msg.src) continue;
    if (timeline_ != nullptr) ++timeline_->in_flight;
    const MssId dst_mss = mss_of_[static_cast<std::size_t>(p)];
    BroadcastBatch& b =
        (single_class || dst_mss == src_mss) ? *local : *remote;
    b.entries.push_back(
        BroadcastEntry{p, fifo.stamp_channel(msg.src, p), dst_mss});
  }
  // Same-MSS arrivals strictly precede cross-MSS arrivals (the backbone
  // hop adds delay), matching the retired per-recipient event order.
  const bool has_remote = !remote->entries.empty();
  if (!local->entries.empty()) {
    local->tmpl = has_remote ? msg : std::move(msg);
    sim_.schedule_at(sim_.now() + d_local,
                     [this, b = std::move(local)]() { deliver_batch(b); });
  }
  if (has_remote) {
    remote->tmpl = std::move(msg);
    sim_.schedule_at(sim_.now() + d_remote,
                     [this, b = std::move(remote)]() { deliver_batch(b); });
  }
}

void CellularTransport::deliver_batch(const std::shared_ptr<BroadcastBatch>& batch) {
  // A recipient in steady state — connected, not rerouted mid-flight, in
  // FIFO order — needs none of the arrival machinery, so a run of such
  // entries is delivered by ONE scheduled event that walks the entries
  // against the shared template. The old shape (one hand_to_process event
  // per recipient) held a million event slots live at once during a
  // 1M-host commit broadcast — ~150 MB of pool that never shrank.
  //
  // Order is preserved exactly: per-recipient delivery events carried the
  // largest sequence numbers of their timestamp, so they already executed
  // as a contiguous block in entry order; a slow entry flushes the run
  // collected so far (its event seq precedes whatever the slow arrival
  // schedules) and starts a new run, reproducing the interleaving.
  net::FifoSequencer& fifo =
      batch->tmpl.kind == rt::MsgKind::kComputation ? comp_fifo_ : sys_fifo_;
  const ProcessId src = batch->tmpl.src;
  const bool buffers = batch->tmpl.kind == rt::MsgKind::kComputation;
  std::size_t run_begin = 0;
  auto flush = [&](std::size_t end) {
    if (run_begin == end) return;
    sim_.schedule_after(0, [this, b = batch, s = run_begin, end]() {
      rt::Message m = b->tmpl;
      decode_from_wire(m);
      for (std::size_t k = s; k < end; ++k) {
        if (timeline_ != nullptr) --timeline_->in_flight;
        m.dst = b->entries[k].pid;
        m.channel_seq = b->entries[k].seq;
        MCK_ASSERT_MSG(
            static_cast<bool>(sinks_[static_cast<std::size_t>(m.dst)]),
            "no delivery sink registered");
        sinks_[static_cast<std::size_t>(m.dst)](m);
      }
    });
    run_begin = end;
  };
  const std::size_t count = batch->entries.size();
  for (std::size_t i = 0; i < count; ++i) {
    const BroadcastEntry& e = batch->entries[i];
    const bool disc = is_disconnected(e.pid);
    const bool reroute =
        !disc && mss_of_[static_cast<std::size_t>(e.pid)] != e.routed_to;
    if (!reroute && !(disc && buffers) &&
        fifo.try_fast_deliver(src, e.pid, e.seq)) {
      continue;
    }
    flush(i);
    rt::Message m = batch->tmpl;
    m.dst = e.pid;
    m.channel_seq = e.seq;
    arrive(std::move(m), e.routed_to);
    run_begin = i + 1;
  }
  flush(count);
}

void CellularTransport::arrive(rt::Message msg, MssId routed_to) {
  ProcessId dst = msg.dst;
  MssId cur = mss_of_[static_cast<std::size_t>(dst)];
  if (!is_disconnected(dst) && cur != routed_to) {
    // The MH moved while the message was in flight: the old MSS forwards
    // it to the new one (the rerouting cost of Section 1).
    ++forwarded_;
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kMsgForwarded, sim_.now(), dst,
                      static_cast<std::uint8_t>(msg.kind),
                      static_cast<std::uint16_t>(cur), msg.id, routed_to);
    }
    sim::SimTime at = sim_.now() + params_.forward_penalty +
                      params_.wired_latency + wired_tx(msg.size_bytes) +
                      wireless_tx(msg.size_bytes);
    sim_.schedule_at(at, [this, m = std::move(msg), cur]() mutable {
      arrive(std::move(m), cur);
    });
    return;
  }

  net::FifoSequencer& fifo =
      msg.kind == rt::MsgKind::kComputation ? comp_fifo_ : sys_fifo_;
  fifo.arrive(std::move(msg), [this](rt::Message m) {
    if (is_disconnected(m.dst) && m.kind == rt::MsgKind::kComputation) {
      // Buffered at the MSS until reconnection (Section 2.2).
      ++buffered_total_;
      if (timeline_ != nullptr) {
        --timeline_->in_flight;  // off the wire, parked at the MSS
        ++timeline_->buffered_now;
        ++timeline_->mss_depth[static_cast<std::size_t>(
            mss_of_[static_cast<std::size_t>(m.dst)])];
      }
      if (tracer_ != nullptr) {
        tracer_->record(obs::TraceKind::kMsgBuffered, sim_.now(), m.dst,
                        static_cast<std::uint8_t>(m.kind),
                        static_cast<std::uint16_t>(
                            mss_of_[static_cast<std::size_t>(m.dst)]),
                        m.id, buffer_[m.dst].size() + 1);
      }
      buffer_[m.dst].push_back(std::move(m));
      return;
    }
    if (m.kind == rt::MsgKind::kComputation && !drain_until_.empty()) {
      auto draining = drain_until_.find(m.dst);
      if (draining != drain_until_.end()) {
        // The reconnect flush is still handing this MH its buffered
        // messages: queue behind them so no channel is overtaken.
        sim_.schedule_at(draining->second,
                         [this, msg = std::move(m)]() mutable {
                           hand_to_process(std::move(msg));
                         });
        return;
      }
    }
    hand_to_process(std::move(m));
  });
}

void CellularTransport::hand_to_process(rt::Message msg) {
  if (timeline_ != nullptr) --timeline_->in_flight;
  // Wire-fidelity mode: messages stay encoded through forwarding and MSS
  // buffering; the payload is only re-materialized here, at the last hop.
  decode_from_wire(msg);
  // Deliver via an event so protocol handlers never re-enter each other.
  sim_.schedule_after(0, [this, m = std::move(msg)]() {
    MCK_ASSERT_MSG(static_cast<bool>(sinks_[static_cast<std::size_t>(m.dst)]),
                   "no delivery sink registered");
    sinks_[static_cast<std::size_t>(m.dst)](m);
  });
}

sim::SimTime CellularTransport::transfer_bulk(ProcessId src,
                                              std::uint64_t bytes) {
  if (is_disconnected(src)) {
    // The disconnect_checkpoint already sits at the MSS: converting it to
    // a tentative checkpoint moves no data over the air.
    return sim_.now();
  }
  const int cell = cell_of_[static_cast<std::size_t>(src)];
  sim::SimTime& free_at = cell_medium_free_[static_cast<std::size_t>(cell)];
  sim::SimTime start = std::max(sim_.now(), free_at);
  sim::SimTime end = start + wireless_tx(bytes);
  free_at = end;
  return end;
}

void CellularTransport::handoff(ProcessId pid, MssId to) {
  MCK_ASSERT(to >= 0 && to < params_.num_mss);
  MCK_ASSERT_MSG(!is_disconnected(pid), "handoff while disconnected");
  if (mss_of_[static_cast<std::size_t>(pid)] == to) return;
  MssId from = mss_of_[static_cast<std::size_t>(pid)];
  mss_of_[static_cast<std::size_t>(pid)] = to;
  // Cell `to` is served by MSS `to` (to < num_mss), so the moved MH lands
  // in that MSS's first cell.
  cell_of_[static_cast<std::size_t>(pid)] = to;
  ++handoffs_;
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceKind::kHandoff, sim_.now(), pid, 0, 0,
                    static_cast<std::uint64_t>(from),
                    static_cast<std::uint64_t>(to));
  }
}

void CellularTransport::disconnect(ProcessId pid) {
  MCK_ASSERT(!is_disconnected(pid));
  disconnected_[static_cast<std::size_t>(pid)] = 1;
  if (timeline_ != nullptr) ++timeline_->disconnected;
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceKind::kDisconnect, sim_.now(), pid, 0, 0,
                    static_cast<std::uint64_t>(
                        mss_of_[static_cast<std::size_t>(pid)]),
                    0);
  }
}

void CellularTransport::reconnect(ProcessId pid, MssId at) {
  MCK_ASSERT(is_disconnected(pid));
  MCK_ASSERT(at >= 0 && at < params_.num_mss);
  disconnected_[static_cast<std::size_t>(pid)] = 0;
  if (timeline_ != nullptr) --timeline_->disconnected;
  // The buffered messages live at the *old* MSS — snapshot it before the
  // reassignment below so the depth gauge drains the right slot.
  const MssId old_mss = mss_of_[static_cast<std::size_t>(pid)];
  mss_of_[static_cast<std::size_t>(pid)] = at;
  cell_of_[static_cast<std::size_t>(pid)] = at;
  auto buffered = buffer_.find(pid);
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceKind::kReconnect, sim_.now(), pid, 0, 0,
                    static_cast<std::uint64_t>(at),
                    buffered != buffer_.end() ? buffered->second.size() : 0);
  }
  // The old MSS transfers the support information (buffered messages) to
  // the new MSS, which forwards them to the MH, in order.
  util::SmallVec<rt::Message, 4> pending;
  if (buffered != buffer_.end()) {
    pending = std::move(buffered->second);
    buffer_.erase(buffered);
  }
  if (pending.empty()) return;
  // A flush still draining from an earlier reconnection goes first.
  sim::SimTime at_time = sim_.now() + params_.wired_latency;
  auto drain = drain_until_.try_emplace(pid, at_time).first;
  at_time = std::max(at_time, drain->second);
  std::size_t left = pending.size();
  for (rt::Message& m : pending) {
    if (timeline_ != nullptr) {
      // Back on the wire for the final downlink; hand_to_process takes it
      // off in_flight again on delivery.
      --timeline_->buffered_now;
      --timeline_->mss_depth[static_cast<std::size_t>(old_mss)];
      ++timeline_->in_flight;
    }
    at_time += wireless_tx(m.size_bytes);
    const bool last = --left == 0;
    sim_.schedule_at(at_time, [this, last, msg = std::move(m)]() mutable {
      if (last) end_drain(msg.dst);
      hand_to_process(std::move(msg));
    });
  }
  drain->second = at_time;
}

void CellularTransport::end_drain(ProcessId pid) {
  // A later reconnection may have extended the drain; its own last frame
  // retires the entry then.
  auto drain = drain_until_.find(pid);
  if (drain != drain_until_.end() && drain->second == sim_.now()) {
    drain_until_.erase(drain);
  }
}

}  // namespace mck::mobile
