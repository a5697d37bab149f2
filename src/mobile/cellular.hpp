// Cellular mobile system transport (Sections 2.1-2.2 of the paper):
// mobile hosts live in cells, each served by a mobile support station;
// MSSs are connected by a wired network, MHs reach their MSS over a
// wireless channel. One process runs per MH.
//
// Modelled behaviours:
//  * Routing: MH -> local MSS (wireless) -> destination MSS (wired) ->
//    destination MH (wireless), each hop with its transmission delay.
//  * Handoff: if the destination MH moved while the message was in
//    flight, the old MSS forwards it (extra wired + wireless hops) — the
//    paper's "a message may be routed several times before reaching its
//    destination".
//  * Disconnection (Section 2.2): computation messages to a disconnected
//    MH are buffered at its MSS and delivered on reconnection, in order.
//    System messages still reach the protocol instance, which models the
//    MSS acting on the MH's behalf using the disconnect_checkpoint and
//    the deposited dependency vector (proof of Theorem 1, Case 3).
//    Checkpoint transfers for a disconnected process are free: the
//    disconnect_checkpoint already sits on the MSS's stable storage.
//  * End-to-end FIFO per ordered process pair (the paper's channel
//    assumption), enforced with per-pair delivery floors.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/fifo.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "rt/transport.hpp"
#include "sim/simulator.hpp"
#include "util/small_vec.hpp"
#include "util/types.hpp"

namespace mck::mobile {

struct CellularParams {
  int num_mss = 4;
  /// Hierarchical topology: each MSS serves this many wireless cells, so
  /// the system has num_mss * cells_per_mss cells total. The default of 1
  /// is the paper's flat topology (one cell per MSS). Scaling the
  /// population means scaling cells (each an independent wireless medium)
  /// much faster than backbone routers, which is what large deployments
  /// do: num_mss stays modest while cells_per_mss absorbs n.
  int cells_per_mss = 1;
  double wireless_bps = 2e6;   // IEEE 802.11 LAN per cell
  double wired_bps = 100e6;    // MSS backbone
  sim::SimTime wired_latency = sim::milliseconds(1);   // per backbone hop
  sim::SimTime forward_penalty = sim::milliseconds(5); // handoff reroute
};

class CellularTransport final : public rt::Transport {
 public:
  CellularTransport(sim::Simulator& sim, int num_processes,
                    CellularParams params = {});

  void set_sink(ProcessId pid, rt::DeliverFn fn);

  // ---- rt::Transport ---------------------------------------------------
  void send(rt::Message msg) override;
  void broadcast(rt::Message msg) override;
  sim::SimTime transfer_bulk(ProcessId src, std::uint64_t bytes) override;
  int num_processes() const override { return static_cast<int>(sinks_.size()); }

  // ---- mobility control -------------------------------------------------
  MssId mss_of(ProcessId pid) const {
    return mss_of_[static_cast<std::size_t>(pid)];
  }
  int num_mss() const { return params_.num_mss; }

  /// Hierarchical topology: the wireless cell hosting `pid`. Cell c is
  /// served by MSS c % num_mss, so with the static round-robin placement
  /// cell_of(p) = p % num_cells and mss_of(p) = p % num_mss — the flat
  /// topology's MSS assignment is unchanged for every cells_per_mss.
  int cell_of(ProcessId pid) const {
    return cell_of_[static_cast<std::size_t>(pid)];
  }
  int num_cells() const { return params_.num_mss * params_.cells_per_mss; }

  /// Moves the MH hosting `pid` into the cell of `to`.
  void handoff(ProcessId pid, MssId to);

  /// Voluntary disconnection: computation messages start buffering at the
  /// MSS. The caller is responsible for having deposited a
  /// disconnect_checkpoint first (CaoSinghalProtocol::on_disconnect()).
  void disconnect(ProcessId pid);

  /// Reconnection at `at` (possibly a different cell): the old MSS hands
  /// over buffered messages, which are delivered in order.
  void reconnect(ProcessId pid, MssId at);

  bool is_disconnected(ProcessId pid) const {
    return disconnected_[static_cast<std::size_t>(pid)] != 0;
  }

  std::uint64_t messages_forwarded() const { return forwarded_; }
  std::uint64_t messages_buffered() const { return buffered_total_; }
  std::uint64_t handoffs() const { return handoffs_; }

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches the timeline gauge block (null = off). The transport owns
  /// in_flight (stamped -> handed to the process / buffered), buffered_now
  /// plus the per-MSS depth gauges (MSS buffering for disconnected MHs),
  /// and the disconnected-MH gauge.
  void set_timeline(obs::TimelineCounters* t) { timeline_ = t; }

 private:
  /// One recipient of a coalesced broadcast: everything that had to be
  /// captured at send time — the FIFO stamp and the routing snapshot (an
  /// in-flight handoff must still trigger the forward-penalty reroute).
  struct BroadcastEntry {
    ProcessId pid;
    std::uint32_t seq;
    MssId routed_to;
  };
  /// A broadcast arrival class: every listed recipient hears the shared
  /// template message at the same instant (12 B per recipient instead of
  /// a whole heap event each — see broadcast()).
  struct BroadcastBatch {
    rt::Message tmpl;
    std::vector<BroadcastEntry> entries;
  };

  sim::SimTime wireless_tx(std::uint64_t bytes) const;
  sim::SimTime wired_tx(std::uint64_t bytes) const;
  sim::SimTime path_delay(MssId from, MssId to, std::uint64_t bytes) const;
  void launch(rt::Message msg);
  void arrive(rt::Message msg, MssId routed_to);
  void hand_to_process(rt::Message msg);
  void end_drain(ProcessId pid);
  void deliver_batch(const std::shared_ptr<BroadcastBatch>& batch);

  sim::Simulator& sim_;
  CellularParams params_;
  obs::Tracer* tracer_ = nullptr;
  obs::TimelineCounters* timeline_ = nullptr;
  std::vector<rt::DeliverFn> sinks_;
  std::vector<MssId> mss_of_;
  std::vector<int> cell_of_;
  std::vector<std::uint8_t> disconnected_;
  // Lazily created per *disconnected* pid (a dense per-process table is
  // hundreds of bytes per process whether or not it ever disconnects —
  // fatal at 1M). Short disconnections (the common case) buffer a handful
  // of messages, so the queue is inline up to 4 before spilling.
  std::unordered_map<ProcessId, util::SmallVec<rt::Message, 4>> buffer_;
  // Per reconnected MH whose buffer flush is still in progress: when the
  // last buffered message is handed over. Computation messages reaching
  // the MH before then wait until then (FIFO behind the flush). Erased by
  // the flush's last frame.
  std::unordered_map<ProcessId, sim::SimTime> drain_until_;
  // FIFO is enforced separately for computation and system messages: the
  // MSS proxies system messages for a disconnected MH (Section 2.2) while
  // its computation messages sit in the buffer, so the two classes may
  // legitimately interleave.
  net::FifoSequencer comp_fifo_;
  net::FifoSequencer sys_fifo_;
  std::vector<sim::SimTime> cell_medium_free_;   // bulk transfers per cell
  std::uint64_t forwarded_ = 0;
  std::uint64_t buffered_total_ = 0;
  std::uint64_t handoffs_ = 0;
};

}  // namespace mck::mobile
