// Wireless LAN transport — the evaluation setup of Section 5.1:
// "A system with N MHs connected through a wireless LAN ... bandwidth of
// 2 Mbps, which follows IEEE 802.11".
//
// Messages travel on reliable FIFO channels between each ordered pair of
// processes. Two medium models are provided:
//
//  * kDedicated (default, matches the paper's fixed per-message delays):
//    each message experiences exactly size*8/bandwidth transmission delay;
//    FIFO is enforced per ordered pair. Bulk checkpoint transfers still
//    serialize on the shared medium — this is what makes the paper's
//    "checkpointing time (at most 2 * 16 = 32s)" come out.
//
//  * kShared: every transmission (messages and bulk) serializes on one
//    801.11-style medium, so message latency grows with load. Used by the
//    contention ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fifo.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "rt/transport.hpp"
#include "sim/simulator.hpp"

namespace mck::net {

enum class MediumMode { kDedicated, kShared };

struct LanParams {
  double bandwidth_bps = 2e6;  // 2 Mbps
  sim::SimTime propagation_delay = 0;
  MediumMode mode = MediumMode::kDedicated;

  /// Intermittent wireless errors (Section 3.6): probability that a
  /// transmission attempt is corrupted and must be retried by the link
  /// layer. Each retry costs another transmission time plus a backoff,
  /// so delays jitter — which is exactly what lets computation messages
  /// overtake checkpoint requests and exercises mutable checkpoints.
  /// Requires an Rng (see constructor); 0 = the paper's error-free links.
  double loss_probability = 0.0;
  sim::SimTime retry_backoff = sim::milliseconds(1);
};

class LanTransport final : public rt::Transport {
 public:
  /// `rng` is only needed when params.loss_probability > 0; it must
  /// outlive the transport.
  LanTransport(sim::Simulator& sim, int num_processes, LanParams params = {},
               sim::Rng* rng = nullptr);

  /// Routes deliveries for process `pid` to `fn`. Must be set for every
  /// process before the first send.
  void set_sink(ProcessId pid, rt::DeliverFn fn);

  void send(rt::Message msg) override;
  void broadcast(rt::Message msg) override;
  sim::SimTime transfer_bulk(ProcessId src, std::uint64_t bytes) override;
  int num_processes() const override { return static_cast<int>(sinks_.size()); }

  /// Failure injection (Section 3.6): deliveries to a failed process are
  /// dropped and senders probing reachable() learn of the failure.
  void set_failed(ProcessId pid, bool failed);
  bool reachable(ProcessId pid) const override {
    return failed_.empty() || !failed_[static_cast<std::size_t>(pid)];
  }

  /// Transmission time of `bytes` at the configured bandwidth.
  sim::SimTime tx_time(std::uint64_t bytes) const;

  std::uint64_t transmissions() const { return transmissions_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  sim::SimTime medium_busy_until() const { return medium_free_at_; }

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches the timeline gauge block (null = off). The transport owns
  /// the in_flight gauge: +1 when a message is stamped onto a channel,
  /// -1 when the FIFO sequencer releases it to the sink (or drops it for
  /// a failed endpoint).
  void set_timeline(obs::TimelineCounters* t) { timeline_ = t; }

 private:
  sim::SimTime reserve_medium(std::uint64_t bytes);
  void deliver_at(sim::SimTime at, rt::Message msg);
  void arrive(rt::Message msg);
  /// Extra delay from link-layer retransmissions (0 when error-free).
  sim::SimTime retry_jitter(const rt::Message& msg);

  sim::Simulator& sim_;
  LanParams params_;
  sim::Rng* rng_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::TimelineCounters* timeline_ = nullptr;
  std::vector<rt::DeliverFn> sinks_;
  std::vector<std::uint8_t> failed_;
  FifoSequencer fifo_;
  sim::SimTime medium_free_at_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace mck::net
