// Pluggable checkpointing-protocol interface.
//
// One CheckpointProtocol instance runs per process. The workload layer
// calls send_computation()/initiate(); the transport calls on_deliver().
// ProtocolBase centralises everything every algorithm needs — event
// logging, message construction, blocking bookkeeping, checkpoint timing —
// so each algorithm file contains only its coordination logic and the
// comparisons stay apples-to-apples.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ckpt/event_log.hpp"
#include "ckpt/store.hpp"
#include "ckpt/tracker.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "rt/message.hpp"
#include "rt/transport.hpp"
#include "sim/simulator.hpp"
#include "stats/energy.hpp"
#include "util/types.hpp"

namespace mck::rt {

/// Timing constants of the paper's simulation model (Section 5.1). The
/// paper computes delays with decimal units (1 KB -> 8*1/2 = 4 ms,
/// 512 KB ~ 0.5 MB -> 0.5*8/2 = 2 s at 2 Mbps), so we use decimal sizes
/// to reproduce those numbers exactly.
struct TimingConfig {
  std::uint64_t comp_msg_bytes = 1000;       // 1 KB computation message
  std::uint64_t sys_msg_bytes = 50;          // 50 B system message
  std::uint64_t ckpt_bytes = 500000;         // incremental checkpoint
  sim::SimTime mutable_save_delay = sim::microseconds(2500);  // 2.5 ms
  sim::SimTime disk_delay = 0;  // "disk access time is not counted"

  /// When set, messages are charged their true serialized size (via the
  /// universal codec in ProcessContext::codec) instead of the paper's
  /// flat budgets: system messages replace the 50 B constant — the MR
  /// structure and the weight make checkpoint requests grow with N and
  /// propagation depth — and computation messages are charged their
  /// piggyback bytes on top of the 1 KB application data.
  bool use_wire_sizes = false;

  /// When set, RunStats::wire_bytes_sent records the honest codec size of
  /// every message *without* changing what is charged to the medium —
  /// flat-budget timing with honest byte columns next to it. Implied by
  /// use_wire_sizes in the CLI drivers (--wire-sizes sets both).
  bool record_wire_bytes = false;
};

/// Global run counters, shared by all processes of a run.
struct RunStats {
  std::uint64_t msgs_sent[kMsgKindCount] = {};   // indexed by MsgKind
  std::uint64_t bytes_sent[kMsgKindCount] = {};
  /// Honest codec size per kind (link header + encoded payload; flat
  /// budget when a message has no payload). Populated only when
  /// TimingConfig::record_wire_bytes or use_wire_sizes is set.
  std::uint64_t wire_bytes_sent[kMsgKindCount] = {};
  std::uint64_t deliveries = 0;

  std::uint64_t tentative_taken = 0;
  std::uint64_t mutable_taken = 0;
  std::uint64_t mutable_promoted = 0;
  std::uint64_t mutable_discarded = 0;
  std::uint64_t permanent_made = 0;
  std::uint64_t forced_by_message = 0;  // stable ckpts triggered by a
                                        // computation message (csn schemes)
  std::uint64_t checkpoint_cascades = 0;  // avalanche chain links
  std::uint64_t pending_reaped = 0;       // zombie tentatives self-aborted

  sim::SimTime blocked_time_total = 0;
  std::uint64_t blocked_sends_deferred = 0;
  sim::SimTime mutable_overhead_time = 0;  // total memory-copy time spent

  /// Per-MH radio accounting (doze wakeups, airtime -> joules).
  stats::EnergyLedger energy;

  std::uint64_t system_msgs() const {
    std::uint64_t n = 0;
    for (int k = 1; k < kMsgKindCount; ++k) n += msgs_sent[k];
    return n;
  }
  std::uint64_t system_bytes() const {
    std::uint64_t n = 0;
    for (int k = 1; k < kMsgKindCount; ++k) n += bytes_sent[k];
    return n;
  }
  std::uint64_t system_wire_bytes() const {
    std::uint64_t n = 0;
    for (int k = 1; k < kMsgKindCount; ++k) n += wire_bytes_sent[k];
    return n;
  }
};

class WireCodec;

/// Everything a protocol instance needs from its environment.
struct ProcessContext {
  ProcessId self = kInvalidProcess;
  int num_processes = 0;
  sim::Simulator* sim = nullptr;
  Transport* net = nullptr;
  ckpt::EventLog* log = nullptr;
  ckpt::CheckpointStore* store = nullptr;
  ckpt::CoordinationTracker* tracker = nullptr;
  RunStats* stats = nullptr;
  const TimingConfig* timing = nullptr;
  /// Universal payload codec (core::universal_codec() in real systems);
  /// backs honest wire-size accounting. May be null in minimal tests —
  /// wire accounting then falls back to the flat budgets.
  const WireCodec* codec = nullptr;
  /// Flight recorder (null = off). The protocol base traces every send,
  /// delivery and block/unblock here, so all eight algorithms get the
  /// message-path trace points for free.
  obs::Tracer* tracer = nullptr;
  /// Timeline gauge block (null = off). The protocol base maintains the
  /// blocked-process gauge here; other owners (store, tracker, transport)
  /// hold their own pointer to the same block.
  obs::TimelineCounters* timeline = nullptr;
};

class CheckpointProtocol {
 public:
  virtual ~CheckpointProtocol() = default;

  void bind(const ProcessContext& ctx);
  ProcessId self() const { return ctx_.self; }
  const ProcessContext& context() const { return ctx_; }

  // ---- application surface -------------------------------------------
  /// Sends one computation message to `dst` (deferred while blocked).
  void send_computation(ProcessId dst);

  /// Starts a checkpointing process with this process as initiator.
  virtual void initiate() = 0;

  /// Paper's cp_state: true while this process believes a checkpointing
  /// is in progress.
  virtual bool in_checkpointing() const = 0;

  /// True while this process holds uncommitted coordination state (used
  /// by the harness to serialize initiations, Section 3.3's "at most one
  /// checkpointing is in progress" assumption).
  virtual bool coordination_active() const { return in_checkpointing(); }

  /// True if this process currently suppresses its underlying computation
  /// (only the blocking baseline ever returns true).
  bool blocked() const { return blocked_; }

  /// Invoked after a computation message has been processed; examples and
  /// tests attach observers here.
  std::function<void(const Message&)> on_app_message;

  // ---- transport surface ---------------------------------------------
  void on_deliver(const Message& m);

 protected:
  // Hooks implemented by each algorithm. computation_payload() is called
  // exactly once per computation message actually sent (so algorithms may
  // update their sent-flags / histories inside it).
  virtual std::shared_ptr<const Payload> computation_payload(ProcessId dst) = 0;
  virtual void handle_computation(const Message& m) = 0;
  virtual void handle_system(const Message& m) = 0;

  /// Honest on-air size of a system payload, used when
  /// TimingConfig::use_wire_sizes is set. The default asks the universal
  /// codec in ProcessContext::codec, which covers every payload type of
  /// every algorithm; 0 = no codec, fall back to the fixed sys_msg_bytes
  /// budget.
  virtual std::uint64_t system_payload_wire_size(const Payload& p) const;

  // ---- helpers for subclasses ----------------------------------------
  /// Sends a system message (size from TimingConfig) to `dst`.
  void send_system(MsgKind kind, ProcessId dst,
                   std::shared_ptr<const Payload> payload) {
    post_system(kind, dst, std::move(payload));
  }

  /// Broadcasts a system message to all processes (including self).
  void broadcast_system(MsgKind kind, std::shared_ptr<const Payload> payload) {
    post_system(kind, kInvalidProcess, std::move(payload));
  }

  /// Records the processing of computation message `m` (the receive event)
  /// and fires the application observer. Every algorithm must call this
  /// exactly once per delivered computation message, *after* any
  /// checkpoint it decides to take first.
  void process_computation(const Message& m);

  /// Charges the mutable-checkpoint memory-copy time to the stats.
  void charge_mutable_save();

  /// Starts the transfer of a tentative checkpoint to stable storage and
  /// returns its completion time (the moment a reply may be sent).
  sim::SimTime start_stable_transfer();

  /// Takes a tentative checkpoint of this process for initiation `init`
  /// at the current event cursor and time, and counts it in the run
  /// stats and the initiation's tracker entry.
  ckpt::CkptRef take_tentative(ckpt::InitiationId init, Csn csn);

  /// Makes tentative checkpoint `ref` permanent now and appends it to the
  /// committed line of the initiation it was taken (or promoted) for.
  /// This is the only writer of InitiationStats::line_updates.
  const ckpt::CheckpointRecord& make_permanent(ckpt::CkptRef ref);

  void block();
  void unblock();

  ProcessContext ctx_;

 private:
  /// Builds, traces and accounts one system message, then hands it to
  /// the transport: to `dst`, or to everyone when dst is kInvalidProcess.
  void post_system(MsgKind kind, ProcessId dst,
                   std::shared_ptr<const Payload> payload);
  void dispatch_deferred();

  bool blocked_ = false;
  sim::SimTime blocked_since_ = -1;
  std::vector<ProcessId> deferred_sends_;
};

}  // namespace mck::rt
