// One-stop construction of a simulated mobile computing system: the event
// engine, a transport (wireless LAN or cellular), the checkpoint
// substrate, and one protocol instance per process. Examples, tests and
// benches all build on this.
#pragma once

#include <memory>
#include <vector>

#include "baselines/chandy_lamport.hpp"
#include "baselines/csn_schemes.hpp"
#include "baselines/elnozahy.hpp"
#include "baselines/koo_toueg.hpp"
#include "baselines/lai_yang.hpp"
#include "baselines/uncoordinated.hpp"
#include "ckpt/checker.hpp"
#include "ckpt/event_log.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/store.hpp"
#include "ckpt/tracker.hpp"
#include "core/cao_singhal.hpp"
#include "mobile/cellular.hpp"
#include "net/lan.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "rt/protocol.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mck::harness {

enum class Algorithm {
  kCaoSinghal,
  kKooToueg,
  kElnozahy,
  kChandyLamport,
  kLaiYang,
  kSimpleScheme,
  kRevisedScheme,
  kUncoordinated,
};

const char* to_string(Algorithm a);

/// Whether committed-line consistency checking applies (the csn schemes
/// and uncoordinated checkpointing have no committed global lines).
bool has_committed_lines(Algorithm a);

enum class TransportKind { kLan, kCellular };

struct SystemOptions {
  int num_processes = 16;
  Algorithm algorithm = Algorithm::kCaoSinghal;
  core::CaoSinghalOptions cs;
  rt::TimingConfig timing;
  TransportKind transport = TransportKind::kLan;
  net::LanParams lan;
  mobile::CellularParams cellular;
  std::uint64_t seed = 1;

  /// Wire-fidelity mode (--wire-fidelity): the transport serializes every
  /// payload on send and protocols only receive what the codec decodes —
  /// codec gaps surface as test failures instead of silent divergence.
  /// Off by default; a lossless codec makes results identical either way.
  bool wire_fidelity = false;

  /// Flight recorder (DESIGN.md "Flight recorder"). When non-null, every
  /// layer — simulator, transport, store, tracker, protocols — records
  /// into it. Null keeps the hot path at a single untaken branch per site.
  obs::Tracer* tracer = nullptr;

  /// Run-health timeline sampler (DESIGN.md 3f). When non-null *and*
  /// configured, the constructor attaches its gauge block to every owner
  /// (transport, tracker, protocols), registers the pull sources
  /// (store census, stats / transport cumulatives) and arms the simulator's
  /// sampling hook. Null or unconfigured keeps every hot-path site at a
  /// single untaken branch.
  obs::TimelineSampler* timeline = nullptr;
};

class System {
 public:
  explicit System(SystemOptions opts);

  int n() const { return opts_.num_processes; }
  const SystemOptions& options() const { return opts_; }

  sim::Simulator& simulator() { return sim_; }
  sim::Rng& rng() { return rng_; }
  ckpt::EventLog& log() { return log_; }
  ckpt::CheckpointStore& store() { return store_; }
  ckpt::CoordinationTracker& tracker() { return tracker_; }
  rt::RunStats& stats() { return stats_; }
  rt::Transport& transport();
  net::LanTransport* lan() { return lan_.get(); }
  mobile::CellularTransport* cellular() { return cell_.get(); }

  rt::CheckpointProtocol& proto(ProcessId p) {
    return *protos_[static_cast<std::size_t>(p)];
  }
  /// Typed access; asserts the algorithm matches.
  core::CaoSinghalProtocol& cao(ProcessId p);
  baselines::KooTouegProtocol& koo(ProcessId p);

  /// Application-level send of one computation message. A disconnected MH
  /// performs no send events (Section 2.2), so the send is dropped.
  void send(ProcessId src, ProcessId dst) {
    if (cell_ && cell_->is_disconnected(src)) return;
    proto(src).send_computation(dst);
  }

  /// Starts a checkpointing process at `p`.
  void initiate(ProcessId p) { proto(p).initiate(); }

  bool any_coordination_active() const;

  /// Settles every line committed before now and retires the event-log
  /// records behind them (ckpt::ConsistencyChecker::settle). Call it only
  /// while no coordination is active anywhere.
  void settle_committed_lines() { checker_.settle(sim_.now()); }

  /// Runs the Theorem 1 oracle over every committed line.
  ckpt::CheckResult check_consistency() const { return checker_.check_all(); }

  ckpt::RecoveryManager recovery() const {
    return ckpt::RecoveryManager(log_, store_);
  }

 private:
  SystemOptions opts_;
  sim::Simulator sim_;
  sim::Rng rng_;
  ckpt::EventLog log_;
  ckpt::CheckpointStore store_;
  ckpt::CoordinationTracker tracker_;
  ckpt::ConsistencyChecker checker_{log_, tracker_};
  rt::RunStats stats_;
  std::unique_ptr<net::LanTransport> lan_;
  std::unique_ptr<mobile::CellularTransport> cell_;
  std::vector<std::unique_ptr<rt::CheckpointProtocol>> protos_;
};

}  // namespace mck::harness
