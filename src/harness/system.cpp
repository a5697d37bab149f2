#include "harness/system.hpp"

#include "core/codec.hpp"
#include "util/assert.hpp"

namespace mck::harness {

namespace {

// Pull-source accessors for the timeline sampler: cumulative counters the
// owners don't push per-event (the sampler reads them once per tick, so a
// per-event hook would be pure overhead). Plain functions over void*
// match obs::TimelineSampler::PullSource without giving obs a dependency
// on harness/rt types.
std::uint64_t pull_msgs_sent(const void* ctx) {
  const auto* s = static_cast<const rt::RunStats*>(ctx);
  std::uint64_t n = 0;
  for (int k = 0; k < rt::kMsgKindCount; ++k) n += s->msgs_sent[k];
  return n;
}
std::uint64_t pull_deliveries(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->deliveries;
}
std::uint64_t pull_bytes_comp(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->bytes_sent[0];
}
std::uint64_t pull_bytes_sys(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->system_bytes();
}
std::uint64_t pull_wire_bytes_comp(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->wire_bytes_sent[0];
}
std::uint64_t pull_wire_bytes_sys(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->system_wire_bytes();
}
std::uint64_t pull_buffered_total(const void* ctx) {
  return static_cast<const mobile::CellularTransport*>(ctx)
      ->messages_buffered();
}
std::uint64_t pull_forwarded_total(const void* ctx) {
  return static_cast<const mobile::CellularTransport*>(ctx)
      ->messages_forwarded();
}
template <ckpt::CkptKind kKind>
std::uint64_t pull_ckpt_live(const void* ctx) {
  return static_cast<const ckpt::CheckpointStore*>(ctx)->count(kKind);
}

/// Registers the standard pull sources on a timeline sampler: the store's
/// live-checkpoint census, RunStats totals and (when `cell` is non-null)
/// the cellular transport's buffered/forwarded counters.
void register_timeline_pulls(obs::TimelineSampler& tl,
                             const ckpt::CheckpointStore* store,
                             const rt::RunStats* stats,
                             const mobile::CellularTransport* cell) {
  using ckpt::CkptKind;
  tl.add_pull(obs::kColCkptMutable, &pull_ckpt_live<CkptKind::kMutable>,
              store);
  tl.add_pull(obs::kColCkptTentative, &pull_ckpt_live<CkptKind::kTentative>,
              store);
  tl.add_pull(obs::kColCkptPermanent, &pull_ckpt_live<CkptKind::kPermanent>,
              store);
  tl.add_pull(obs::kColCkptDisconnect,
              &pull_ckpt_live<CkptKind::kDisconnect>, store);
  tl.add_pull(obs::kColMsgsSent, &pull_msgs_sent, stats);
  tl.add_pull(obs::kColDeliveries, &pull_deliveries, stats);
  tl.add_pull(obs::kColBytesComp, &pull_bytes_comp, stats);
  tl.add_pull(obs::kColBytesSys, &pull_bytes_sys, stats);
  tl.add_pull(obs::kColWireBytesComp, &pull_wire_bytes_comp, stats);
  tl.add_pull(obs::kColWireBytesSys, &pull_wire_bytes_sys, stats);
  if (cell != nullptr) {
    tl.add_pull(obs::kColBufferedTotal, &pull_buffered_total, cell);
    tl.add_pull(obs::kColForwardedTotal, &pull_forwarded_total, cell);
  }
}

}  // namespace

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kCaoSinghal: return "cao-singhal";
    case Algorithm::kKooToueg: return "koo-toueg";
    case Algorithm::kElnozahy: return "elnozahy";
    case Algorithm::kChandyLamport: return "chandy-lamport";
    case Algorithm::kLaiYang: return "lai-yang";
    case Algorithm::kSimpleScheme: return "simple-scheme";
    case Algorithm::kRevisedScheme: return "revised-scheme";
    case Algorithm::kUncoordinated: return "uncoordinated";
  }
  return "?";
}

bool has_committed_lines(Algorithm a) {
  switch (a) {
    case Algorithm::kCaoSinghal:
    case Algorithm::kKooToueg:
    case Algorithm::kElnozahy:
    case Algorithm::kChandyLamport:
    case Algorithm::kLaiYang:
      return true;
    default:
      return false;
  }
}

namespace {

/// Constructs an unbound protocol instance for `a`.
std::unique_ptr<rt::CheckpointProtocol> make_protocol(
    Algorithm a, const core::CaoSinghalOptions& cs) {
  switch (a) {
    case Algorithm::kCaoSinghal:
      return std::make_unique<core::CaoSinghalProtocol>(cs);
    case Algorithm::kKooToueg:
      return std::make_unique<baselines::KooTouegProtocol>();
    case Algorithm::kElnozahy:
      return std::make_unique<baselines::ElnozahyProtocol>();
    case Algorithm::kChandyLamport:
      return std::make_unique<baselines::ChandyLamportProtocol>();
    case Algorithm::kLaiYang:
      return std::make_unique<baselines::LaiYangProtocol>();
    case Algorithm::kSimpleScheme:
      return std::make_unique<baselines::CsnSchemeProtocol>(
          baselines::CsnSchemeKind::kSimple);
    case Algorithm::kRevisedScheme:
      return std::make_unique<baselines::CsnSchemeProtocol>(
          baselines::CsnSchemeKind::kRevised);
    case Algorithm::kUncoordinated:
      return std::make_unique<baselines::UncoordinatedProtocol>();
  }
  MCK_ASSERT_MSG(false, "unknown algorithm");
  return nullptr;
}

/// Post-bind initialization: calls the algorithm-specific start().
void start_protocol(Algorithm a, rt::CheckpointProtocol& proto) {
  switch (a) {
    case Algorithm::kCaoSinghal:
      static_cast<core::CaoSinghalProtocol&>(proto).start();
      break;
    case Algorithm::kKooToueg:
      static_cast<baselines::KooTouegProtocol&>(proto).start();
      break;
    case Algorithm::kElnozahy:
      static_cast<baselines::ElnozahyProtocol&>(proto).start();
      break;
    case Algorithm::kChandyLamport:
      static_cast<baselines::ChandyLamportProtocol&>(proto).start();
      break;
    case Algorithm::kLaiYang:
      static_cast<baselines::LaiYangProtocol&>(proto).start();
      break;
    case Algorithm::kSimpleScheme:
    case Algorithm::kRevisedScheme:
      static_cast<baselines::CsnSchemeProtocol&>(proto).start();
      break;
    case Algorithm::kUncoordinated:
      static_cast<baselines::UncoordinatedProtocol&>(proto).start();
      break;
  }
}

}  // namespace

System::System(SystemOptions opts)
    : opts_(opts),
      rng_(opts.seed),
      log_(opts.num_processes),
      store_(opts.num_processes) {
  MCK_ASSERT(opts_.num_processes >= 2);

  // Coordinated protocols reclaim superseded permanent checkpoints;
  // uncoordinated ones must hoard them for the rollback search.
  store_.set_auto_gc(has_committed_lines(opts_.algorithm));

  if (opts_.tracer != nullptr) {
    sim_.set_tracer(opts_.tracer);
    store_.set_tracer(opts_.tracer);
    tracker_.set_tracer(opts_.tracer);
  }

  if (opts_.transport == TransportKind::kLan) {
    lan_ = std::make_unique<net::LanTransport>(sim_, opts_.num_processes,
                                               opts_.lan, &rng_);
    lan_->set_tracer(opts_.tracer);
  } else {
    cell_ = std::make_unique<mobile::CellularTransport>(
        sim_, opts_.num_processes, opts_.cellular);
    cell_->set_tracer(opts_.tracer);
  }
  if (opts_.wire_fidelity) {
    transport().set_wire_fidelity(core::universal_codec());
  }

  // Timeline wiring: every gauge owner gets the sampler's counter block,
  // the cumulative totals become pull sources, and the simulator's event
  // loop is armed. An unconfigured sampler is treated as absent so the
  // hot paths keep their single untaken branch.
  if (opts_.timeline != nullptr && opts_.timeline->enabled()) {
    obs::TimelineSampler* tl = opts_.timeline;
    obs::TimelineCounters* c = tl->counters();
    sim_.set_timeline(tl);
    tracker_.set_timeline(c);
    if (lan_) {
      lan_->set_timeline(c);
    } else {
      cell_->set_timeline(c);
    }
    register_timeline_pulls(*tl, &store_, &stats_, cell_.get());
  }

  protos_.reserve(static_cast<std::size_t>(opts_.num_processes));
  for (ProcessId p = 0; p < opts_.num_processes; ++p) {
    std::unique_ptr<rt::CheckpointProtocol> proto =
        make_protocol(opts_.algorithm, opts_.cs);

    rt::ProcessContext ctx;
    ctx.self = p;
    ctx.num_processes = opts_.num_processes;
    ctx.sim = &sim_;
    ctx.net = &transport();
    ctx.log = &log_;
    ctx.store = &store_;
    ctx.tracker = &tracker_;
    ctx.stats = &stats_;
    ctx.timing = &opts_.timing;
    ctx.codec = core::universal_codec();
    ctx.tracer = opts_.tracer;
    ctx.timeline = opts_.timeline != nullptr && opts_.timeline->enabled()
                       ? opts_.timeline->counters()
                       : nullptr;
    proto->bind(ctx);
    protos_.push_back(std::move(proto));
  }

  // Per-algorithm post-bind initialization + delivery sinks.
  for (ProcessId p = 0; p < opts_.num_processes; ++p) {
    rt::CheckpointProtocol* raw = protos_[static_cast<std::size_t>(p)].get();
    start_protocol(opts_.algorithm, *raw);
    auto sink = [raw](const rt::Message& m) { raw->on_deliver(m); };
    if (lan_) {
      lan_->set_sink(p, sink);
    } else {
      cell_->set_sink(p, sink);
    }
  }
}

rt::Transport& System::transport() {
  if (lan_) return *lan_;
  return *cell_;
}

core::CaoSinghalProtocol& System::cao(ProcessId p) {
  MCK_ASSERT(opts_.algorithm == Algorithm::kCaoSinghal);
  return *static_cast<core::CaoSinghalProtocol*>(
      protos_[static_cast<std::size_t>(p)].get());
}

baselines::KooTouegProtocol& System::koo(ProcessId p) {
  MCK_ASSERT(opts_.algorithm == Algorithm::kKooToueg);
  return *static_cast<baselines::KooTouegProtocol*>(
      protos_[static_cast<std::size_t>(p)].get());
}

bool System::any_coordination_active() const {
  for (const auto& p : protos_) {
    if (p->coordination_active()) return true;
  }
  return false;
}

}  // namespace mck::harness
