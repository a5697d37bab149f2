// The checkpoint store keeps only the checkpoints that exist now. This
// property test rebuilds every checkpoint ever taken from the run's
// checkpoint-lifecycle trace (HistoryStore, the store as it was when it
// kept its whole history) and, at several pause points of runs of all
// eight algorithms on both transports, checks that every query the store
// answers from live state gives the history's answer: stable occupancy,
// the checkpoint-interval rule's last stable time, the permanent line,
// the live census, the live records themselves, and coordinated recovery
// at the current time against the replay of the committed initiations.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "full_history.hpp"
#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "mobile/mobility.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using ckpt::CkptKind;
using harness::Algorithm;
using harness::TransportKind;

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kCaoSinghal,    Algorithm::kKooToueg,
    Algorithm::kElnozahy,      Algorithm::kChandyLamport,
    Algorithm::kLaiYang,       Algorithm::kSimpleScheme,
    Algorithm::kRevisedScheme, Algorithm::kUncoordinated,
};

struct Coverage {
  std::size_t pauses = 0;
  std::size_t discarded = 0;
  std::size_t reclaimed = 0;
  std::size_t promoted = 0;
};

void expect_store_matches_history(harness::System& sys,
                                  const ckpt::HistoryStore& hist) {
  const ckpt::CheckpointStore& store = sys.store();
  const sim::SimTime now = sys.simulator().now();
  const ckpt::Line line = hist.latest_permanent_line();
  for (ProcessId p = 0; p < sys.n(); ++p) {
    SCOPED_TRACE(p);
    EXPECT_EQ(store.stable_live(p), hist.stable_live_at(p, now));
    EXPECT_EQ(store.last_stable_taken_at(p), hist.last_stable_taken_at(p));
    EXPECT_EQ(store.permanent_cursor(p), line[p]);

    std::vector<ckpt::CkptRef> live;
    store.for_each_live(p, [&](const ckpt::CheckpointRecord& rec) {
      live.push_back(rec.ref);
      const ckpt::CheckpointRecord& want = hist.entries()[rec.ref].rec;
      EXPECT_EQ(rec.pid, want.pid);
      EXPECT_EQ(rec.csn, want.csn);
      EXPECT_EQ(rec.kind, want.kind);
      EXPECT_EQ(rec.event_cursor, want.event_cursor);
      EXPECT_EQ(rec.initiation, want.initiation);
      EXPECT_EQ(rec.taken_at, want.taken_at);
    });
    EXPECT_EQ(live, hist.live_of(p));
  }
  for (CkptKind k : {CkptKind::kMutable, CkptKind::kTentative,
                     CkptKind::kPermanent, CkptKind::kDisconnect}) {
    EXPECT_EQ(store.count(k), hist.live_count(k)) << ckpt::to_string(k);
  }
  EXPECT_EQ(sys.stats().permanent_made, hist.permanent_made());

  if (store.auto_gc()) {
    const ckpt::RecoveryOutcome got = sys.recovery().recover_coordinated(now);
    const ckpt::RecoveryOutcome want =
        ckpt::recover_coordinated_at(sys.log(), sys.tracker(), now);
    EXPECT_EQ(got.line.cursors, want.line.cursors);
    EXPECT_EQ(got.line.cursors, line.cursors);
    EXPECT_EQ(got.lost_events, want.lost_events);
  }
}

/// Runs `sys` to each pause and then to drain, comparing the store with
/// the history rebuilt from `tracer` at every stop.
void run_and_compare(harness::System& sys, obs::Tracer& tracer,
                     std::vector<sim::SimTime> pauses, Coverage& cov) {
  ckpt::HistoryStore hist(sys.n(), sys.store().auto_gc());
  pauses.push_back(sim::kTimeNever);
  for (sim::SimTime t : pauses) {
    sys.simulator().run_until(t);
    hist.replay(tracer.take_records());
    expect_store_matches_history(sys, hist);
    // A disconnect supersedes the process's previous disconnect image.
    EXPECT_LE(sys.store().count(CkptKind::kDisconnect),
              static_cast<std::size_t>(sys.n()));
    ++cov.pauses;
  }
  for (const ckpt::HistoryStore::Entry& e : hist.entries()) {
    if (e.discarded) ++cov.discarded;
    if (e.gc_at >= 0) ++cov.reclaimed;
    if (e.promoted) ++cov.promoted;
  }
}

void run_with_pauses(Algorithm algo, TransportKind transport,
                     Coverage& cov) {
  SCOPED_TRACE(harness::to_string(algo));
  SCOPED_TRACE(transport == TransportKind::kLan ? "lan" : "cellular");
  const sim::SimTime horizon = sim::seconds(4 * 3600);

  obs::Tracer tracer;
  tracer.enable(ckpt::kHistoryStoreKinds);
  harness::SystemOptions opts;
  opts.num_processes = 8;
  opts.algorithm = algo;
  opts.transport = transport;
  opts.cellular.num_mss = 3;
  opts.seed = 11;
  opts.tracer = &tracer;
  harness::System sys(opts);

  // Disconnect checkpoints: Cao-Singhal deposits one at the MSS when an
  // MH disconnects.
  std::unique_ptr<mobile::MobilityModel> mobility;
  if (transport == TransportKind::kCellular &&
      algo == Algorithm::kCaoSinghal) {
    mobile::MobilityParams mp;
    mp.mean_residence = sim::seconds(60);
    mp.disconnect_probability = 0.3;
    mp.mean_disconnect = sim::seconds(30);
    mobility = std::make_unique<mobile::MobilityModel>(
        sys.simulator(), sys.rng(), *sys.cellular(), mp);
    mobility->on_disconnect = [&sys](ProcessId p) {
      sys.cao(p).on_disconnect();
    };
    mobility->start(horizon);
  }
  // P2 depends on P3, which crashes before P2 initiates: the round
  // aborts and its tentatives are discarded (Section 3.6).
  if (transport == TransportKind::kLan && algo == Algorithm::kCaoSinghal) {
    sim::Simulator& s = sys.simulator();
    s.schedule_at(sim::seconds(2000), [&sys] { sys.send(3, 2); });
    s.schedule_at(sim::seconds(2001),
                  [&sys] { sys.lan()->set_failed(3, true); });
    s.schedule_at(sim::seconds(2002), [&sys] { sys.initiate(2); });
    s.schedule_at(sim::seconds(2600),
                  [&sys] { sys.lan()->set_failed(3, false); });
  }
  // Sparse traffic keeps dependency sets small, so computation messages
  // reach processes the request has not reached yet: mutables.
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.01,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(horizon);
  harness::SchedulerOptions so;
  so.interval = sim::seconds(300);
  harness::CheckpointScheduler sched(sys, so);
  sched.start(horizon);

  // Pauses at uneven times land inside rounds as well as between them.
  std::vector<sim::SimTime> pauses;
  for (sim::SimTime t = sim::seconds(301); t < horizon;
       t += sim::seconds(1237)) {
    pauses.push_back(t);
  }
  run_and_compare(sys, tracer, pauses, cov);
}

TEST(StoreHistory, LiveStoreAnswersAsTheFullHistory) {
  Coverage cov;
  for (Algorithm algo : kAlgorithms) {
    for (TransportKind t : {TransportKind::kLan, TransportKind::kCellular}) {
      run_with_pauses(algo, t, cov);
    }
  }
  // The comparison is not vacuous: records were discarded and reclaimed.
  EXPECT_GT(cov.pauses, 100u);
  EXPECT_GT(cov.discarded, 0u);
  EXPECT_GT(cov.reclaimed, 0u);
}

TEST(StoreHistory, PromotedMutableMatchesTheFullHistory) {
  // P2's checkpoint request is rerouted after a handoff and overtaken by
  // a computation message, so P2 takes a mutable checkpoint and promotes
  // it when the request arrives.
  obs::Tracer tracer;
  tracer.enable(ckpt::kHistoryStoreKinds);
  harness::SystemOptions opts;
  opts.num_processes = 4;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.transport = TransportKind::kCellular;
  opts.cellular.num_mss = 2;
  opts.cellular.forward_penalty = sim::milliseconds(80);
  opts.tracer = &tracer;
  harness::System sys(opts);
  sim::Simulator& s = sys.simulator();
  s.schedule_at(sim::milliseconds(5), [&sys] { sys.send(2, 3); });
  s.schedule_at(sim::milliseconds(10), [&sys] { sys.send(2, 1); });
  s.schedule_at(sim::milliseconds(20), [&sys] { sys.send(1, 0); });
  s.schedule_at(sim::milliseconds(100), [&sys] { sys.initiate(0); });
  s.schedule_at(sim::milliseconds(102), [&sys] {
    sys.cellular()->handoff(2, 1 - sys.cellular()->mss_of(2));
  });
  s.schedule_at(sim::milliseconds(115), [&sys] { sys.send(1, 2); });

  Coverage cov;
  std::vector<sim::SimTime> pauses;
  for (sim::SimTime t = sim::milliseconds(101); t < sim::seconds(12);
       t += sim::milliseconds(97)) {
    pauses.push_back(t);
  }
  run_and_compare(sys, tracer, pauses, cov);
  EXPECT_EQ(sys.stats().mutable_promoted, 1u);
  EXPECT_EQ(cov.promoted, 1u);
}

}  // namespace
}  // namespace mck
