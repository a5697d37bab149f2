// Additional unit coverage: trigger/payload helpers, message taxonomy,
// store edge cases, EJZ's csn-forced path under jitter, Koo-Toueg deferred
// send ordering, Chandy-Lamport on a shared medium, and cellular
// reconnect edge cases.
#include <gtest/gtest.h>

#include "core/trigger.hpp"
#include "harness/system.hpp"
#include "util/log.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::System;
using harness::SystemOptions;
using workload::ScriptStep;
using workload::ScriptedWorkload;
using K = ScriptStep::Kind;

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

TEST(Trigger, EqualityAndValidity) {
  core::Trigger a{2, 5}, b{2, 5}, c{2, 6}, d{3, 5};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(core::kNullTrigger.valid());
  EXPECT_EQ(core::kNullTrigger.initiation(), 0u);
  EXPECT_EQ(a.to_string(), "(P2,5)");
  EXPECT_EQ(core::kNullTrigger.to_string(), "(null)");
}

TEST(Message, KindTaxonomy) {
  EXPECT_FALSE(rt::is_system(rt::MsgKind::kComputation));
  for (rt::MsgKind k : {rt::MsgKind::kRequest, rt::MsgKind::kReply,
                        rt::MsgKind::kCommit, rt::MsgKind::kAbort,
                        rt::MsgKind::kMarker, rt::MsgKind::kControl}) {
    EXPECT_TRUE(rt::is_system(k));
  }
  EXPECT_STREQ(rt::to_string(rt::MsgKind::kComputation), "computation");
  EXPECT_STREQ(rt::to_string(rt::MsgKind::kAbort), "abort");
}

TEST(Message, PayloadDowncast) {
  rt::Message m;
  auto p = std::make_shared<core::CompPayload>();
  p->csn = 7;
  m.payload = p;
  ASSERT_NE(m.payload_as<core::CompPayload>(), nullptr);
  EXPECT_EQ(m.payload_as<core::CompPayload>()->csn, 7u);
  EXPECT_EQ(m.payload_as<core::RequestPayload>(), nullptr);
}

TEST(Log, LevelsGateOutput) {
  util::LogLevel saved = util::Log::level();
  util::Log::level() = util::LogLevel::kOff;
  EXPECT_FALSE(util::Log::enabled(util::LogLevel::kInfo));
  util::Log::level() = util::LogLevel::kInfo;
  EXPECT_TRUE(util::Log::enabled(util::LogLevel::kInfo));
  EXPECT_FALSE(util::Log::enabled(util::LogLevel::kTrace));
  util::Log::level() = saved;
}

TEST(Log, DisabledLevelSkipsArgumentEvaluation) {
  util::LogLevel saved = util::Log::level();
  int evaluated = 0;
  auto side_effect = [&evaluated] { return ++evaluated; };
  util::Log::level() = util::LogLevel::kInfo;
  MCK_TRACE("%d", side_effect());
  EXPECT_EQ(evaluated, 0) << "a disabled trace must not evaluate its arguments";
  util::Log::level() = util::LogLevel::kOff;
  MCK_INFO("%d", side_effect());
  EXPECT_EQ(evaluated, 0);
  util::Log::level() = util::LogLevel::kTrace;
  testing::internal::CaptureStderr();
  MCK_TRACE("%d", side_effect());
  MCK_INFO("%d", side_effect());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "1\n2\n");
  EXPECT_EQ(evaluated, 2);
  util::Log::level() = saved;
}

TEST(Store, CheckpointKindNames) {
  EXPECT_STREQ(ckpt::to_string(ckpt::CkptKind::kMutable), "mutable");
  EXPECT_STREQ(ckpt::to_string(ckpt::CkptKind::kDisconnect), "disconnect");
  EXPECT_STREQ(ckpt::to_string(ckpt::CkptKind::kInitial), "initial");
}

TEST(Store, PerProcessLiveOrder) {
  ckpt::CheckpointStore store(2);
  ckpt::CkptRef a = store.take(0, ckpt::CkptKind::kTentative, 1, 0, 3, 10);
  ckpt::CkptRef b = store.take(0, ckpt::CkptKind::kMutable, 2, 0, 5, 20);
  ckpt::CkptRef c = store.take(0, ckpt::CkptKind::kMutable, 3, 0, 6, 30);
  auto live_of = [&store](ProcessId p) {
    std::vector<ckpt::CkptRef> refs;
    store.for_each_live(
        p, [&refs](const ckpt::CheckpointRecord& r) { refs.push_back(r.ref); });
    return refs;
  };
  EXPECT_EQ(live_of(0), (std::vector<ckpt::CkptRef>{c, b, a}));  // newest first
  store.discard(b);  // from the middle of the list
  EXPECT_EQ(live_of(0), (std::vector<ckpt::CkptRef>{c, a}));
  EXPECT_TRUE(live_of(1).empty());  // the initial checkpoint only
}

// ---------------------------------------------------------------------
// EJZ: the csn-forced checkpoint path (needs jitter to lose the race)
// ---------------------------------------------------------------------

TEST(ElnozahyJitter, ForcedByMessageUnderLoss) {
  // With heavy frame loss the broadcast request can be delayed past a
  // computation message carrying the new csn; the receiver must then
  // checkpoint *before* processing — the defining rule of [13].
  std::uint64_t forced_total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SystemOptions opts;
    opts.num_processes = 8;
    opts.algorithm = Algorithm::kElnozahy;
    // ARQ with slow timeouts: requests routinely lose tens of ms, enough
    // for post-checkpoint computation messages to overtake them.
    opts.lan.loss_probability = 0.7;
    opts.lan.retry_backoff = sim::milliseconds(20);
    opts.seed = seed;
    System sys(opts);
    workload::PointToPointWorkload wl(
        sys.simulator(), sys.rng(), sys.n(), 20.0,
        [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
    wl.start(sim::seconds(120));
    sys.simulator().schedule_at(sim::seconds(60),
                                [&sys] { sys.initiate(0); });
    sys.simulator().run_until(sim::kTimeNever);
    forced_total += sys.stats().forced_by_message;
    EXPECT_TRUE(sys.check_consistency().consistent) << "seed " << seed;
  }
  EXPECT_GT(forced_total, 0u);
}

// ---------------------------------------------------------------------
// Koo-Toueg: deferred sends keep their order
// ---------------------------------------------------------------------

TEST(KooTouegDeferred, FlushPreservesSendOrder) {
  SystemOptions kt_opts;
  kt_opts.num_processes = 4;
  kt_opts.algorithm = Algorithm::kKooToueg;
  System sys(kt_opts);
  std::vector<MessageId> received;
  // All processes report receives into one list; P1's two deferred sends
  // to P3 must arrive in submission order.
  for (ProcessId p = 0; p < 4; ++p) {
    sys.proto(p).on_app_message = [&](const rt::Message& m) {
      if (m.dst == 3) received.push_back(m.id);
    };
  }
  ScriptedWorkload wl(
      sys.simulator(),
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); },
      [&sys](ProcessId p) { sys.initiate(p); });
  wl.run({
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},  // blocks P1
      {sim::milliseconds(200), K::kSend, 1, 3},       // deferred #1
      {sim::milliseconds(300), K::kSend, 1, 3},       // deferred #2
  });
  sys.simulator().run_until(sim::kTimeNever);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_LT(received[0], received[1]);
  EXPECT_EQ(sys.stats().blocked_sends_deferred, 2u);
}

// ---------------------------------------------------------------------
// Chandy-Lamport under shared-medium contention
// ---------------------------------------------------------------------

TEST(ChandyLamportShared, MarkersStillSeparateChannels) {
  SystemOptions opts;
  opts.num_processes = 5;
  opts.algorithm = Algorithm::kChandyLamport;
  opts.lan.mode = net::MediumMode::kShared;
  opts.seed = 4;
  System sys(opts);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 1.0,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(sim::seconds(300));
  sys.simulator().schedule_at(sim::seconds(150),
                              [&sys] { sys.initiate(0); });
  sys.simulator().run_until(sim::kTimeNever);
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_TRUE(sys.check_consistency().consistent);
}

// ---------------------------------------------------------------------
// Cellular edge cases
// ---------------------------------------------------------------------

TEST(CellularEdge, ReconnectIntoDifferentCellReroutesNothingStale) {
  SystemOptions opts;
  opts.num_processes = 3;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = 3;
  System sys(opts);
  int delivered = 0;
  sys.cao(1).on_app_message = [&](const rt::Message&) { ++delivered; };

  sys.simulator().schedule_at(sim::milliseconds(10), [&] {
    sys.cao(1).on_disconnect();
    sys.cellular()->disconnect(1);
  });
  sys.simulator().schedule_at(sim::milliseconds(100),
                              [&sys] { sys.send(0, 1); });
  // Reconnect at a different MSS than the one holding the buffer.
  sys.simulator().schedule_at(sim::seconds(2), [&] {
    sys.cellular()->reconnect(1, 2);
  });
  sys.simulator().schedule_at(sim::seconds(3),
                              [&sys] { sys.send(0, 1); });
  sys.simulator().run_until(sim::kTimeNever);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(sys.cellular()->mss_of(1), 2);
}

TEST(CellularEdge, BackToBackDisconnectCycles) {
  SystemOptions opts;
  opts.num_processes = 3;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = 2;
  System sys(opts);
  int delivered = 0;
  sys.cao(1).on_app_message = [&](const rt::Message&) { ++delivered; };
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim::SimTime base = sim::seconds(10 * cycle + 1);
    sys.simulator().schedule_at(base, [&] {
      sys.cao(1).on_disconnect();
      sys.cellular()->disconnect(1);
    });
    sys.simulator().schedule_at(base + sim::seconds(1),
                                [&sys] { sys.send(0, 1); });
    sys.simulator().schedule_at(base + sim::seconds(5), [&, cycle] {
      sys.cellular()->reconnect(1, cycle % 2);
    });
  }
  sys.simulator().run_until(sim::kTimeNever);
  EXPECT_EQ(delivered, 3);
  // Each disconnect's image supersedes the previous one: one stays live.
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kDisconnect), 1u);
  EXPECT_EQ(sys.cellular()->messages_buffered(), 3u);
}

// ---------------------------------------------------------------------
// Mutable-overhead accounting
// ---------------------------------------------------------------------

TEST(MutableOverhead, ChargedPerMutableCheckpoint) {
  SystemOptions cs_opts;
  cs_opts.num_processes = 5;
  cs_opts.algorithm = Algorithm::kCaoSinghal;
  System sys(cs_opts);
  ScriptedWorkload wl(
      sys.simulator(),
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); },
      [&sys](ProcessId p) { sys.initiate(p); });
  wl.run({
      {sim::milliseconds(10), K::kSend, 3, 2},
      {sim::milliseconds(20), K::kSend, 4, 1},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::milliseconds(110), K::kSend, 3, 4},  // P4 takes a mutable
  });
  sys.simulator().run_until(sim::kTimeNever);
  EXPECT_EQ(sys.stats().mutable_taken, 1u);
  // 2.5 ms memory copy per mutable checkpoint (Section 5.1).
  EXPECT_EQ(sys.stats().mutable_overhead_time, sim::microseconds(2500));
}

}  // namespace
}  // namespace mck
