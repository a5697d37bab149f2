// Offline trace auditor (obs/audit.hpp): the independent witness must
// (a) pass every algorithm's real traces with zero violations and agree
// with the in-sim consistency checker, (b) survive a cellular run with
// mobility and disconnections, (c) flag every injected fault with the
// right verdict, and (d) attribute critical paths that sum exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "ckpt/store.hpp"
#include "harness/experiment.hpp"
#include "harness/scheduler.hpp"
#include "mobile/mobility.hpp"
#include "obs/audit.hpp"
#include "obs/graph.hpp"
#include "rt/message.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using obs::AuditCheck;
using obs::AuditReport;
using obs::TraceKind;
using obs::TraceRecord;

// The auditor mirrors these discriminators as raw bytes (obs cannot
// depend on rt/ckpt); this test can see both sides, so pin them here.
static_assert(static_cast<std::uint8_t>(rt::MsgKind::kComputation) == 0,
              "obs/graph.cpp and obs/audit.cpp mirror kComputation == 0");
static_assert(static_cast<std::uint8_t>(ckpt::CkptKind::kPermanent) == 1 &&
                  static_cast<std::uint8_t>(ckpt::CkptKind::kTentative) == 2 &&
                  static_cast<std::uint8_t>(ckpt::CkptKind::kMutable) == 3 &&
                  static_cast<std::uint8_t>(ckpt::CkptKind::kDisconnect) == 4,
              "obs/audit.cpp mirrors the CkptKind discriminators");

harness::ExperimentConfig small_config(harness::Algorithm a) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = a;
  cfg.sys.num_processes = 8;
  cfg.sys.seed = 7;
  cfg.rate = 0.02;
  cfg.ckpt_interval = sim::seconds(600);
  cfg.horizon = sim::seconds(3600);
  cfg.capture_trace = true;
  return cfg;
}

constexpr harness::Algorithm kAllAlgorithms[] = {
    harness::Algorithm::kCaoSinghal,    harness::Algorithm::kKooToueg,
    harness::Algorithm::kElnozahy,      harness::Algorithm::kChandyLamport,
    harness::Algorithm::kLaiYang,       harness::Algorithm::kSimpleScheme,
    harness::Algorithm::kRevisedScheme, harness::Algorithm::kUncoordinated,
};

std::string describe(const AuditReport& r) {
  return obs::render_report(r, false);
}

// Every algorithm's genuine trace must audit clean, and the trace-level
// Theorem 1 verdict must agree with the in-sim checker's.
TEST(AuditPositive, AllAlgorithmsAuditCleanAndAgreeWithChecker) {
  for (harness::Algorithm a : kAllAlgorithms) {
    SCOPED_TRACE(harness::to_string(a));
    harness::ExperimentConfig cfg = small_config(a);
    harness::RunResult res = harness::run_replicated(cfg, 2, 1);
    ASSERT_EQ(res.traces.size(), 2u);

    AuditReport rep = obs::audit_runs(res.traces, cfg.sys.num_processes);
    EXPECT_TRUE(rep.ok()) << describe(rep);
    EXPECT_EQ(rep.consistent(), res.consistent);
    EXPECT_GT(rep.totals.sends, 0u);
    EXPECT_EQ(rep.totals.rounds_committed, res.committed);
    EXPECT_EQ(rep.totals.rounds_aborted, res.aborted);
  }
}

// Coordinated algorithms produce committed lines (orphan checks ran) and
// weight rounds; the critical-path table covers every committed round and
// its five columns always sum exactly to the round latency.
TEST(AuditPositive, AttributionCoversCommitsAndSumsExactly) {
  harness::ExperimentConfig cfg =
      small_config(harness::Algorithm::kCaoSinghal);
  harness::RunResult res = harness::run_replicated(cfg, 2, 1);
  AuditReport rep = obs::audit_runs(res.traces, cfg.sys.num_processes);

  ASSERT_TRUE(rep.ok()) << describe(rep);
  EXPECT_GT(rep.totals.orphan_checks, 0u);
  EXPECT_GT(rep.totals.weight_rounds, 0u);
  ASSERT_EQ(rep.rounds.size(), res.committed);
  for (const obs::RoundAttribution& r : rep.rounds) {
    EXPECT_EQ(r.total, r.committed_at - r.started_at);
    EXPECT_EQ(r.wire + r.retry + r.buffer + r.participant + r.initiator_wait,
              r.total);
    EXPECT_GE(r.wire, 0);
    EXPECT_GE(r.retry, 0);
    EXPECT_GE(r.buffer, 0);
    EXPECT_GE(r.participant, 0);
    EXPECT_GE(r.initiator_wait, 0);
    EXPECT_GT(r.hops, 0u);
  }
  // Reports render without blowing up.
  EXPECT_NE(obs::render_report(rep, true).find("total_ms"),
            std::string::npos);
  EXPECT_NE(obs::report_json(rep, nullptr).find("\"verdict\": \"ok\""),
            std::string::npos);
}

// A cellular run with random mobility (handoffs, voluntary disconnections,
// MSS buffering — Theorem 1 proof Cases 1-3) must also audit clean.
TEST(AuditPositive, MobilityAndDisconnectionScenarioAuditsClean) {
  for (std::uint64_t seed : {7ull, 21ull}) {
    SCOPED_TRACE(seed);
    harness::SystemOptions opts;
    opts.num_processes = 8;
    opts.algorithm = harness::Algorithm::kCaoSinghal;
    opts.transport = harness::TransportKind::kCellular;
    opts.cellular.num_mss = 3;
    opts.seed = seed;
    obs::Tracer tracer;
    tracer.enable();
    opts.tracer = &tracer;
    harness::System sys(opts);

    mobile::MobilityParams mp;
    mp.mean_residence = sim::seconds(60);
    mp.disconnect_probability = 0.3;
    mp.mean_disconnect = sim::seconds(30);
    mobile::MobilityModel mobility(sys.simulator(), sys.rng(),
                                   *sys.cellular(), mp);
    mobility.on_disconnect = [&sys](ProcessId p) {
      sys.cao(p).on_disconnect();
    };
    mobility.start(sim::seconds(1800));

    workload::PointToPointWorkload wl(
        sys.simulator(), sys.rng(), sys.n(), 0.2,
        [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
    wl.start(sim::seconds(1800));

    harness::SchedulerOptions so;
    so.interval = sim::seconds(300);
    harness::CheckpointScheduler sched(sys, so);
    sched.start(sim::seconds(1800));

    sys.simulator().run_until(sim::kTimeNever);

    AuditReport rep;
    obs::audit_records(tracer.take_records(), sys.n(), 0, rep);
    EXPECT_TRUE(rep.ok()) << describe(rep);
    EXPECT_GT(rep.totals.rounds_committed, 0u);
    EXPECT_EQ(rep.consistent(), sys.check_consistency().consistent);
  }
}

// ---- fault injection: each mutation must be flagged with the right
// verdict (and the pristine trace with none) -------------------------------

std::vector<TraceRecord> captured_records(harness::Algorithm a) {
  harness::RunResult res = harness::run_replicated(small_config(a), 1, 1);
  EXPECT_EQ(res.traces.size(), 1u);
  return res.traces[0].records;
}

AuditReport audit_one(const std::vector<TraceRecord>& records, int n = 8) {
  AuditReport rep;
  obs::audit_records(records, n, 0, rep);
  return rep;
}

TEST(AuditNegative, DroppedDeliveryFlagsCausality) {
  std::vector<TraceRecord> records =
      captured_records(harness::Algorithm::kCaoSinghal);

  // Drop the first computation delivery whose (src, dst) channel sees
  // later traffic: the later delivery then overtakes the dropped one.
  auto is_deliver = [](const TraceRecord& r) {
    return r.kind == static_cast<std::uint8_t>(TraceKind::kMsgDeliver) &&
           r.sub == static_cast<std::uint8_t>(rt::MsgKind::kComputation);
  };
  std::size_t victim = records.size();
  for (std::size_t i = 0; i < records.size() && victim == records.size();
       ++i) {
    if (!is_deliver(records[i])) continue;
    for (std::size_t j = i + 1; j < records.size(); ++j) {
      if (is_deliver(records[j]) && records[j].pid == records[i].pid &&
          records[j].aux == records[i].aux) {
        victim = i;
        break;
      }
    }
  }
  ASSERT_LT(victim, records.size()) << "no channel with repeat traffic";
  records.erase(records.begin() + static_cast<std::ptrdiff_t>(victim));

  AuditReport rep = audit_one(records);
  EXPECT_GE(rep.count(AuditCheck::kCausality), 1u) << describe(rep);
}

TEST(AuditNegative, FlippedWeightBitsFlagWeight) {
  std::vector<TraceRecord> records =
      captured_records(harness::Algorithm::kCaoSinghal);
  ASSERT_TRUE(audit_one(records).ok());

  // Forge the final return of some round: the accumulated weight no
  // longer reaches exactly 1 (and likely stops increasing).
  TraceRecord* last_return = nullptr;
  for (TraceRecord& r : records) {
    if (r.kind == static_cast<std::uint8_t>(TraceKind::kWeightReturn)) {
      last_return = &r;
    }
  }
  ASSERT_NE(last_return, nullptr);
  last_return->arg1 = std::bit_cast<std::uint64_t>(0.5);

  AuditReport rep = audit_one(records);
  EXPECT_GE(rep.count(AuditCheck::kWeight), 1u) << describe(rep);
}

// The mobile promotion path (cao_singhal_test's handoff-delayed request):
// P2's checkpoint request is rerouted after a handoff and overtaken by a
// computation message, so P2 takes a mutable checkpoint and promotes it
// when the request arrives. Gives the auditor a genuine
// taken -> promoted -> permanent chain to replay.
std::vector<TraceRecord> promotion_scenario_records(obs::Tracer& tracer) {
  harness::SystemOptions opts;
  opts.num_processes = 4;
  opts.algorithm = harness::Algorithm::kCaoSinghal;
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = 2;
  opts.cellular.forward_penalty = sim::milliseconds(80);
  tracer.enable();
  opts.tracer = &tracer;
  harness::System sys(opts);

  sys.simulator().schedule_at(sim::milliseconds(5),
                              [&sys] { sys.send(2, 3); });
  sys.simulator().schedule_at(sim::milliseconds(10),
                              [&sys] { sys.send(2, 1); });
  sys.simulator().schedule_at(sim::milliseconds(20),
                              [&sys] { sys.send(1, 0); });
  sys.simulator().schedule_at(sim::milliseconds(100),
                              [&sys] { sys.initiate(0); });
  sys.simulator().schedule_at(sim::milliseconds(102), [&sys] {
    sys.cellular()->handoff(2, 1 - sys.cellular()->mss_of(2));
  });
  sys.simulator().schedule_at(sim::milliseconds(115),
                              [&sys] { sys.send(1, 2); });
  sys.simulator().run_until(sim::kTimeNever);
  return tracer.take_records();
}

TEST(AuditNegative, ReorderedLifecycleFlagsLifecycle) {
  obs::Tracer tracer;
  std::vector<TraceRecord> records = promotion_scenario_records(tracer);
  ASSERT_TRUE(audit_one(records, 4).ok())
      << describe(audit_one(records, 4));

  // Swap the promotion with the kCkptTaken it refers to: the promotion
  // now precedes the checkpoint's existence.
  std::size_t promoted = records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].kind ==
        static_cast<std::uint8_t>(TraceKind::kCkptPromoted)) {
      promoted = i;
      break;
    }
  }
  ASSERT_LT(promoted, records.size()) << "scenario produced no promotion";
  const std::uint64_t ref = records[promoted].arg1;
  std::size_t taken = records.size();
  for (std::size_t i = 0; i < promoted; ++i) {
    if (records[i].kind == static_cast<std::uint8_t>(TraceKind::kCkptTaken) &&
        (records[i].arg1 >> 32) == ref) {
      taken = i;
      break;
    }
  }
  ASSERT_LT(taken, records.size());
  std::swap(records[taken], records[promoted]);

  AuditReport rep = audit_one(records, 4);
  EXPECT_GE(rep.count(AuditCheck::kLifecycle), 1u) << describe(rep);
}

// ---- synthetic traces: forged orphan, blocking-discipline breach ---------

TraceRecord rec(sim::SimTime at, TraceKind kind, std::int32_t pid,
                std::uint8_t sub, std::uint16_t aux, std::uint64_t arg0,
                std::uint64_t arg1) {
  TraceRecord r{};
  r.at = at;
  r.kind = static_cast<std::uint8_t>(kind);
  r.pid = pid;
  r.sub = sub;
  r.aux = aux;
  r.arg0 = arg0;
  r.arg1 = arg1;
  return r;
}

TEST(AuditNegative, ForgedOrphanFlagsConsistency) {
  constexpr std::uint8_t kMut =
      static_cast<std::uint8_t>(ckpt::CkptKind::kMutable);
  const std::uint64_t init = (0ull << 32) | 1;  // P0's round #1
  // P0 sends after its committed checkpoint (event 5 >= cursor 3), P1
  // received before its own (event 0 < cursor 2): a textbook orphan.
  std::vector<TraceRecord> t = {
      rec(10, TraceKind::kInitStart, 0, 0, 0, init, 0),
      rec(100, TraceKind::kMsgSend, 0, 0, 1, 1, obs::pack_msg_stamp(6, 64)),
      rec(200, TraceKind::kMsgDeliver, 1, 0, 0, 1, obs::pack_msg_stamp(1, 64)),
      rec(300, TraceKind::kCkptTaken, 0, kMut, 0, init, 1ull << 32),
      rec(300, TraceKind::kCkptCursor, 0, kMut, 0, 1, 3),
      rec(301, TraceKind::kCkptTaken, 1, kMut, 0, init, 2ull << 32),
      rec(301, TraceKind::kCkptCursor, 1, kMut, 0, 2, 2),
      rec(400, TraceKind::kCkptPromoted, 0, kMut, 0, init, 1),
      rec(401, TraceKind::kCkptPromoted, 1, kMut, 0, init, 2),
      rec(500, TraceKind::kCkptPermanent, 0, 2, 0, init, 1),
      rec(501, TraceKind::kCkptPermanent, 1, 2, 0, init, 2),
      rec(600, TraceKind::kRoundCommit, 0, 0, 0, init, 590),
  };
  AuditReport rep = audit_one(t, 2);
  EXPECT_EQ(rep.count(AuditCheck::kConsistency), 1u) << describe(rep);
  EXPECT_FALSE(rep.consistent());
  EXPECT_EQ(rep.count(AuditCheck::kCausality), 0u);
  EXPECT_EQ(rep.count(AuditCheck::kLifecycle), 0u);

  // Control: with P1's checkpoint covering the receive (cursor 0 keeps
  // nothing before it inside the line), the same trace audits clean.
  t[6].arg1 = 0;  // P1's kCkptCursor: cursor 2 -> 0
  AuditReport clean = audit_one(t, 2);
  EXPECT_TRUE(clean.ok()) << describe(clean);
}

TEST(AuditNegative, ComputationSendWhileBlockedFlagsBlocking) {
  std::vector<TraceRecord> t = {
      rec(10, TraceKind::kBlock, 0, 0, 0, 0, 0),
      rec(20, TraceKind::kMsgSend, 0, 0, 1, 1, obs::pack_msg_stamp(1, 64)),
      rec(30, TraceKind::kUnblock, 0, 0, 0, 20, 0),
      rec(50, TraceKind::kMsgDeliver, 1, 0, 0, 1, obs::pack_msg_stamp(1, 64)),
  };
  AuditReport rep = audit_one(t, 2);
  EXPECT_EQ(rep.count(AuditCheck::kBlocking), 1u) << describe(rep);

  // Control: the same send outside the window is legal.
  t[1].at = 40;
  std::swap(t[1], t[2]);
  AuditReport clean = audit_one(t, 2);
  EXPECT_TRUE(clean.ok()) << describe(clean);
}

// The causal-graph layer itself: broadcast fan-out hops and in-transit
// accounting behave as documented.
TEST(AuditGraph, BroadcastFanOutAndInTransit) {
  std::vector<TraceRecord> t = {
      rec(10, TraceKind::kMsgSend, 0, 1, obs::kBroadcastDst, 1, 0),
      rec(20, TraceKind::kMsgDeliver, 1, 1, 0, 1, 0),
      rec(25, TraceKind::kMsgDeliver, 2, 1, 0, 1, 0),
      // P3 never gets it: one expected delivery left in transit.
  };
  obs::CausalGraph g = obs::build_graph(t, 4);
  EXPECT_TRUE(g.issues.empty());
  EXPECT_EQ(g.hops.size(), 2u);
  EXPECT_EQ(g.sends, 1u);
  EXPECT_EQ(g.delivers, 2u);
  EXPECT_EQ(g.in_transit, 1u);
}

}  // namespace
}  // namespace mck
