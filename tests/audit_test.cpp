// Offline trace auditor (obs/audit.hpp): the independent witness must
// (a) pass every algorithm's real traces with zero violations and agree
// with the in-sim consistency checker, (b) survive a cellular run with
// mobility and disconnections, (c) flag every injected fault with the
// right verdict, and (d) attribute critical paths that sum exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "ckpt/store.hpp"
#include "deque_matcher.hpp"
#include "record_vector.hpp"
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
  return obs::to_vector(res.traces[0].records);
}

AuditReport audit_one(const std::vector<TraceRecord>& records, int n = 8) {
  AuditReport rep;
  obs::audit_records(obs::to_records(records), n, 0, rep);
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

// A weight record whose bits are no weight at all (sign bit, infinity,
// NaN, or past 2^10) is a weight violation, not an abort inside
// util::Weight::from_double_bits.
TEST(AuditNegative, NonWeightBitPatternsFlagWeightWithoutAborting) {
  const std::vector<TraceRecord> clean =
      captured_records(harness::Algorithm::kCaoSinghal);
  const std::pair<const char*, std::uint64_t> patterns[] = {
      {"sign bit", std::bit_cast<std::uint64_t>(-0.5)},
      {"inf",
       std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity())},
      {"NaN",
       std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN())},
      {"2^11", std::bit_cast<std::uint64_t>(0x1p11)},
  };
  for (TraceKind kind : {TraceKind::kWeightSplit, TraceKind::kWeightReturn}) {
    for (const auto& [name, bits] : patterns) {
      SCOPED_TRACE(testing::Message() << obs::to_string(kind) << ", " << name);
      std::vector<TraceRecord> records = clean;
      auto forged = std::find_if(
          records.begin(), records.end(), [kind](const TraceRecord& r) {
            return r.kind == static_cast<std::uint8_t>(kind);
          });
      ASSERT_NE(forged, records.end());
      forged->arg1 = bits;
      AuditReport rep = audit_one(records);
      EXPECT_GE(rep.count(AuditCheck::kWeight), 1u) << describe(rep);
    }
  }
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
  return obs::to_vector(tracer.take_records());
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

/// P0 sends after its committed checkpoint (event 5 >= cursor 3), P1
/// received before its own (event 0 < cursor 2): a textbook orphan.
/// t[3]/t[5] are the two kCkptTaken records, t[4]/t[6] their cursors.
std::vector<TraceRecord> forged_orphan_trace() {
  constexpr std::uint8_t kMut =
      static_cast<std::uint8_t>(ckpt::CkptKind::kMutable);
  const std::uint64_t init = (0ull << 32) | 1;  // P0's round #1
  return {
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
}

TEST(AuditNegative, ForgedOrphanFlagsConsistency) {
  std::vector<TraceRecord> t = forged_orphan_trace();
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

// A committed cursor of 2^64-1 (the line-sweep kernel's closing sentinel)
// covers every event of its process: on P1 it puts the receive inside the
// line and the orphan stays, on P0 it puts the send inside and clears it.
TEST(AuditConsistency, CursorAtTheSentinelCoversEveryEvent) {
  std::vector<TraceRecord> t = forged_orphan_trace();
  t[6].arg1 = ~std::uint64_t{0};  // P1's kCkptCursor
  EXPECT_EQ(describe(audit_one(t, 2)),
            "audit: 1 VIOLATION(S) — 0 run(s), 12 records, 1 sends, 1 "
            "delivers, 0 in transit\n"
            "  checkpoints=2 rounds=1 committed / 0 aborted, "
            "orphan-checks=1, weight-rounds=0\n"
            "  checks: causality=0 consistency=1 weight=0 lifecycle=0 "
            "blocking=0 truncation=0\n"
            "  [consistency] rep 0 t=0.000001s (P0,1): orphan msg 1: "
            "P0(ev 5) -> P1(ev 0) crosses the committed line\n");

  t = forged_orphan_trace();
  t[4].arg1 = ~std::uint64_t{0};  // P0's kCkptCursor
  AuditReport clean = audit_one(t, 2);
  EXPECT_TRUE(clean.ok()) << describe(clean);
}

// A checkpoint taken by a process outside [0, n) is one lifecycle
// violation. Its cursor, promotion and permanent (or discard) records
// still find the ref, and its update stays off the committed line (on
// P1's it would make the orphan).
TEST(AuditNegative, CheckpointOfANonexistentProcessFlagsLifecycle) {
  for (const std::int32_t pid : {2, -1}) {
    for (const TraceKind fate :
         {TraceKind::kCkptPermanent, TraceKind::kCkptDiscarded}) {
      std::vector<TraceRecord> t = forged_orphan_trace();
      t[5].pid = pid;                                 // P1's kCkptTaken
      t[10].kind = static_cast<std::uint8_t>(fate);  // and its fate
      AuditReport rep = audit_one(t, 2);
      ASSERT_EQ(rep.violations.size(), 1u) << describe(rep);
      EXPECT_EQ(rep.violations[0].check, AuditCheck::kLifecycle);
      EXPECT_EQ(rep.violations[0].detail,
                "checkpoint ref 2 taken by P" + std::to_string(pid) +
                    ", not one of the 2 processes");
    }
  }
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
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = obs::build_graph(recs, 4);
  EXPECT_TRUE(g.issues.empty());
  EXPECT_EQ(g.num_hops(), 2u);
  EXPECT_EQ(g.sends, 1u);
  EXPECT_EQ(g.delivers, 2u);
  EXPECT_EQ(g.in_transit, 1u);
}

// ---- matcher semantics, pinned: exact issue text and order ---------------

constexpr std::uint8_t kComp = obs::kRawMsgComputation;
constexpr std::uint8_t kReq = obs::kRawMsgRequest;

TraceRecord send_rec(sim::SimTime at, std::int32_t src, std::uint16_t dst,
                     std::uint64_t id, std::uint8_t sub = kComp) {
  return rec(at, TraceKind::kMsgSend, src, sub, dst, id,
             obs::pack_msg_stamp(sub == kComp ? id : 0, 64));
}

TraceRecord deliver_rec(sim::SimTime at, std::int32_t dst, std::uint16_t src,
                        std::uint64_t id, std::uint8_t sub = kComp) {
  return rec(at, TraceKind::kMsgDeliver, dst, sub, src, id,
             obs::pack_msg_stamp(sub == kComp ? id : 0, 64));
}

template <typename Graph>  // obs::CausalGraph or obs::DequeGraph
std::vector<std::string> issue_lines(const Graph& g) {
  std::vector<std::string> out;
  for (const obs::CausalIssue& is : g.issues) {
    // Appended piecewise: GCC 12 -O3 flags `"t" + std::string` with a
    // false -Wrestrict.
    std::string line = "t";
    line += std::to_string(is.at);
    line += " msg ";
    line += std::to_string(is.msg_id);
    line += ": ";
    line += is.detail;
    out.push_back(std::move(line));
  }
  return out;
}

using Lines = std::vector<std::string>;

bool same_hop(const obs::MsgHop& a, const obs::MsgHop& b) {
  return std::tie(a.id, a.src, a.dst, a.kind, a.computation, a.sent_at,
                  a.delivered_at, a.send_stamp, a.recv_stamp, a.buffered_at,
                  a.retry_extra, a.forwarded) ==
         std::tie(b.id, b.src, b.dst, b.kind, b.computation, b.sent_at,
                  b.delivered_at, b.send_stamp, b.recv_stamp, b.buffered_at,
                  b.retry_extra, b.forwarded);
}

/// The graph of a pinned case (`recs` holds the records of `t`); the
/// reference deque matcher must report the same issues, hops and
/// in-transit count, so the pins hold for both.
obs::CausalGraph pinned_graph(const obs::TraceRecords& recs,
                              const std::vector<TraceRecord>& t, int n) {
  obs::CausalGraph g = obs::build_graph(recs, n);
  const obs::DequeGraph ref = obs::build_graph_deque(t, n);
  EXPECT_EQ(issue_lines(g), issue_lines(ref));
  EXPECT_EQ(g.in_transit, ref.in_transit);
  EXPECT_EQ(g.num_hops(), ref.hops.size());
  for (std::size_t i = 0; i < std::min(g.num_hops(), ref.hops.size()); ++i) {
    EXPECT_TRUE(same_hop(g.hop(i), ref.hops[i])) << "hop " << i;
  }
  return g;
}

TEST(AuditGraph, OvertakeCountsOnlyUndeliveredPredecessors) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, 1, 1), send_rec(11, 0, 1, 2), send_rec(12, 0, 1, 3),
      send_rec(13, 0, 1, 4),
      deliver_rec(20, 1, 0, 3),  // ahead of 1 and 2
      deliver_rec(21, 1, 0, 2),  // ahead of 1 only
      deliver_rec(22, 1, 0, 1),  // late, but nothing left to overtake
      deliver_rec(23, 1, 0, 4),
  };
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 2);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t20 msg 3: FIFO violation: message overtook 2 earlier "
                   "send(s) on channel P0 -> P1",
                   "t21 msg 2: FIFO violation: message overtook 1 earlier "
                   "send(s) on channel P0 -> P1"}));
  EXPECT_EQ(g.num_hops(), 4u);
  EXPECT_EQ(g.in_transit, 0u);
}

TEST(AuditGraph, OvertakenMessageDeliveredLateIsNotAViolation) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, 1, 1), send_rec(11, 0, 1, 2),
      deliver_rec(20, 1, 0, 2), deliver_rec(30, 1, 0, 1),
      send_rec(31, 0, 1, 3), deliver_rec(40, 1, 0, 3),
  };
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 2);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t20 msg 2: FIFO violation: message overtook 1 earlier "
                   "send(s) on channel P0 -> P1"}));
  EXPECT_EQ(g.in_transit, 0u);
  ASSERT_EQ(g.delivers_by_pid[1].size(), 3u);
  EXPECT_EQ(g.hop(g.delivers_by_pid[1][1]).id, 1u);
}

TEST(AuditGraph, NeverDeliveredPredecessorIsOvertakenByEveryLaterSend) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, 1, 1), send_rec(11, 0, 1, 2),
      deliver_rec(20, 1, 0, 2),
      send_rec(21, 0, 1, 3), deliver_rec(30, 1, 0, 3),
  };
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 2);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t20 msg 2: FIFO violation: message overtook 1 earlier "
                   "send(s) on channel P0 -> P1",
                   "t30 msg 3: FIFO violation: message overtook 1 earlier "
                   "send(s) on channel P0 -> P1"}));
  EXPECT_EQ(g.in_transit, 1u);
}

TEST(AuditGraph, DuplicateDeliveryIsFlaggedAndStillAHop) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, 1, 1), deliver_rec(20, 1, 0, 1),
      deliver_rec(30, 1, 0, 1),
  };
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 2);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t30 msg 1: message delivered twice to one process"}));
  EXPECT_EQ(g.num_hops(), 2u);
  EXPECT_EQ(g.delivers, 2u);
  EXPECT_EQ(g.in_transit, 0u);
}

TEST(AuditGraph, WrongKindSenderOrRecipientMissesTheChannel) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, 1, 1),
      deliver_rec(20, 1, 0, 1, kReq),  // right channel pair, wrong class
      send_rec(21, 0, 1, 2),
      deliver_rec(30, 2, 0, 2),        // third party
      send_rec(31, 0, 1, 3),
      deliver_rec(40, 1, 2, 3),        // names the wrong sender
  };
  t.back().arg1 = obs::pack_msg_stamp(0, 64);  // and lacks its stamp
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 3);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t20 msg 1: message delivered twice to one process",
                   "t30 msg 2: unicast message delivered to a third party",
                   "t30 msg 2: message delivered twice to one process",
                   "t40 msg 3: delivery names sender P2, send was by P0",
                   "t40 msg 3: FIFO violation: message overtook 2 earlier "
                   "send(s) on channel P0 -> P1",
                   "t40 msg 3: computation message is missing an event-log "
                   "stamp"}));
  EXPECT_EQ(g.num_hops(), 3u);
  EXPECT_EQ(g.in_transit, 2u);
}

TEST(AuditGraph, BroadcastInterleavedWithUnicastsOnOneChannel) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, 1, 1, kReq),
      send_rec(11, 0, obs::kBroadcastDst, 2, kReq),
      send_rec(12, 0, 1, 3, kReq),
      deliver_rec(20, 1, 0, 3, kReq),  // ahead of 1 and the broadcast
      deliver_rec(21, 2, 0, 2, kReq),  // P2's channel is in order
      deliver_rec(22, 1, 0, 1, kReq),
      deliver_rec(23, 1, 0, 2, kReq),
  };
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 3);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t20 msg 3: FIFO violation: message overtook 2 earlier "
                   "send(s) on channel P0 -> P1"}));
  EXPECT_EQ(g.sends, 3u);
  EXPECT_EQ(g.num_hops(), 4u);
  EXPECT_EQ(g.in_transit, 0u);
}

TEST(AuditGraph, BroadcastDeliveredToItsSender) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, obs::kBroadcastDst, 1, kReq),
      deliver_rec(20, 0, 0, 1, kReq),
  };
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 3);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t20 msg 1: message delivered twice to one process"}));
  EXPECT_EQ(g.in_transit, 2u);
}

// ---- retired sends and idle channels: the verdicts do not change ---------

TEST(AuditGraph, UnicastDeliveredTwiceAfterItRetired) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, 1, 1), deliver_rec(20, 1, 0, 1),  // retired, idle
      send_rec(21, 0, 1, 2),                             // channel anew
      deliver_rec(30, 1, 0, 1),                          // again
      deliver_rec(40, 1, 0, 2),
  };
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 2);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t30 msg 1: message delivered twice to one process"}));
  ASSERT_EQ(g.num_hops(), 3u);
  EXPECT_EQ(g.hop(1).sent_at, 10);
  EXPECT_EQ(g.hop(1).src, 0);
  EXPECT_EQ(g.in_transit, 0u);
}

TEST(AuditGraph, SendReusingARetiredIdIsADuplicate) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, 1, 1), deliver_rec(20, 1, 0, 1),
      send_rec(21, 1, 0, 2),
      send_rec(30, 2, 1, 1),     // reuses the retired id 1
      deliver_rec(40, 1, 2, 1),  // matches the first send, not this one
      deliver_rec(41, 0, 1, 2),
  };
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 3);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t30 msg 1: duplicate send record for one message id",
                   "t40 msg 1: delivery names sender P2, send was by P0",
                   "t40 msg 1: message delivered twice to one process"}));
  EXPECT_EQ(g.sends, 2u);
  ASSERT_EQ(g.num_hops(), 3u);
  EXPECT_EQ(g.hop(1).sent_at, 10);
  EXPECT_EQ(g.in_transit, 0u);
}

TEST(AuditGraph, BroadcastDeliveredTwiceAfterItsChannelWentIdle) {
  std::vector<TraceRecord> t = {
      send_rec(10, 0, obs::kBroadcastDst, 1, kReq),
      deliver_rec(20, 1, 0, 1, kReq),  // channel P0 -> P1 idle
      send_rec(21, 0, 1, 2, kReq),     // and in use again
      deliver_rec(30, 1, 0, 1, kReq),  // P1's copy again
      deliver_rec(31, 1, 0, 2, kReq),
      deliver_rec(32, 2, 0, 1, kReq),
  };
  const obs::TraceRecords recs = obs::to_records(t);
  obs::CausalGraph g = pinned_graph(recs, t, 3);
  EXPECT_EQ(issue_lines(g),
            (Lines{"t30 msg 1: message delivered twice to one process"}));
  EXPECT_EQ(g.num_hops(), 4u);
  EXPECT_EQ(g.in_transit, 0u);
}

// ---- matcher vs the reference deque matcher, on random traces ------------

/// A random message trace over n processes. Send ids come from a small
/// pool, so some repeat, or with `ascending_ids` from a counter, as the
/// simulator draws them; mangled deliveries may name any small id.
std::vector<TraceRecord> random_message_trace(std::mt19937_64& rng, int n,
                                              bool ascending_ids = false) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  struct Copy {
    std::uint64_t id;
    std::int32_t src, dst;
    std::uint8_t sub;
  };
  std::vector<Copy> pending;
  std::vector<TraceRecord> t;
  const int len = pick(1, 20);
  sim::SimTime now = 0;
  std::uint64_t last_id = 0;
  for (int i = 0; i < len; ++i) {
    now += pick(0, 3);
    const int what = pick(0, 99);
    if (what < 40 || pending.empty()) {
      const std::uint64_t id = ascending_ids
                                   ? ++last_id
                                   : static_cast<std::uint64_t>(pick(1, 8));
      const std::int32_t src = pick(0, n - 1);
      const std::uint8_t sub = pick(0, 2) == 0 ? kReq : kComp;
      const bool bcast = pick(0, 6) == 0;
      const std::uint16_t dst =
          bcast ? obs::kBroadcastDst : static_cast<std::uint16_t>(pick(0, n));
      t.push_back(send_rec(now, src, dst, id, sub));
      if (pick(0, 9) == 0) t.back().arg1 = 0;  // no stamp
      for (std::int32_t p = 0; p < n; ++p) {
        if (bcast ? p != src : p == dst) pending.push_back({id, src, p, sub});
      }
    } else if (what < 90) {
      // Deliver some pending copy (random order: overtakes), sometimes
      // mangled, sometimes twice.
      const std::size_t k = static_cast<std::size_t>(
          pick(0, static_cast<int>(pending.size()) - 1));
      Copy c = pending[k];
      if (pick(0, 3) != 0) pending.erase(pending.begin() + k);
      if (pick(0, 9) == 0) c.sub = c.sub == kComp ? kReq : kComp;
      if (pick(0, 9) == 0) c.dst = pick(0, n);
      if (pick(0, 9) == 0) c.src = pick(0, n - 1);
      if (pick(0, 19) == 0) c.id = static_cast<std::uint64_t>(pick(1, 9));
      t.push_back(deliver_rec(now - pick(0, 1) * 5, c.dst,
                              static_cast<std::uint16_t>(c.src), c.id, c.sub));
    } else {
      const std::uint64_t id = static_cast<std::uint64_t>(pick(1, 8));
      const int k = pick(0, 2);
      if (k == 0) {
        t.push_back(rec(now, TraceKind::kMsgRetry, 0, 0, 0, id,
                        obs::pack_retry(pick(1, 100), 1)));
      } else if (k == 1) {
        t.push_back(rec(now, TraceKind::kMsgBuffered, 0, 0, 0, id, 1));
      } else {
        t.push_back(rec(now, TraceKind::kMsgForwarded, 0, 0, 0, id, 0));
      }
    }
  }
  return t;
}

/// 20,000 random traces through the builder and the reference; counts in
/// `retired` the trials that ended with some send retired. With pooled
/// ids the builder re-indexes at the first repeat; with ascending ids it
/// retires sends until a mangled delivery names a retired id, if one does.
void expect_matches_deque_matcher(bool ascending, std::uint64_t* retired) {
  std::mt19937_64 rng(2024);
  std::uint64_t overtakes = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const int n = std::uniform_int_distribution<int>(2, 5)(rng);
    const std::vector<TraceRecord> t = random_message_trace(rng, n, ascending);
    const obs::DequeGraph want = obs::build_graph_deque(t, n);
    const obs::TraceRecords recs = obs::to_records(t);
    obs::GraphBuilder b(recs, n);
    for (std::size_t i = 0; i < t.size(); ++i) b.add(i, t[i]);
    const std::size_t live = b.live_sends();
    const obs::CausalGraph got = b.finish();
    *retired += live < got.sends ? 1 : 0;
    ASSERT_EQ(issue_lines(got), issue_lines(want)) << "trial " << trial;
    ASSERT_EQ(got.num_hops(), want.hops.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.num_hops(); ++i) {
      ASSERT_TRUE(same_hop(got.hop(i), want.hops[i]))
          << "trial " << trial << " hop " << i;
    }
    ASSERT_EQ(got.delivers_by_pid, want.delivers_by_pid) << "trial " << trial;
    ASSERT_EQ(got.sends, want.sends);
    ASSERT_EQ(got.delivers, want.delivers);
    ASSERT_EQ(got.in_transit, want.in_transit) << "trial " << trial;
    for (const obs::CausalIssue& is : want.issues) {
      overtakes += is.detail.rfind("FIFO violation", 0) == 0 ? 1 : 0;
    }
  }
  EXPECT_GT(overtakes, 1000u);  // the generator does exercise overtakes
}

TEST(AuditGraph, MatchesReferenceDequeMatcherOnRandomTraces) {
  std::uint64_t retired = 0;
  expect_matches_deque_matcher(/*ascending=*/false, &retired);
}

TEST(AuditGraph, MatchesReferenceDequeMatcherOnAscendingIdTraces) {
  // Most trials retire sends; the mangled ones switch to the re-index.
  std::uint64_t retired = 0;
  expect_matches_deque_matcher(/*ascending=*/true, &retired);
  EXPECT_GT(retired, 5000u);
}

// The builder holds only what is in flight: 200k unicasts over n = 4096
// with at most 64 in flight, and a few broadcasts fanned out in full,
// never hold more than the copies in flight. A builder that keeps every
// send and every channel ever used ends with ~200k of each.
TEST(AuditGraph, LiveStateIsBoundedByCopiesInFlight) {
  constexpr int kN = 4096;
  constexpr std::size_t kUnicasts = 200000;
  constexpr std::size_t kMaxInFlight = 64;
  constexpr std::size_t kBroadcasts = 4;
  std::mt19937_64 rng(99);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  struct Copy {
    std::uint64_t id;
    std::int32_t src, dst;
  };
  std::vector<TraceRecord> t;
  // After each record: unicast copies in flight, and broadcasts so far;
  // broadcast copies in flight are fanout_left.
  std::vector<std::size_t> unicasts_in_flight, bcasts_sent, fanout_left;
  std::vector<Copy> flight;
  std::uint64_t next_id = 1;
  sim::SimTime now = 0;
  std::size_t sent = 0, bcasts = 0;
  auto note = [&](std::size_t fanout) {
    unicasts_in_flight.push_back(flight.size());
    bcasts_sent.push_back(bcasts);
    fanout_left.push_back(fanout);
  };
  auto deliver = [&](std::size_t k) {
    // The oldest copy on k's channel goes first, so the trace is FIFO.
    for (std::size_t j = 0; j < k; ++j) {
      if (flight[j].src == flight[k].src && flight[j].dst == flight[k].dst) {
        k = j;
        break;
      }
    }
    const Copy c = flight[k];
    flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(k));
    t.push_back(deliver_rec(++now, c.dst, static_cast<std::uint16_t>(c.src),
                            c.id));
    note(0);
  };
  while (sent < kUnicasts) {
    if (bcasts < kBroadcasts &&
        sent >= (2 * bcasts + 1) * kUnicasts / (2 * kBroadcasts)) {
      // Drain, then fan a broadcast out to everyone.
      while (!flight.empty()) deliver(0);
      const std::int32_t src = pick(0, kN - 1);
      const std::uint64_t id = next_id++;
      ++bcasts;
      t.push_back(send_rec(++now, src, obs::kBroadcastDst, id, kReq));
      note(kN - 1);
      std::size_t left = kN - 1;
      for (std::int32_t p = 0; p < kN; ++p) {
        if (p == src) continue;
        t.push_back(deliver_rec(++now, p, static_cast<std::uint16_t>(src),
                                id, kReq));
        note(--left);
      }
    }
    if (flight.size() < kMaxInFlight && pick(0, 1) == 0) {
      // A few neighbours per sender, so channels are reused after idling.
      const std::int32_t src = pick(0, kN - 1);
      const std::int32_t dst = (src + pick(1, 3)) % kN;
      const std::uint64_t id = next_id++;
      t.push_back(send_rec(++now, src, static_cast<std::uint16_t>(dst), id));
      flight.push_back({id, src, dst});
      ++sent;
      note(0);
    } else if (!flight.empty()) {
      deliver(static_cast<std::size_t>(
          pick(0, static_cast<int>(flight.size()) - 1)));
    }
  }
  while (!flight.empty()) deliver(0);

  const obs::TraceRecords recs = obs::to_records(t);
  obs::GraphBuilder b(recs, kN);
  for (std::size_t i = 0; i < t.size(); ++i) {
    b.add(i, t[i]);
    ASSERT_LE(unicasts_in_flight[i], kMaxInFlight);
    ASSERT_LE(b.live_sends(), unicasts_in_flight[i] + bcasts_sent[i])
        << "record " << i;
    ASSERT_LE(b.live_channels(), unicasts_in_flight[i] + fanout_left[i])
        << "record " << i;
  }
  EXPECT_EQ(b.live_sends(), kBroadcasts);  // broadcasts stay; few of them
  EXPECT_EQ(b.live_channels(), 0u);
  const obs::CausalGraph g = b.finish();
  EXPECT_EQ(issue_lines(g), Lines{});
  EXPECT_EQ(g.sends, kUnicasts + kBroadcasts);
  EXPECT_EQ(g.num_hops(), kUnicasts + kBroadcasts * (kN - 1));
  EXPECT_EQ(g.in_transit, 0u);
}

// ---- Theorem 1 replay vs the per-line scan, on random committed lines ----

TEST(AuditConsistency, SweepMatchesPerLineScanOnRandomLines) {
  constexpr std::uint8_t kTent =
      static_cast<std::uint8_t>(ckpt::CkptKind::kTentative);
  std::mt19937_64 rng(77);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::uint64_t orphans = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = pick(2, 6);
    std::vector<TraceRecord> t;
    sim::SimTime now = 0;
    std::uint64_t next_ref = 1, next_msg = 1;
    std::map<std::uint64_t, std::vector<std::pair<int, std::uint64_t>>>
        updates;
    std::map<std::uint64_t, sim::SimTime> committed_at;
    std::vector<std::uint64_t> commit_order;
    std::vector<std::uint64_t> open;
    const int steps = pick(1, 40);
    for (int i = 0; i < steps; ++i) {
      ++now;
      const int what = pick(0, 9);
      if (what < 4) {
        const std::int32_t src = pick(0, n - 1), dst = pick(0, n - 1);
        const std::uint64_t id = next_msg++;
        t.push_back(rec(now, TraceKind::kMsgSend, src, kComp,
                        static_cast<std::uint16_t>(dst), id,
                        obs::pack_msg_stamp(pick(1, 30), 64)));
        ++now;  // in flight for a while: critical paths make progress
        t.push_back(rec(now, TraceKind::kMsgDeliver, dst, kComp,
                        static_cast<std::uint16_t>(src), id,
                        obs::pack_msg_stamp(pick(1, 30), 64)));
      } else if (what < 7 || open.empty()) {
        // A round whose checkpoints are all made permanent up front.
        const std::int32_t init_pid = pick(0, n - 1);
        const std::uint64_t init =
            (static_cast<std::uint64_t>(init_pid) << 32) | next_ref;
        t.push_back(rec(now, TraceKind::kInitStart, init_pid, 0, 0, init, 0));
        for (std::int32_t p = 0; p < n; ++p) {
          if (pick(0, 2) == 0) continue;
          const std::uint64_t ref = next_ref++;
          const std::uint64_t cursor = static_cast<std::uint64_t>(pick(0, 30));
          t.push_back(rec(now, TraceKind::kCkptTaken, p, kTent, 0, init,
                          ref << 32));
          t.push_back(rec(now, TraceKind::kCkptCursor, p, kTent, 0, ref,
                          cursor));
          t.push_back(
              rec(now, TraceKind::kCkptPermanent, p, kTent, 0, init, ref));
          updates[init].emplace_back(p, cursor);
        }
        ++next_ref;
        open.push_back(init);
      } else {
        // Commit an open round; now and then one twice.
        const std::size_t k = static_cast<std::size_t>(
            pick(0, static_cast<int>(open.size()) - 1));
        const std::uint64_t init = open[k];
        if (pick(0, 4) != 0) open.erase(open.begin() + k);
        t.push_back(rec(now, TraceKind::kRoundCommit,
                        static_cast<std::int32_t>(init >> 32), 0, 0, init, 0));
        committed_at[init] = now;
        commit_order.push_back(init);
      }
    }

    // The per-line scan: every hop against every committed line.
    std::vector<std::string> want;
    std::uint64_t want_checks = 0;
    std::vector<std::uint64_t> line(static_cast<std::size_t>(n), 0);
    std::unordered_set<std::size_t> flagged;
    const obs::TraceRecords recs = obs::to_records(t);
    const obs::CausalGraph g = obs::build_graph(recs, n);
    for (std::uint64_t init : commit_order) {
      for (const auto& [p, cursor] : updates[init]) {
        line[static_cast<std::size_t>(p)] =
            std::max(line[static_cast<std::size_t>(p)], cursor);
      }
      for (std::size_t i = 0; i < g.num_hops(); ++i) {
        const obs::MsgHop h = g.hop(i);
        ++want_checks;
        if (h.recv_stamp - 1 < line[static_cast<std::size_t>(h.dst)] &&
            h.send_stamp - 1 >= line[static_cast<std::size_t>(h.src)] &&
            flagged.insert(i).second) {
          want.push_back(std::to_string(committed_at[init]) + " " +
                         obs::initiation_label(init) + " msg " +
                         std::to_string(h.id));
        }
      }
    }

    AuditReport rep = audit_one(t, n);
    std::vector<std::string> got;
    for (const obs::AuditViolation& v : rep.violations) {
      ASSERT_EQ(v.check, AuditCheck::kConsistency) << v.detail;
      got.push_back(std::to_string(v.at) + " " +
                    obs::initiation_label(v.initiation) + " msg " +
                    v.detail.substr(11, v.detail.find(':') - 11));
    }
    ASSERT_EQ(got, want) << "trial " << trial;
    ASSERT_EQ(rep.totals.orphan_checks, want_checks) << "trial " << trial;
    orphans += want.size();
  }
  EXPECT_GT(orphans, 100u);
}

// ---- refusal: peer pids do not fit the 16-bit aux past n = 65535 ---------

TEST(AuditNegative, MoreThan65535ProcessesIsRefusedNotMisjudged) {
  std::vector<TraceRecord> t = {send_rec(10, 0, 1, 1),
                                deliver_rec(20, 1, 0, 1)};
  AuditReport ok = audit_one(t, 65535);
  EXPECT_TRUE(ok.ok()) << describe(ok);

  AuditReport rep = audit_one(t, 70000);
  ASSERT_EQ(rep.violations.size(), 1u) << describe(rep);
  EXPECT_EQ(rep.violations[0].check, AuditCheck::kTruncation);
  EXPECT_EQ(rep.violations[0].detail,
            "peer ids are 16-bit; cannot certify n > 65535 (n = 70000)");
  EXPECT_EQ(rep.totals.records, 2u);
}

}  // namespace
}  // namespace mck
