// Wire fidelity is lossless: running the identical seeded scenario with
// the transport serializing every payload through the codec (encode on
// send, decode on deliver) must produce the exact same event history and
// message counts as passing payload objects by pointer. A codec that
// drops or distorts any field diverges the protocol and fails here.
#include <set>

#include <gtest/gtest.h>

#include "full_history.hpp"
#include "harness/experiment.hpp"
#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::System;
using harness::SystemOptions;

struct Trace {
  std::vector<ckpt::MsgRecord> messages;
  std::vector<ckpt::MessageTimes> times;  // messages[i]'s, from the trace
  rt::RunStats stats;
  std::uint64_t initiations = 0;
  bool consistent = true;
};

Trace run_scenario(Algorithm algo, bool fidelity,
                   harness::TransportKind transport) {
  obs::Tracer tracer;
  tracer.enable(ckpt::kFullHistoryKinds);
  SystemOptions opts;
  opts.tracer = &tracer;
  opts.algorithm = algo;
  opts.num_processes = 6;
  opts.seed = 97;
  opts.transport = transport;
  opts.wire_fidelity = fidelity;
  System sys(opts);

  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.02,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(sim::seconds(1800));
  harness::SchedulerOptions so;
  so.interval = sim::seconds(300);
  harness::CheckpointScheduler sched(sys, so);
  sched.start(sim::seconds(1800));
  sys.simulator().run_until(sim::kTimeNever);

  // The record-by-record comparison covers the full history, rebuilt from
  // the trace; the live log must hold exactly its unretired records.
  const obs::TraceRecords records = tracer.take_records();
  const ckpt::EventLog full = ckpt::full_history(records, sys.n());
  EXPECT_EQ(ckpt::live_log_mismatch(full, sys.log()), "");
  Trace t;
  t.messages = full.messages();
  t.times = ckpt::message_times(records);
  t.stats = sys.stats();
  t.initiations = sched.initiations_fired();
  if (harness::has_committed_lines(algo)) {
    t.consistent = sys.check_consistency().consistent;
  }
  return t;
}

void expect_identical(const Trace& plain, const Trace& wire,
                      const char* label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(plain.consistent);
  EXPECT_TRUE(wire.consistent);
  EXPECT_EQ(plain.initiations, wire.initiations);

  // Same per-kind message counts and charged bytes...
  for (int k = 0; k < rt::kMsgKindCount; ++k) {
    EXPECT_EQ(plain.stats.msgs_sent[k], wire.stats.msgs_sent[k]) << "kind "
                                                                 << k;
    EXPECT_EQ(plain.stats.bytes_sent[k], wire.stats.bytes_sent[k]) << "kind "
                                                                   << k;
  }
  EXPECT_EQ(plain.stats.deliveries, wire.stats.deliveries);
  EXPECT_EQ(plain.stats.tentative_taken, wire.stats.tentative_taken);
  EXPECT_EQ(plain.stats.mutable_taken, wire.stats.mutable_taken);
  EXPECT_EQ(plain.stats.permanent_made, wire.stats.permanent_made);

  // ...and the exact same event history, record by record.
  ASSERT_EQ(plain.messages.size(), wire.messages.size());
  ASSERT_EQ(plain.times.size(), plain.messages.size());
  ASSERT_EQ(wire.times.size(), wire.messages.size());
  for (std::size_t i = 0; i < plain.messages.size(); ++i) {
    const ckpt::MsgRecord& a = plain.messages[i];
    const ckpt::MsgRecord& b = wire.messages[i];
    EXPECT_EQ(a.id, b.id) << "record " << i;
    EXPECT_EQ(a.src, b.src) << "record " << i;
    EXPECT_EQ(a.dst, b.dst) << "record " << i;
    EXPECT_EQ(a.send_event, b.send_event) << "record " << i;
    EXPECT_EQ(a.recv_event, b.recv_event) << "record " << i;
    EXPECT_EQ(plain.times[i].sent_at, wire.times[i].sent_at)
        << "record " << i;
    EXPECT_EQ(plain.times[i].recv_at, wire.times[i].recv_at)
        << "record " << i;
  }
}

TEST(WireFidelity, AllAlgorithmsIdenticalOnLan) {
  for (Algorithm algo :
       {Algorithm::kCaoSinghal, Algorithm::kKooToueg, Algorithm::kElnozahy,
        Algorithm::kChandyLamport, Algorithm::kLaiYang,
        Algorithm::kSimpleScheme, Algorithm::kRevisedScheme,
        Algorithm::kUncoordinated}) {
    Trace plain =
        run_scenario(algo, false, harness::TransportKind::kLan);
    Trace wire = run_scenario(algo, true, harness::TransportKind::kLan);
    expect_identical(plain, wire, harness::to_string(algo));
  }
}

TEST(WireFidelity, CellularTransportIdentical) {
  // The cellular path keeps messages encoded across MSS forwarding and
  // disconnection buffering; decoding happens only at final delivery.
  Trace plain = run_scenario(Algorithm::kCaoSinghal, false,
                             harness::TransportKind::kCellular);
  Trace wire = run_scenario(Algorithm::kCaoSinghal, true,
                            harness::TransportKind::kCellular);
  expect_identical(plain, wire, "cao-singhal/cellular");
}

// P0 depends on P1..P8 (one message from each) and initiates; returns
// the checkpoint requests P1..P8 receive.
std::vector<std::shared_ptr<const core::RequestPayload>> fan_out_requests(
    bool fidelity) {
  constexpr int kDeps = 8;
  SystemOptions opts;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.num_processes = kDeps + 1;
  opts.wire_fidelity = fidelity;
  System sys(opts);
  std::vector<std::shared_ptr<const core::RequestPayload>> requests;
  for (ProcessId p = 1; p <= kDeps; ++p) {
    sys.lan()->set_sink(p, [&sys, &requests](const rt::Message& m) {
      if (m.payload_as<core::RequestPayload>() != nullptr) {
        requests.push_back(
            std::static_pointer_cast<const core::RequestPayload>(m.payload));
      }
      sys.proto(m.dst).on_deliver(m);
    });
    sys.simulator().schedule_at(sim::milliseconds(10 * p),
                                [&sys, p] { sys.send(p, 0); });
  }
  sys.simulator().schedule_at(sim::milliseconds(200),
                              [&sys] { sys.initiate(0); });
  sys.simulator().run_until(sim::kTimeNever);
  return requests;
}

TEST(WireFidelity, EachDecodedRequestOwnsItsMr) {
  // Without fidelity the fan-out shares the sender's MR; with it, every
  // recipient decodes its own MR, equal to the one that was sent.
  const auto plain = fan_out_requests(false);
  const auto wire = fan_out_requests(true);
  ASSERT_EQ(plain.size(), 8u);
  ASSERT_EQ(wire.size(), plain.size());
  const core::SparseMr& sent = *plain[0]->mr;
  std::set<const core::SparseMr*> distinct;
  for (const auto& rq : wire) {
    ASSERT_NE(rq->mr, nullptr);
    EXPECT_EQ(*rq->mr, sent);
    EXPECT_EQ(rq->mr.use_count(), 1);
    distinct.insert(rq->mr.get());
  }
  EXPECT_EQ(distinct.size(), wire.size());
}

TEST(WireFidelity, ExperimentRunnerRoundTrip) {
  // Same check through the public experiment runner, honest-bytes mode on,
  // so fidelity composes with --wire-sizes accounting.
  auto run = [](bool fidelity) {
    harness::ExperimentConfig cfg;
    cfg.sys.algorithm = Algorithm::kCaoSinghal;
    cfg.sys.num_processes = 8;
    cfg.sys.seed = 5;
    cfg.sys.wire_fidelity = fidelity;
    cfg.sys.timing.use_wire_sizes = true;
    cfg.sys.timing.record_wire_bytes = true;
    cfg.rate = 0.02;
    cfg.ckpt_interval = sim::seconds(300);
    cfg.horizon = sim::seconds(3600);
    return harness::run_experiment(cfg);
  };
  harness::RunResult plain = run(false);
  harness::RunResult wire = run(true);
  EXPECT_TRUE(plain.consistent);
  EXPECT_TRUE(wire.consistent);
  EXPECT_EQ(plain.committed, wire.committed);
  EXPECT_EQ(plain.comp_msgs, wire.comp_msgs);
  EXPECT_EQ(plain.stats.system_bytes(), wire.stats.system_bytes());
  EXPECT_EQ(plain.stats.system_wire_bytes(), wire.stats.system_wire_bytes());
  EXPECT_GT(wire.stats.system_wire_bytes(), 0u);
}

}  // namespace
}  // namespace mck
