// Section 2.2: handoff, voluntary disconnection / reconnection, message
// buffering at the MSS, and checkpointing on behalf of disconnected MHs
// (Case 3 of the Theorem 1 proof).
#include <gtest/gtest.h>

#include "full_history.hpp"
#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "mobile/mobility.hpp"
#include "obs/audit.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::System;
using harness::SystemOptions;

SystemOptions cellular_options(int n, int mss = 4) {
  SystemOptions opts;
  opts.num_processes = n;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = mss;
  return opts;
}

TEST(Mobility, DisconnectBuffersAndReconnectReplaysInOrder) {
  obs::Tracer tracer;
  tracer.enable(ckpt::kFullHistoryKinds);
  SystemOptions opts = cellular_options(3, 2);
  opts.tracer = &tracer;
  System sys(opts);
  auto* cell = sys.cellular();

  std::vector<MessageId> received;
  sys.cao(1).on_app_message = [&](const rt::Message& m) {
    received.push_back(m.id);
  };

  sys.simulator().schedule_at(sim::milliseconds(10), [&] {
    sys.cao(1).on_disconnect();
    cell->disconnect(1);
  });
  for (int i = 0; i < 5; ++i) {
    sys.simulator().schedule_at(sim::milliseconds(100 + 20 * i),
                                [&sys] { sys.send(0, 1); });
  }
  sys.simulator().schedule_at(sim::seconds(5),
                              [&] { cell->reconnect(1, 1); });
  sys.simulator().run_until(sim::kTimeNever);

  EXPECT_EQ(cell->messages_buffered(), 5u);
  ASSERT_EQ(received.size(), 5u);
  for (std::size_t i = 1; i < received.size(); ++i) {
    EXPECT_LT(received[i - 1], received[i]) << "FIFO violated on replay";
  }
  // All receives happened after the reconnection.
  const std::vector<ckpt::MessageTimes> times =
      ckpt::message_times(tracer.take_records());
  ASSERT_EQ(times.size(), sys.log().messages().size());
  for (const ckpt::MessageTimes& t : times) {
    EXPECT_GE(t.recv_at, sim::seconds(5));
  }
}

// The reconnect flush drains the MSS buffer one downlink frame at a time.
// A message sent right after the reconnection takes a shorter path and
// reaches the MSS while the flush is still draining; it must queue behind
// the buffered messages of its channel (FIFO, Sections 2.1-2.2).
TEST(Mobility, MessageInsideReconnectFlushWaitsBehindBufferedOnes) {
  obs::Tracer tracer;
  tracer.enable();
  SystemOptions opts = cellular_options(3, 2);
  opts.tracer = &tracer;
  System sys(opts);
  auto* cell = sys.cellular();

  std::vector<MessageId> received;
  sys.cao(1).on_app_message = [&](const rt::Message& m) {
    received.push_back(m.id);
  };

  sys.simulator().schedule_at(sim::milliseconds(10), [&] {
    sys.cao(1).on_disconnect();
    cell->disconnect(1);
  });
  for (int i = 0; i < 5; ++i) {
    sys.simulator().schedule_at(sim::milliseconds(100 + 20 * i),
                                [&sys] { sys.send(0, 1); });
  }
  // Reconnect next to the sender, then send once more at the same instant:
  // uplink + downlink beats the wired hop plus five queued downlinks.
  sys.simulator().schedule_at(sim::seconds(5), [&] {
    cell->reconnect(1, 0);
    sys.send(0, 1);
  });
  sys.simulator().run_until(sim::kTimeNever);

  EXPECT_EQ(cell->messages_buffered(), 5u);
  ASSERT_EQ(received.size(), 6u);
  for (std::size_t i = 1; i < received.size(); ++i) {
    EXPECT_LT(received[i - 1], received[i]) << "flush overtaken at " << i;
  }
  obs::AuditReport rep;
  obs::audit_records(tracer.take_records(), sys.n(), 0, rep);
  EXPECT_TRUE(rep.ok()) << obs::render_report(rep, false);
}

TEST(Mobility, DisconnectedSenderProducesNoEvents) {
  System sys(cellular_options(3, 2));
  sys.simulator().schedule_at(sim::milliseconds(10), [&] {
    sys.cao(0).on_disconnect();
    sys.cellular()->disconnect(0);
  });
  sys.simulator().schedule_at(sim::milliseconds(100),
                              [&sys] { sys.send(0, 1); });  // dropped
  sys.simulator().run_until(sim::kTimeNever);
  EXPECT_EQ(sys.stats().msgs_sent[0], 0u);
  EXPECT_EQ(sys.log().cursor(0), 0u);
}

TEST(Mobility, CheckpointRequestHandledWhileDisconnected) {
  // Theorem 1 proof, Case 3: the MSS converts the disconnect_checkpoint
  // into the process's new checkpoint. The request must not wait for the
  // MH to reconnect, and the conversion costs no wireless transfer.
  System sys(cellular_options(3, 2));
  sys.simulator().schedule_at(sim::milliseconds(50), [&] {
    sys.cao(1).on_disconnect();
    sys.cellular()->disconnect(1);
  });
  sys.simulator().schedule_at(sim::milliseconds(10),
                              [&sys] { sys.send(1, 2); });  // R_2[1] = 1
  sys.simulator().schedule_at(sim::milliseconds(100),
                              [&sys] { sys.initiate(2); });
  sys.simulator().run_until(sim::kTimeNever);

  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_EQ(inits[0]->tentative, 2u);  // P2 and disconnected P1
  // A disconnect checkpoint record was deposited at the MSS.
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kDisconnect), 1u);
  EXPECT_TRUE(sys.check_consistency().consistent);
  // The commit does not wait for any reconnection: well under a minute.
  EXPECT_LT(inits[0]->committed_at, sim::seconds(60));
}

TEST(Mobility, HandoffPreservesPerChannelFifo) {
  System sys(cellular_options(3, 3));
  std::vector<MessageId> received;
  sys.cao(1).on_app_message = [&](const rt::Message& m) {
    received.push_back(m.id);
  };
  // A burst of messages; the receiver hops cells mid-burst so later
  // messages take the short path while earlier ones get rerouted.
  for (int i = 0; i < 10; ++i) {
    sys.simulator().schedule_at(sim::milliseconds(1 + i),
                                [&sys] { sys.send(0, 1); });
  }
  sys.simulator().schedule_at(sim::milliseconds(5), [&] {
    sys.cellular()->handoff(1, 2);
  });
  sys.simulator().run_until(sim::kTimeNever);

  ASSERT_EQ(received.size(), 10u);
  for (std::size_t i = 1; i < received.size(); ++i) {
    EXPECT_LT(received[i - 1], received[i]) << "FIFO violated by handoff";
  }
  EXPECT_GE(sys.cellular()->messages_forwarded(), 1u);
  EXPECT_EQ(sys.cellular()->handoffs(), 1u);
}

TEST(Mobility, RandomizedMobilityRunStaysConsistent) {
  for (std::uint64_t seed : {7ull, 21ull}) {
    SystemOptions opts = cellular_options(8, 3);
    opts.seed = seed;
    System sys(opts);

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

    EXPECT_GT(sched.initiations_fired(), 0u);
    std::size_t committed = 0;
    for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
      if (st->committed()) ++committed;
    }
    EXPECT_GT(committed, 0u);
    ckpt::CheckResult res = sys.check_consistency();
    EXPECT_TRUE(res.consistent) << res.describe();
    EXPECT_FALSE(sys.any_coordination_active());
  }
}

}  // namespace
}  // namespace mck
