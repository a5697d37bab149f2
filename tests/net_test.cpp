// Unit tests for the network substrate: FIFO sequencing, LAN transport
// (dedicated and shared medium), and cellular transport mechanics.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mobile/cellular.hpp"
#include "net/fifo.hpp"
#include "net/lan.hpp"

namespace mck {
namespace {

rt::Message make_msg(ProcessId src, ProcessId dst, std::uint64_t bytes,
                     rt::MsgKind kind = rt::MsgKind::kComputation) {
  rt::Message m;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  m.kind = kind;
  return m;
}

// ---------------------------------------------------------------------
// FifoSequencer
// ---------------------------------------------------------------------

/// Runs `msg` through the sequencer and collects what it releases.
std::vector<rt::Message> arrive_collect(net::FifoSequencer& fifo,
                                        rt::Message msg) {
  std::vector<rt::Message> out;
  fifo.arrive(std::move(msg),
              [&out](rt::Message m) { out.push_back(std::move(m)); });
  return out;
}

TEST(FifoSequencer, InOrderArrivalsPassThrough) {
  net::FifoSequencer fifo(2);
  rt::Message a = make_msg(0, 1, 10), b = make_msg(0, 1, 10);
  fifo.stamp(a);
  fifo.stamp(b);
  EXPECT_EQ(arrive_collect(fifo, a).size(), 1u);
  EXPECT_EQ(arrive_collect(fifo, b).size(), 1u);
}

TEST(FifoSequencer, OvertakerHeldUntilPredecessor) {
  net::FifoSequencer fifo(2);
  rt::Message a = make_msg(0, 1, 10), b = make_msg(0, 1, 10);
  fifo.stamp(a);  // seq 0
  fifo.stamp(b);  // seq 1
  // b arrives first: held back.
  EXPECT_TRUE(arrive_collect(fifo, b).empty());
  // a arrives: both released, in order.
  auto out = arrive_collect(fifo, a);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].channel_seq, 0u);
  EXPECT_EQ(out[1].channel_seq, 1u);
}

TEST(FifoSequencer, ChannelsAreIndependent) {
  net::FifoSequencer fifo(3);
  rt::Message a = make_msg(0, 1, 10);
  rt::Message b = make_msg(0, 2, 10);
  rt::Message c = make_msg(1, 2, 10);
  fifo.stamp(a);
  fifo.stamp(b);
  fifo.stamp(c);
  EXPECT_EQ(a.channel_seq, 0u);
  EXPECT_EQ(b.channel_seq, 0u);  // different channel, own numbering
  EXPECT_EQ(c.channel_seq, 0u);
  EXPECT_EQ(arrive_collect(fifo, c).size(), 1u);
  EXPECT_EQ(arrive_collect(fifo, b).size(), 1u);
  EXPECT_EQ(arrive_collect(fifo, a).size(), 1u);
}

TEST(FifoSequencer, LongReorderDrainsCompletely) {
  net::FifoSequencer fifo(2);
  std::vector<rt::Message> msgs;
  for (int i = 0; i < 10; ++i) {
    rt::Message m = make_msg(0, 1, 10);
    fifo.stamp(m);
    msgs.push_back(m);
  }
  // Arrive in reverse: everything is held until seq 0 shows up.
  for (int i = 9; i >= 1; --i) {
    EXPECT_TRUE(arrive_collect(fifo, msgs[static_cast<std::size_t>(i)]).empty());
  }
  auto out = arrive_collect(fifo, msgs[0]);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].channel_seq, i);
  }
}

TEST(FifoSequencer, ChannelsSpreadAcrossALargePopulation) {
  // Channels keyed across the whole (src, dst) space of a 1000-host
  // population order exactly like the small-population ones.
  const int n = 1000;
  net::FifoSequencer fifo(n);
  for (ProcessId src : {0, 257, 999}) {
    const ProcessId dst = (src + 511) % n;
    rt::Message a = make_msg(src, dst, 10), b = make_msg(src, dst, 10);
    fifo.stamp(a);
    fifo.stamp(b);
    EXPECT_TRUE(arrive_collect(fifo, b).empty());
    auto out = arrive_collect(fifo, a);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].channel_seq, 0u);
    EXPECT_EQ(out[1].channel_seq, 1u);
  }
  // Reverse-direction channel is independent of the forward one.
  rt::Message r = make_msg(511, 0, 10);
  fifo.stamp(r);
  EXPECT_EQ(r.channel_seq, 0u);
  EXPECT_EQ(arrive_collect(fifo, r).size(), 1u);
}

/// Reference model of the sequencer, kept per channel in plain maps: the
/// stamped messages not yet delivered, in stamp order, and which of them
/// have arrived. A channel whose queue empties is dropped and restarts
/// its numbering, as a retired channel does.
struct FifoModel {
  struct Slot {
    MessageId id;
    bool arrived = false;
  };
  std::map<std::pair<ProcessId, ProcessId>, std::deque<Slot>> chans;
  /// Sequence numbers already consumed by deliveries on a live channel.
  std::map<std::pair<ProcessId, ProcessId>, std::uint32_t> base;
  std::size_t arrived_undelivered = 0;

  std::uint32_t stamp(ProcessId src, ProcessId dst, MessageId id) {
    auto& q = chans[{src, dst}];
    q.push_back(Slot{id});
    return static_cast<std::uint32_t>(q.size() - 1) + base[{src, dst}];
  }

  bool is_head(ProcessId src, ProcessId dst, MessageId id) const {
    return chans.at({src, dst}).front().id == id;
  }

  /// Marks `id` arrived and returns what becomes deliverable, in order.
  std::vector<MessageId> arrive(ProcessId src, ProcessId dst, MessageId id) {
    auto& q = chans.at({src, dst});
    for (Slot& sl : q) {
      if (sl.id == id) sl.arrived = true;
    }
    ++arrived_undelivered;
    std::vector<MessageId> out;
    while (!q.empty() && q.front().arrived) {
      out.push_back(q.front().id);
      q.pop_front();
      --arrived_undelivered;
      ++base[{src, dst}];
    }
    if (q.empty()) {
      chans.erase({src, dst});
      base.erase({src, dst});
    }
    return out;
  }

  std::size_t live() const { return chans.size(); }
};

/// Random stamps and reordered arrivals, some through the broadcast-batch
/// path (stamp_channel + try_fast_deliver), checked step by step against
/// FifoModel: exact delivery order, the stamped sequence numbers, and
/// live_channels() equal to the channels with an undelivered message.
void run_fifo_property(int n, std::uint64_t seed) {
  net::FifoSequencer fifo(n);
  FifoModel model;
  std::mt19937_64 rng(seed);
  // A few hosts spread over the population, so channels are reused,
  // retired and re-created; a rare fully random pair adds fresh ones.
  auto any_host = [&rng, n] {
    return static_cast<ProcessId>(rng() % static_cast<std::uint64_t>(n));
  };
  std::vector<ProcessId> hosts;
  for (int i = 0; i < 6; ++i) hosts.push_back(any_host());
  struct Flight {
    rt::Message msg;
    bool batch;  // stamped by stamp_channel, tries try_fast_deliver first
  };
  std::vector<Flight> flight;
  MessageId next_id = 1;
  std::vector<MessageId> got;
  auto collect = [&got](rt::Message m) { got.push_back(m.id); };
  auto pick = [&] {
    return rng() % 16 == 0 ? any_host() : hosts[rng() % hosts.size()];
  };
  auto stamp_one = [&](ProcessId src, ProcessId dst, bool batch) {
    rt::Message m = make_msg(src, dst, 10);
    m.id = next_id++;
    const auto want = model.stamp(src, dst, m.id);
    if (batch) {
      m.channel_seq = fifo.stamp_channel(src, dst);
    } else {
      fifo.stamp(m);
    }
    ASSERT_EQ(m.channel_seq, want) << "numbering restarts only when idle";
    flight.push_back(Flight{m, batch});
  };
  auto arrive_one = [&](std::size_t i) {
    Flight f = flight[i];
    flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
    const rt::Message& m = f.msg;
    const bool quiet = model.arrived_undelivered == 0;
    const bool head = model.is_head(m.src, m.dst, m.id);
    const std::vector<MessageId> want = model.arrive(m.src, m.dst, m.id);
    got.clear();
    if (f.batch && fifo.try_fast_deliver(m.src, m.dst, m.channel_seq)) {
      ASSERT_TRUE(quiet && head) << "fast path taken out of order";
      got.push_back(m.id);
    } else {
      ASSERT_FALSE(f.batch && quiet && head) << "fast path refused in order";
      fifo.arrive(m, collect);
    }
    ASSERT_EQ(got, want);
  };

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t r = rng() % 8;
    if (r < 3 || flight.empty()) {
      ProcessId src = pick(), dst = pick();
      if (src == dst) dst = (dst + 1) % n;
      stamp_one(src, dst, rng() % 4 == 0);
    } else if (r == 3) {
      // A broadcast-style fan-out from one host.
      const ProcessId src = pick();
      for (ProcessId dst : hosts) {
        if (dst != src) stamp_one(src, dst, true);
      }
    } else if (r < 6) {
      arrive_one(0);  // oldest first: the common in-order case
    } else {
      arrive_one(rng() % flight.size());  // reordered
    }
    if (testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(fifo.live_channels(), model.live()) << "step " << step;
  }
  while (!flight.empty()) {
    arrive_one(rng() % flight.size());
    if (testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(fifo.live_channels(), model.live());
  }
  EXPECT_EQ(fifo.live_channels(), 0u) << "a drained sequencer holds nothing";
}

TEST(FifoSequencer, RandomReorderMatchesModelAndRetiresIdleChannels) {
  run_fifo_property(4096, 1);
  ASSERT_FALSE(HasFatalFailure());
  run_fifo_property(64, 2);
}

TEST(FifoSequencer, IdleChannelIsRetiredAndRestartsNumbering) {
  net::FifoSequencer fifo(8);
  rt::Message a = make_msg(2, 5, 10), b = make_msg(2, 5, 10);
  fifo.stamp(a);
  fifo.stamp(b);
  EXPECT_EQ(fifo.live_channels(), 1u);
  EXPECT_EQ(arrive_collect(fifo, a).size(), 1u);
  EXPECT_EQ(fifo.live_channels(), 1u);  // b still in flight
  EXPECT_EQ(arrive_collect(fifo, b).size(), 1u);
  EXPECT_EQ(fifo.live_channels(), 0u);
  rt::Message c = make_msg(2, 5, 10);
  fifo.stamp(c);
  EXPECT_EQ(c.channel_seq, 0u);
  // Broadcast-batch path retires too.
  EXPECT_TRUE(fifo.try_fast_deliver(2, 5, c.channel_seq));
  EXPECT_EQ(fifo.live_channels(), 0u);
}

// ---------------------------------------------------------------------
// LanTransport
// ---------------------------------------------------------------------

struct LanFixture {
  sim::Simulator sim;
  net::LanTransport lan;
  std::vector<std::pair<ProcessId, sim::SimTime>> delivered;

  explicit LanFixture(int n, net::LanParams params = {})
      : lan(sim, n, params) {
    for (ProcessId p = 0; p < n; ++p) {
      lan.set_sink(p, [this, p](const rt::Message&) {
        delivered.emplace_back(p, sim.now());
      });
    }
  }
};

TEST(LanTransport, PaperDelaysExactly) {
  // 1 KB computation message at 2 Mbps -> 4 ms; 50 B system msg -> 0.2 ms.
  LanFixture f(2);
  f.lan.send(make_msg(0, 1, 1000));
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].second, sim::milliseconds(4));

  LanFixture g(2);
  g.lan.send(make_msg(0, 1, 50, rt::MsgKind::kRequest));
  g.sim.run_until();
  EXPECT_EQ(g.delivered[0].second, sim::microseconds(200));
}

TEST(LanTransport, SystemMessageDoesNotOvertakeComputation) {
  LanFixture f(2);
  f.lan.send(make_msg(0, 1, 1000));                          // arrives 4 ms
  f.lan.send(make_msg(0, 1, 50, rt::MsgKind::kRequest));     // raw 0.2 ms
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 2u);
  // FIFO: the system message waits for the computation message.
  EXPECT_EQ(f.delivered[0].second, sim::milliseconds(4));
  EXPECT_EQ(f.delivered[1].second, sim::milliseconds(4));
}

TEST(LanTransport, DifferentChannelsDoNotBlockEachOther) {
  LanFixture f(3);
  f.lan.send(make_msg(0, 1, 1000));
  f.lan.send(make_msg(0, 2, 50, rt::MsgKind::kRequest));
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].first, 2);  // other channel flies past
  EXPECT_EQ(f.delivered[0].second, sim::microseconds(200));
}

TEST(LanTransport, SharedMediumSerializesTransmissions) {
  net::LanParams params;
  params.mode = net::MediumMode::kShared;
  LanFixture f(3, params);
  f.lan.send(make_msg(0, 1, 1000));  // occupies [0, 4ms]
  f.lan.send(make_msg(2, 1, 1000));  // occupies [4, 8ms]
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].second, sim::milliseconds(4));
  EXPECT_EQ(f.delivered[1].second, sim::milliseconds(8));
}

TEST(LanTransport, BulkTransferSerializesOnTheMedium) {
  LanFixture f(2);
  // Two 500 KB checkpoints: 2 s each, back to back = the paper's
  // "checkpointing time (at most 2 * 16 = 32s)" behaviour.
  sim::SimTime t1 = f.lan.transfer_bulk(0, 500000);
  sim::SimTime t2 = f.lan.transfer_bulk(1, 500000);
  EXPECT_EQ(t1, sim::seconds(2));
  EXPECT_EQ(t2, sim::seconds(4));
}

TEST(LanTransport, BroadcastReachesAllButSender) {
  LanFixture f(4);
  f.lan.broadcast(make_msg(1, -1, 50, rt::MsgKind::kCommit));
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 3u);
  for (auto& [p, at] : f.delivered) {
    EXPECT_NE(p, 1);
    EXPECT_EQ(at, sim::microseconds(200));
  }
}

TEST(LanTransport, FailedProcessIsUnreachableAndSilenced) {
  LanFixture f(3);
  f.lan.set_failed(1, true);
  EXPECT_FALSE(f.lan.reachable(1));
  EXPECT_TRUE(f.lan.reachable(0));
  f.lan.send(make_msg(0, 1, 1000));  // to the dead: dropped
  f.lan.send(make_msg(1, 2, 1000));  // from the dead: dropped
  f.lan.send(make_msg(0, 2, 1000));  // alive pair: delivered
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].first, 2);
}

TEST(LanTransport, RepairRestoresDelivery) {
  LanFixture f(2);
  f.lan.set_failed(1, true);
  f.lan.send(make_msg(0, 1, 1000));
  f.sim.run_until();
  EXPECT_TRUE(f.delivered.empty());
  f.lan.set_failed(1, false);
  f.lan.send(make_msg(0, 1, 1000));
  f.sim.run_until();
  EXPECT_EQ(f.delivered.size(), 1u);
}

// ---------------------------------------------------------------------
// CellularTransport
// ---------------------------------------------------------------------

struct CellFixture {
  sim::Simulator sim;
  mobile::CellularTransport cell;
  std::vector<std::pair<ProcessId, sim::SimTime>> delivered;

  explicit CellFixture(int n, mobile::CellularParams params = {})
      : cell(sim, n, params) {
    for (ProcessId p = 0; p < n; ++p) {
      cell.set_sink(p, [this, p](const rt::Message&) {
        delivered.emplace_back(p, sim.now());
      });
    }
  }
};

TEST(CellularTransport, IntraCellSkipsTheBackbone) {
  mobile::CellularParams params;
  params.num_mss = 2;
  params.wired_latency = sim::milliseconds(10);
  CellFixture f(4, params);  // P0,P2 in cell 0; P1,P3 in cell 1
  f.cell.send(make_msg(0, 2, 1000));  // same cell: 2 wireless hops = 8 ms
  f.cell.send(make_msg(0, 1, 1000));  // cross cell: + wired
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].first, 2);
  EXPECT_EQ(f.delivered[0].second, sim::milliseconds(8));
  EXPECT_GT(f.delivered[1].second, sim::milliseconds(18));
}

TEST(CellularTransport, BulkIsPerCellAndFreeWhileDisconnected) {
  mobile::CellularParams params;
  params.num_mss = 2;
  CellFixture f(4, params);
  sim::SimTime a = f.cell.transfer_bulk(0, 500000);  // cell 0
  sim::SimTime b = f.cell.transfer_bulk(1, 500000);  // cell 1: parallel
  sim::SimTime c = f.cell.transfer_bulk(2, 500000);  // cell 0: queued
  EXPECT_EQ(a, sim::seconds(2));
  EXPECT_EQ(b, sim::seconds(2));
  EXPECT_EQ(c, sim::seconds(4));

  f.cell.disconnect(3);
  EXPECT_EQ(f.cell.transfer_bulk(3, 500000), f.sim.now());  // free
}

TEST(CellularTransport, SystemMessagesReachDisconnectedProcess) {
  CellFixture f(3);
  f.cell.disconnect(1);
  f.cell.send(make_msg(0, 1, 50, rt::MsgKind::kRequest));
  f.cell.send(make_msg(0, 1, 1000));  // computation: buffered
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 1u);  // only the request (MSS proxy)
  EXPECT_EQ(f.cell.messages_buffered(), 1u);
}

TEST(CellularTransport, HandoffToSameCellIsNoop) {
  CellFixture f(3);
  MssId cur = f.cell.mss_of(0);
  f.cell.handoff(0, cur);
  EXPECT_EQ(f.cell.handoffs(), 0u);
  f.cell.handoff(0, (cur + 1) % f.cell.num_mss());
  EXPECT_EQ(f.cell.handoffs(), 1u);
}

TEST(CellularTransport, TopologyParamsValidatedAtConstruction) {
  sim::Simulator sim;
  mobile::CellularParams bad_mss;
  bad_mss.num_mss = 0;
  EXPECT_THROW(mobile::CellularTransport(sim, 4, bad_mss),
               std::invalid_argument);
  mobile::CellularParams bad_cells;
  bad_cells.cells_per_mss = -1;
  EXPECT_THROW(mobile::CellularTransport(sim, 4, bad_cells),
               std::invalid_argument);
  EXPECT_THROW(mobile::CellularTransport(sim, 0, {}), std::invalid_argument);

  // The thrown message names the offending parameter.
  try {
    mobile::CellularTransport t(sim, 4, bad_mss);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_mss"), std::string::npos);
  }
}

TEST(CellularTransport, HierarchicalPlacementInvariants) {
  mobile::CellularParams params;
  params.num_mss = 3;
  params.cells_per_mss = 4;
  const int n = 40;
  CellFixture f(n, params);
  EXPECT_EQ(f.cell.num_cells(), 12);
  for (ProcessId p = 0; p < n; ++p) {
    // Static round-robin placement over the cells...
    EXPECT_EQ(f.cell.cell_of(p), p % f.cell.num_cells());
    // ...and cell c hangs off MSS c % num_mss, so the flat topology's MSS
    // assignment is preserved for every cells_per_mss.
    EXPECT_EQ(f.cell.mss_of(p), f.cell.cell_of(p) % params.num_mss);
    EXPECT_EQ(f.cell.mss_of(p), p % params.num_mss);
  }
}

TEST(CellularTransport, BulkSerializesPerCellNotPerMss) {
  mobile::CellularParams params;
  params.num_mss = 1;
  params.cells_per_mss = 2;
  CellFixture f(4, params);  // cells: P0,P2 in 0; P1,P3 in 1 — one MSS
  sim::SimTime a = f.cell.transfer_bulk(0, 500000);  // cell 0
  sim::SimTime b = f.cell.transfer_bulk(1, 500000);  // cell 1: parallel
  sim::SimTime c = f.cell.transfer_bulk(2, 500000);  // cell 0: queued
  EXPECT_EQ(a, sim::seconds(2));
  EXPECT_EQ(b, sim::seconds(2));
  EXPECT_EQ(c, sim::seconds(4));
}


TEST(LanTransport, LossyLinkJittersButPreservesFifo) {
  sim::Simulator simu;
  sim::Rng rng(9);
  net::LanParams params;
  params.loss_probability = 0.4;
  net::LanTransport lan(simu, 2, params, &rng);
  std::vector<std::uint64_t> order;
  lan.set_sink(0, [](const rt::Message&) {});
  lan.set_sink(1, [&](const rt::Message& m) { order.push_back(m.channel_seq); });
  for (int i = 0; i < 50; ++i) {
    rt::Message m = make_msg(0, 1, 1000);
    lan.send(std::move(m));
  }
  simu.run_until();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i) << "FIFO violated under retransmission jitter";
  }
  EXPECT_GT(lan.retransmissions(), 0u);
}

}  // namespace
}  // namespace mck
