// Proves the hot-path memory discipline (DESIGN.md): once warm, the
// simulator schedules and fires events without touching the heap, a
// tracer that is off allocates nothing, pooled message payloads recycle
// their nodes, a request's weight rides to the reply without a heap
// block, SmallVec spill storage goes back to the heap, a csn map switches
// to its dense array in one allocation and then reads, writes and refills
// without any, and the generation-counted slot pool survives
// its edge cases (cancel-after-fire, generation wraparound, pool growth
// and recycling).
//
// Allocation counting uses a binary-local instrumented operator new.
// Sanitizer builds may route allocations around it (their interceptors sit
// below the malloc we call), so every "allocations happened" assertion is
// gated on the counter actually observing a probe allocation; the
// zero-allocation assertions hold either way.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/payloads.hpp"
#include "mobile/cellular.hpp"
#include "net/fifo.hpp"
#include "net/lan.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "rt/message.hpp"
#include "sim/simulator.hpp"
#include "util/interval_set.hpp"
#include "util/pool.hpp"
#include "util/sparse_csn.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_free_count{0};

// Out of line, so GCC does not pair the std::free with an operator new
// inlined at the same call site and report a false -Wmismatched-new-delete.
[[gnu::noinline]] void count_and_free(void* p) {
  if (p != nullptr) g_free_count.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { count_and_free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
// SmallVec spills through the aligned forms.
void* operator new(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  std::size_t a = static_cast<std::size_t>(al);
  if (a < sizeof(void*)) a = sizeof(void*);
  if (posix_memalign(&p, a, n ? n : 1) == 0) return p;
  throw std::bad_alloc();
}
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}

namespace mck::sim {

/// Test-only backdoor (friend of Simulator): reads the freelist head and
/// plants a generation about to wrap, so tests can force the uint32
/// rollover without 2^32 schedule/fire cycles.
struct SimulatorTestPeer {
  static std::uint32_t free_head(const Simulator& s) { return s.free_head_; }
  static void set_slot_generation(Simulator& s, std::uint32_t slot,
                                  std::uint32_t gen) {
    s.slot_ref(slot).generation = gen;
  }
  static std::uint32_t slot_generation(const Simulator& s,
                                       std::uint32_t slot) {
    return s.slot_ref(slot).generation;
  }
};

}  // namespace mck::sim

namespace mck {
namespace {

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

std::uint64_t frees() { return g_free_count.load(std::memory_order_relaxed); }

/// True when the instrumented operator new is actually on the allocation
/// path (false under allocator-replacing sanitizers).
bool counter_active() {
  std::uint64_t before = allocs();
  // Through a volatile pointer, so the optimizer cannot elide the pair.
  int* volatile probe = new int(0);
  delete probe;
  return allocs() != before;
}

TEST(HotPathAllocs, SteadyStateEventLoopIsAllocationFree) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  // Self-rescheduling events with a capture near the inline budget — the
  // shape of a transport delivery closure.
  struct BigCapture {
    unsigned char pad[72];
  };
  BigCapture cap{};
  const int kPending = 32;
  sim::Simulator* s = &sim;
  std::uint64_t* f = &fired;
  for (int i = 0; i < kPending; ++i) {
    struct Ring {
      sim::Simulator* sim;
      std::uint64_t* fired;
      BigCapture cap;
      void operator()() {
        ++*fired;
        if (*fired < 20000) {
          sim->schedule_after(sim::seconds(1), Ring{sim, fired, cap});
        }
      }
    };
    sim.schedule_after(sim::seconds(1), Ring{s, f, cap});
  }
  // Warm: first firings grow the heap vector and the first slot chunk.
  while (fired < 2000 && sim.step()) {
  }
  std::uint64_t a0 = allocs();
  while (fired < 12000 && sim.step()) {
  }
  std::uint64_t a1 = allocs();
  EXPECT_EQ(a1 - a0, 0u) << "steady-state schedule/fire must not allocate";
  sim.run_until();
}

TEST(HotPathAllocs, TimelineSamplingSteadyStateIsAllocationFree) {
  // With the run-health sampler armed (and its row storage pre-sized,
  // as the harness does via reserve_rows), the per-event hook is one
  // compare and each tick's row lands in reserved capacity — the event
  // loop must stay allocation-free either way.
  sim::Simulator sim;
  obs::TimelineSampler tl;
  tl.configure(sim::seconds(1));
  tl.reserve_rows(2000);
  sim.set_timeline(&tl);

  std::uint64_t fired = 0;
  const int kPending = 32;
  sim::Simulator* s = &sim;
  std::uint64_t* f = &fired;
  for (int i = 0; i < kPending; ++i) {
    struct Ring {
      sim::Simulator* sim;
      std::uint64_t* fired;
      void operator()() {
        ++*fired;
        if (*fired < 20000) {
          sim->schedule_after(sim::seconds(1), Ring{sim, fired});
        }
      }
    };
    sim.schedule_after(sim::seconds(1), Ring{s, f});
  }
  while (fired < 2000 && sim.step()) {
  }
  std::uint64_t a0 = allocs();
  while (fired < 12000 && sim.step()) {
  }
  EXPECT_EQ(allocs() - a0, 0u)
      << "sampling into reserved rows must not allocate";
  sim.run_until();
  tl.finalize(sim.live_pending(), sim.slot_count(), sim.events_executed());
  obs::TimelineRun run = tl.take_run(1);
  EXPECT_GT(run.rows(), 100u) << "the sampler must actually have sampled";
}

// The flight recorder costs nothing when off: a tracer that was never
// enabled allocates no chunk, whatever is recorded into it or taken out.
TEST(HotPathAllocs, NeverEnabledTracerAllocatesNothing) {
  const std::uint64_t before = allocs();
  {
    obs::Tracer t;
    t.set_record_cap(5);
    for (int i = 0; i < 100; ++i) {
      t.record(obs::TraceKind::kMsgSend, i, 0, 0, 1, 42, 50);
    }
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.take_records().empty());
  }
  EXPECT_EQ(allocs(), before);
  if (counter_active()) {
    // Control: the first enabled record maps a chunk and grows the chunk
    // list, which the counter sees.
    const std::uint64_t off = allocs();
    obs::Tracer t;
    t.enable();
    t.record(obs::TraceKind::kMsgSend, 0, 0, 0, 1, 42, 50);
    EXPECT_GT(allocs(), off);
  }
}

// An enabled tracer encodes each record in place: the only allocations
// are growing its segment list when it maps a 2 MiB segment, so a million
// records cost no more allocations than segments, and take_records()
// moves the records out without allocating (or copying).
TEST(HotPathAllocs, EnabledTracerAllocatesOnlyPerSegment) {
  constexpr std::uint64_t kRecords = 1000000;
  obs::Tracer t;
  t.enable();
  const std::uint64_t before = allocs();
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const auto at = static_cast<sim::SimTime>(i * 997);
    if (i % 3 == 0) {
      t.record(obs::TraceKind::kEventFire, at, -1, 0, 0, i, i % 5000);
    } else {
      t.record(i % 3 == 1 ? obs::TraceKind::kMsgSend
                          : obs::TraceKind::kMsgDeliver,
               at, static_cast<std::int32_t>(i % 1024), 0,
               static_cast<std::uint16_t>((i * 7) % 1024), i / 3,
               obs::pack_msg_stamp(i / 1024 + 1, 64));
    }
  }
  const std::uint64_t recording = allocs() - before;
  const std::uint64_t taking = allocs();
  obs::TraceRecords r = t.take_records();
  EXPECT_EQ(allocs(), taking);
  EXPECT_EQ(r.size(), kRecords);
  EXPECT_GE(r.segments(), 2u) << "the run must span segments";
  EXPECT_LE(recording, r.segments());
}

TEST(HotPathAllocs, PooledPayloadSteadyStateIsAllocationFree) {
  util::Pool<core::CompPayload> pool;
  // Warm: first acquisition allocates the node.
  { auto p = pool.acquire(); }
  EXPECT_EQ(pool.blocks_allocated(), 1u);
  std::uint64_t a0 = allocs();
  for (int i = 0; i < 10000; ++i) {
    auto p = pool.acquire();
    p->csn = static_cast<Csn>(i);
  }
  EXPECT_EQ(allocs() - a0, 0u) << "pooled payload churn must recycle nodes";
  EXPECT_EQ(pool.blocks_allocated(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(HotPathAllocs, PooledMessageThroughLanTransportIsAllocationFree) {
  sim::Simulator sim;
  net::LanTransport lan(sim, 2, net::LanParams{});
  std::uint64_t delivered = 0;
  lan.set_sink(0, [&](const rt::Message&) { ++delivered; });
  lan.set_sink(1, [&](const rt::Message&) { ++delivered; });

  auto send_one = [&](std::uint64_t i) {
    rt::Message m;
    m.src = static_cast<ProcessId>(i & 1);
    m.dst = static_cast<ProcessId>(1 - (i & 1));
    m.kind = rt::MsgKind::kComputation;
    m.size_bytes = 1000;
    auto p = util::make_pooled<core::CompPayload>();
    p->csn = static_cast<Csn>(i);
    m.payload = std::move(p);
    lan.send(std::move(m));
    sim.run_until();
  };

  for (std::uint64_t i = 0; i < 64; ++i) send_one(i);  // warm pools
  std::uint64_t warm = delivered;
  std::uint64_t a0 = allocs();
  for (std::uint64_t i = 0; i < 1000; ++i) send_one(i);
  EXPECT_EQ(allocs() - a0, 0u)
      << "pooled message send->deliver must not allocate once warm";
  EXPECT_EQ(delivered, warm + 1000);
}

TEST(HotPathAllocs, RequestReplyWithTwoLimbWeightIsAllocationFree) {
  // A duplicate request is answered with the weight it carried: the reply
  // copies the request's weight, crosses the transport, and the initiator
  // banks it. A weight halved past 64 times (a deep request wave) has two
  // fractional limbs; the whole exchange must still stay off the heap.
  sim::Simulator sim;
  net::LanTransport lan(sim, 2, net::LanParams{});
  util::Weight banked;
  std::uint64_t replies = 0;
  lan.set_sink(0, [&](const rt::Message& m) {
    banked.add(m.payload_as<core::ReplyPayload>()->weight);
    ++replies;
  });
  lan.set_sink(1, [&](const rt::Message& m) {
    const core::RequestPayload& rq = *m.payload_as<core::RequestPayload>();
    auto rp = util::make_pooled<core::ReplyPayload>();
    rp->trigger = rq.trigger;
    util::Weight weight = rq.weight;  // send_reply takes it by value
    rp->weight = std::move(weight);
    rt::Message reply;
    reply.src = 1;
    reply.dst = 0;
    reply.kind = rt::MsgKind::kReply;
    reply.payload = std::move(rp);
    lan.send(std::move(reply));
  });
  util::Weight w = util::Weight::one();
  for (int i = 0; i < 100; ++i) w.halve();
  ASSERT_EQ(w.fraction_limbs(), 2u);
  auto exchange = [&] {
    auto rq = util::make_pooled<core::RequestPayload>();
    rq->weight = w;
    rt::Message m;
    m.src = 0;
    m.dst = 1;
    m.kind = rt::MsgKind::kRequest;
    m.payload = std::move(rq);
    lan.send(std::move(m));
    sim.run_until();
  };

  for (int i = 0; i < 64; ++i) exchange();  // warm pools and slots
  const std::uint64_t a0 = allocs();
  for (int i = 0; i < 1000; ++i) exchange();
  EXPECT_EQ(allocs() - a0, 0u)
      << "a request -> reply exchange with a 2-limb weight must not allocate";
  EXPECT_EQ(replies, 1064u);
  util::Weight want;
  for (int i = 0; i < 1064; ++i) want.add(w);
  EXPECT_EQ(banked, want);
}

TEST(HotPathAllocs, CellularPointToPointSteadyStateIsAllocationFree) {
  // The fig_scale n=1k configuration's transport: 1000 hosts on 4 MSSs,
  // sparse fifo channel table. Once the channels of the send pattern and
  // the event slots are warm, a pooled send -> arrive -> fifo -> deliver
  // round trip must not touch the heap.
  sim::Simulator sim;
  mobile::CellularParams params;
  params.num_mss = 4;
  params.cells_per_mss = 3;
  mobile::CellularTransport cell(sim, 1000, params);
  std::uint64_t delivered = 0;
  for (ProcessId p = 0; p < 1000; ++p) {
    cell.set_sink(p, [&](const rt::Message&) { ++delivered; });
  }
  auto send_one = [&](std::uint64_t i) {
    rt::Message m;
    m.src = static_cast<ProcessId>((i * 131) % 1000);
    m.dst = static_cast<ProcessId>((i * 137 + 1) % 1000);
    if (m.dst == m.src) m.dst = (m.dst + 1) % 1000;
    m.kind = rt::MsgKind::kComputation;
    m.size_bytes = 1000;
    auto p = util::make_pooled<core::CompPayload>();
    p->csn = static_cast<Csn>(i);
    m.payload = std::move(p);
    cell.send(std::move(m));
    sim.run_until();
  };

  // Warm: touches every channel the measured loop will use (same i
  // sequence), growing the fifo table and the event slot pool.
  for (std::uint64_t i = 0; i < 512; ++i) send_one(i);
  std::uint64_t warm = delivered;
  std::uint64_t a0 = allocs();
  for (std::uint64_t i = 0; i < 512; ++i) send_one(i);
  EXPECT_EQ(allocs() - a0, 0u)
      << "warm cellular send->deliver must not allocate";
  EXPECT_EQ(delivered, warm + 512);
}

TEST(HotPathAllocs, FifoChurnOfFreshChannelsIsAllocationFree) {
  // Every message goes out on a channel that has never carried one, with
  // at most 64 in flight. The table holds only channels with a message in
  // flight, so once warm it never grows: a table that kept every channel
  // ever touched would rehash its way to 200k entries here.
  const int n = 4096;
  net::FifoSequencer fifo(n);
  constexpr std::size_t kWindow = 64;
  std::vector<rt::Message> ring(kWindow);
  std::uint64_t sent = 0, delivered = 0;
  auto step = [&] {
    rt::Message& slot = ring[sent % kWindow];
    if (sent >= kWindow) {
      fifo.arrive(slot, [&](rt::Message) { ++delivered; });
    }
    slot = rt::Message{};
    slot.src = static_cast<ProcessId>(sent / n % n);
    slot.dst = static_cast<ProcessId>(sent % n);
    fifo.stamp(slot);
    ++sent;
  };
  for (int i = 0; i < 4096; ++i) step();  // warm: table at its size
  const std::uint64_t a0 = allocs();
  for (int i = 0; i < 200000; ++i) step();
  EXPECT_EQ(allocs() - a0, 0u)
      << "fresh channels with bounded in-flight messages must not allocate";
  EXPECT_EQ(fifo.live_channels(), kWindow);
  EXPECT_EQ(delivered, sent - kWindow);
}

TEST(HotPathAllocs, CellularBroadcastCostsO1EventsAndAllocations) {
  // A commit/abort broadcast at n=1000 must coalesce: two arrival-class
  // batch events plus one delivery event per steady-state run — NOT one
  // scheduled event per recipient. The slot pool high-water mark is the
  // regression tripwire (it never shrinks, so a single per-recipient
  // fan-out would pin it at >= n slots), and a warm broadcast performs
  // O(1) allocations (the batch object and its entry array), not O(n).
  sim::Simulator sim;
  mobile::CellularParams params;
  params.num_mss = 4;
  params.cells_per_mss = 3;
  mobile::CellularTransport cell(sim, 1000, params);
  std::uint64_t delivered = 0;
  for (ProcessId p = 0; p < 1000; ++p) {
    cell.set_sink(p, [&](const rt::Message&) { ++delivered; });
  }
  auto broadcast_one = [&] {
    rt::Message m;
    m.src = 7;
    m.kind = rt::MsgKind::kCommit;
    m.size_bytes = 50;
    cell.broadcast(std::move(m));
    sim.run_until();
  };

  broadcast_one();  // warm: fifo channels for (7, *), slots, pools
  std::uint64_t warm = delivered;
  std::uint64_t a0 = allocs();
  broadcast_one();
  EXPECT_LE(allocs() - a0, 16u)
      << "a 1k-recipient broadcast must allocate O(1), not O(n)";
  EXPECT_EQ(delivered, warm + 999);
  // Slots are pooled in 256-slot chunks; coalesced delivery needs a
  // handful of concurrent events, i.e. the first chunk. A per-recipient
  // fan-out would pin the never-shrinking pool at >= n slots (4 chunks).
  EXPECT_LE(sim.slot_count(), 256u)
      << "broadcast fan-out must not expand the event slot pool to O(n)";
}

TEST(HotPathAllocs, LegacyStyleChurnIsVisibleToTheCounter) {
  if (!counter_active()) GTEST_SKIP() << "allocator interposed (sanitizer)";
  std::uint64_t a0 = allocs();
  for (int i = 0; i < 100; ++i) {
    auto p = std::make_shared<core::CompPayload>();
    p->csn = static_cast<Csn>(i);
  }
  EXPECT_GE(allocs() - a0, 100u) << "make_shared churn allocates per message";
}

TEST(HotPathAllocs, SmallVecSpillIsReturnedToTheHeap) {
  if (!counter_active()) GTEST_SKIP() << "allocator interposed (sanitizer)";
  const std::uint64_t news0 = allocs();
  const std::uint64_t frees0 = frees();
  std::uint64_t news_alive = 0;
  std::uint64_t live_blocks = 0;
  {
    util::IntervalSet deps(100000);
    util::SparseCsnMap csn(100000);
    // Disjoint intervals and distinct pids, far past the inline capacity:
    // the spill block doubles several times, then is emptied and regrown
    // past its old high-water mark.
    for (std::size_t i = 0; i < 200; ++i) {
      deps.set(i * 7);
      csn.raise(i * 11, 5);
    }
    deps.reset();
    csn.assign(100000);
    for (std::size_t i = 0; i < 800; ++i) {
      deps.set(i * 7);
      csn.raise(i * 11, 5);
    }
    news_alive = allocs() - news0;
    live_blocks = news_alive - (frees() - frees0);
    ASSERT_EQ(deps.count(), 800u);
    ASSERT_EQ(csn.active(), 800u);
  }
  const std::uint64_t news = allocs() - news0;
  const std::uint64_t freed = frees() - frees0;
  EXPECT_GT(news_alive, 2u) << "both containers re-spilled as they grew";
  EXPECT_EQ(live_blocks, 2u) << "each container keeps one spill block";
  EXPECT_EQ(news, freed) << "destruction returns every spill block";
}

TEST(HotPathAllocs, CsnMapSwitchesToDenseInOneAllocation) {
  if (!counter_active()) GTEST_SKIP() << "allocator interposed (sanitizer)";
  const std::size_t n = 64;
  util::SparseCsnMap csn(n);
  for (std::size_t pid = 0; pid < n / 4; ++pid) csn.raise(pid * 2, 5);
  ASSERT_FALSE(csn.dense());

  // The entry past n/4 would grow the full sorted vector; it switches.
  std::uint64_t a0 = allocs();
  std::uint64_t f0 = frees();
  csn.raise(1, 5);
  ASSERT_TRUE(csn.dense());
  EXPECT_EQ(allocs() - a0, 1u) << "the dense array is one allocation";
  EXPECT_EQ(frees() - f0, 1u) << "the sparse block is freed";

  // Dense reads and writes touch the array only.
  a0 = allocs();
  Csn sum = 0;
  for (std::size_t pid = 0; pid < n; ++pid) {
    csn.raise(pid, 9);
    sum += csn.bump(pid);
    sum += csn.get(pid);
  }
  EXPECT_EQ(allocs(), a0) << "get/raise/bump on a dense map must not allocate";
  EXPECT_EQ(sum, 64u * 20);

  // assign() zero-fills the array and keeps it: a refill is heap-free.
  a0 = allocs();
  f0 = frees();
  csn.assign(n);
  EXPECT_TRUE(csn.dense());
  EXPECT_EQ(csn.active(), 0u);
  for (std::size_t pid = 0; pid < n; ++pid) csn.raise(pid, 3);
  EXPECT_EQ(allocs(), a0) << "a warm dense refill must not allocate";
  EXPECT_EQ(frees(), f0);
  EXPECT_EQ(csn.active(), n);
}

TEST(HotPathAllocs, WarmSpilledContainersRefillWithoutAllocating) {
  if (!counter_active()) GTEST_SKIP() << "allocator interposed (sanitizer)";
  // Cao-Singhal clears R_ and its csn maps at every checkpoint; a clear
  // keeps the spill block, so refilling to the same size is heap-free.
  util::SmallVec<int, 2> v;
  util::IntervalSet deps(1000);
  util::SparseCsnMap csn(100000);
  for (int i = 0; i < 3; ++i) v.push_back(i);
  for (std::size_t i = 0; i < 20; ++i) deps.set(i * 7);
  for (std::size_t pid = 0; pid < 64; ++pid) csn.raise(pid * 11, 5);
  std::uint64_t a0 = allocs();
  v.clear();
  deps.reset();
  csn.assign(100000);
  for (int i = 0; i < 3; ++i) v.push_back(i);
  for (std::size_t i = 0; i < 20; ++i) deps.set(i * 7);
  for (std::size_t pid = 0; pid < 64; ++pid) csn.raise(pid * 11, 5);
  EXPECT_EQ(allocs(), a0) << "warm container refills must not allocate";
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(deps.count(), 20u);
  EXPECT_EQ(csn.active(), 64u);

  // A remerge that leaves the set as it is allocates nothing once the
  // set's block holds both inputs.
  util::IntervalSet s(1000);
  util::IntervalSet other(1000);
  for (std::size_t i = 0; i < 4; ++i) {
    s.set(i * 7);
    other.set(i * 7 + 1);
  }
  s.merge(other);
  ASSERT_EQ(s.count(), 8u);
  a0 = allocs();
  s.merge(other);
  EXPECT_EQ(allocs(), a0) << "idempotent remerge must not allocate";
  EXPECT_EQ(s.count(), 8u);

  // Past any inline scratch: a 40-interval set remerging a 20-interval
  // subset builds the union in its own block, so once the first merge has
  // grown that block to hold both inputs, remerges allocate nothing.
  util::IntervalSet big(1000);
  util::IntervalSet sub(1000);
  for (std::size_t i = 0; i < 40; ++i) big.set(i * 10);
  for (std::size_t i = 0; i < 20; ++i) sub.set(i * 20);
  big.merge(sub);
  ASSERT_EQ(big.intervals().size(), 40u);
  a0 = allocs();
  for (int r = 0; r < 100; ++r) big.merge(sub);
  EXPECT_EQ(allocs(), a0) << "40 + 20 interval remerge must not allocate";
  EXPECT_EQ(big.intervals().size(), 40u);
  EXPECT_EQ(big.count(), 40u);
}

TEST(SlotPoolEdge, CancelAfterFireIsANoOp) {
  sim::Simulator sim;
  int fired = 0;
  sim::EventHandle h = sim.schedule_at(sim::seconds(1), [&] { ++fired; });
  sim.run_until();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.valid());
  h.cancel();  // must not create a phantom tombstone
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  sim.purge_cancelled();  // and purge must not underflow or reap anything
  EXPECT_EQ(sim.tombstones_reaped(), 0u);
}

TEST(SlotPoolEdge, SelfCancelInsideEventIsANoOp) {
  sim::Simulator sim;
  int fired = 0;
  sim::EventHandle h;
  h = sim.schedule_at(sim::seconds(1), [&] {
    ++fired;
    h.cancel();  // own event is already firing: stale by generation bump
  });
  sim.run_until();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.live_pending(), 0u);
}

TEST(SlotPoolEdge, GenerationWraparoundKeepsHandlesStale) {
  sim::Simulator sim;
  // Free a slot, then plant a generation at the top of the range so the
  // next release wraps 0xFFFFFFFF -> 0.
  sim.schedule_at(sim::seconds(1), [] {});
  sim.run_until();
  std::uint32_t slot = sim::SimulatorTestPeer::free_head(sim);
  sim::SimulatorTestPeer::set_slot_generation(sim, slot, 0xFFFFFFFFu);

  int fired = 0;
  sim::EventHandle pre_wrap =
      sim.schedule_at(sim::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(pre_wrap.valid());
  sim.run_until();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim::SimulatorTestPeer::slot_generation(sim, slot), 0u);
  EXPECT_FALSE(pre_wrap.valid());

  // The slot's next tenant (generation 0) must be a fresh, working event
  // that the wrapped-out handle can neither observe nor cancel.
  sim::EventHandle post_wrap =
      sim.schedule_at(sim::seconds(3), [&] { ++fired; });
  EXPECT_TRUE(post_wrap.valid());
  EXPECT_FALSE(pre_wrap.valid());
  pre_wrap.cancel();
  EXPECT_TRUE(post_wrap.valid());
  sim.run_until();
  EXPECT_EQ(fired, 2);
}

TEST(SlotPoolEdge, PoolGrowsByChunksAndRecycles) {
  sim::Simulator sim;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 300; ++i) {
    handles.push_back(sim.schedule_at(sim::seconds(i + 1), [] {}));
  }
  EXPECT_EQ(sim.slot_count(), 512u);  // two 256-slot chunks
  sim.cancel_all();
  // Recycled: another 300 concurrent events fit in the existing chunks.
  for (int i = 0; i < 300; ++i) {
    sim.schedule_at(sim::seconds(i + 1), [] {});
  }
  EXPECT_EQ(sim.slot_count(), 512u);
  sim.run_until();
  EXPECT_EQ(sim.slot_count(), 512u);
}

TEST(PayloadPoolEdge, GrowShrinkAndReuse) {
  util::Pool<core::CompPayload> pool;
  std::vector<std::shared_ptr<core::CompPayload>> live;
  for (int i = 0; i < 10; ++i) live.push_back(pool.acquire());
  EXPECT_EQ(pool.blocks_allocated(), 10u);
  EXPECT_EQ(pool.outstanding(), 10u);
  EXPECT_EQ(pool.free_blocks(), 0u);
  live.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_blocks(), 10u);
  pool.shrink();
  EXPECT_EQ(pool.free_blocks(), 0u);
  EXPECT_EQ(pool.blocks_allocated(), 0u);
  // The pool keeps working after a shrink.
  auto p = pool.acquire();
  EXPECT_EQ(pool.blocks_allocated(), 1u);
}

}  // namespace
}  // namespace mck
