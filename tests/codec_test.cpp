// Wire-format codec: exact round-trips for every payload type, graceful
// rejection of corrupt buffers, size scaling, and the honest-bytes
// end-to-end accounting mode.
#include "core/codec.hpp"

#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace mck::core {
namespace {

util::Weight deep_weight(int halvings) {
  util::Weight w = util::Weight::one();
  for (int i = 0; i < halvings; ++i) w.halve();
  return w;
}

template <typename T>
std::shared_ptr<T> roundtrip(const T& payload) {
  std::vector<std::uint8_t> bytes = encode(payload);
  EXPECT_FALSE(bytes.empty());
  std::shared_ptr<rt::Payload> out = decode(bytes);
  EXPECT_NE(out, nullptr);
  auto typed = std::dynamic_pointer_cast<T>(out);
  EXPECT_NE(typed, nullptr);
  return typed;
}

TEST(Codec, CompRoundTrip) {
  CompPayload p;
  p.csn = 41;
  p.trigger = Trigger{7, 12};
  auto q = roundtrip(p);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->csn, 41u);
  EXPECT_EQ(q->trigger, (Trigger{7, 12}));
}

TEST(Codec, CompNullTriggerRoundTrip) {
  CompPayload p;
  p.csn = 0;
  auto q = roundtrip(p);
  ASSERT_NE(q, nullptr);
  EXPECT_FALSE(q->trigger.valid());
}

TEST(Codec, RequestRoundTripWithDeepWeight) {
  RequestPayload p;
  // Sparse, gappy MR slots — including a far-away pid to exercise the
  // delta encoding.
  SparseMr mr;
  for (int i = 1; i < 16; i += 3) {
    mr.put(static_cast<std::size_t>(i),
           MrEntry{static_cast<Csn>(i * 3),
                   static_cast<std::uint8_t>(i % 2 == 0 ? 1 : 0)});
  }
  mr.put(900000, MrEntry{7, 1});
  p.mr = std::make_shared<const SparseMr>(std::move(mr));
  p.sender_csn = 9;
  p.trigger = Trigger{3, 4};
  p.req_csn = 2;
  p.weight = deep_weight(200);  // > 3 limbs of fraction

  auto q = roundtrip(p);
  ASSERT_NE(q, nullptr);
  EXPECT_NE(q->mr, p.mr);  // decoding builds the receiver's own MR
  EXPECT_EQ(*q->mr, *p.mr);
  EXPECT_EQ(q->mr->get(900000), (MrEntry{7, 1}));
  EXPECT_TRUE(q->mr->get(2).is_default());
  EXPECT_EQ(q->sender_csn, 9u);
  EXPECT_EQ(q->req_csn, 2u);
  EXPECT_EQ(q->weight, deep_weight(200));  // bit-exact
}

TEST(Codec, ReplyRoundTripWithDepsAndFailures) {
  ReplyPayload p;
  p.trigger = Trigger{1, 2};
  p.weight = deep_weight(5);
  p.refused = true;
  p.failed_observed = {3, 9};
  p.deps = util::IntervalSet(12);
  p.deps.set(0);
  p.deps.set(7);
  p.deps.set(11);

  auto q = roundtrip(p);
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->refused);
  EXPECT_EQ(q->failed_observed, (std::vector<ProcessId>{3, 9}));
  ASSERT_EQ(q->deps.size(), 12u);
  EXPECT_TRUE(q->deps.test(0));
  EXPECT_TRUE(q->deps.test(7));
  EXPECT_TRUE(q->deps.test(11));
  EXPECT_EQ(q->deps.count(), 3u);
  EXPECT_EQ(q->weight, deep_weight(5));
}

TEST(Codec, CommitAbortClearRoundTrips) {
  CommitPayload c;
  c.trigger = Trigger{5, 6};
  c.abort_set = util::IntervalSet(9);
  c.abort_set.set(4);
  auto c2 = roundtrip(c);
  ASSERT_NE(c2, nullptr);
  EXPECT_TRUE(c2->abort_set.test(4));
  EXPECT_EQ(c2->abort_set.size(), 9u);

  AbortPayload a;
  a.trigger = Trigger{2, 9};
  EXPECT_EQ(roundtrip(a)->trigger, (Trigger{2, 9}));

  ClearPayload cl;
  cl.trigger = Trigger{0, 1};
  EXPECT_EQ(roundtrip(cl)->trigger, (Trigger{0, 1}));
}

TEST(Codec, TruncatedBuffersRejected) {
  RequestPayload p;
  SparseMr mr;
  for (std::size_t i = 0; i < 8; ++i) mr.put(i * 5, MrEntry{1, 1});
  p.mr = std::make_shared<const SparseMr>(std::move(mr));
  p.trigger = Trigger{0, 1};
  p.weight = deep_weight(70);
  std::vector<std::uint8_t> bytes = encode(p);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    EXPECT_EQ(decode(prefix), nullptr) << "accepted a " << cut
                                       << "-byte prefix";
  }
}

TEST(Codec, TrailingGarbageRejected) {
  CompPayload p;
  p.csn = 1;
  std::vector<std::uint8_t> bytes = encode(p);
  bytes.push_back(0xAB);
  EXPECT_EQ(decode(bytes), nullptr);
}

TEST(Codec, UnknownTagRejected) {
  std::vector<std::uint8_t> bytes = {0x7F, 0, 0, 0};
  EXPECT_EQ(decode(bytes), nullptr);
}

TEST(Codec, RequestSizeGrowsWithActiveSlotsNotUniverse) {
  // Size is a function of *touched* slots, not of n: a request in a
  // 1M-host system with k active dependencies costs the same bytes as in
  // a 16-host system with k active dependencies.
  auto request_size = [](int active, std::size_t stride) {
    RequestPayload p;
    SparseMr mr;
    for (int i = 0; i < active; ++i) {
      mr.put(static_cast<std::size_t>(i) * stride, MrEntry{3, 1});
    }
    p.mr = std::make_shared<const SparseMr>(std::move(mr));
    p.weight = util::Weight::one();
    return wire_size(p);
  };
  std::uint64_t s4 = request_size(4, 1);
  std::uint64_t s16 = request_size(16, 1);
  std::uint64_t s64 = request_size(64, 1);
  EXPECT_LT(s4, s16);
  EXPECT_LT(s16, s64);
  // Spreading the same 16 slots across a 1M-pid universe costs only the
  // wider varint gaps, far below the dense form's ~1 byte per process.
  std::uint64_t s16_sparse = request_size(16, 62500);
  EXPECT_LT(s16_sparse, s16 + 16u * 4u);
  // An empty dependency set over any universe is a handful of bytes.
  EXPECT_LT(request_size(0, 1), 50u);
}

TEST(Codec, WeightDepthInflatesRequests) {
  RequestPayload a, b;
  a.mr = b.mr = std::make_shared<const SparseMr>();
  a.weight = deep_weight(10);    // 1 limb
  b.weight = deep_weight(500);   // 8 limbs
  EXPECT_GT(wire_size(b), wire_size(a));
}

TEST(Codec, MalformedSparsePayloadsRejected) {
  // A hand-built request whose MR slot is the default entry (the encoder
  // never emits those) must be rejected, as must an interval set whose
  // intervals leave the universe or overlap.
  {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(rt::PayloadTag::kRequest));
    w.vu64(1);  // one MR slot...
    w.vu32(3);  // pid 3
    w.vu32(0);  // csn 0
    w.u8(0);    // requested 0 -> default entry, malformed
    w.vu32(0);  // sender_csn
    w.zz32(-1); // trigger pid
    w.vu32(0);  // trigger inum
    w.vu32(0);  // req_csn
    w.u64(1);   // weight integer
    w.u16(0);   // weight fraction limbs
    std::vector<std::uint8_t> bytes = w.take();
    EXPECT_EQ(decode(bytes), nullptr);
  }
  {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(rt::PayloadTag::kCommit));
    w.zz32(2);   // trigger pid
    w.vu32(5);   // trigger inum
    w.vu64(8);   // universe of 8...
    w.vu64(1);   // one interval
    w.vu32(6);   // lo = 6
    w.vu32(7);   // len = 7 -> hi = 13 > universe, malformed
    std::vector<std::uint8_t> bytes = w.take();
    EXPECT_EQ(decode(bytes), nullptr);
  }
}

TEST(Codec, HonestByteAccountingEndToEnd) {
  // The same run with the 50 B idealization vs true wire sizes: identical
  // protocol behaviour (message counts, checkpoints), larger system-byte
  // totals, still consistent.
  auto run = [](bool honest) {
    harness::ExperimentConfig cfg;
    cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
    cfg.sys.num_processes = 16;
    cfg.sys.timing.use_wire_sizes = honest;
    cfg.sys.seed = 12;
    cfg.rate = 0.01;
    cfg.ckpt_interval = sim::seconds(300);
    cfg.horizon = sim::seconds(1800);
    return harness::run_experiment(cfg);
  };
  harness::RunResult flat = run(false);
  harness::RunResult honest = run(true);
  EXPECT_TRUE(flat.consistent);
  EXPECT_TRUE(honest.consistent);
  EXPECT_EQ(flat.committed, honest.committed);
  EXPECT_EQ(flat.stats.tentative_taken, honest.stats.tentative_taken);
  EXPECT_GT(honest.stats.system_bytes(), flat.stats.system_bytes());
}

}  // namespace
}  // namespace mck::core
