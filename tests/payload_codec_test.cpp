// Universal codec registry: every payload type in the system (core +
// all six baselines) round-trips exactly, every tag is registered with a
// wire_size, and corrupt buffers — truncations, bit flips, random bytes —
// are rejected with nullptr instead of crashing (exercised under
// ASan/UBSan in CI).
#include <random>

#include <gtest/gtest.h>

#include "baselines/payloads.hpp"
#include "core/codec.hpp"
#include "core/payloads.hpp"
#include "rt/wire.hpp"

namespace mck {
namespace {

template <typename T>
std::shared_ptr<const T> roundtrip(const T& payload) {
  std::vector<std::uint8_t> bytes = core::encode(payload);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.size(), core::payload_bytes(payload));
  EXPECT_EQ(core::wire_size(payload), core::kLinkHeaderBytes + bytes.size());
  std::shared_ptr<rt::Payload> out = core::decode(bytes);
  EXPECT_NE(out, nullptr);
  if (out == nullptr || out->tag() != T::kTag) return nullptr;
  return std::static_pointer_cast<const T>(out);
}

TEST(PayloadCodec, EveryTagRegistered) {
  EXPECT_FALSE(core::codec_registered(rt::PayloadTag::kNone));
  for (int t = 1; t < rt::kPayloadTagCount; ++t) {
    EXPECT_TRUE(core::codec_registered(static_cast<rt::PayloadTag>(t)))
        << "tag " << t << " has no codec";
  }
}

TEST(PayloadCodec, KooTouegRoundTrips) {
  baselines::KtComp comp;
  comp.csn = 4093;
  auto c = roundtrip(comp);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->csn, 4093u);

  baselines::KtRequest req;
  req.initiation = ckpt::make_initiation_id(11, 3);
  req.req_csn = 77;
  auto r = roundtrip(req);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->initiation, ckpt::make_initiation_id(11, 3));
  EXPECT_EQ(r->req_csn, 77u);

  baselines::KtReply rep;
  rep.initiation = ckpt::make_initiation_id(0, 1);
  auto p = roundtrip(rep);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->initiation, ckpt::make_initiation_id(0, 1));

  baselines::KtCommit com;
  com.initiation = ~std::uint64_t{0};
  auto q = roundtrip(com);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->initiation, ~std::uint64_t{0});
}

TEST(PayloadCodec, ElnozahyRoundTrips) {
  baselines::EjComp comp;
  comp.csn = 19;
  comp.initiation = ckpt::make_initiation_id(5, 19);
  auto c = roundtrip(comp);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->csn, 19u);
  EXPECT_EQ(c->initiation, ckpt::make_initiation_id(5, 19));

  baselines::EjRequest req;
  req.csn = 20;
  req.initiation = ckpt::make_initiation_id(5, 20);
  auto r = roundtrip(req);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->csn, 20u);
  EXPECT_EQ(r->initiation, ckpt::make_initiation_id(5, 20));

  baselines::EjReply rep;
  rep.initiation = 123456789;
  auto p = roundtrip(rep);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->initiation, 123456789u);

  baselines::EjCommit com;
  auto q = roundtrip(com);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->initiation, 0u);
}

TEST(PayloadCodec, ChandyLamportRoundTrips) {
  baselines::ClMarker marker;
  marker.initiation = ckpt::make_initiation_id(2, 8);
  auto m = roundtrip(marker);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->initiation, ckpt::make_initiation_id(2, 8));

  baselines::ClDone done;
  done.initiation = ckpt::make_initiation_id(2, 8);
  auto d = roundtrip(done);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->initiation, ckpt::make_initiation_id(2, 8));

  baselines::ClCommit com;
  com.initiation = 7;
  auto q = roundtrip(com);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->initiation, 7u);
}

TEST(PayloadCodec, LaiYangRoundTrips) {
  baselines::LyComp comp;
  comp.round = 6;
  comp.initiation = ckpt::make_initiation_id(1, 6);
  auto c = roundtrip(comp);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->round, 6u);
  EXPECT_EQ(c->initiation, ckpt::make_initiation_id(1, 6));

  baselines::LyAnnounce ann;
  ann.round = 7;
  ann.initiation = ckpt::make_initiation_id(9, 7);
  auto a = roundtrip(ann);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->round, 7u);
  EXPECT_EQ(a->initiation, ckpt::make_initiation_id(9, 7));

  baselines::LyReply rep;
  rep.initiation = 42;
  auto p = roundtrip(rep);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->initiation, 42u);

  baselines::LyCommit com;
  com.initiation = 43;
  auto q = roundtrip(com);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->initiation, 43u);
}

TEST(PayloadCodec, CsnSchemeRoundTrips) {
  baselines::CsComp comp;
  comp.csn = 0xFFFFFFFFu;
  auto c = roundtrip(comp);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->csn, 0xFFFFFFFFu);

  baselines::CsRequest req;
  req.initiation = ckpt::make_initiation_id(15, 100);
  req.req_csn = 99;
  auto r = roundtrip(req);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->initiation, ckpt::make_initiation_id(15, 100));
  EXPECT_EQ(r->req_csn, 99u);
}

TEST(PayloadCodec, UniversalCodecMatchesFreeFunctions) {
  const rt::WireCodec* codec = core::universal_codec();
  ASSERT_NE(codec, nullptr);
  baselines::LyAnnounce ann;
  ann.round = 3;
  ann.initiation = ckpt::make_initiation_id(4, 3);
  EXPECT_EQ(codec->encode(ann), core::encode(ann));
  EXPECT_EQ(codec->payload_bytes(ann), core::payload_bytes(ann));
  EXPECT_EQ(codec->wire_size(ann), core::wire_size(ann));
  std::shared_ptr<rt::Payload> out = codec->decode(core::encode(ann));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->tag(), rt::PayloadTag::kLyAnnounce);
}

// Every encodable payload, for the corruption sweeps below.
std::vector<std::vector<std::uint8_t>> all_encodings() {
  std::vector<std::vector<std::uint8_t>> out;
  auto add = [&out](const rt::Payload& p) { out.push_back(core::encode(p)); };

  core::CompPayload comp;
  comp.csn = 3;
  comp.trigger = core::Trigger{1, 2};
  add(comp);
  core::RequestPayload req;
  core::SparseMr mr;
  for (std::size_t i = 0; i < 10; ++i) mr.put(i, core::MrEntry{5, 1});
  req.mr = std::make_shared<const core::SparseMr>(std::move(mr));
  req.trigger = core::Trigger{0, 1};
  req.weight = util::Weight::one();
  add(req);
  core::ReplyPayload rep;
  rep.trigger = core::Trigger{0, 1};
  rep.deps = util::IntervalSet(16);
  rep.deps.set(3);
  rep.failed_observed = {2};
  add(rep);
  core::CommitPayload com;
  com.trigger = core::Trigger{0, 1};
  com.abort_set = util::IntervalSet(16);
  com.abort_set.set(4);
  com.abort_set.set(5);
  add(com);
  core::AbortPayload ab;
  ab.trigger = core::Trigger{0, 1};
  add(ab);
  core::ClearPayload cl;
  cl.trigger = core::Trigger{0, 1};
  add(cl);

  add(baselines::KtComp{});
  add(baselines::KtRequest{});
  add(baselines::KtReply{});
  add(baselines::KtCommit{});
  add(baselines::EjComp{});
  add(baselines::EjRequest{});
  add(baselines::EjReply{});
  add(baselines::EjCommit{});
  add(baselines::ClMarker{});
  add(baselines::ClDone{});
  add(baselines::ClCommit{});
  add(baselines::LyComp{});
  add(baselines::LyAnnounce{});
  add(baselines::LyReply{});
  add(baselines::LyCommit{});
  add(baselines::CsComp{});
  add(baselines::CsRequest{});
  return out;
}

TEST(PayloadCodec, EveryTruncationRejected) {
  for (const std::vector<std::uint8_t>& bytes : all_encodings()) {
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<std::uint8_t> prefix(
          bytes.begin(), bytes.begin() + static_cast<long>(cut));
      EXPECT_EQ(core::decode(prefix), nullptr)
          << "tag " << int(bytes[0]) << " accepted a " << cut
          << "-byte prefix of " << bytes.size();
    }
  }
}

TEST(PayloadCodec, TrailingGarbageRejected) {
  for (std::vector<std::uint8_t> bytes : all_encodings()) {
    int tag = bytes[0];
    bytes.push_back(0x5A);
    EXPECT_EQ(core::decode(bytes), nullptr) << "tag " << tag;
  }
}

TEST(PayloadCodec, BitFlipFuzzNeverCrashes) {
  // Single-bit corruption of every valid encoding: decode must either
  // reject or produce a well-tagged payload — never crash or read out of
  // bounds (the ASan/UBSan CI job is the real assertion here).
  for (const std::vector<std::uint8_t>& bytes : all_encodings()) {
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::vector<std::uint8_t> mut = bytes;
      mut[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      std::shared_ptr<rt::Payload> out = core::decode(mut);
      if (out != nullptr) {
        EXPECT_TRUE(core::codec_registered(out->tag()));
      }
    }
  }
}

TEST(PayloadCodec, RandomBufferFuzzNeverCrashes) {
  std::mt19937_64 rng(0xC0DEC);  // fixed seed: deterministic test
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(rng() % 96));
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(byte(rng));
    std::shared_ptr<rt::Payload> out = core::decode(buf);
    if (out != nullptr) {
      EXPECT_TRUE(core::codec_registered(out->tag()));
    }
  }
}

}  // namespace
}  // namespace mck
