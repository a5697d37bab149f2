// Randomized property tests pinning the sparse dependency structures to
// their dense counterparts: every mixed set/merge/reset/iterate workload
// must leave an IntervalSet element-for-element equal to the BitVec the
// dense path would hold, and a SparseCsnMap / SparseMr equal to the dense
// arrays they replace. This is the dense-equivalence invariant DESIGN.md
// relies on when arguing the n=16 goldens stay byte-identical after the
// sparse refactor.
//
// Also fuzzes the delta/varint codec for the sparse payloads: random
// gappy structures round-trip exactly, every strict prefix of an encoding
// is rejected, and random single-byte corruption never crashes the
// decoder. And pins util::FlatMap (the sequencer's and the trace
// matcher's channel table) to std::map, and the dense reference BitVec
// (tests/bitvec.hpp) at its 64-bit word seams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "bitvec.hpp"
#include "core/cao_singhal.hpp"
#include "core/codec.hpp"
#include "core/payloads.hpp"
#include "util/flat_map.hpp"
#include "util/interval_set.hpp"
#include "util/small_vec.hpp"
#include "util/sparse_csn.hpp"

namespace mck {
namespace {

// ---- the dense reference itself -----------------------------------------

TEST(BitVec, MergeCountAndToString) {
  util::BitVec a(4), b(4);
  a.set(0);
  b.set(2);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.to_string(), "1010");
  a.reset();
  EXPECT_FALSE(a.any());
}

// The word-packed storage has its interesting cases at the 64-bit word
// seams: sizes that don't fill the last word, and bits on either side of
// a word boundary.
TEST(BitVec, WordBoundarySizes) {
  for (std::size_t n : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                        std::size_t{129}}) {
    util::BitVec v(n);
    EXPECT_EQ(v.size(), n);
    EXPECT_FALSE(v.any());
    v.set(0);
    v.set(n - 1);
    if (n > 65) v.set(64);  // a third bit just past the first word seam
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(n - 1));
    EXPECT_EQ(v.count(), n > 65 ? 3u : 2u);
    v.set(n - 1, false);
    EXPECT_FALSE(v.test(n - 1));

    // Merge across the seam: OR must reach the tail word.
    util::BitVec w(n);
    w.set(n - 1);
    v.merge(w);
    EXPECT_TRUE(v.test(n - 1));

    // to_string has exactly n characters, one per element.
    EXPECT_EQ(v.to_string().size(), n);
  }
}

TEST(BitVec, EqualityIgnoresTailWordGarbagePath) {
  // set()/reset() never touch bits past n, so clearing the same elements
  // two different ways yields operator== equality.
  util::BitVec a(65), b(65);
  a.set(64);
  a.set(64, false);
  EXPECT_TRUE(a == b);
  a.set(3);
  EXPECT_FALSE(a == b);
  b.set(3);
  EXPECT_TRUE(a == b);
  // Different universe sizes never compare equal, even when both empty.
  EXPECT_FALSE(util::BitVec(64) == util::BitVec(65));
}

// ---- IntervalSet vs dense BitVec --------------------------------------

void expect_equivalent(const util::IntervalSet& s, const util::BitVec& d) {
  ASSERT_EQ(s.size(), d.size());
  EXPECT_EQ(s.count(), d.count());
  EXPECT_EQ(s.any(), d.any());
  EXPECT_EQ(s.to_string(), d.to_string());
  for (std::size_t i = 0; i < d.size(); ++i) {
    ASSERT_EQ(s.test(i), d.test(i)) << "element " << i;
  }
  // for_each must visit in the dense loop's ascending order.
  std::vector<std::size_t> visited;
  s.for_each([&visited](std::size_t i) { visited.push_back(i); });
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.test(i)) expected.push_back(i);
  }
  EXPECT_EQ(visited, expected);
  // The interval list itself must be canonical: sorted, disjoint,
  // non-adjacent, non-empty.
  const auto& iv = s.intervals();
  for (std::size_t k = 0; k < iv.size(); ++k) {
    ASSERT_LT(iv[k].lo, iv[k].hi);
    ASSERT_LE(iv[k].hi, s.size());
    if (k > 0) {
      ASSERT_GT(iv[k].lo, iv[k - 1].hi);
    }
  }
}

bool dense_intersects(const util::BitVec& a, const util::BitVec& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.test(i) && b.test(i)) return true;
  }
  return false;
}

TEST(SparseProperty, IntervalSetMatchesDenseBitVec) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{65}, std::size_t{193}}) {
    std::mt19937 rng(0xC0FFEE ^ static_cast<std::uint32_t>(n));
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::uniform_int_distribution<int> op(0, 99);

    util::IntervalSet sa(n), sb(n);
    util::BitVec da(n), db(n);
    for (int step = 0; step < 3000; ++step) {
      const int o = op(rng);
      const bool on_a = (o & 1) != 0;
      util::IntervalSet& s = on_a ? sa : sb;
      util::BitVec& d = on_a ? da : db;
      if (o < 55) {
        const std::size_t i = pick(rng);
        s.set(i);
        d.set(i);
      } else if (o < 80) {
        const std::size_t i = pick(rng);
        s.set(i, false);
        d.set(i, false);
      } else if (o < 90) {
        // Set a run, the clustered pattern intervals are built for.
        const std::size_t lo = pick(rng);
        const std::size_t hi = std::min(n, lo + 1 + pick(rng) % 8);
        for (std::size_t i = lo; i < hi; ++i) {
          s.set(i);
          d.set(i);
        }
      } else if (o < 96) {
        if (on_a) {
          sa.merge(sb);
          da.merge(db);
        } else {
          sb.merge(sa);
          db.merge(da);
        }
      } else {
        s.reset();
        d.reset();
      }
      if (step % 250 == 0) {
        expect_equivalent(sa, da);
        expect_equivalent(sb, db);
        EXPECT_EQ(sa.intersects(sb), dense_intersects(da, db));
        EXPECT_EQ(sb.intersects(sa), dense_intersects(da, db));
      }
    }
    expect_equivalent(sa, da);
    expect_equivalent(sb, db);
    EXPECT_EQ(sa.intersects(sb), dense_intersects(da, db));
  }
}

TEST(SparseProperty, IntervalSetAppendRejectsMalformed) {
  util::IntervalSet s(100);
  EXPECT_FALSE(s.append_interval(5, 5));    // empty
  EXPECT_FALSE(s.append_interval(9, 8));    // reversed
  EXPECT_FALSE(s.append_interval(90, 101)); // past the universe
  EXPECT_TRUE(s.append_interval(10, 20));
  EXPECT_FALSE(s.append_interval(15, 30));  // overlaps
  EXPECT_FALSE(s.append_interval(20, 30));  // adjacent (not canonical)
  EXPECT_FALSE(s.append_interval(5, 8));    // out of order
  EXPECT_TRUE(s.append_interval(21, 30));
  EXPECT_EQ(s.count(), 19u);
  // The failed appends left the set untouched.
  EXPECT_EQ(s.intervals().size(), 2u);
}

// ---- SparseCsnMap vs dense vector -------------------------------------

void expect_equivalent(const util::SparseCsnMap& s,
                       const std::vector<Csn>& d) {
  ASSERT_EQ(s.size(), d.size());
  std::size_t nonzero = 0;
  for (std::size_t p = 0; p < d.size(); ++p) {
    ASSERT_EQ(s.get(p), d[p]) << "pid " << p;
    if (d[p] != 0) ++nonzero;
  }
  EXPECT_EQ(s.active(), nonzero);
  std::vector<std::pair<std::size_t, Csn>> visited;
  s.for_each([&visited](std::size_t p, Csn v) { visited.emplace_back(p, v); });
  std::vector<std::pair<std::size_t, Csn>> expected;
  for (std::size_t p = 0; p < d.size(); ++p) {
    if (d[p] != 0) expected.emplace_back(p, d[p]);
  }
  EXPECT_EQ(visited, expected);
}

// The bytes a sorted (pid, csn) vector would hold after the same writes:
// SmallVec<8-byte slot, 2> doubles when full and never shrinks.
struct SortedVectorBytes {
  std::size_t cap = 2;
  std::size_t held = 0;
  void insert() {
    if (++held > cap) cap *= 2;
  }
  std::size_t bytes() const { return cap > 2 ? cap * 8 : 0; }
};

// Mixed raise/bump/get/assign against a dense vector, plus runs of raises
// that fill a map past its switch to the dense array: every step the map
// holds no more bytes than the sorted vector would.
TEST(SparseProperty, SparseCsnMapMatchesDenseVector) {
  for (std::size_t n : {std::size_t{1}, std::size_t{17}, std::size_t{300},
                        std::size_t{4096}}) {
    std::mt19937 rng(0xBEEF ^ static_cast<std::uint32_t>(n));
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::uniform_int_distribution<int> op(0, 999);
    std::uniform_int_distribution<Csn> val(0, 12);  // 0 must be a no-op

    util::SparseCsnMap s(n);
    std::vector<Csn> d(n, 0);
    SortedVectorBytes sorted;
    // Writes the dense reference; a new non-zero entry is one more slot in
    // the sorted vector.
    const auto write = [&](std::size_t q, Csn v) {
      if (d[q] == 0 && v != 0) sorted.insert();
      d[q] = v;
    };
    int switched = 0, assigned_dense = 0;
    const int steps = 4000 + 3 * static_cast<int>(n);
    for (int step = 0; step < steps; ++step) {
      const int o = op(rng);
      const std::size_t p = pick(rng);
      const bool was_dense = s.dense();
      if (o < 500) {
        const Csn v = val(rng);
        s.raise(p, v);
        if (v > d[p]) write(p, v);
      } else if (o < 850) {
        const Csn got = s.bump(p);
        write(p, d[p] + 1);
        EXPECT_EQ(got, d[p]);
      } else if (o < 930) {
        EXPECT_EQ(s.get(p), d[p]);
      } else if (o < 998) {
        // A run of raises, the pattern that fills a map.
        for (std::size_t q = p; q < std::min(n, p + 16); ++q) {
          const Csn v = val(rng);
          s.raise(q, v);
          if (v > d[q]) write(q, v);
        }
      } else {
        if (s.dense()) ++assigned_dense;
        s.assign(n);
        d.assign(n, 0);
        sorted.held = 0;
        EXPECT_EQ(s.dense(), was_dense) << "assign keeps the representation";
      }
      if (s.dense() && !was_dense) ++switched;
      ASSERT_LE(s.bytes(), sorted.bytes()) << "n " << n << " step " << step;
      if (step % 400 == 0) expect_equivalent(s, d);
    }
    expect_equivalent(s, d);
    if (n >= 17) {
      EXPECT_EQ(switched, 1) << "n " << n << ": the switch happens once";
      EXPECT_GT(assigned_dense, 0) << "n " << n << ": assign after a switch";
    }
  }
}

TEST(SparseProperty, SparseCsnMapSwitchesAtAQuarterOfAPowerOfTwo) {
  util::SparseCsnMap m(64);
  for (std::size_t p = 0; p < 16; ++p) m.raise(p * 4, 7);
  EXPECT_FALSE(m.dense());
  EXPECT_EQ(m.bytes(), 16 * 8u);
  m.raise(1, 3);  // the 17th entry would grow the vector to 32 slots
  EXPECT_TRUE(m.dense());
  EXPECT_EQ(m.bytes(), 64 * sizeof(Csn));
  EXPECT_EQ(m.active(), 17u);
  EXPECT_EQ(m.get(1), 3u);
  EXPECT_EQ(m.get(60), 7u);
  EXPECT_EQ(m.get(63), 0u);
  // The map stays as small as the plain sorted vector it replaces.
  EXPECT_LE(sizeof(util::SparseCsnMap),
            sizeof(std::size_t) + sizeof(util::SmallVec<std::uint64_t, 2>));
}

// Equality is by contents, across representations, and for_each visits
// ascending pids in both.
TEST(SparseProperty, SparseCsnMapEqualityAcrossRepresentations) {
  const std::size_t n = 64;
  util::SparseCsnMap dense(n);
  for (std::size_t p = 0; p < n; ++p) dense.raise(p, 1);
  ASSERT_TRUE(dense.dense());
  dense.assign(n);
  ASSERT_TRUE(dense.dense());
  EXPECT_EQ(dense.active(), 0u);
  EXPECT_TRUE(dense == util::SparseCsnMap(n));
  EXPECT_FALSE(dense == util::SparseCsnMap(n + 1));

  util::SparseCsnMap sparse(n);
  for (std::size_t p : {std::size_t{63}, std::size_t{0}, std::size_t{31}}) {
    dense.raise(p, static_cast<Csn>(p + 1));
    sparse.raise(p, static_cast<Csn>(p + 1));
  }
  ASSERT_FALSE(sparse.dense());
  EXPECT_TRUE(dense == sparse);
  EXPECT_TRUE(sparse == dense);

  std::vector<std::pair<std::size_t, Csn>> from_dense, from_sparse;
  dense.for_each([&](std::size_t p, Csn c) { from_dense.emplace_back(p, c); });
  sparse.for_each([&](std::size_t p, Csn c) { from_sparse.emplace_back(p, c); });
  const std::vector<std::pair<std::size_t, Csn>> want = {
      {0, 1}, {31, 32}, {63, 64}};
  EXPECT_EQ(from_dense, want);
  EXPECT_EQ(from_sparse, want);

  sparse.bump(31);  // same pids, one csn differs
  EXPECT_FALSE(dense == sparse);
  dense.bump(31);
  EXPECT_TRUE(dense == sparse);
  dense.raise(5, 1);  // one entry more
  EXPECT_FALSE(dense == sparse);
  EXPECT_FALSE(sparse == dense);
}

// ---- SparseMr vs dense vector -----------------------------------------

TEST(SparseProperty, SparseMrMatchesDenseVector) {
  const std::size_t n = 200;
  std::mt19937 rng(0xDEAD);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::uniform_int_distribution<int> op(0, 99);
  std::uniform_int_distribution<Csn> val(0, 9);

  core::SparseMr s;
  std::vector<core::MrEntry> d(n);
  for (int step = 0; step < 4000; ++step) {
    const int o = op(rng);
    const std::size_t p = pick(rng);
    if (o < 40) {
      const core::MrEntry e{val(rng),
                            static_cast<std::uint8_t>(op(rng) & 1)};
      s.put(p, e);
      d[p] = e;
    } else if (o < 70) {
      const Csn v = val(rng);
      s.raise_csn(p, v);
      if (v > d[p].csn) d[p].csn = v;
    } else if (o < 90) {
      s.mark_requested(p);
      d[p].requested = 1;
    } else {
      s.put(p, core::MrEntry{});  // dense write of the default erases
      d[p] = core::MrEntry{};
    }
    if (step % 400 == 0) {
      std::size_t active = 0;
      for (std::size_t q = 0; q < n; ++q) {
        ASSERT_EQ(s.get(q), d[q]) << "pid " << q;
        if (!d[q].is_default()) ++active;
      }
      EXPECT_EQ(s.active(), active);
    }
  }
  std::vector<std::size_t> visited;
  s.for_each([&visited](std::size_t p, core::MrEntry e) {
    EXPECT_FALSE(e.is_default());
    visited.push_back(p);
  });
  for (std::size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(visited[i - 1], visited[i]);
  }
}

TEST(SparseProperty, SparseMrAppendRejectsMalformed) {
  core::SparseMr s;
  EXPECT_FALSE(s.append(3, core::MrEntry{}));  // default slot
  EXPECT_TRUE(s.append(3, core::MrEntry{1, 0}));
  EXPECT_FALSE(s.append(3, core::MrEntry{2, 1}));  // duplicate pid
  EXPECT_FALSE(s.append(1, core::MrEntry{2, 1}));  // out of order
  EXPECT_TRUE(s.append(900000, core::MrEntry{2, 1}));
  EXPECT_EQ(s.active(), 2u);
}

// ---- codec fuzz over the delta-encoded payloads -----------------------

util::IntervalSet random_iset(std::mt19937& rng, std::size_t n) {
  util::IntervalSet s(n);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::uniform_int_distribution<int> runs(0, 6);
  const int k = runs(rng);
  for (int r = 0; r < k; ++r) {
    const std::size_t lo = pick(rng);
    const std::size_t hi = std::min(n, lo + 1 + pick(rng) % 64);
    for (std::size_t i = lo; i < hi; ++i) s.set(i);
  }
  return s;
}

core::SparseMr random_mr(std::mt19937& rng, std::size_t n) {
  core::SparseMr mr;
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::uniform_int_distribution<Csn> val(1, 1u << 20);
  std::uniform_int_distribution<int> slots(0, 8);
  const int k = slots(rng);
  for (int i = 0; i < k; ++i) {
    mr.put(pick(rng), core::MrEntry{val(rng),
                                    static_cast<std::uint8_t>(i & 1)});
  }
  return mr;
}

// The request MR prop_cp sends, built by one merge, against the raise /
// mark loop it replaced: the copy of MR, every dep_csn entry raised in,
// every dependency marked requested. Slot for slot the same.
// dep_csn is dense in some iterations (n = 16 and 64 switch within the 40
// raises) and sparse in others; the reference reads a plain vector.
TEST(SparseProperty, RequestMrMergeMatchesRaiseMarkLoop) {
  std::mt19937 rng(0xC5);
  std::uniform_int_distribution<int> which(0, 2);
  int dense_runs = 0, sparse_runs = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const int size_class = which(rng);
    const std::size_t n = size_class == 0 ? 16 : size_class == 1 ? 64 : 300;
    core::SparseMr mr = random_mr(rng, n);
    if (which(rng) == 0) mr.put(n - 1, core::MrEntry{0, 2});  // raw R byte
    util::SparseCsnMap dep(n);
    std::vector<Csn> dep_ref(n, 0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::uniform_int_distribution<Csn> val(1, 1u << 20);
    const int k = std::uniform_int_distribution<int>(0, 40)(rng);
    for (int i = 0; i < k; ++i) {
      const std::size_t j = pick(rng);
      const Csn v = val(rng);
      dep.raise(j, v);
      dep_ref[j] = std::max(dep_ref[j], v);
    }
    ++(dep.dense() ? dense_runs : sparse_runs);
    const util::IntervalSet deps = random_iset(rng, n);

    core::SparseMr want = mr;
    for (std::size_t j = 0; j < n; ++j) want.raise_csn(j, dep_ref[j]);
    deps.for_each([&want](std::size_t j) { want.mark_requested(j); });
    const core::SparseMr got = core::request_mr(mr, dep, deps);
    ASSERT_EQ(got, want) << "iter " << iter;
  }
  EXPECT_GT(dense_runs, 100);
  EXPECT_GT(sparse_runs, 100);
  // Empty inputs give the empty MR.
  EXPECT_EQ(core::request_mr(core::SparseMr{}, util::SparseCsnMap(8),
                             util::IntervalSet(8)),
            core::SparseMr{});
}

TEST(SparseProperty, CodecFuzzRoundTripTruncationCorruption) {
  // Gappy pids across a 1M universe: the delta encoding's worst case.
  const std::size_t n = 1u << 20;
  std::mt19937 rng(0xF00D);
  std::uniform_int_distribution<int> shape(0, 2);
  std::uniform_int_distribution<Csn> val(1, 1u << 24);

  for (int iter = 0; iter < 60; ++iter) {
    std::vector<std::uint8_t> bytes;
    switch (shape(rng)) {
      case 0: {
        core::RequestPayload p;
        p.trigger = core::Trigger{3, val(rng)};
        p.sender_csn = val(rng);
        p.req_csn = val(rng);
        p.weight = util::Weight::one();
        p.mr = std::make_shared<const core::SparseMr>(random_mr(rng, n));
        bytes = core::encode(p);
        auto q = std::dynamic_pointer_cast<core::RequestPayload>(
            core::decode(bytes));
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(*q->mr, *p.mr);
        EXPECT_EQ(q->req_csn, p.req_csn);
        break;
      }
      case 1: {
        core::ReplyPayload p;
        p.trigger = core::Trigger{1, val(rng)};
        p.weight = util::Weight::one();
        p.deps = random_iset(rng, n);
        bytes = core::encode(p);
        auto q = std::dynamic_pointer_cast<core::ReplyPayload>(
            core::decode(bytes));
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(q->deps, p.deps);
        break;
      }
      default: {
        core::CommitPayload p;
        p.trigger = core::Trigger{2, val(rng)};
        p.abort_set = random_iset(rng, n);
        bytes = core::encode(p);
        auto q = std::dynamic_pointer_cast<core::CommitPayload>(
            core::decode(bytes));
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(q->abort_set, p.abort_set);
        break;
      }
    }

    // Every strict prefix must be rejected, never crash.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_EQ(core::decode(rt::ByteView(bytes.data(), len)), nullptr)
          << "prefix of length " << len << " accepted";
    }

    // Single-byte corruption must never crash; a surviving decode must
    // itself re-encode (i.e. be a structurally valid payload).
    std::uniform_int_distribution<std::size_t> at(0, bytes.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    for (int c = 0; c < 32; ++c) {
      std::vector<std::uint8_t> fuzzed = bytes;
      fuzzed[at(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
      std::shared_ptr<rt::Payload> out = core::decode(fuzzed);
      if (out != nullptr) {
        EXPECT_FALSE(core::encode(*out).empty());
      }
    }
  }
}

// ---- FlatMap vs std::map ----------------------------------------------

TEST(FlatMap, MatchesStdMapThroughRehashesAndEveryKey) {
  std::mt19937_64 rng(11);
  util::FlatMap<std::uint32_t> flat;
  std::map<std::uint64_t, std::uint32_t> ref;
  // 0 and the all-ones key border the empty-slot marker.
  const std::uint64_t edge[] = {0, 1, ~std::uint64_t{0},
                                ~std::uint64_t{0} - 1};
  EXPECT_EQ(flat.find(~std::uint64_t{0}), nullptr);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key =
        i % 97 == 0 ? edge[(i / 97) % 4] : rng() % 5000 * 0x10001;
    auto [v, inserted] = flat.try_emplace(key);
    EXPECT_EQ(inserted, ref.count(key) == 0) << key;
    *v += static_cast<std::uint32_t>(i);
    ref[key] += static_cast<std::uint32_t>(i);
  }
  for (const auto& [key, value] : ref) {
    const std::uint32_t* v = flat.find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_EQ(*v, value) << key;
  }
  EXPECT_EQ(flat.find(3), nullptr);
}

TEST(FlatMap, EraseMatchesStdMapAndLeavesNoTombstones) {
  // Inserts and erases interleaved on a small key space, so probe runs
  // wrap and shift back over one another; the table never grows past its
  // first size because erase frees slots.
  std::mt19937_64 rng(13);
  util::FlatMap<std::uint32_t> flat;
  std::map<std::uint64_t, std::uint32_t> ref;
  const std::uint64_t edge[] = {0, ~std::uint64_t{0}};
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t key =
        i % 101 == 0 ? edge[(i / 101) % 2] : rng() % 600 * 0x9E3779B9ull;
    if (rng() % 2 == 0) {
      EXPECT_EQ(flat.erase(key), ref.erase(key) == 1) << key;
    } else {
      flat[key] = static_cast<std::uint32_t>(i);
      ref[key] = static_cast<std::uint32_t>(i);
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  for (std::uint64_t k = 0; k < 600; ++k) {
    const std::uint64_t key = k * 0x9E3779B9ull;
    const std::uint32_t* v = flat.find(key);
    auto it = ref.find(key);
    if (it == ref.end()) {
      EXPECT_EQ(v, nullptr) << key;
    } else {
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(*v, it->second) << key;
    }
  }
}

}  // namespace
}  // namespace mck
