// SmallVec behavior pinned against std::vector references: the
// spill-to-heap boundary, move and copy semantics of spilled storage, and
// the protocol containers' values across the spill.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "util/interval_set.hpp"
#include "util/small_vec.hpp"
#include "util/sparse_csn.hpp"

namespace mck::util {
namespace {

TEST(SmallVecTest, InlineUntilCapacityThenSpills) {
  SmallVec<int, 4> v;
  EXPECT_EQ(v.capacity(), 4u);
  const int* inline_ptr = v.data();
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.data(), inline_ptr) << "must stay inline up to N";
  v.push_back(4);  // the spill boundary
  EXPECT_NE(v.data(), inline_ptr);
  EXPECT_GE(v.capacity(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVecTest, MatchesVectorReferenceAcrossMixedOps) {
  SmallVec<int, 2> sv;
  std::vector<int> ref;
  // Deterministic op mix crossing the spill boundary repeatedly.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      int x = round * 100 + i;
      if (i % 5 == 3 && !ref.empty()) {
        std::size_t pos = static_cast<std::size_t>(i) % ref.size();
        sv.erase(sv.begin() + static_cast<std::ptrdiff_t>(pos));
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(pos));
      } else if (i % 7 == 2) {
        std::size_t pos = ref.empty() ? 0 : static_cast<std::size_t>(x) % ref.size();
        sv.insert(sv.begin() + static_cast<std::ptrdiff_t>(pos), x);
        ref.insert(ref.begin() + static_cast<std::ptrdiff_t>(pos), x);
      } else {
        sv.push_back(x);
        ref.push_back(x);
      }
    }
    ASSERT_EQ(sv.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(sv[i], ref[i]);
    sv.erase(sv.begin(), sv.begin() + static_cast<std::ptrdiff_t>(sv.size() / 2));
    ref.erase(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(ref.size() / 2));
    ASSERT_EQ(sv.size(), ref.size());
  }
  sv.clear();
  ref.clear();
  EXPECT_EQ(sv.size(), ref.size());
}

TEST(SmallVecTest, MoveFromInlineMovesElements) {
  SmallVec<std::string, 4> a;
  a.push_back("alpha");
  a.push_back("beta");
  SmallVec<std::string, 4> b(std::move(a));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], "alpha");
  EXPECT_EQ(b[1], "beta");
  EXPECT_EQ(a.size(), 0u);  // moved-from is empty, reusable
  a.push_back("gamma");
  EXPECT_EQ(a[0], "gamma");
}

TEST(SmallVecTest, MoveFromSpilledStealsStorage) {
  SmallVec<int, 2> a;
  for (int i = 0; i < 10; ++i) a.push_back(i);
  const int* spilled = a.data();
  SmallVec<int, 2> b(std::move(a));
  EXPECT_EQ(b.data(), spilled) << "heap storage changes hands on move";
  ASSERT_EQ(b.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(b[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(a.size(), 0u);
}

TEST(SmallVecTest, MoveAssignFromSpilledStealsStorage) {
  SmallVec<int, 2> dst;
  for (int i = 0; i < 5; ++i) dst.push_back(-i);
  SmallVec<int, 2> src;
  for (int i = 0; i < 8; ++i) src.push_back(i);
  const int* spilled = src.data();
  dst = std::move(src);
  EXPECT_EQ(dst.data(), spilled) << "move-assign hands the spill block over";
  ASSERT_EQ(dst.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(src.size(), 0u);
}

TEST(SmallVecTest, CopyOfSpilledOwnsItsStorage) {
  SmallVec<int, 2> spilled;
  for (int i = 0; i < 6; ++i) spilled.push_back(i);
  SmallVec<int, 2> copy(spilled);
  EXPECT_NE(copy.data(), spilled.data());
  ASSERT_EQ(copy.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(copy[static_cast<std::size_t>(i)], i);
}

TEST(SmallVecTest, NonTrivialElementsDestructed) {
  std::weak_ptr<int> observer;
  {
    SmallVec<std::shared_ptr<int>, 1> v;
    auto sp = std::make_shared<int>(7);
    observer = sp;
    v.push_back(std::move(sp));
    v.push_back(std::make_shared<int>(8));  // forces a spill
    EXPECT_FALSE(observer.expired());
  }
  EXPECT_TRUE(observer.expired()) << "destructor must run element dtors";
}

// The protocol containers ride on SmallVec; pin their values across the
// spill.
TEST(SpillInteropTest, IntervalSetSpillsToHeap) {
  IntervalSet s(1000);
  // Force > 3 disjoint intervals (the inline capacity).
  for (std::size_t i = 0; i < 20; ++i) s.set(i * 7);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_TRUE(s.test(i * 7));
  EXPECT_FALSE(s.test(1));
  IntervalSet other(1000);
  for (std::size_t i = 0; i < 20; ++i) other.set(i * 7 + 1);
  s.merge(other);
  EXPECT_EQ(s.count(), 40u);
  s.merge(other);  // idempotent remerge
  EXPECT_EQ(s.count(), 40u);
}

TEST(SpillInteropTest, SparseCsnMapSpillsToHeap) {
  SparseCsnMap m(100000);
  for (std::size_t pid = 0; pid < 64; ++pid) m.raise(pid * 11, 5);
  for (std::size_t pid = 0; pid < 64; ++pid) {
    EXPECT_EQ(m.get(pid * 11), 5u);
  }
  EXPECT_EQ(m.get(1), 0u);
}

}  // namespace
}  // namespace mck::util
