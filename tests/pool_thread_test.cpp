// util::Pool thread model: a pool belongs to the thread that created it.
// Releases on the owner recycle through the freelist; a release on any
// other thread is a bug (it would race the owner's freelist) and aborts.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "util/pool.hpp"

namespace mck {
namespace {

struct Payload {
  std::uint64_t value = 0;
  char pad[48] = {};
};

TEST(PoolThreads, OwnerReleasesRecycle) {
  util::Pool<Payload> pool;
  { auto p = pool.acquire(); }
  { auto p = pool.acquire(); }
  EXPECT_EQ(pool.blocks_allocated(), 1u) << "owner release must recycle";
  EXPECT_EQ(pool.free_blocks(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PoolThreadsDeathTest, ForeignReleaseAborts) {
  EXPECT_DEATH(
      {
        util::Pool<Payload> pool;
        std::shared_ptr<Payload> p = pool.acquire();
        std::thread t([q = std::move(p)]() mutable { q.reset(); });
        t.join();
      },
      "non-owner thread");
}

}  // namespace
}  // namespace mck
