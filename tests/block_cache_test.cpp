// BlockCache tests: a freed block comes back only for its own shape, the
// byte budget holds, concurrent acquire/release neither loses nor hands out
// a block twice, a ring built on a recycled block treats it as raw memory
// (constructs each slot on its first lap, destroys exactly those), and
// under AddressSanitizer a cached block is poisoned.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "runtime/block_cache.h"
#include "runtime/spsc_queue.h"

namespace {

using bw::runtime::BlockCache;
using bw::runtime::BlockCacheStats;
using bw::runtime::SpscQueue;

TEST(BlockCache, ReleasedBlockComesBackForItsShapeOnly) {
  BlockCache cache;
  void* block = cache.acquire(4096, 64);
  ASSERT_NE(block, nullptr);
  std::memset(block, 0xab, 4096);
  cache.release(block, 4096, 64);
  EXPECT_EQ(cache.stats().blocks, 1u);
  EXPECT_EQ(cache.stats().bytes, 4096u);

  // Another size or another alignment is another shape.
  void* bigger = cache.acquire(8192, 64);
  void* wider = cache.acquire(4096, 128);
  EXPECT_NE(bigger, block);
  EXPECT_NE(wider, block);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);

  void* again = cache.acquire(4096, 64);
  EXPECT_EQ(again, block);
  const BlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.blocks, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  cache.release(again, 4096, 64);
  cache.release(bigger, 8192, 64);
  cache.release(wider, 4096, 128);
}

TEST(BlockCache, ReleasePastTheBudgetFreesTheBlock) {
  constexpr std::size_t kBlock = 4096;
  BlockCache cache(3 * kBlock);
  std::vector<void*> blocks;
  for (int i = 0; i < 4; ++i) blocks.push_back(cache.acquire(kBlock, 16));
  for (void* block : blocks) {
    cache.release(block, kBlock, 16);
    EXPECT_LE(cache.stats().bytes, 3 * kBlock);
  }
  // A block larger than the whole budget is never cached.
  cache.release(cache.acquire(4 * kBlock, 16), 4 * kBlock, 16);
  const BlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.blocks, 3u);
  EXPECT_EQ(stats.bytes, 3 * kBlock);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.misses, 5u);
}

// Eight threads acquire and release blocks of four shapes against a budget
// smaller than their peak demand, so blocks are recycled, handed across
// threads and freed. No block may be live twice at once, a block's bytes
// must survive while its holder has it, and every fresh block must end up
// cached or freed.
TEST(BlockCache, ConcurrentAcquireReleaseLosesAndDuplicatesNoBlock) {
  constexpr unsigned kThreads = 8;
  constexpr int kRounds = 2000;
  constexpr std::size_t kSizes[] = {64, 256, 4096, 16384};
  BlockCache cache(64 * 1024);
  std::mutex live_mu;
  std::set<void*> live;
  bool duplicated = false;
  bool clobbered = false;

  std::vector<std::thread> threads;
  for (unsigned id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t bytes = kSizes[(id + round) % 4];
        auto* block = static_cast<std::uint64_t*>(cache.acquire(bytes, 64));
        {
          std::lock_guard<std::mutex> lock(live_mu);
          if (!live.insert(block).second) duplicated = true;
        }
        const std::uint64_t stamp = std::uint64_t{id} << 32 | round;
        block[0] = stamp;
        block[bytes / 8 - 1] = stamp;
        std::this_thread::yield();
        if (block[0] != stamp || block[bytes / 8 - 1] != stamp) {
          std::lock_guard<std::mutex> lock(live_mu);
          clobbered = true;
        }
        {
          std::lock_guard<std::mutex> lock(live_mu);
          live.erase(block);
        }
        cache.release(block, bytes, 64);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(duplicated);
  EXPECT_FALSE(clobbered);
  const BlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, std::uint64_t{kThreads} * kRounds);
  EXPECT_EQ(stats.misses, stats.blocks + stats.dropped);
  EXPECT_LE(stats.bytes, 64u * 1024);
  EXPECT_GT(stats.hits, 0u);
}

// A payload whose constructors, assignments and destructor check that they
// act on raw memory, a live slot, and a live slot respectively.
struct Tracked {
  static std::set<const void*> alive;
  static int built;

  explicit Tracked(int v) : value(v) { enter(); }
  Tracked(const Tracked& other) : value(other.value) { enter(); }
  Tracked& operator=(const Tracked& other) {
    EXPECT_EQ(alive.count(this), 1u) << "assignment to a slot never built";
    value = other.value;
    return *this;
  }
  ~Tracked() { EXPECT_EQ(alive.erase(this), 1u) << "destroyed twice"; }

  void enter() {
    EXPECT_TRUE(alive.insert(this).second) << "built twice";
    ++built;
  }

  int value;
  char pad[44];  // a slot shape no other ring in this binary uses
};
std::set<const void*> Tracked::alive;
int Tracked::built = 0;

TEST(BlockCache, RingOnARecycledBlockBuildsEachSlotOnItsFirstLap) {
  constexpr std::size_t kHint = 15;  // 16 slots
  constexpr int kSlots = 16;
  {
    SpscQueue<Tracked> first(kHint);  // leaves a fully built block behind
    Tracked out(-1);
    for (int i = 0; i < 3 * kSlots; ++i) {
      ASSERT_TRUE(first.try_push(Tracked(i)));
      ASSERT_TRUE(first.try_pop(out));
    }
  }
  ASSERT_TRUE(Tracked::alive.empty());

  const BlockCacheStats before = BlockCache::instance().stats();
  {
    SpscQueue<Tracked> second(kHint);
    EXPECT_EQ(BlockCache::instance().stats().hits, before.hits + 1)
        << "the second ring did not get the first ring's block";
    Tracked item(7);
    Tracked out(-1);
    Tracked::built = 0;
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(second.try_push(item));
    EXPECT_EQ(Tracked::built, 5);  // first lap: five slots built
    EXPECT_EQ(Tracked::alive.size(), 2u + 5u);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(second.try_pop(out));
    for (int i = 0; i < 2 * kSlots; ++i) {
      ASSERT_TRUE(second.try_push(item));
      ASSERT_TRUE(second.try_pop(out));
    }
    EXPECT_EQ(Tracked::built, kSlots);  // later laps assign
    EXPECT_EQ(Tracked::alive.size(), 2u + kSlots);
  }
  EXPECT_TRUE(Tracked::alive.empty());  // exactly the built slots destroyed
}

#if defined(__SANITIZE_ADDRESS__)
// Recycling must not hide a use after free from AddressSanitizer: a cached
// block stays poisoned until it is acquired again.
TEST(BlockCacheDeathTest, CachedBlockIsPoisonedUnderAddressSanitizer) {
  BlockCache cache;
  auto* block = static_cast<char*>(cache.acquire(4096, 64));
  block[100] = 1;
  cache.release(block, 4096, 64);
  EXPECT_DEATH(static_cast<volatile char*>(block)[100] = 2,
               "use-after-poison");
  void* again = cache.acquire(4096, 64);
  EXPECT_EQ(again, block);
  static_cast<volatile char*>(again)[100] = 3;  // unpoisoned: no report
  cache.release(again, 4096, 64);
}
#endif

}  // namespace
