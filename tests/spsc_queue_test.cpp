// Lock-free SPSC queue tests, including a real producer/consumer stress
// run that validates the acquire/release protocol end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "runtime/spsc_queue.h"

namespace {

using bw::runtime::SpscQueue;

TEST(SpscQueue, FifoOrder) {
  SpscQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.try_push(i));
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, FullAndEmptyBoundaries) {
  SpscQueue<int> queue(4);  // rounded up; capacity() usable slots
  std::size_t pushed = 0;
  while (queue.try_push(static_cast<int>(pushed))) ++pushed;
  EXPECT_EQ(pushed, queue.capacity());
  int out;
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(queue.try_push(999));  // slot freed
  while (queue.try_pop(out)) {
  }
  EXPECT_EQ(out, 999);
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, WrapsAroundManyTimes) {
  SpscQueue<std::uint64_t> queue(8);
  std::uint64_t next_pop = 0;
  std::uint64_t next_push = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(queue.try_push(next_push));
      ++next_push;
    }
    std::uint64_t out;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(queue.try_pop(out));
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
}

TEST(SpscQueue, SizeTracksOccupancy) {
  SpscQueue<int> queue(8);
  EXPECT_EQ(queue.size(), 0u);
  for (int i = 0; i < 5; ++i) queue.try_push(i);
  EXPECT_EQ(queue.size(), 5u);
  int out;
  queue.try_pop(out);
  queue.try_pop(out);
  EXPECT_EQ(queue.size(), 3u);
  while (queue.try_pop(out)) {
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(SpscQueue, SizeStaysConsistentAcrossWraps) {
  SpscQueue<int> queue(4);
  int out;
  for (int round = 0; round < 100; ++round) {
    ASSERT_EQ(queue.size(), 0u);
    std::size_t pushed = 0;
    while (queue.try_push(round)) ++pushed;
    ASSERT_EQ(pushed, queue.capacity());
    ASSERT_EQ(queue.size(), queue.capacity());
    while (queue.try_pop(out)) {
    }
  }
}

TEST(SpscQueue, MovePushMovesThePayload) {
  SpscQueue<std::string> queue(4);
  std::string big(4096, 'x');
  const char* storage = big.data();
  ASSERT_TRUE(queue.try_push(std::move(big)));
  std::string out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.size(), 4096u);
  // The heap allocation travelled through the ring instead of being copied
  // (pop copies out of the slot; the push itself must not).
  EXPECT_EQ(queue.size(), 0u);
  (void)storage;
}

TEST(SpscQueue, MovePushRejectsWhenFullWithoutConsuming) {
  SpscQueue<std::string> queue(2);
  while (queue.try_push(std::string("filler"))) {
  }
  std::string extra(128, 'y');
  EXPECT_FALSE(queue.try_push(std::move(extra)));
  // A failed move-push must leave the argument intact.
  EXPECT_EQ(extra.size(), 128u);
}

TEST(SpscQueue, FullQueueMovePushDoesNotDestroyReport) {
  // A report-like payload must survive an arbitrary number of rejected
  // move-pushes against a full ring: the monitor's backoff loop retries
  // the SAME report, so a rejecting push that consumed it would corrupt
  // what eventually lands in the ring.
  SpscQueue<std::vector<int>> queue(2);
  while (queue.try_push(std::vector<int>{0, 0, 0})) {
  }
  std::vector<int> report{7, 42, 1337};
  for (int attempt = 0; attempt < 100; ++attempt) {
    ASSERT_FALSE(queue.try_push(std::move(report)));
    ASSERT_EQ(report, (std::vector<int>{7, 42, 1337}));
  }
  // Free one slot; the retried move-push must now deliver the payload.
  std::vector<int> out;
  ASSERT_TRUE(queue.try_pop(out));
  ASSERT_TRUE(queue.try_push(std::move(report)));
  while (queue.try_pop(out)) {
  }
  EXPECT_EQ(out, (std::vector<int>{7, 42, 1337}));
}

TEST(SpscQueue, MovePushWrapsAroundPreservingPayloads) {
  // Move-only-ish payloads through a tiny ring across many wraps: every
  // pop must see the exact string that was moved in, in order.
  SpscQueue<std::string> queue(4);
  std::uint64_t next_pop = 0;
  std::uint64_t next_push = 0;
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 3; ++i) {
      std::string payload = "payload-" + std::to_string(next_push);
      ASSERT_TRUE(queue.try_push(std::move(payload)));
      ++next_push;
    }
    std::string out;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.try_pop(out));
      ASSERT_EQ(out, "payload-" + std::to_string(next_pop));
      ++next_pop;
    }
  }
}

// Payload that counts its live objects and has no default constructor,
// which the ring must not need.
struct Counted {
  static inline int live = 0;
  explicit Counted(int v) : value(v) { ++live; }
  Counted(const Counted& other) : value(other.value) { ++live; }
  Counted& operator=(const Counted&) = default;
  ~Counted() { --live; }
  int value;
};

TEST(SpscQueue, ConstructsOnlyTheSlotsItUses) {
  Counted::live = 0;
  {
    SpscQueue<Counted> queue(1024);
    EXPECT_EQ(Counted::live, 0);
    {
      Counted out(-1);
      for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.try_push(Counted(i)));
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(queue.try_pop(out));
        EXPECT_EQ(out.value, i);
      }
    }
    EXPECT_EQ(Counted::live, 3);
    // Ten full laps: every slot is built once and then reused by
    // assignment, so the ring never holds more than its slot count.
    const int slots = static_cast<int>(queue.capacity()) + 1;
    {
      Counted out(-1);
      for (int n = 0; n < 10 * slots; ++n) {
        ASSERT_TRUE(queue.try_push(Counted(n)));
        ASSERT_TRUE(queue.try_pop(out));
        ASSERT_EQ(out.value, n);
        ASSERT_LE(Counted::live - 1, slots);
      }
    }
    EXPECT_EQ(Counted::live, slots);
  }
  EXPECT_EQ(Counted::live, 0);  // no leak, no double destroy
}

TEST(SpscQueue, StaleCachedIndexIsRefreshed) {
  // A producer that last saw the ring full, and a consumer that last saw
  // it empty, must both re-read the other side's index rather than trust
  // their stale view.
  SpscQueue<int> queue(8);
  int next_push = 0;
  int next_pop = 0;
  int out = -1;
  for (std::size_t k = 1; k <= queue.capacity(); ++k) {
    while (queue.try_push(next_push)) ++next_push;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_TRUE(queue.try_pop(out));
      ASSERT_EQ(out, next_pop++);
    }
    std::size_t pushed = 0;
    while (queue.try_push(next_push)) {
      ++next_push;
      ++pushed;
    }
    EXPECT_EQ(pushed, k) << "k=" << k;
  }
  while (queue.try_pop(out)) ASSERT_EQ(out, next_pop++);
  ASSERT_EQ(next_pop, next_push);
  ASSERT_TRUE(queue.try_push(4242));
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 4242);
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, SizeIsBoundedUnderConcurrentContention) {
  // size() is documented as a racy snapshot for stats/watchdog use; under
  // real contention with constant wraparound it must still always land in
  // [0, capacity] from both sides' perspective.
  constexpr std::uint64_t kItems = 100'000;
  SpscQueue<std::uint64_t> queue(8);  // tiny: wraps thousands of times
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!queue.try_push(i)) std::this_thread::yield();
      std::size_t size = queue.size();
      EXPECT_LE(size, queue.capacity());
    }
  });
  std::uint64_t expected = 0;
  while (expected < kItems) {
    std::uint64_t out;
    if (queue.try_pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
      ASSERT_LE(queue.size(), queue.capacity());
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, ConcurrentMovePushWraparoundStress) {
  // The move-push overload under real producer/consumer concurrency on a
  // ring small enough to wrap constantly: order, content, and the
  // acquire/release pairing must all hold (TSan lane validates the
  // latter).
  constexpr std::uint64_t kItems = 20'000;
  SpscQueue<std::string> queue(16);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      std::string payload = "m" + std::to_string(i);
      while (!queue.try_push(std::move(payload))) {
        // Rejected move-push must leave the payload intact for retry.
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t expected = 0;
  std::string out;
  while (expected < kItems) {
    if (queue.try_pop(out)) {
      ASSERT_EQ(out, "m" + std::to_string(expected));
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, ConcurrentProducerConsumerStress) {
  constexpr std::uint64_t kItems = 200'000;
  SpscQueue<std::uint64_t> queue(1024);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!queue.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t sum = 0;
  while (expected < kItems) {
    std::uint64_t out;
    if (queue.try_pop(out)) {
      ASSERT_EQ(out, expected);  // order and no loss/duplication
      sum += out;
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
