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
  // Pushes of heap-owning rvalues under real producer/consumer
  // concurrency on a ring small enough to wrap constantly: order, content,
  // and the acquire/release pairing must all hold (TSan lane validates
  // the latter).
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

// --- Stride publication and burst consumption ---------------------------

std::vector<int> consume_all(SpscQueue<int>& queue) {
  std::vector<int> seen;
  queue.consume(queue.capacity(), [&](int& item) {
    seen.push_back(item);
    return true;
  });
  return seen;
}

TEST(SpscQueue, StagedItemsStayInvisibleUntilPublished) {
  SpscQueue<int> queue(64);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.try_stage(i));
  int out = -1;
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(consume_all(queue).empty());
  queue.publish();
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(consume_all(queue), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(queue.empty());
  queue.publish();  // nothing staged: a no-op
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, StagedRunGrowsUntilThePublisherPublishes) {
  // Staging never publishes by itself: the producer decides when its run
  // is published (the Monitor at every kStride items, a session lane once
  // its run has claimed quota).
  constexpr int kRun = 2 * static_cast<int>(SpscQueue<int>::kStride);
  SpscQueue<int> queue(4 * SpscQueue<int>::kStride);
  for (int i = 0; i < kRun; ++i) {
    ASSERT_TRUE(queue.try_stage(i));
    EXPECT_EQ(queue.staged(), static_cast<std::size_t>(i + 1));
  }
  EXPECT_TRUE(queue.empty());
  queue.publish();
  EXPECT_EQ(queue.staged(), 0u);
  const std::vector<int> seen = consume_all(queue);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kRun));
  for (int i = 0; i < kRun; ++i) EXPECT_EQ(seen[i], i);
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, DiscardStagedRewindsToThePublishedHead) {
  SpscQueue<int> queue(64);
  ASSERT_TRUE(queue.try_stage(1));
  ASSERT_TRUE(queue.try_stage(2));
  queue.publish();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.try_stage(100 + i));
  queue.discard_staged();
  EXPECT_EQ(queue.staged(), 0u);
  queue.publish();  // nothing staged: a no-op
  EXPECT_EQ(queue.size(), 2u);
  ASSERT_TRUE(queue.try_stage(3));  // takes the first discarded slot
  queue.publish();
  EXPECT_EQ(consume_all(queue), (std::vector<int>{1, 2, 3}));

  // A discarded run's slots stay built: the next run assigns to them and
  // builds only the slots past them, and the ring destroys each once.
  Counted::live = 0;
  {
    SpscQueue<Counted> ring(16);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_stage(Counted(i)));
    ring.discard_staged();
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_stage(Counted(10 + i)));
    EXPECT_EQ(Counted::live, 5);
    ring.publish();
    Counted out(-1);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out.value, 10 + i);
    }
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(SpscQueue, PushIsVisibleAtOnceAndCarriesStagedItems) {
  SpscQueue<int> queue(64);
  ASSERT_TRUE(queue.try_push(1));
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(consume_all(queue), (std::vector<int>{1}));
  ASSERT_TRUE(queue.try_stage(2));
  ASSERT_TRUE(queue.try_push(3));  // publishes the staged item before it
  EXPECT_EQ(consume_all(queue), (std::vector<int>{2, 3}));
}

TEST(SpscQueue, FullRingStageRefusesUntilPublished) {
  SpscQueue<int> queue(8);  // 15 slots: less than one stride
  ASSERT_LT(queue.capacity(), SpscQueue<int>::kStride);
  for (int i = 0; i < static_cast<int>(queue.capacity()); ++i) {
    ASSERT_TRUE(queue.try_stage(i));
  }
  EXPECT_TRUE(queue.empty());  // all staged, none published
  EXPECT_FALSE(queue.try_stage(99));
  EXPECT_TRUE(queue.empty());  // a refusal publishes nothing
  EXPECT_EQ(queue.staged(), queue.capacity());
  queue.publish();  // what a producer does before it backs off
  EXPECT_EQ(queue.size(), queue.capacity());
  int out = -1;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(queue.try_stage(99));  // the freed slot takes the retry
  queue.publish();
  std::vector<int> seen = consume_all(queue);
  ASSERT_EQ(seen.size(), queue.capacity());
  EXPECT_EQ(seen.front(), 1);
  EXPECT_EQ(seen.back(), 99);
}

TEST(SpscQueue, ConsumeStopsWhereTheCallbackRefuses) {
  SpscQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(queue.try_push(i));
  std::vector<int> seen;
  const std::size_t handed = queue.consume(8, [&](int& item) {
    seen.push_back(item);
    return item != 3;  // refuse the fourth: it is still freed
  });
  EXPECT_EQ(handed, 4u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(queue.size(), 6u);
  // The burst honours `max`, and items are handed in place: a write
  // through the reference is what the slot held.
  seen.clear();
  EXPECT_EQ(queue.consume(2, [&](int& item) {
    seen.push_back(item);
    item = -1;
    return true;
  }),
            2u);
  EXPECT_EQ(seen, (std::vector<int>{4, 5}));
  EXPECT_EQ(consume_all(queue), (std::vector<int>{6, 7, 8, 9}));
  EXPECT_EQ(queue.consume(4, [](int&) { return true; }), 0u);
  // Every slot handed out was freed: the ring takes a full load again.
  std::size_t pushed = 0;
  while (queue.try_push(static_cast<int>(pushed))) ++pushed;
  EXPECT_EQ(pushed, queue.capacity());
}

TEST(SpscQueue, ConcurrentStagedPublishStress) {
  // Staged pushes with publish() at random points against burst consumes
  // of random size: nothing lost, duplicated or reordered (and, under the
  // TSan lane, no race between the private head and the published one).
  constexpr std::uint64_t kItems = 200'000;
  SpscQueue<std::uint64_t> queue(256);
  std::thread producer([&] {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!queue.try_stage(i)) {
        queue.publish();  // the consumer can only free what it sees
        std::this_thread::yield();
      }
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      if (state % 7 == 0) queue.publish();
    }
    queue.publish();
  });
  std::uint64_t expected = 0;
  std::uint64_t burst = 1;
  while (expected < kItems) {
    bool in_order = true;
    const std::size_t handed = queue.consume(burst, [&](std::uint64_t& item) {
      in_order &= item == expected;
      ++expected;
      return true;
    });
    ASSERT_TRUE(in_order);
    if (handed == 0) std::this_thread::yield();
    burst = burst % 97 + 1;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
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
