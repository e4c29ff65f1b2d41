// Zero-allocation test for the monitor's check path. This executable
// replaces the global operator new with a counting one; after a warm-up
// pass has grown the table to its working size, filing 100k reports of
// every CheckCode (eager checks, evictions and the finalize pass included)
// and checking instances of up to 64 threads must not allocate at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "runtime/branch_table.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace bw::runtime;

constexpr unsigned kThreads = 3;
constexpr std::size_t kReports = 100'000;
constexpr CheckCode kCodes[] = {CheckCode::SharedOutcome,
                                CheckCode::ThreadIdEq,
                                CheckCode::ThreadIdMonotone,
                                CheckCode::PartialValue};

/// A clean stream over 8 branch keys in which thread 0 runs 64 instances
/// ahead of the others, so every branch keeps instances pending.
std::vector<BranchReport> clean_stream(CheckCode check) {
  std::vector<BranchReport> order;
  const std::uint64_t lead = 64;
  for (std::uint64_t i = 0; order.size() < kReports; ++i) {
    for (unsigned t = 0; t < kThreads; ++t) {
      if (t != 0 && i < lead) continue;
      BranchReport r;
      r.thread = t;
      r.check = check;
      const std::uint64_t instance = t == 0 ? i : i - lead;
      r.static_id = static_cast<std::uint32_t>(1 + instance % 8);
      r.iter_hash = instance / 8;
      if (check == CheckCode::PartialValue) r.value = 7;
      r.outcome = check == CheckCode::ThreadIdMonotone ? t < 2 : t == 1;
      if (check == CheckCode::SharedOutcome ||
          check == CheckCode::PartialValue) {
        r.outcome = true;
      }
      order.push_back(r);
    }
  }
  return order;
}

void file_all(BranchTable& table, const std::vector<BranchReport>& order) {
  for (const BranchReport& r : order) table.process(r, false);
  table.finalize(false);
}

TEST(BranchTableAllocation, SteadyStateFilingNeverAllocates) {
  for (std::size_t cap : {std::size_t{1} << 15, std::size_t{4}}) {
    for (CheckCode check : kCodes) {
      const std::vector<BranchReport> order = clean_stream(check);
      BranchTable table(kThreads, cap);
      file_all(table, order);  // warm-up: grows indexes and chunks
      const std::uint64_t before = g_allocations.load();
      file_all(table, order);
      EXPECT_EQ(g_allocations.load() - before, 0u)
          << "check=" << static_cast<int>(check) << " cap=" << cap;
      EXPECT_TRUE(table.violations().empty());
      EXPECT_GT(table.instances_checked(), 0u);
      if (cap == 4) {
        EXPECT_GT(table.instances_evicted(), 0u);
      }
    }
  }
}

TEST(CheckerAllocation, ChecksUpToSixtyFourThreadsNeverAllocate) {
  for (unsigned threads : {3u, 64u}) {
    std::vector<ThreadObservation> obs(threads);
    for (unsigned t = 0; t < threads; ++t) {
      obs[t] = {.thread = t, .has_outcome = true, .outcome = t < threads / 2,
                .has_value = true, .value = t % 4};
    }
    std::vector<ThreadObservation> reversed(obs.rbegin(), obs.rend());
    const std::uint64_t before = g_allocations.load();
    for (CheckCode check : kCodes) {
      for (int i = 0; i < 1000; ++i) {
        (void)check_instance(check, obs);
        (void)check_instance(check, reversed);
      }
    }
    EXPECT_EQ(g_allocations.load() - before, 0u) << "threads=" << threads;
  }
}

}  // namespace
