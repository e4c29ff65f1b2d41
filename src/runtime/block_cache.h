// Process-wide cache of freed monitor buffers (paper Section III-B: one
// queue per program thread and one two-level table per monitor, built for
// every protected run).
//
// Every buffer that grows with a run's traffic — the slot storage of each
// SpscQueue and the BranchTable's slot chunks and level-2 cell index — is
// taken from here and given back here, so a steady-state run reuses the
// pages the previous run already faulted in instead of having the
// allocator hand them back to the kernel and fault them in again.
//
// A block is cached by its shape (bytes, alignment) and handed back only
// for exactly that shape. A recycled block is raw memory to its new owner:
// nothing it held crosses runs, and every owner builds what it reads
// (SpscQueue constructs slots on their first lap, BranchTable placement-
// builds every slot and zeroes its cells).
//
// The cache holds at most a fixed budget of bytes; a release that would
// exceed it frees the block at once. Under AddressSanitizer a cached block
// is poisoned until it is acquired again, so a use after free across runs
// still reports.
//
// Thread safety: one mutex; acquire and release are O(1) per block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace bw::runtime {

struct BlockCacheStats {
  std::uint64_t hits = 0;     // acquires served from the cache
  std::uint64_t misses = 0;   // acquires served by the allocator
  std::uint64_t dropped = 0;  // releases past the budget, freed at once
  std::size_t blocks = 0;     // blocks cached now
  std::size_t bytes = 0;      // bytes cached now
};

class BlockCache {
 public:
  /// The process-wide budget: a 32-thread run's rings are about 42 MB.
  static constexpr std::size_t kBudget = std::size_t{64} << 20;

  explicit BlockCache(std::size_t budget = kBudget) : budget_(budget) {}
  /// Frees every cached block.
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// The cache every monitor buffer comes from. It is never destroyed, so
  /// it outlives every static monitor.
  static BlockCache& instance();

  /// A block of `bytes` bytes aligned to `align` (a power of two): a cached
  /// one of that shape if there is one, else a fresh one.
  void* acquire(std::size_t bytes, std::size_t align);
  /// Gives back a block that acquire(bytes, align) returned.
  void release(void* block, std::size_t bytes, std::size_t align) noexcept;

  BlockCacheStats stats() const;

 private:
  const std::size_t budget_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<void*>> bins_;  // by shape
  BlockCacheStats stats_;
};

}  // namespace bw::runtime
