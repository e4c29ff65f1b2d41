#include "runtime/block_cache.h"

#include <bit>
#include <new>

#include "support/telemetry/telemetry.h"

#if defined(__SANITIZE_ADDRESS__)
#define BW_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BW_ASAN 1
#endif
#endif
#ifdef BW_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace bw::runtime {

namespace {

/// One bin per (bytes, alignment); alignments are powers of two, so the
/// exponent fits above any realistic size.
std::uint64_t shape_key(std::size_t bytes, std::size_t align) {
  return (std::uint64_t{static_cast<unsigned>(std::countr_zero(align))}
          << 58) |
         bytes;
}

void poison(void* block, std::size_t bytes) {
#ifdef BW_ASAN
  ASAN_POISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

void unpoison(void* block, std::size_t bytes) {
#ifdef BW_ASAN
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

void free_block(void* block, std::size_t bytes, std::size_t align) {
  unpoison(block, bytes);
  ::operator delete(block, std::align_val_t{align});
}

}  // namespace

BlockCache::~BlockCache() {
  for (auto& [key, blocks] : bins_) {
    const std::size_t bytes = key & ((std::uint64_t{1} << 58) - 1);
    const std::size_t align = std::size_t{1} << (key >> 58);
    for (void* block : blocks) free_block(block, bytes, align);
  }
}

BlockCache& BlockCache::instance() {
  static BlockCache* const cache = new BlockCache();
  return *cache;
}

void* BlockCache::acquire(std::size_t bytes, std::size_t align) {
  void* block = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto bin = bins_.find(shape_key(bytes, align));
    if (bin != bins_.end() && !bin->second.empty()) {
      block = bin->second.back();
      bin->second.pop_back();
      ++stats_.hits;
      --stats_.blocks;
      stats_.bytes -= bytes;
    } else {
      ++stats_.misses;
    }
  }
  if (block != nullptr) {
    unpoison(block, bytes);
    telemetry::counter_add(telemetry::Counter::BlockCacheHits);
    return block;
  }
  telemetry::counter_add(telemetry::Counter::BlockCacheMisses);
  return ::operator new(bytes, std::align_val_t{align});
}

void BlockCache::release(void* block, std::size_t bytes,
                         std::size_t align) noexcept {
  if (block == nullptr) return;
  poison(block, bytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_.bytes + bytes <= budget_) {
      try {
        bins_[shape_key(bytes, align)].push_back(block);
        ++stats_.blocks;
        stats_.bytes += bytes;
        return;
      } catch (const std::bad_alloc&) {
        // No room to file it: free it like a release past the budget.
      }
    }
    ++stats_.dropped;
  }
  free_block(block, bytes, align);
}

BlockCacheStats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace bw::runtime
