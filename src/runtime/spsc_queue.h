// Lock-free single-producer/single-consumer ring buffer, adapted from
// Lamport's queue (paper Section III-B: one front-end queue per program
// thread, drained by the monitor thread), with four changes that make it
// cost per item carried rather than per ring built or per index bounce:
//
// - Cached opposite indices (FastForward / B-Queue style). The producer
//   keeps a private copy of the consumer's index and re-reads the shared
//   one only when its copy says the ring is full; the consumer does the
//   same with the producer's index when its copy says empty. A push or pop
//   that hits its cache touches only its own cache line.
// - Stride publication. try_stage() writes a slot and advances only the
//   producer's private head; the shared head_ is stored only by publish(),
//   which a producer calls once its staged run reaches kStride items, and
//   before it backs off on a full ring. A consumer that keeps up therefore
//   pulls the producer's line once per stride instead of once per item.
//   discard_staged() takes a staged run back unseen. try_push() publishes
//   on every push.
// - Burst consumption. consume() hands up to `max` slots to a callback in
//   place and frees them all with one tail_ store.
// - Slots built on first push. Storage is raw memory; the first lap
//   constructs each slot in place and later laps assign to it, so T need
//   not be default-constructible and a run touches only the slots it
//   carries items through.
// - Recycled storage. The slot block comes from, and goes back to, the
//   process-wide BlockCache, so the next ring of the same shape reuses
//   pages an earlier run already faulted in. To the new ring the block is
//   raw memory, built again on its first lap.
//
// No locks on the wire, and no dynamic allocation after construction.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "runtime/block_cache.h"

namespace bw::runtime {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two; one slot is sacrificed to
  /// distinguish full from empty.
  explicit SpscQueue(std::size_t capacity_hint = 4096) {
    std::size_t cap = 2;
    while (cap < capacity_hint + 1) cap <<= 1;
    slots_ = static_cast<T*>(
        BlockCache::instance().acquire(cap * sizeof(T), alignof(T)));
    mask_ = cap - 1;
  }

  /// Destroys exactly the slots a push ever built. Both sides must be done
  /// with the ring (joined, or otherwise ordered before the destructor).
  ~SpscQueue() {
    std::destroy_n(slots_, constructed_);
    BlockCache::instance().release(slots_, (mask_ + 1) * sizeof(T),
                                   alignof(T));
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// The run a producer stages before it publishes: staged items become
  /// visible to the consumer together, once this many are staged.
  static constexpr std::size_t kStride = 32;

  /// Producer side. Returns false when the ring is full (caller decides
  /// whether to spin, back off, or drop). The item is visible at once.
  bool try_push(const T& item) {
    if (!push(item)) return false;
    publish_now();
    return true;
  }

  /// Producer side: writes the item without publishing it, adding it to
  /// the staged run. Returns false when the ring is full; the staged run
  /// stays in the ring, so a producer publishes it (the consumer can only
  /// make room behind what it sees) before it retries.
  bool try_stage(const T& item) {
    if (!push(item)) return false;
    ++staged_;
    return true;
  }

  /// Items staged since the last publish or discard (producer side).
  std::size_t staged() const { return staged_; }

  /// Makes every staged item visible to the consumer. Called by the
  /// producer, or by a thread that the producer's last push happens
  /// before (the producer joined, or parked at a barrier).
  void publish() {
    if (staged_ != 0) publish_now();
  }

  /// Takes the staged run back: the private head rewinds to the published
  /// one, so the consumer never sees the run and its slots take the next
  /// items. Same callers as publish().
  void discard_staged() {
    next_ = head_.load(std::memory_order_relaxed);
    staged_ = 0;
  }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) {
    bool popped = false;
    consume(1, [&](T& item) {
      out = item;
      popped = true;
      return true;
    });
    return popped;
  }

  /// Consumer side: hands up to `max` published items, oldest first, to
  /// `f(T&)` in place, stopping early once `f` returns false; then frees
  /// every slot it handed out, the one `f` refused included, with one
  /// store. Returns the number handed out.
  template <typename F>
  std::size_t consume(std::size_t max, F&& f) {
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t ready = (head_cache_ - tail) & mask_;
    if (ready < max) {
      head_cache_ = head_.load(std::memory_order_acquire);
      ready = (head_cache_ - tail) & mask_;
    }
    const std::size_t limit = std::min(ready, max);
    std::size_t handed = 0;
    while (handed < limit) {
      T& item = slots_[tail];
      tail = (tail + 1) & mask_;
      ++handed;
      if (!f(item)) break;
    }
    if (handed != 0) tail_.store(tail, std::memory_order_release);
    return handed;
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  /// Approximate occupancy: racy snapshot of both indices, good enough for
  /// stats and watchdog decisions, never for correctness.
  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (head - tail) & mask_;
  }

  std::size_t capacity() const { return mask_; }

 private:
  // Memory ordering. The owner of an index publishes it with a release
  // store after writing (push) or reading (pop) the slots it covers, and
  // the other side only ever learns that index through an acquire load.
  // A cached copy is such an acquire-loaded value, possibly stale, and a
  // stale copy only ever lags the real index: the producer may think the
  // ring fuller than it is, the consumer emptier, so each side still only
  // touches slots the other has handed over. Staged slots lie between the
  // published head_ and the private next_, which the consumer never reads.
  // The producer's slot writes (construction included) therefore happen
  // before the consumer's read, and the consumer's read happens before the
  // producer reuses the slot. `constructed_` is read only by the producer
  // and the destructor; a discarded run leaves its slots built, so a push
  // builds a slot only when it reaches the first raw one.
  bool push(const T& item) {
    const std::size_t head = next_;
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (next == tail_cache_) return false;
    }
    if (head == constructed_) {  // first lap: the slot is raw memory
      ::new (static_cast<void*>(slots_ + head)) T(item);
      ++constructed_;
    } else {
      slots_[head] = item;
    }
    next_ = next;
    return true;
  }

  void publish_now() {
    staged_ = 0;
    head_.store(next_, std::memory_order_release);
  }

  // Layout: the cold, read-only-after-construction members (slots_, mask_)
  // share one group. The published head_ owns a group the producer writes
  // once per stride; the producer's private state (its real head, its view
  // of tail_) owns another that only it touches; and the consumer's index
  // owns a third with the consumer's view of head_. So a staged push that
  // hits its cache writes only the producer's private group, and a pop
  // only the consumer's. A group is 128 bytes, not one 64-byte line: the
  // adjacent-line prefetcher moves lines in pairs, and a private line
  // paired with the other side's would still be pulled across.
  static constexpr std::size_t kGroup = 128;
  alignas(kGroup) T* slots_ = nullptr;
  std::size_t mask_ = 0;
  alignas(kGroup) std::atomic<std::size_t> head_{0};  // published by producer
  alignas(kGroup) std::size_t next_ = 0;  // producer's head, staged included
  std::size_t staged_ = 0;                // pushed since the last publish
  std::size_t tail_cache_ = 0;            // producer's view of tail_
  std::size_t constructed_ = 0;           // slots [0, constructed_) hold a T
  alignas(kGroup) std::atomic<std::size_t> tail_{0};  // consumer-owned
  std::size_t head_cache_ = 0;  // consumer's view of head_
  // Keeps the consumer's group clear of neighbours.
  char pad_[kGroup - sizeof(std::atomic<std::size_t>) - sizeof(std::size_t)];
};

/// One ring per (producer, consumer) pair of a sink: every ring keeps
/// exactly one producer and one consumer, so the whole fabric stays
/// lock-free. The Monitor is the one-consumer case.
template <typename T>
class RingMatrix {
 public:
  RingMatrix(unsigned producers, unsigned consumers,
             std::size_t capacity_hint)
      : producers_(producers), consumers_(consumers) {
    rings_.reserve(std::size_t{producers} * consumers);
    for (std::size_t i = 0; i < std::size_t{producers} * consumers; ++i) {
      rings_.push_back(std::make_unique<SpscQueue<T>>(capacity_hint));
    }
  }

  SpscQueue<T>& at(unsigned producer, unsigned consumer) {
    return *rings_[std::size_t{producer} * consumers_ + consumer];
  }
  unsigned producers() const { return producers_; }
  bool empty() const {
    for (const auto& ring : rings_) {
      if (!ring->empty()) return false;
    }
    return true;
  }

 private:
  unsigned producers_;
  unsigned consumers_;
  std::vector<std::unique_ptr<SpscQueue<T>>> rings_;
};

}  // namespace bw::runtime
