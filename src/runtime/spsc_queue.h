// Lock-free single-producer/single-consumer ring buffer, adapted from
// Lamport's queue (paper Section III-B: one front-end queue per program
// thread, drained by the monitor thread), with two changes that make it
// cost per item carried rather than per ring built:
//
// - Cached opposite indices (FastForward / B-Queue style). The producer
//   keeps a private copy of the consumer's index and re-reads the shared
//   one only when its copy says the ring is full; the consumer does the
//   same with the producer's index when its copy says empty. A push or pop
//   that hits its cache touches only its own cache line.
// - Slots built on first push. Storage is raw memory; the first lap
//   constructs each slot in place and later laps assign to it, so a ring
//   touches only the pages it actually carries items through, and T need
//   not be default-constructible.
//
// No locks, and no dynamic allocation after construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

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
        ::operator new(cap * sizeof(T), std::align_val_t{alignof(T)}));
    mask_ = cap - 1;
  }

  /// Destroys exactly the slots a push ever built. Both sides must be done
  /// with the ring (joined, or otherwise ordered before the destructor).
  ~SpscQueue() {
    std::destroy_n(slots_, constructed_);
    ::operator delete(slots_, std::align_val_t{alignof(T)});
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Returns false when the ring is full (caller decides
  /// whether to spin, back off, or drop).
  bool try_push(const T& item) { return push(item); }

  /// Move-in overload for payloads with an expensive copy. A refused push
  /// leaves `item` intact, so the caller can retry the same payload.
  bool try_push(T&& item) { return push(std::move(item)); }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return false;
    }
    out = slots_[tail];
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return true;
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
  // store after writing (push) or reading (pop) the slot it covers, and
  // the other side only ever learns that index through an acquire load.
  // A cached copy is such an acquire-loaded value, possibly stale, and a
  // stale copy only ever lags the real index: the producer may think the
  // ring fuller than it is, the consumer emptier, so each side still only
  // touches slots the other has handed over. The producer's slot writes
  // (construction included) therefore happen before the consumer's read,
  // and the consumer's read happens before the producer reuses the slot.
  // `constructed_` is read only by the producer and the destructor.
  template <typename U>
  bool push(U&& item) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (next == tail_cache_) return false;
    }
    if (head == constructed_) {  // first lap: the slot is raw memory
      ::new (static_cast<void*>(slots_ + head)) T(std::forward<U>(item));
      ++constructed_;
    } else {
      slots_[head] = std::forward<U>(item);
    }
    head_.store(next, std::memory_order_release);
    return true;
  }

  // Layout: the cold, read-only-after-construction members (slots_, mask_)
  // share one line; each side's index owns a full line together with the
  // private state only that side touches, so a push that hits its cache
  // writes only the producer's line and a pop only the consumer's.
  alignas(64) T* slots_ = nullptr;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer-owned
  std::size_t tail_cache_ = 0;   // producer's view of tail_
  std::size_t constructed_ = 0;  // slots [0, constructed_) hold a T
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer-owned
  std::size_t head_cache_ = 0;   // consumer's view of head_
  // Keeps the consumer's line clear of neighbours.
  char pad_[64 - sizeof(std::atomic<std::size_t>) - sizeof(std::size_t)];
};

}  // namespace bw::runtime
