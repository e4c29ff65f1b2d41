// The per-branch instance state machine shared by every monitor backend:
// the paper's two-level table, keyed by (ctx_hash + static branch id,
// outer-loop iteration vector), holding partially-observed branch
// instances, with the paper's eager check (all threads reported),
// bounded-pending eviction (subset checks are sound), and the
// end-of-section finalize pass.
//
// Every owner of branch state — the legacy single consumer and each
// (session, shard) tenant slot of the MonitorService — runs the SAME
// lifecycle on its own partition of the key space. The monitor differential suite pins the
// verdict semantics; keying a table per tenant is what makes cross-tenant
// verdict interference impossible by construction.
//
// Layout. The two-level key is kept as a logical key; physically the
// table is flat, so that filing and checking never touch the heap once
// the table has grown to its working size:
//   * Level 1: a small open-addressed index from the level-1 key to a
//     dense Branch entry (static_id, ctx_hash, pending count, and the
//     head/tail of an insertion-order list of its pending instances),
//     fronted by a 64-entry direct-mapped memo of recent (ctx_hash,
//     static_id) -> branch lookups, so a hot branch skips the probe.
//   * Level 2: an open-addressed index of 8-byte cells (32-bit hash tag,
//     slot + 1) from (branch, iter_hash) to a slot; linear probing with
//     backward-shift deletion, so there are no tombstones. Filing a
//     report runs one probe sequence: a new instance takes the empty
//     cell the lookup stopped at, and the eager erase starts from the
//     found cell.
//   * Slots: one per pending instance, holding its metadata (32 bytes)
//     and num_threads ThreadObservations (16 bytes each) indexed by thread
//     id, in fixed-size chunks of kChunkSlots. Freed slots go on a free
//     list; chunks are kept across finalize()/clear() and are never moved,
//     so growth never copies. A pending instance costs
//     32 + 16 * num_threads bytes of slot plus 16-32 bytes of index cells.
//
// Memory. The chunks and the cell index are the buffers that grow with a
// run's traffic; they come from the process-wide BlockCache and go back to
// it when the table is destroyed (or, for an outgrown cell index, when it
// grows), so the next run's table reuses pages already faulted in. A
// recycled block is raw memory: every slot and observation is placement-
// built when handed out, and the cell index is zeroed when taken.
//
// Order. Eviction is FIFO per branch: the oldest pending instance (the
// list head) goes first, in O(1), and the instance being filed is never
// evicted. finalize() visits branches in first-seen order and each
// branch's instances in insertion order, so violations come out in a
// deterministic order.
//
// Threading: a BranchTable is owned by exactly one consumer thread; it
// performs no synchronization of its own. Violation side effects that
// must escape the owner (violation counters, sampling snap-back) are the
// owner's job, via the on_violation hook.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <new>
#include <vector>

#include "runtime/checker.h"
#include "runtime/report.h"

namespace bw::runtime {

class BranchTable {
 public:
  /// Invoked synchronously (on the owning consumer thread) for every
  /// violation appended to violations().
  using ViolationHook = std::function<void(const Violation&)>;

  BranchTable(unsigned num_threads, std::size_t max_pending_per_branch,
              ViolationHook on_violation = {});
  /// Gives the chunks and the cell index back to the BlockCache.
  ~BranchTable();

  BranchTable(const BranchTable&) = delete;
  BranchTable& operator=(const BranchTable&) = delete;

  /// File one report. Eagerly checks-and-erases instances once every
  /// thread reported an outcome; evicts the oldest pending instance of an
  /// over-cap branch (checked as a subset unless `degraded`).
  void process(const BranchReport& report, bool degraded);

  /// End-of-section residual pass: check every pending instance with >= 2
  /// outcomes (skipped as unverifiable when `degraded` and incomplete),
  /// then drop the table. Violations accumulate across calls.
  void finalize(bool degraded);

  /// Discard every pending instance AND every recorded violation (the
  /// timeline they belong to is being rolled back). Counters other than
  /// the violation list are left untouched, as before the extraction.
  void clear();

  bool empty() const { return branches_.empty(); }

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t instances_checked() const { return instances_checked_; }
  std::uint64_t instances_evicted() const { return instances_evicted_; }
  std::uint64_t instances_skipped() const { return instances_skipped_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::size_t kMemoEntries = 64;

  struct MemoEntry {  // a recent level-1 lookup, by static_id mod 64
    std::uint64_t ctx_hash = 0;
    std::uint32_t static_id = 0;
    std::uint32_t branch = kNone;  // kNone: empty
  };

  struct Branch {  // one level-1 key: a (ctx, static_id) pair
    std::uint64_t key = 0;
    std::uint64_t ctx_hash = 0;
    std::uint32_t static_id = 0;
    std::uint32_t pending = 0;
    std::uint32_t head = kNone;  // oldest pending slot
    std::uint32_t tail = kNone;  // newest pending slot
  };
  struct Slot {  // one pending instance; its observations sit in the chunk
    std::uint64_t iter_hash = 0;
    std::uint32_t branch = 0;
    std::uint32_t prev = kNone;  // insertion-order list within the branch
    std::uint32_t next = kNone;  // (also links the free list)
    std::uint32_t outcomes_reported = 0;
    CheckCode check = CheckCode::SharedOutcome;
  };
  static_assert(sizeof(Slot) % alignof(ThreadObservation) == 0);

  // A slot's metadata is followed directly by its observations.
  std::byte* slot_bytes(std::uint32_t s) {
    return chunks_[s >> kChunkShift] +
           std::size_t{s & (kChunkSlots - 1)} * slot_stride_;
  }
  Slot& slot(std::uint32_t s) {
    return *std::launder(reinterpret_cast<Slot*>(slot_bytes(s)));
  }
  ThreadObservation* observations(std::uint32_t s) {
    return std::launder(
        reinterpret_cast<ThreadObservation*>(slot_bytes(s) + sizeof(Slot)));
  }

  std::uint32_t branch_for(const BranchReport& report);
  void grow_branch_index();
  /// The slot of (branch, iter_hash), or kNone; either way `pos` is the
  /// cell the probe stopped at: the instance's, or the empty one after it.
  std::uint32_t find_instance(std::uint32_t branch, std::uint64_t iter_hash,
                              std::uint64_t hash, std::size_t& pos);
  /// The cell holding slot `s`, whose instance hash is `hash`.
  std::size_t cell_of(std::uint32_t s, std::uint64_t hash) const;
  /// Files a new instance into the empty cell `pos` its probe ended at.
  std::uint32_t insert_instance(std::uint32_t branch,
                                const BranchReport& report,
                                std::uint64_t hash, std::size_t pos);
  /// Erases slot `s`, whose cell is `pos`.
  void erase_instance(std::uint32_t s, std::size_t pos);
  void grow_cells();
  /// Returns whether an instance was evicted.
  bool evict_oldest(std::uint32_t branch, std::uint32_t filing,
                    bool degraded);
  void check_instance_now(std::uint32_t branch, std::uint32_t s);
  void reset();

  unsigned num_threads_;
  std::size_t max_pending_per_branch_;
  ViolationHook on_violation_;

  std::array<MemoEntry, kMemoEntries> memo_{};  // cleared by reset()
  std::vector<Branch> branches_;            // first-seen order
  std::vector<std::uint32_t> branch_index_;  // branch + 1, 0 = empty
  std::uint64_t* cells_ = nullptr;          // tag << 32 | (slot + 1)
  std::size_t cell_count_ = 0;              // 0, or 1 << cell_bits_
  unsigned cell_bits_ = 0;
  std::uint32_t live_ = 0;                  // pending instances
  std::size_t slot_stride_;  // sizeof(Slot) + observations
  std::vector<std::byte*> chunks_;  // kChunkSlots * slot_stride_ each
  std::uint32_t slots_used_ = 0;  // slots ever handed out since reset()
  std::uint32_t free_head_ = kNone;

  std::uint64_t instances_checked_ = 0;
  std::uint64_t instances_evicted_ = 0;
  std::uint64_t instances_skipped_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace bw::runtime
