#include "runtime/branch_table.h"

#include <algorithm>
#include <bit>
#include <span>

#include "runtime/block_cache.h"
#include "support/prng.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

namespace {

constexpr unsigned kMinBranchBits = 4;
constexpr unsigned kMinCellBits = 6;

std::uint64_t level1_key(std::uint64_t ctx_hash, std::uint32_t static_id) {
  return support::hash_combine(ctx_hash, static_id);
}

constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ULL;

/// Fibonacci hashing: the top bits of the product depend on every key bit.
std::size_t branch_home(std::uint64_t key, std::size_t index_size) {
  return static_cast<std::size_t>((key * kFibonacci) >>
                                  (64 - std::countr_zero(index_size)));
}

/// The level-2 hash of one (branch, iteration) pair. Its top 32 bits are
/// the cell tag, and the top `bits` of the tag are the home position, so
/// probing, growth and backward shifting never read the slot back.
std::uint64_t instance_hash(std::uint32_t branch, std::uint64_t iter_hash) {
  return (iter_hash ^ (std::uint64_t{branch} << 40)) * kFibonacci;
}

std::uint32_t cell_tag(std::uint64_t hash) {
  return static_cast<std::uint32_t>(hash >> 32);
}

std::uint32_t home_of(std::uint32_t tag, unsigned bits) {
  return tag >> (32 - bits);
}

}  // namespace

BranchTable::BranchTable(unsigned num_threads,
                         std::size_t max_pending_per_branch,
                         ViolationHook on_violation)
    : num_threads_(num_threads),
      max_pending_per_branch_(max_pending_per_branch),
      on_violation_(std::move(on_violation)),
      slot_stride_(sizeof(Slot) +
                   std::size_t{num_threads} * sizeof(ThreadObservation)) {}

BranchTable::~BranchTable() {
  BlockCache& cache = BlockCache::instance();
  for (std::byte* chunk : chunks_) {
    cache.release(chunk, kChunkSlots * slot_stride_, alignof(Slot));
  }
  cache.release(cells_, cell_count_ * sizeof(std::uint64_t),
                alignof(std::uint64_t));
}

std::uint32_t BranchTable::branch_for(const BranchReport& report) {
  MemoEntry& memo = memo_[report.static_id & (kMemoEntries - 1)];
  if (memo.branch != kNone && memo.static_id == report.static_id &&
      memo.ctx_hash == report.ctx_hash) {
    return memo.branch;
  }
  const std::uint64_t key = level1_key(report.ctx_hash, report.static_id);
  if (2 * (branches_.size() + 1) > branch_index_.size()) grow_branch_index();
  const std::size_t mask = branch_index_.size() - 1;
  std::size_t pos = branch_home(key, branch_index_.size());
  std::uint32_t b = kNone;
  for (;; pos = (pos + 1) & mask) {
    const std::uint32_t cell = branch_index_[pos];
    if (cell == 0) break;
    if (branches_[cell - 1].key == key) {
      b = cell - 1;
      break;
    }
  }
  if (b == kNone) {
    b = static_cast<std::uint32_t>(branches_.size());
    Branch& branch = branches_.emplace_back();
    branch.key = key;
    branch.ctx_hash = report.ctx_hash;
    branch.static_id = report.static_id;
    branch_index_[pos] = b + 1;
  }
  memo = {.ctx_hash = report.ctx_hash,
          .static_id = report.static_id,
          .branch = b};
  return b;
}

void BranchTable::grow_branch_index() {
  const std::size_t size =
      std::max<std::size_t>(branch_index_.size() * 2, 1u << kMinBranchBits);
  branch_index_.assign(size, 0);
  const std::size_t mask = size - 1;
  for (std::size_t b = 0; b < branches_.size(); ++b) {
    std::size_t pos = branch_home(branches_[b].key, size);
    while (branch_index_[pos] != 0) pos = (pos + 1) & mask;
    branch_index_[pos] = static_cast<std::uint32_t>(b + 1);
  }
}

std::uint32_t BranchTable::find_instance(std::uint32_t branch,
                                         std::uint64_t iter_hash,
                                         std::uint64_t hash,
                                         std::size_t& pos) {
  const std::uint32_t tag = cell_tag(hash);
  const std::size_t mask = cell_count_ - 1;
  for (pos = home_of(tag, cell_bits_);; pos = (pos + 1) & mask) {
    const std::uint64_t cell = cells_[pos];
    if (cell == 0) return kNone;
    if (static_cast<std::uint32_t>(cell >> 32) != tag) continue;
    const auto s = static_cast<std::uint32_t>(cell) - 1;
    const Slot& candidate = slot(s);
    if (candidate.branch == branch && candidate.iter_hash == iter_hash) {
      return s;
    }
  }
}

std::size_t BranchTable::cell_of(std::uint32_t s, std::uint64_t hash) const {
  const std::uint64_t slot_bits = std::uint64_t{s} + 1;
  const std::size_t mask = cell_count_ - 1;
  std::size_t pos = home_of(cell_tag(hash), cell_bits_);
  while (static_cast<std::uint32_t>(cells_[pos]) != slot_bits) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

std::uint32_t BranchTable::insert_instance(std::uint32_t branch,
                                           const BranchReport& report,
                                           std::uint64_t hash,
                                           std::size_t pos) {
  std::uint32_t s = free_head_;
  if (s != kNone) {
    free_head_ = slot(s).next;
  } else {
    s = slots_used_++;
    if ((s >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(static_cast<std::byte*>(BlockCache::instance().acquire(
          kChunkSlots * slot_stride_, alignof(Slot))));
    }
  }
  Branch& owner = branches_[branch];
  new (slot_bytes(s)) Slot{.iter_hash = report.iter_hash,
                           .branch = branch,
                           .prev = owner.tail,
                           .check = report.check};
  ThreadObservation* obs = observations(s);
  for (unsigned t = 0; t < num_threads_; ++t) {
    new (obs + t) ThreadObservation{.thread = t};
  }
  if (owner.tail != kNone) {
    slot(owner.tail).next = s;
  } else {
    owner.head = s;
  }
  owner.tail = s;
  ++owner.pending;

  cells_[pos] = (std::uint64_t{cell_tag(hash)} << 32) | (std::uint64_t{s} + 1);
  ++live_;
  return s;
}

void BranchTable::erase_instance(std::uint32_t s, std::size_t hole) {
  Slot& gone = slot(s);
  Branch& owner = branches_[gone.branch];
  if (gone.prev != kNone) {
    slot(gone.prev).next = gone.next;
  } else {
    owner.head = gone.next;
  }
  if (gone.next != kNone) {
    slot(gone.next).prev = gone.prev;
  } else {
    owner.tail = gone.prev;
  }
  --owner.pending;

  // Close the slot's cell by backward shifting: a later cell moves into
  // the hole when the hole lies between its home and it.
  const std::size_t mask = cell_count_ - 1;
  for (std::size_t next = (hole + 1) & mask; cells_[next] != 0;
       next = (next + 1) & mask) {
    const std::size_t home =
        home_of(static_cast<std::uint32_t>(cells_[next] >> 32), cell_bits_);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      cells_[hole] = cells_[next];
      hole = next;
    }
  }
  cells_[hole] = 0;
  --live_;

  gone.next = free_head_;
  free_head_ = s;
}

void BranchTable::grow_cells() {
  const unsigned bits = std::max(cell_bits_ + 1, kMinCellBits);
  const std::size_t count = std::size_t{1} << bits;
  BlockCache& cache = BlockCache::instance();
  auto* grown = static_cast<std::uint64_t*>(
      cache.acquire(count * sizeof(std::uint64_t), alignof(std::uint64_t)));
  std::fill_n(grown, count, 0);
  const std::size_t mask = count - 1;
  for (std::size_t i = 0; i < cell_count_; ++i) {
    const std::uint64_t cell = cells_[i];
    if (cell == 0) continue;
    std::size_t pos = home_of(static_cast<std::uint32_t>(cell >> 32), bits);
    while (grown[pos] != 0) pos = (pos + 1) & mask;
    grown[pos] = cell;
  }
  cache.release(cells_, cell_count_ * sizeof(std::uint64_t),
                alignof(std::uint64_t));
  cells_ = grown;
  cell_count_ = count;
  cell_bits_ = bits;
}

void BranchTable::process(const BranchReport& report, bool degraded) {
  const std::uint32_t branch = branch_for(report);
  const std::uint64_t hash = instance_hash(branch, report.iter_hash);
  if (2 * (std::size_t{live_} + 1) > cell_count_) grow_cells();
  // One probe sequence: it ends at the instance's cell, or at the empty
  // cell where a new instance goes.
  std::size_t pos = 0;
  std::uint32_t s = find_instance(branch, report.iter_hash, hash, pos);
  bool evicted = false;
  if (s == kNone) {
    s = insert_instance(branch, report, hash, pos);
    evicted = evict_oldest(branch, s, degraded);
  }
  ThreadObservation& obs = observations(s)[report.thread];
  if (report.check == CheckCode::PartialValue) {
    obs.has_value = true;
    obs.value = report.value;
  }
  Slot& inst = slot(s);
  if (!obs.has_outcome) ++inst.outcomes_reported;
  obs.has_outcome = true;
  obs.outcome = report.outcome;
  if (inst.outcomes_reported == num_threads_) {
    // Eager path: everyone reported; check and evict. Complete
    // instances are fully trustworthy even when degraded.
    check_instance_now(branch, s);
    // An eviction's backward shift may have moved the new instance's cell.
    erase_instance(s, evicted ? cell_of(s, hash) : pos);
  }
}

bool BranchTable::evict_oldest(std::uint32_t branch, std::uint32_t filing,
                               bool degraded) {
  const Branch& owner = branches_[branch];
  if (owner.pending <= max_pending_per_branch_) return false;
  // Never evict the instance being filed: the caller still writes to it.
  const std::uint32_t oldest = owner.head;
  if (oldest == filing) return false;
  // Evict the oldest pending instance after checking the subset of threads
  // that did report (sound: every check holds on subsets) — unless the
  // monitor is degraded, in which case the missing observations may be
  // dropped reports and the instance is unverifiable.
  if (slot(oldest).outcomes_reported >= 2) {
    if (degraded) {
      ++instances_skipped_;
    } else {
      check_instance_now(branch, oldest);
    }
  }
  ++instances_evicted_;
  erase_instance(oldest,
                 cell_of(oldest, instance_hash(branch, slot(oldest).iter_hash)));
  return true;
}

void BranchTable::check_instance_now(std::uint32_t branch, std::uint32_t s) {
  ++instances_checked_;
  const Slot& instance = slot(s);
  std::optional<std::uint32_t> suspect = check_instance(
      instance.check, std::span<const ThreadObservation>(observations(s),
                                                         num_threads_));
  if (!suspect.has_value()) return;
  Violation v;
  v.static_id = branches_[branch].static_id;
  v.ctx_hash = branches_[branch].ctx_hash;
  v.iter_hash = instance.iter_hash;
  v.check = instance.check;
  v.suspect_thread = *suspect;
  violations_.push_back(v);
  telemetry::counter_add(telemetry::Counter::Violations);
  telemetry::record_event(telemetry::EventKind::Violation,
                          telemetry::Phase::MonitorCheck, v.static_id,
                          v.ctx_hash, v.iter_hash);
  if (on_violation_) on_violation_(v);
}

void BranchTable::finalize(bool degraded) {
  for (std::uint32_t branch = 0; branch < branches_.size(); ++branch) {
    for (std::uint32_t s = branches_[branch].head; s != kNone;
         s = slot(s).next) {
      const std::uint32_t outcomes = slot(s).outcomes_reported;
      if (outcomes < 2) continue;
      if (degraded && outcomes < num_threads_) {
        // Degraded: a missing observation may be a dropped report, so a
        // subset "violation" could be an artifact of the loss. Skip.
        ++instances_skipped_;
        continue;
      }
      check_instance_now(branch, s);
    }
  }
  reset();
}

void BranchTable::clear() {
  reset();
  violations_.clear();
}

void BranchTable::reset() {
  // Emptied indexes and chunks keep their memory for the next section.
  memo_.fill(MemoEntry{});
  if (live_ != 0) std::fill_n(cells_, cell_count_, 0);
  live_ = 0;
  std::fill(branch_index_.begin(), branch_index_.end(), 0);
  branches_.clear();
  slots_used_ = 0;
  free_head_ = kNone;
}

}  // namespace bw::runtime
