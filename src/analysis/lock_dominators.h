// Lock-dominator analysis (ROADMAP "static concurrency analysis", ACT13
// LockDomAnalysis shape): for every instruction, the set of lock IDs that
// are *guaranteed* to be held whenever it executes, over all paths and —
// in module mode — through calls. Two accesses with a common dominating
// lock are serialized, which is what both the race checker and
// proof-backed critical-section elision (paper Section III-A,
// optimization 2) actually need; a nonzero lock *depth* does not prove
// mutual exclusion, since different paths may hold different locks.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/function.h"
#include "ir/module.h"

namespace bw::analysis {

/// Forward must-dataflow over sets of constant lock IDs, meet = set
/// intersection, entry = empty set.
///
/// Transfer:
///  * `lock_acquire c` (constant id) adds c; a non-constant id adds
///    nothing (the lock cannot be named, so it cannot be relied on);
///  * `lock_release c` removes c; a non-constant release clobbers the
///    whole set (it may release anything);
///  * a call whose callee transitively contains any lock/unlock clobbers
///    the set (no attempt at context-sensitive summaries — BW-C kernels
///    keep locking in the entry function); lock-free callees are
///    transparent.
class LockDominators {
 public:
  /// Analyze every function in `module`.
  explicit LockDominators(const ir::Module& module);
  /// Analyze one function (callee lock usage is still consulted through
  /// `func.parent()` when the function lives in a module).
  explicit LockDominators(const ir::Function& func);

  /// Sorted lock IDs guaranteed held at `inst`; empty for unknown
  /// instructions and unreachable code.
  const std::vector<std::int64_t>& held_at(const ir::Instruction* inst) const;

  bool any_lock_held(const ir::Instruction* inst) const {
    return !held_at(inst).empty();
  }

  /// True when some single lock is guaranteed held at both `a` and `b`
  /// (every pair of executions of the two is serialized by that lock).
  bool common_lock_held(const ir::Instruction* a,
                        const ir::Instruction* b) const;

 private:
  void analyze_function(const ir::Function& func);
  bool touches_locks(const ir::Function* func);

  std::unordered_map<const ir::Instruction*, std::vector<std::int64_t>> held_;
  std::unordered_map<const ir::Function*, bool> touches_locks_;
};

}  // namespace bw::analysis
