// The BLOCKWATCH static similarity analysis (paper Section III-A).
//
// Classifies every SSA value and every branch of the module into the
// categories of Table I by running the optimistic fixpoint of Figure 3 with
// the join rules of Table II, the phi-node special case, and two
// refinements the paper's prose implies but leaves informal:
//
//  * Divergence-aware phi/select demotion: a merge controlled by a
//    non-`shared` branch produces a `partial` value even if all incoming
//    values are `shared` (the paper's `private = phi(1,-1)` case), and a
//    loop-header phi is demoted if the loop has a non-`shared` exit branch
//    (different threads may leave at different trip counts).
//  * An "affine in tid" bit on `threadID` values. The paper's threadID
//    runtime checks (one-deviator for ==, prefix/suffix for </<=...) are
//    only sound when the condition data is an injective, monotone function
//    of the thread id; we track affine integer combinations tid*a+b and
//    fall back to the (always sound) value-grouped `partial` check
//    otherwise. This preserves the paper's zero-false-positive guarantee.
//
// Both optimizations of the paper are implemented and can be toggled:
// promotion of `none` branches to value-grouped partial checks, and
// elision of checks inside critical sections.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/category.h"
#include "ir/module.h"

namespace bw::analysis {

/// The runtime check selected for a branch (consumed by the
/// instrumentation pass and the monitor's checker).
enum class CheckKind {
  Unchecked,         // none category (without promotion), or elided
  SharedOutcome,     // all threads must take the same decision
  ThreadIdEq,        // at most one thread deviates from the majority
  ThreadIdMonotone,  // taken-set is a prefix or suffix of thread-id order
  PartialValue,      // threads with equal condition data agree on outcome
};

const char* to_string(CheckKind kind);

/// How paper optimization 2 (critical-section check elision) decides that
/// a branch needs no cross-thread check:
///  * None        — never elide (ablation baseline; every branch checked).
///  * Syntactic   — the paper's textual rule: any positive lock *depth* at
///                  the branch elides it, even when the lock cannot be
///                  named (non-constant id) or different paths hold
///                  different locks. Unsound in general: depth does not
///                  prove mutual exclusion.
///  * ProofBacked — elide only when the lock-dominator analysis
///                  (lock_dominators.h) proves some named lock is held on
///                  every path to the branch. Branches the syntactic rule
///                  would have skipped but the proof cannot cover are
///                  *promoted* back to checked (BranchInfo::
///                  elision_promoted).
enum class ElisionMode { None, Syntactic, ProofBacked };

const char* to_string(ElisionMode mode);
/// Accepts "none", "syntactic", "proof" / "proof-backed". Returns false
/// (leaving `out` untouched) on anything else.
bool parse_elision_mode(const char* text, ElisionMode& out);

struct BranchInfo {
  const ir::Instruction* branch = nullptr;  // the CondBr
  const ir::Function* function = nullptr;
  Category category = Category::None;  // category of the condition data
  CheckKind check = CheckKind::Unchecked;
  bool promoted = false;                 // none -> partial promotion applied
  bool elided_critical_section = false;  // optimization 2 suppressed checks
  /// ProofBacked mode only: the syntactic rule would have elided this
  /// branch, but no single lock is provably held — the check is kept.
  bool elision_promoted = false;
  bool in_parallel_section = false;
  unsigned loop_depth = 0;
  /// Data operands reported by sendBranchCondition for PartialValue checks
  /// (the compared values; hashed together at runtime).
  std::vector<const ir::Value*> cond_data;
  /// 1-based static branch identifier, unique per module.
  std::uint32_t static_id = 0;
};

struct SimilarityOptions {
  /// Function executed by all threads; everything reachable from it is the
  /// "parallel section". If absent from the module, all functions are
  /// considered parallel (convenient for unit tests).
  std::string parallel_entry = "slave";
  bool promote_none_to_partial = true;   // paper optimization 1
  /// Paper optimization 2 (see ElisionMode). ProofBacked is the default:
  /// it keeps the paper's overhead win for genuinely locked branches while
  /// never eliding a check on the strength of unproven mutual exclusion.
  ElisionMode elision = ElisionMode::ProofBacked;
  bool divergence_aware_phis = true;     // see header comment
  /// Record per-iteration categories of named values (Table III harness).
  bool record_trace = false;
};

struct CategoryCounts {
  int shared = 0;
  int thread_id = 0;
  int partial = 0;
  int none = 0;
  int total() const { return shared + thread_id + partial + none; }
  /// Branches eligible for runtime checking before promotion.
  int similar() const { return shared + thread_id + partial; }
};

struct SimilarityResult {
  std::vector<BranchInfo> branches;
  /// Functions reachable from the parallel entry (the "parallel section").
  std::unordered_set<const ir::Function*> parallel_functions;
  int fixpoint_iterations = 0;

  /// Per-iteration snapshot of named values: trace[i][name] = category
  /// after outer iteration i (only when record_trace was set).
  std::vector<std::unordered_map<std::string, Category>> trace;

  /// Table V: category distribution over parallel-section branches.
  CategoryCounts parallel_counts() const;
  /// Branch counts for the whole module (Table IV "total branches").
  int total_branches() const { return static_cast<int>(branches.size()); }
  int parallel_branches() const;
};

SimilarityResult analyze_similarity(const ir::Module& module,
                                    const SimilarityOptions& options = {});

}  // namespace bw::analysis
