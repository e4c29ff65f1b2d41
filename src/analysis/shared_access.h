// Share analysis (ROADMAP "static concurrency analysis", ACT13
// ShareAnalysis shape): which shared locations may each instruction read
// or write, with *symbolic* word offsets precise enough to prove the
// SPMD partitioning idioms of the BW-C kernels disjoint across threads:
//
//   partial[id]              direct thread-indexed slots
//   for (i = id; ...; i += p)         round-robin (mod-class) ownership
//   first = 1 + id*rows; [first,last) contiguous block partitions
//
// Offsets are degree-<=2 polynomials over {tid, nthreads, opaque SSA
// values}; intervals and mod-nthreads residues ride along where loop
// induction variables are recognized. Collection is interprocedural by
// recursive descent from the parallel entry with actual-argument binding;
// every access inside a callee is *anchored* at its top-level call site
// in the entry function, which is what the barrier-phase MHP relation is
// defined over.
//
// The same pass owns the thread-invariance ("uniformity") analysis the
// race checker needs for barrier alignment and branch-refinement
// certificates: a value is thread-invariant when every thread in the same
// barrier phase computes the same value for it. Loads are invariant only
// when no write to the same global can land in any phase region the load
// itself occupies (region-stability) — this is where the share and phase
// analyses meet.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/barrier_phases.h"
#include "ir/function.h"
#include "ir/module.h"

namespace bw::analysis {

// --- Symbolic polynomial domain --------------------------------------------

/// A variable of the symbolic offset domain.
struct SymVar {
  enum class Kind { Tid, NumThreads, Opaque };
  Kind kind = Kind::Opaque;
  const ir::Value* origin = nullptr;  // Opaque: the SSA value it stands for
  int context = 0;                    // evaluation context of `origin`
  bool nonneg = false;                // provably >= 0
};

class SymTable {
 public:
  SymTable();

  int tid_var() const noexcept { return 0; }
  int nthreads_var() const noexcept { return 1; }
  int opaque_var(const ir::Value* origin, int context, bool nonneg);
  const SymVar& var(int id) const { return vars_[static_cast<std::size_t>(id)]; }
  std::size_t size() const noexcept { return vars_.size(); }
  void set_nonneg(int id) { vars_[static_cast<std::size_t>(id)].nonneg = true; }

 private:
  std::vector<SymVar> vars_;
  struct Key {
    const ir::Value* origin;
    int context;
    bool operator==(const Key& o) const {
      return origin == o.origin && context == o.context;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.origin) ^
             (std::hash<int>()(k.context) << 1);
    }
  };
  std::unordered_map<Key, int, KeyHash> opaque_ids_;
};

/// Product of at most two variables (sorted var ids); empty = the constant
/// monomial.
using Monomial = std::vector<int>;

/// c0 + sum(ci * monomial_i), 64-bit coefficients. Coefficients are kept
/// small (|c| < 2^40) so the arithmetic below cannot overflow; operations
/// that would exceed the degree or coefficient budget return nullopt.
struct LinPoly {
  std::int64_t constant = 0;
  std::vector<std::pair<Monomial, std::int64_t>> terms;  // sorted, nonzero

  bool is_constant() const noexcept { return terms.empty(); }
  bool operator==(const LinPoly& o) const {
    return constant == o.constant && terms == o.terms;
  }
};

LinPoly poly_constant(std::int64_t c);
LinPoly poly_var(int var);
LinPoly poly_add(const LinPoly& a, const LinPoly& b);
LinPoly poly_sub(const LinPoly& a, const LinPoly& b);
LinPoly poly_negate(const LinPoly& a);
std::optional<LinPoly> poly_mul(const LinPoly& a, const LinPoly& b);
/// Greatest provable lower bound given tid >= 0, nthreads >= 1 and
/// nonneg-flagged opaques >= 0; nullopt when unbounded below (any term
/// with a negative coefficient or a sign-unknown variable).
std::optional<std::int64_t> poly_min(const LinPoly& p, const SymTable& vars);
/// Substitute `repl` for every occurrence of `var`; nullopt past the
/// degree budget.
std::optional<LinPoly> poly_subst(const LinPoly& p, int var,
                                  const LinPoly& repl);
/// Substitute tid := u + 1 + e (u, e fresh nonneg vars): the canonical
/// "two distinct threads, wlog t > u" rewrite for disjointness proofs.
std::optional<LinPoly> poly_split_tid(const LinPoly& p, const SymTable& vars,
                                      int u_var, int e_var);
/// Drop every term containing the nthreads variable (they are == 0 modulo
/// nthreads) — normalizes mod-class residues.
LinPoly poly_mod_normalize(const LinPoly& p, const SymTable& vars);

/// Abstract value: an exact polynomial (worst case: one fresh opaque
/// variable standing for the SSA value itself), optional inclusive bounds,
/// and an optional residue class modulo nthreads.
struct AbsVal {
  LinPoly exact;
  std::optional<LinPoly> lo, hi;       // lo <= value <= hi
  std::optional<LinPoly> mod_rem;      // value == mod_rem (mod nthreads)
};

/// Residue modulo nthreads: an explicit mod_rem if present, otherwise the
/// exact polynomial normalized (every nthreads-containing term is == 0).
LinPoly residue_of(const AbsVal& v, const SymTable& vars);

// --- Accesses ----------------------------------------------------------------

struct SharedAccess {
  const ir::Instruction* instr = nullptr;   // Load / Store / AtomicAdd
  const ir::Instruction* anchor = nullptr;  // entry-level instruction
  const ir::GlobalVariable* global = nullptr;
  AbsVal offset;                            // word offset within `global`
  bool is_write = false;
  bool is_atomic = false;
  /// True when the collector had to truncate evaluation (call depth or
  /// context budget) and synthesized this record from a syntactic
  /// read/write summary; the offset is then a free variable.
  bool synthetic = false;
};

class SharedAccessAnalysis {
 public:
  SharedAccessAnalysis(const ir::Module& module, const ir::Function& entry,
                       const BarrierPhases& phases);

  const std::vector<SharedAccess>& accesses() const noexcept {
    return accesses_;
  }

  /// Sorted phase-region ids in which `global` may be written (anchored at
  /// entry level). Empty = never written during the parallel phase.
  const std::vector<unsigned>& write_regions(
      const ir::GlobalVariable* global) const;

  /// Uniformity: every thread computes the same value in the same barrier
  /// phase. Defined for values of the entry function.
  bool thread_invariant(const ir::Value* v) const;

  /// Stronger: the value is fixed per thread for the entire parallel run
  /// (built from tid, nthreads, constants and never-parallel-written
  /// globals only). Any one observation of such a predicate stays true.
  bool per_thread_constant(const ir::Value* v) const;

  /// Abstract value of an entry-function SSA value (context 0).
  const AbsVal& abs_value(const ir::Value* v);

  /// Recompute invariance after the phase analysis collapsed to its
  /// conservative single region (alignment verification failed).
  void recompute_invariance();

  const SymTable& symtab() const noexcept { return vars_; }
  /// Mutable access for clients that introduce fresh proof variables
  /// (the race checker's "two distinct threads" split).
  SymTable& symtab_mutable() noexcept { return vars_; }

  /// Opaque variables usable in cross-thread bound comparisons: the
  /// underlying value is thread-invariant (entry-level judgement only;
  /// callee-context opaques are conservatively variant).
  bool var_invariant(int var) const;

  bool truncated() const noexcept { return truncated_; }

 private:
  struct Context;
  void collect(const ir::Function& func, Context& ctx);
  Context* descend(const ir::Instruction* call, Context& ctx);
  AbsVal eval(const ir::Value* v, Context& ctx);
  AbsVal eval_instruction(const ir::Instruction* inst, Context& ctx);
  AbsVal eval_phi(const ir::Instruction* phi, Context& ctx);
  AbsVal eval_call(const ir::Instruction* call, Context& ctx);
  AbsVal opaque(const ir::Value* v, Context& ctx, bool nonneg = false);
  void add_access(const ir::Instruction* inst, Context& ctx,
                  const ir::Value* pointer, bool is_write, bool is_atomic);
  void synthesize_summary_accesses(const ir::Function& func, Context& ctx,
                                   const ir::Instruction* call);
  void compute_write_regions();
  void compute_invariance();
  bool callee_result_invariant(const ir::Function* callee);
  bool global_touched_in_parallel(const ir::GlobalVariable* g) const;

  const ir::Module& module_;
  const ir::Function& entry_;
  const BarrierPhases& phases_;
  SymTable vars_;
  std::vector<SharedAccess> accesses_;
  std::unordered_map<const ir::GlobalVariable*, std::vector<unsigned>>
      write_regions_;
  std::unordered_set<const ir::Value*> variant_;  // entry values NOT invariant
  mutable std::unordered_map<const ir::Value*, bool> ptc_memo_;
  std::unordered_map<const ir::Value*, AbsVal> entry_env_;
  std::unordered_map<const ir::Function*, bool> callee_invariant_memo_;
  int next_context_ = 1;
  int contexts_spent_ = 0;
  bool truncated_ = false;
};

}  // namespace bw::analysis
