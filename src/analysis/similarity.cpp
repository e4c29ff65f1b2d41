#include "analysis/similarity.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "analysis/lock_dominators.h"
#include "ir/dominators.h"
#include "ir/loop_info.h"
#include "support/diagnostics.h"

namespace bw::analysis {

using namespace bw::ir;

const char* to_string(CheckKind kind) {
  switch (kind) {
    case CheckKind::Unchecked: return "unchecked";
    case CheckKind::SharedOutcome: return "shared-outcome";
    case CheckKind::ThreadIdEq: return "threadid-eq";
    case CheckKind::ThreadIdMonotone: return "threadid-monotone";
    case CheckKind::PartialValue: return "partial-value";
  }
  return "<bad-check>";
}

const char* to_string(ElisionMode mode) {
  switch (mode) {
    case ElisionMode::None: return "none";
    case ElisionMode::Syntactic: return "syntactic";
    case ElisionMode::ProofBacked: return "proof-backed";
  }
  return "<bad-elision>";
}

bool parse_elision_mode(const char* text, ElisionMode& out) {
  std::string_view s(text);
  if (s == "none") {
    out = ElisionMode::None;
  } else if (s == "syntactic") {
    out = ElisionMode::Syntactic;
  } else if (s == "proof" || s == "proof-backed") {
    out = ElisionMode::ProofBacked;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Safety valve for the fixpoint (paper: worst case O(N) iterations; in
/// practice < 10).
constexpr int kMaxFixpointIterations = 10000;

/// The paper's original textual critical-section rule, kept only as the
/// `ElisionMode::Syntactic` ablation arm: forward must-dataflow of lock
/// *depth* (meet = min over predecessors), where every acquire counts —
/// even one whose id is not a compile-time constant — releases floor at
/// zero, and calls are transparent. Depth > 0 does not prove mutual
/// exclusion (paths may hold *different* locks); LockDominators carries
/// the proof-backed replacement.
class SyntacticLockDepth {
 public:
  explicit SyntacticLockDepth(const Function& func) {
    std::unordered_map<const BasicBlock*, int> entry_depth;
    constexpr int kUnknown = -1;
    for (const auto& bb : func.blocks()) entry_depth[bb.get()] = kUnknown;
    if (!func.empty()) entry_depth[func.blocks().front().get()] = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& bb : func.blocks()) {
        int depth = entry_depth[bb.get()];
        if (depth == kUnknown) continue;
        for (const auto& inst : bb->instructions()) {
          depth_[inst.get()] = depth;
          if (inst->opcode() == Opcode::LockAcquire) {
            ++depth;
          } else if (inst->opcode() == Opcode::LockRelease) {
            depth = std::max(0, depth - 1);
          }
        }
        const Instruction* term = bb->terminator();
        if (term == nullptr) continue;
        for (const BasicBlock* succ : term->successors()) {
          int& cur = entry_depth[succ];
          int next = cur == kUnknown ? depth : std::min(cur, depth);
          if (next != cur) {
            cur = next;
            changed = true;
          }
        }
      }
    }
  }

  int depth_at(const Instruction* inst) const {
    auto it = depth_.find(inst);
    return it == depth_.end() ? 0 : it->second;
  }

 private:
  std::unordered_map<const Instruction*, int> depth_;
};

class Analysis {
 public:
  Analysis(const Module& module, const SimilarityOptions& options)
      : module_(module), options_(options) {}

  SimilarityResult run() {
    prepare_function_info();
    if (options_.divergence_aware_phis) prepare_divergence_info();

    // --- Fixpoint of paper Figure 3 ------------------------------------
    bool changed = true;
    int iterations = 0;
    while (changed) {
      changed = false;
      BW_INTERNAL_CHECK(iterations < kMaxFixpointIterations,
                        "similarity fixpoint did not converge");
      for (const auto& func : module_.functions()) {
        for (const auto& bb : func->blocks()) {
          for (const auto& inst : bb->instructions()) {
            changed = visit(inst.get()) || changed;
          }
        }
      }
      ++iterations;
      if (options_.record_trace) record_trace_snapshot();
    }

    compute_tid_properties();
    classify_branches();

    SimilarityResult result;
    result.branches = std::move(branches_);
    for (const auto& [func, info] : func_info_) {
      if (info.in_parallel_section) result.parallel_functions.insert(func);
    }
    result.fixpoint_iterations = iterations;
    result.trace = std::move(trace_);
    return result;
  }

 private:
  struct FunctionInfo {
    std::unique_ptr<DominatorTree> domtree;
    std::unique_ptr<LoopInfo> loops;
    std::unique_ptr<LockDominators> locks;     // proof-backed (must-held set)
    std::unique_ptr<SyntacticLockDepth> depth;  // syntactic ablation arm
    bool in_parallel_section = false;
  };

  void prepare_function_info() {
    for (const auto& func : module_.functions()) {
      if (func->empty()) continue;
      FunctionInfo info;
      info.domtree = std::make_unique<DominatorTree>(*func);
      info.loops = std::make_unique<LoopInfo>(*func, *info.domtree);
      info.locks = std::make_unique<LockDominators>(*func);
      info.depth = std::make_unique<SyntacticLockDepth>(*func);
      func_info_.emplace(func.get(), std::move(info));
    }

    // Parallel section = call-graph reachability from the parallel entry.
    const Function* entry = module_.find_function(options_.parallel_entry);
    if (entry == nullptr) {
      for (auto& [func, info] : func_info_) {
        (void)func;
        info.in_parallel_section = true;
      }
      return;
    }
    std::vector<const Function*> worklist{entry};
    std::unordered_set<const Function*> reached;
    while (!worklist.empty()) {
      const Function* f = worklist.back();
      worklist.pop_back();
      if (!reached.insert(f).second) continue;
      auto it = func_info_.find(f);
      if (it != func_info_.end()) it->second.in_parallel_section = true;
      for (const auto& bb : f->blocks()) {
        for (const auto& inst : bb->instructions()) {
          if (inst->opcode() == Opcode::Call) {
            worklist.push_back(inst->callee());
          }
        }
      }
    }
  }

  /// Divergence bookkeeping, all static:
  ///  * per loop: its exit branches (CondBr terminators with an edge out);
  ///  * per instruction: the loops it is defined in but used outside of
  ///    ("escaped" loops) — only for iteration-VARYING instructions;
  ///  * "varies": the value can differ between iterations of an enclosing
  ///    loop (transitively reaches a loop phi, a load, an atomic, a call).
  ///
  /// A varying value that escapes a loop whose trip count can differ
  /// across threads (a non-`shared` exit branch) reaches code where the
  /// instance key no longer includes that loop's counter, so cross-thread
  /// equality of the *last* value is not implied by per-iteration
  /// similarity: demote to `partial` (value-grouped checks stay sound).
  void prepare_divergence_info() {
    for (const auto& func : module_.functions()) {
      auto it = func_info_.find(func.get());
      if (it == func_info_.end()) continue;
      const LoopInfo& loops = *it->second.loops;

      for (const auto& loop : loops.loops()) {
        std::vector<const Instruction*> exits;
        for (const BasicBlock* bb : loop->blocks) {
          const Instruction* term = bb->terminator();
          if (term == nullptr || !term->is_cond_branch()) continue;
          for (const BasicBlock* succ : term->successors()) {
            if (!loop->contains(succ)) {
              exits.push_back(term);
              break;
            }
          }
        }
        loop_exits_[loop.get()] = std::move(exits);
      }

      // "varies": forward fixpoint over the function.
      std::unordered_set<const Instruction*> varies;
      bool changed = true;
      while (changed) {
        changed = false;
        for (const auto& bb : func->blocks()) {
          const Loop* innermost = loops.loop_for(bb.get());
          for (const auto& inst : bb->instructions()) {
            if (inst->type() == Type::Void) continue;
            if (varies.count(inst.get()) != 0) continue;
            bool v = false;
            if (innermost != nullptr) {
              switch (inst->opcode()) {
                case Opcode::Load:
                case Opcode::AtomicAdd:
                case Opcode::Call:
                case Opcode::HashRand:
                  v = true;  // may read different data each iteration
                  break;
                case Opcode::Phi:
                  // Header phi with a latch incoming varies by definition.
                  for (const BasicBlock* in : inst->incoming_blocks()) {
                    const Loop* l = loops.loop_for(bb.get());
                    if (l != nullptr && l->header == bb.get() &&
                        l->contains(in)) {
                      v = true;
                    }
                  }
                  break;
                default:
                  break;
              }
            }
            for (const Value* op : inst->operands()) {
              const auto* def = dyn_cast<Instruction>(op);
              if (def != nullptr && varies.count(def) != 0) v = true;
            }
            if (v) {
              varies.insert(inst.get());
              changed = true;
            }
          }
        }
      }

      // Escaped loops for varying instructions: def inside L, a use
      // outside L.
      std::unordered_map<const Instruction*, std::vector<const BasicBlock*>>
          use_blocks;
      for (const auto& bb : func->blocks()) {
        for (const auto& inst : bb->instructions()) {
          for (std::size_t i = 0; i < inst->num_operands(); ++i) {
            const auto* def = dyn_cast<Instruction>(inst->operand(i));
            if (def == nullptr) continue;
            // Phi uses occur at the end of the incoming block.
            const BasicBlock* where =
                inst->is_phi() ? inst->incoming_blocks()[i] : bb.get();
            use_blocks[def].push_back(where);
          }
        }
      }
      for (const auto& bb : func->blocks()) {
        for (const auto& inst : bb->instructions()) {
          if (inst->type() == Type::Void) continue;
          if (varies.count(inst.get()) == 0) continue;
          auto uses_it = use_blocks.find(inst.get());
          if (uses_it == use_blocks.end()) continue;
          for (const Loop* l = loops.loop_for(bb.get()); l != nullptr;
               l = l->parent) {
            for (const BasicBlock* use_bb : uses_it->second) {
              if (!l->contains(use_bb)) {
                escaped_loops_[inst.get()].push_back(l);
                break;
              }
            }
          }
        }
      }
    }
  }

  // --- Category lookups ------------------------------------------------------

  Category category_of(const Value* v) const {
    switch (v->kind()) {
      case ValueKind::ConstantInt:
      case ValueKind::ConstantFloat:
      case ValueKind::GlobalVariable:
        return Category::Shared;
      case ValueKind::Argument: {
        auto it = arg_categories_.find(static_cast<const Argument*>(v));
        return it == arg_categories_.end() ? Category::NA : it->second;
      }
      case ValueKind::Instruction: {
        auto it = categories_.find(static_cast<const Instruction*>(v));
        return it == categories_.end() ? Category::NA : it->second;
      }
    }
    return Category::None;
  }

  /// Demote values whose per-iteration similarity does not survive a
  /// divergent-trip loop exit (see prepare_divergence_info).
  Category apply_escape_demotion(const Instruction* inst,
                                 Category category) const {
    if (!options_.divergence_aware_phis || category == Category::NA) {
      return category;
    }
    auto it = escaped_loops_.find(inst);
    if (it == escaped_loops_.end()) return category;
    for (const Loop* loop : it->second) {
      for (const Instruction* exit : loop_exits_.at(loop)) {
        Category bc = category_of(exit->operand(0));
        if (bc != Category::NA && bc != Category::Shared) {
          return join(category, Category::Partial);
        }
      }
    }
    return category;
  }

  bool update(const Instruction* inst, Category category) {
    category = apply_escape_demotion(inst, category);
    BW_INTERNAL_CHECK(
        monotone_le(category_of(inst), category),
        std::string("similarity category regressed at ") +
            ir::to_string(inst->opcode()));
    auto [it, inserted] = categories_.emplace(inst, category);
    if (!inserted) {
      if (it->second == category) return false;
      it->second = category;
    }
    return true;
  }

  // --- The transfer functions -------------------------------------------------

  bool visit(const Instruction* inst) {
    switch (inst->opcode()) {
      case Opcode::Tid:
        return update(inst, Category::ThreadID);
      case Opcode::NumThreads:
        return update(inst, Category::Shared);
      case Opcode::AtomicAdd: {
        // The classic unique-id idiom `procid = id++` on a shared cell:
        // per-thread-distinct values, i.e. threadID similarity. (Injective
        // but not monotone in tid — usable for equality checks only; see
        // compute_tid_properties.)
        Category ptr = category_of(inst->operand(0));
        if (ptr == Category::NA) return false;
        return update(inst, ptr == Category::Shared ? Category::ThreadID
                                                    : Category::None);
      }
      case Opcode::Load: {
        Category ptr = category_of(inst->operand(0));
        if (ptr == Category::NA) return false;
        return update(inst, ptr == Category::Shared ? Category::Shared
                                                    : Category::None);
      }
      case Opcode::Phi:
        return visit_phi(inst);
      case Opcode::Select:
        return visit_select(inst);
      case Opcode::Call:
        return visit_call(inst);
      case Opcode::Ret:
        return visit_ret(inst);
      default:
        if (inst->is_pure_computation()) return visit_pure(inst);
        return false;  // void/control/instrumentation: no category
    }
  }

  /// Paper's visitInst: walk operands; any NA operand aborts the visit
  /// ("the instruction will be revisited later").
  bool visit_pure(const Instruction* inst) {
    Category cur = Category::NA;
    for (const Value* op : inst->operands()) {
      Category oc = category_of(op);
      if (oc == Category::NA) return false;
      cur = join(cur, oc);
    }
    return update(inst, cur);
  }

  bool visit_phi(const Instruction* phi) {
    // Optimistic join (skip NA operands): this is the only reading under
    // which the paper's own Table III example converges — the loop phi
    // i = phi(0, i+1) becomes `shared` while i+1 is still NA.
    Category cur = Category::NA;
    for (const Value* op : phi->operands()) {
      Category oc = category_of(op);
      if (oc == Category::NA) continue;
      cur = join(cur, oc);
    }
    if (cur == Category::NA) return false;

    if (options_.divergence_aware_phis) {
      cur = join(cur, control_category(phi));
    }
    return update(phi, cur);
  }

  /// Divergence contribution of the merge's controlling branches: Shared if
  /// every controlling branch is `shared` (or still NA — optimistic),
  /// Partial otherwise. Loop-header phis are exempt: within one keyed
  /// iteration instance every thread arrived over the same edge kind, and
  /// trip-count divergence is handled by escape demotion instead.
  Category control_category(const Instruction* phi) {
    auto it = controlling_.find(phi);
    if (it == controlling_.end()) {
      it = controlling_.emplace(phi, compute_controlling(phi)).first;
    }
    for (const Instruction* branch : it->second) {
      Category bc = category_of(branch->operand(0));
      if (bc == Category::NA || bc == Category::Shared) continue;
      return Category::Partial;
    }
    return Category::Shared;
  }

  std::vector<const Instruction*> compute_controlling(
      const Instruction* phi) const {
    const BasicBlock* merge = phi->parent();
    const Function* func = merge->parent();
    const FunctionInfo& info = func_info_.at(func);

    const Loop* loop = info.loops->loop_for(merge);
    if (loop != nullptr && loop->header == merge) {
      for (const BasicBlock* in : phi->incoming_blocks()) {
        if (loop->contains(in)) return {};  // loop-header phi: exempt
      }
    }

    // Plain merge: all conditional branches in the region between the
    // nearest common dominator of the incoming edges and the merge block.
    // Overapproximates exact control dependence (safely).
    if (phi->incoming_blocks().empty()) return {};
    BasicBlock* ncd = phi->incoming_blocks()[0];
    for (const BasicBlock* in : phi->incoming_blocks()) {
      if (!info.domtree->is_reachable(in)) continue;
      ncd = info.domtree->nearest_common_dominator(ncd, in);
    }

    // Forward reachability from ncd (not crossing merge).
    std::unordered_set<const BasicBlock*> forward{ncd};
    std::vector<const BasicBlock*> worklist{ncd};
    while (!worklist.empty()) {
      const BasicBlock* bb = worklist.back();
      worklist.pop_back();
      if (bb == merge) continue;
      for (const BasicBlock* succ : bb->successors()) {
        if (forward.insert(succ).second) worklist.push_back(succ);
      }
    }
    // Backward reachability from merge (not crossing ncd).
    std::unordered_set<const BasicBlock*> backward{merge};
    worklist.push_back(merge);
    while (!worklist.empty()) {
      const BasicBlock* bb = worklist.back();
      worklist.pop_back();
      if (bb == ncd) continue;
      for (const BasicBlock* pred : bb->predecessors()) {
        if (backward.insert(pred).second) worklist.push_back(pred);
      }
    }

    std::vector<const Instruction*> controls;
    for (const BasicBlock* bb : forward) {
      if (bb == merge || backward.count(bb) == 0) continue;
      const Instruction* term = bb->terminator();
      if (term != nullptr && term->is_cond_branch()) {
        controls.push_back(term);
      }
    }
    return controls;
  }

  bool visit_select(const Instruction* inst) {
    Category a = category_of(inst->operand(1));
    Category b = category_of(inst->operand(2));
    Category cond = category_of(inst->operand(0));
    if (a == Category::NA || b == Category::NA || cond == Category::NA) {
      return false;
    }
    Category cur = join(join(Category::NA, a), b);
    if (options_.divergence_aware_phis && cond != Category::Shared) {
      cur = join(cur, Category::Partial);
    }
    return update(inst, cur);
  }

  bool visit_call(const Instruction* inst) {
    bool changed = false;
    // Propagate actual-argument categories into the callee's formals.
    // Per the paper's multiple-instances policy, runtime instances are
    // keyed by call site, so two `shared` call sites keep the formal
    // `shared` (Table III's `arg`).
    const Function* callee = inst->callee();
    for (std::size_t i = 0; i < inst->num_operands(); ++i) {
      Category oc = category_of(inst->operand(i));
      if (oc == Category::NA) continue;
      const Argument* formal = callee->arg(i);
      Category cur = category_of(formal);
      Category merged = join(cur, oc);
      if (merged != cur) {
        arg_categories_[formal] = merged;
        changed = true;
      }
    }
    // Result category: the callee's return category.
    if (inst->type() != Type::Void) {
      auto it = ret_categories_.find(callee);
      if (it != ret_categories_.end() && it->second != Category::NA) {
        changed = update(inst, it->second) || changed;
      }
    }
    return changed;
  }

  bool visit_ret(const Instruction* inst) {
    if (inst->num_operands() == 0) return false;
    Category oc = category_of(inst->operand(0));
    if (oc == Category::NA) return false;
    const Function* func = inst->parent()->parent();
    Category cur = Category::NA;
    auto it = ret_categories_.find(func);
    if (it != ret_categories_.end()) cur = it->second;
    Category merged = join(cur, oc);
    if (merged == cur) return false;
    ret_categories_[func] = merged;
    return true;
  }

  // --- threadID value properties (post-fixpoint) --------------------------------
  //
  // The dedicated threadID checks are only sound when the condition data is
  // a suitable function of the thread id:
  //  * `affine`   — tid*a + b with shared a, b: monotone and injective (or
  //                 degenerate all-equal); enables the prefix/suffix check
  //                 for ordered comparisons.
  //  * `eq_sound` — values are pairwise distinct or all equal at every
  //                 instance (affine values, atomic_add tickets, and their
  //                 shared-offset combinations); enables the one-deviator
  //                 check for ==/!=.
  // Both are greatest fixpoints (optimistic start, strike out violators),
  // evaluated against the final categories. Integer-only: float rounding
  // breaks injectivity. Overflow is assumed absent for realistic thread
  // counts (documented deviation).

  void compute_tid_properties() {
    // Optimistic initialization: every ThreadID-categorized instruction.
    for (const auto& [inst, cat] : categories_) {
      if (cat == Category::ThreadID) {
        affine_.insert(inst);
        eq_sound_.insert(inst);
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto it = affine_.begin(); it != affine_.end();) {
        if (!affine_holds(*it)) {
          it = affine_.erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
      for (auto it = eq_sound_.begin(); it != eq_sound_.end();) {
        if (!eq_sound_holds(*it)) {
          it = eq_sound_.erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
    }
    compute_affine_scales();
  }

  // --- Symbolic affine scales -----------------------------------------------
  //
  // For each affine value we additionally track WHICH shared multiplier it
  // carries: value = tid * scale + offset, with `scale` identified by the
  // SSA value that produced it (nullptr = the literal scale 1, i.e. tid
  // itself) and a negation bit. When a comparison's two sides carry the
  // SAME (scale, negation), the tid term cancels: the outcome is identical
  // across threads and the branch gets the strong SharedOutcome check.
  // This catches the classic block-partition idiom
  //     for (i = tid*chunk; i < tid*chunk + chunk; ++i)
  // whose endpoint-thread deviations the prefix/suffix monotone check is
  // structurally blind to. Sound regardless of the runtime scale value
  // (even 0): tid*s - tid*s == 0 always.

  struct AffineScale {
    const Value* scale = nullptr;  // nullptr = 1 (bare tid)
    bool negated = false;
    bool known = false;  // scale identified?
    bool computed = false;

    bool matches(const AffineScale& other) const {
      return computed && other.computed && known && other.known &&
             scale == other.scale && negated == other.negated;
    }
  };

  void compute_affine_scales() {
    bool changed = true;
    int rounds = 0;
    while (changed && rounds++ < 100) {
      changed = false;
      for (const Instruction* inst : affine_) {
        AffineScale next = derive_scale(inst);
        AffineScale& cur = affine_scales_[inst];
        if (next.computed &&
            (!cur.computed || cur.known != next.known ||
             cur.scale != next.scale || cur.negated != next.negated)) {
          cur = next;
          changed = true;
        }
      }
    }
  }

  bool is_shared_value(const Value* v) const {
    return category_of(v) == Category::Shared;
  }

  AffineScale scale_of_operand(const Value* v) const {
    AffineScale none;
    const auto* def = dyn_cast<Instruction>(v);
    if (def == nullptr || affine_.count(def) == 0) return none;
    auto it = affine_scales_.find(def);
    return it == affine_scales_.end() ? none : it->second;
  }

  AffineScale derive_scale(const Instruction* inst) const {
    AffineScale result;
    switch (inst->opcode()) {
      case Opcode::Tid:
        result.computed = true;
        result.known = true;
        result.scale = nullptr;
        return result;
      case Opcode::Add:
      case Opcode::Sub: {
        const Value* a = inst->operand(0);
        const Value* b = inst->operand(1);
        bool a_shared = is_shared_value(a);
        bool b_shared = is_shared_value(b);
        if (a_shared == b_shared) {
          // tid on both sides (e.g. tid + tid): representable only as an
          // unknown scale.
          result.computed = true;
          result.known = false;
          return result;
        }
        AffineScale inner = scale_of_operand(a_shared ? b : a);
        if (!inner.computed) return result;  // wait for the operand
        result = inner;
        // shared - x negates the tid coefficient.
        if (inst->opcode() == Opcode::Sub && a_shared) {
          result.negated = !result.negated;
        }
        return result;
      }
      case Opcode::Mul: {
        const Value* a = inst->operand(0);
        const Value* b = inst->operand(1);
        bool a_shared = is_shared_value(a);
        const Value* shared_side = a_shared ? a : b;
        AffineScale inner = scale_of_operand(a_shared ? b : a);
        if (!inner.computed) return result;
        result.computed = true;
        // Only a single multiplication keeps the scale identifiable.
        if (inner.known && inner.scale == nullptr) {
          result.known = true;
          result.scale = shared_side;
          result.negated = inner.negated;
        } else {
          result.known = false;
        }
        return result;
      }
      case Opcode::Phi:
      case Opcode::Select: {
        // Scale matching must hold at EVERY instance. A shared incoming
        // means "tid coefficient 0" on that path, which cannot match a
        // nonzero-scale path, so any shared entry forces unknown.
        std::size_t first = inst->opcode() == Opcode::Select ? 1 : 0;
        bool have = false;
        for (std::size_t i = first; i < inst->num_operands(); ++i) {
          const Value* op = inst->operand(i);
          if (is_shared_value(op)) {
            result.computed = true;
            result.known = false;
            return result;
          }
          AffineScale s = scale_of_operand(op);
          if (!s.computed) continue;  // optimistic, like the main fixpoint
          if (!have) {
            result = s;
            have = true;
          } else if (!(result.known && s.known && result.scale == s.scale &&
                       result.negated == s.negated)) {
            result.known = false;
          }
        }
        if (have) result.computed = true;
        return result;
      }
      default:
        result.computed = true;
        result.known = false;
        return result;
    }
  }

  bool op_affine_or_shared(const Value* v) const {
    if (category_of(v) == Category::Shared) return true;
    const auto* def = dyn_cast<Instruction>(v);
    return def != nullptr && affine_.count(def) != 0;
  }
  bool op_eq_sound_or_shared(const Value* v) const {
    if (category_of(v) == Category::Shared) return true;
    const auto* def = dyn_cast<Instruction>(v);
    return def != nullptr && eq_sound_.count(def) != 0;
  }

  bool affine_holds(const Instruction* inst) const {
    switch (inst->opcode()) {
      case Opcode::Tid:
        return true;
      case Opcode::Add:
      case Opcode::Sub:
        return op_affine_or_shared(inst->operand(0)) &&
               op_affine_or_shared(inst->operand(1));
      case Opcode::Mul:
      case Opcode::Shl:
        // Exactly one side may carry tid; the other must be shared.
        return (op_affine_or_shared(inst->operand(0)) &&
                category_of(inst->operand(1)) == Category::Shared) ||
               (category_of(inst->operand(0)) == Category::Shared &&
                op_affine_or_shared(inst->operand(1)) &&
                inst->opcode() == Opcode::Mul);
      case Opcode::Phi:
      case Opcode::Select: {
        // Category ThreadID implies non-divergent control (else the phi
        // would have been demoted), so all threads pick the same entry.
        std::size_t first = inst->opcode() == Opcode::Select ? 1 : 0;
        for (std::size_t i = first; i < inst->num_operands(); ++i) {
          if (!op_affine_or_shared(inst->operand(i))) return false;
        }
        return true;
      }
      default:
        return false;
    }
  }

  bool eq_sound_holds(const Instruction* inst) const {
    if (affine_.count(inst) != 0) return true;  // affine => eq-sound
    switch (inst->opcode()) {
      case Opcode::Tid:
      case Opcode::AtomicAdd:
        return true;
      case Opcode::Add:
      case Opcode::Sub:
        return op_eq_sound_or_shared(inst->operand(0)) &&
               op_eq_sound_or_shared(inst->operand(1)) &&
               // x - y with both eq-sound is not eq-sound in general;
               // require one side shared.
               (category_of(inst->operand(0)) == Category::Shared ||
                category_of(inst->operand(1)) == Category::Shared);
      case Opcode::Mul:
      case Opcode::Shl:
        return (op_eq_sound_or_shared(inst->operand(0)) &&
                category_of(inst->operand(1)) == Category::Shared) ||
               (category_of(inst->operand(0)) == Category::Shared &&
                op_eq_sound_or_shared(inst->operand(1)) &&
                inst->opcode() == Opcode::Mul);
      case Opcode::Phi:
      case Opcode::Select: {
        std::size_t first = inst->opcode() == Opcode::Select ? 1 : 0;
        for (std::size_t i = first; i < inst->num_operands(); ++i) {
          if (!op_eq_sound_or_shared(inst->operand(i))) return false;
        }
        return true;
      }
      default:
        return false;
    }
  }

  // --- Branch classification (after fixpoint) -----------------------------------

  void classify_branches() {
    std::uint32_t next_id = 1;
    for (const auto& func : module_.functions()) {
      auto info_it = func_info_.find(func.get());
      for (const auto& bb : func->blocks()) {
        const Instruction* term = bb->terminator();
        if (term == nullptr || !term->is_cond_branch()) continue;
        BranchInfo info;
        info.branch = term;
        info.function = func.get();
        info.static_id = next_id++;
        if (info_it != func_info_.end()) {
          const FunctionInfo& fi = info_it->second;
          info.in_parallel_section = fi.in_parallel_section;
          info.loop_depth = fi.loops->depth_of(bb.get());
          bool syntactic = fi.depth->depth_at(term) > 0;
          bool proven = fi.locks->any_lock_held(term);
          switch (options_.elision) {
            case ElisionMode::None:
              break;
            case ElisionMode::Syntactic:
              info.elided_critical_section = syntactic;
              break;
            case ElisionMode::ProofBacked:
              info.elided_critical_section = proven;
              // The syntactic rule would have skipped this branch on lock
              // depth alone; without a provable dominating lock the check
              // stays live.
              info.elision_promoted = syntactic && !proven;
              break;
          }
        }
        const Value* cond = term->operand(0);
        Category c = category_of(cond);
        if (c == Category::NA) c = Category::None;  // paper Fig. 3 line 18
        info.category = c;
        select_check(info, cond);
        branches_.push_back(std::move(info));
      }
    }
  }

  void select_check(BranchInfo& info, const Value* cond) {
    const Instruction* cmp = dyn_cast<Instruction>(cond);
    bool is_cmp = cmp != nullptr && cmp->is_cmp();

    auto partial_check = [&]() {
      info.check = CheckKind::PartialValue;
      if (is_cmp) {
        info.cond_data.assign(cmp->operands().begin(),
                              cmp->operands().end());
      } else {
        info.cond_data = {cond};
      }
    };

    switch (info.category) {
      case Category::Shared:
        info.check = CheckKind::SharedOutcome;
        break;
      case Category::ThreadID: {
        // Strongest case first: both sides carry the same tid coefficient,
        // so the comparison is thread-invariant — check it like a shared
        // branch (catches endpoint-thread deviations the prefix/suffix
        // check cannot).
        if (is_cmp && cmp->opcode() == Opcode::ICmp &&
            scale_of_operand(cmp->operand(0))
                .matches(scale_of_operand(cmp->operand(1)))) {
          info.check = CheckKind::SharedOutcome;
          break;
        }
        bool eq_cmp = is_cmp && (cmp->cmp_pred() == CmpPred::EQ ||
                                 cmp->cmp_pred() == CmpPred::NE);
        bool ok = false;
        if (is_cmp && cmp->opcode() == Opcode::ICmp) {
          // The tid-dependent side(s) must have the property matching the
          // comparison kind; shared sides are always fine.
          ok = true;
          for (const Value* op : cmp->operands()) {
            if (category_of(op) == Category::Shared) continue;
            const auto* def = dyn_cast<Instruction>(op);
            bool prop = def != nullptr &&
                        (eq_cmp ? eq_sound_.count(def) != 0
                                : affine_.count(def) != 0);
            ok = ok && prop;
          }
        }
        if (!ok) {
          partial_check();  // sound fallback, possibly vacuous
          break;
        }
        info.check = eq_cmp ? CheckKind::ThreadIdEq
                            : CheckKind::ThreadIdMonotone;
        break;
      }
      case Category::Partial:
        partial_check();
        break;
      case Category::None:
        if (options_.promote_none_to_partial) {
          partial_check();
          info.promoted = true;
        } else {
          info.check = CheckKind::Unchecked;
        }
        break;
      case Category::NA:
        info.check = CheckKind::Unchecked;
        break;
    }

    if (info.elided_critical_section || !info.in_parallel_section) {
      info.check = CheckKind::Unchecked;
      info.cond_data.clear();
    }
  }

  void record_trace_snapshot() {
    std::unordered_map<std::string, Category> snapshot;
    for (const auto& func : module_.functions()) {
      for (const auto& bb : func->blocks()) {
        for (const auto& inst : bb->instructions()) {
          if (!inst->name().empty()) {
            snapshot[inst->name()] = category_of(inst.get());
          }
          if (inst->is_cond_branch()) {
            snapshot["branch@" + bb->name()] =
                category_of(inst->operand(0));
          }
        }
      }
      for (const auto& arg : func->args()) {
        if (!arg->name().empty()) {
          snapshot[arg->name()] = category_of(arg.get());
        }
      }
    }
    trace_.push_back(std::move(snapshot));
  }

  const Module& module_;
  const SimilarityOptions& options_;
  std::unordered_map<const Function*, FunctionInfo> func_info_;
  std::unordered_map<const Instruction*, Category> categories_;
  std::unordered_map<const Argument*, Category> arg_categories_;
  std::unordered_map<const Function*, Category> ret_categories_;
  std::unordered_map<const Loop*, std::vector<const Instruction*>>
      loop_exits_;
  std::unordered_map<const Instruction*, std::vector<const Loop*>>
      escaped_loops_;
  std::unordered_set<const Instruction*> affine_;
  std::unordered_set<const Instruction*> eq_sound_;
  std::unordered_map<const Instruction*, AffineScale> affine_scales_;
  std::unordered_map<const Instruction*, std::vector<const Instruction*>>
      controlling_;
  std::vector<BranchInfo> branches_;
  std::vector<std::unordered_map<std::string, Category>> trace_;
};

}  // namespace

CategoryCounts SimilarityResult::parallel_counts() const {
  CategoryCounts counts;
  for (const BranchInfo& info : branches) {
    if (!info.in_parallel_section) continue;
    switch (info.category) {
      case Category::Shared: ++counts.shared; break;
      case Category::ThreadID: ++counts.thread_id; break;
      case Category::Partial: ++counts.partial; break;
      default: ++counts.none; break;
    }
  }
  return counts;
}

int SimilarityResult::parallel_branches() const {
  int count = 0;
  for (const BranchInfo& info : branches) {
    if (info.in_parallel_section) ++count;
  }
  return count;
}

SimilarityResult analyze_similarity(const ir::Module& module,
                                    const SimilarityOptions& options) {
  return Analysis(module, options).run();
}

}  // namespace bw::analysis
