#include "analysis/shared_access.h"

#include <algorithm>
#include <memory>

#include "ir/dominators.h"
#include "ir/loop_info.h"

namespace bw::analysis {

using namespace bw::ir;

// --- SymTable ----------------------------------------------------------------

SymTable::SymTable() {
  vars_.push_back({SymVar::Kind::Tid, nullptr, 0, true});
  vars_.push_back({SymVar::Kind::NumThreads, nullptr, 0, true});
}

int SymTable::opaque_var(const Value* origin, int context, bool nonneg) {
  Key key{origin, context};
  auto it = opaque_ids_.find(key);
  if (it != opaque_ids_.end()) {
    if (nonneg) vars_[static_cast<std::size_t>(it->second)].nonneg = true;
    return it->second;
  }
  int id = static_cast<int>(vars_.size());
  vars_.push_back({SymVar::Kind::Opaque, origin, context, nonneg});
  opaque_ids_.emplace(key, id);
  return id;
}

// --- LinPoly -----------------------------------------------------------------

LinPoly poly_constant(std::int64_t c) {
  LinPoly p;
  p.constant = c;
  return p;
}

LinPoly poly_var(int var) {
  LinPoly p;
  p.terms.push_back({{var}, 1});
  return p;
}

namespace {

void add_term(LinPoly& p, const Monomial& m, std::int64_t coeff) {
  if (coeff == 0) return;
  if (m.empty()) {
    p.constant += coeff;
    return;
  }
  auto it = std::lower_bound(
      p.terms.begin(), p.terms.end(), m,
      [](const auto& term, const Monomial& key) { return term.first < key; });
  if (it != p.terms.end() && it->first == m) {
    it->second += coeff;
    if (it->second == 0) p.terms.erase(it);
  } else {
    p.terms.insert(it, {m, coeff});
  }
}

constexpr std::int64_t kCoeffLimit = std::int64_t{1} << 40;

bool coeffs_bounded(const LinPoly& p) {
  if (p.constant >= kCoeffLimit || p.constant <= -kCoeffLimit) return false;
  for (const auto& [m, c] : p.terms) {
    if (c >= kCoeffLimit || c <= -kCoeffLimit) return false;
  }
  return true;
}

}  // namespace

LinPoly poly_add(const LinPoly& a, const LinPoly& b) {
  LinPoly out = a;
  out.constant += b.constant;
  for (const auto& [m, c] : b.terms) add_term(out, m, c);
  return out;
}

LinPoly poly_negate(const LinPoly& a) {
  LinPoly out;
  out.constant = -a.constant;
  for (const auto& [m, c] : a.terms) out.terms.push_back({m, -c});
  return out;
}

LinPoly poly_sub(const LinPoly& a, const LinPoly& b) {
  return poly_add(a, poly_negate(b));
}

std::optional<LinPoly> poly_mul(const LinPoly& a, const LinPoly& b) {
  LinPoly out;
  out.constant = a.constant * b.constant;
  for (const auto& [m, c] : a.terms) add_term(out, m, c * b.constant);
  for (const auto& [m, c] : b.terms) add_term(out, m, c * a.constant);
  for (const auto& [ma, ca] : a.terms) {
    for (const auto& [mb, cb] : b.terms) {
      Monomial m = ma;
      m.insert(m.end(), mb.begin(), mb.end());
      if (m.size() > 2) return std::nullopt;  // degree budget
      std::sort(m.begin(), m.end());
      add_term(out, m, ca * cb);
    }
  }
  if (!coeffs_bounded(out)) return std::nullopt;
  return out;
}

std::optional<std::int64_t> poly_min(const LinPoly& p, const SymTable& vars) {
  std::int64_t min = p.constant;
  for (const auto& [m, c] : p.terms) {
    if (c < 0) return std::nullopt;  // nonneg var * negative coeff: unbounded
    std::int64_t lb = 1;
    for (int v : m) {
      const SymVar& var = vars.var(v);
      if (!var.nonneg) return std::nullopt;
      std::int64_t var_lb = var.kind == SymVar::Kind::NumThreads ? 1 : 0;
      lb *= var_lb;
    }
    min += c * lb;
  }
  return min;
}

std::optional<LinPoly> poly_subst(const LinPoly& p, int var,
                                  const LinPoly& repl) {
  LinPoly out = poly_constant(p.constant);
  for (const auto& [m, c] : p.terms) {
    LinPoly term = poly_constant(c);
    for (int v : m) {
      auto next = poly_mul(term, v == var ? repl : poly_var(v));
      if (!next.has_value()) return std::nullopt;
      term = *next;
    }
    out = poly_add(out, term);
  }
  return out;
}

std::optional<LinPoly> poly_split_tid(const LinPoly& p, const SymTable& vars,
                                      int u_var, int e_var) {
  // tid := u + 1 + e.
  LinPoly repl = poly_constant(1);
  repl = poly_add(repl, poly_var(u_var));
  repl = poly_add(repl, poly_var(e_var));
  auto out = poly_subst(p, vars.tid_var(), repl);
  if (!out.has_value() || !coeffs_bounded(*out)) return std::nullopt;
  return out;
}

LinPoly poly_mod_normalize(const LinPoly& p, const SymTable& vars) {
  LinPoly out = poly_constant(p.constant);
  const int nt = vars.nthreads_var();
  for (const auto& [m, c] : p.terms) {
    if (std::find(m.begin(), m.end(), nt) != m.end()) continue;  // == 0 mod P
    out.terms.push_back({m, c});
  }
  return out;
}

// --- SharedAccessAnalysis ----------------------------------------------------

namespace {

/// Resolve a pointer operand to (global, index value). Returns false for
/// local (alloca-rooted) pointers; sets *global to nullptr when the root
/// cannot be identified at all.
bool resolve_pointer(const Value* ptr, const GlobalVariable** global,
                     const Value** index) {
  *global = nullptr;
  *index = nullptr;
  const Value* cur = ptr;
  while (true) {
    if (const auto* g = dyn_cast<GlobalVariable>(cur)) {
      *global = g;
      return true;
    }
    const auto* inst = dyn_cast<Instruction>(cur);
    if (inst == nullptr) return true;  // unknown root
    if (inst->opcode() == Opcode::Alloca) return false;  // thread-local
    if (inst->opcode() == Opcode::Gep) {
      // Nested geps do not occur in front-end output; keep the innermost
      // index and bail out to "unknown offset" if another one shows up.
      if (*index != nullptr) {
        *index = nullptr;
        *global = nullptr;
        const Value* base = inst->operand(0);
        if (const auto* g = dyn_cast<GlobalVariable>(base)) *global = g;
        return true;
      }
      *index = inst->operand(1);
      cur = inst->operand(0);
      continue;
    }
    return true;  // pointer from somewhere we cannot track
  }
}

bool global_is_stored_anywhere(const Module& module, const GlobalVariable* g) {
  for (const auto& func : module.functions()) {
    for (const auto& bb : func->blocks()) {
      for (const auto& inst : bb->instructions()) {
        const Value* ptr = nullptr;
        if (inst->opcode() == Opcode::Store) {
          ptr = inst->operand(1);
        } else if (inst->opcode() == Opcode::AtomicAdd) {
          ptr = inst->operand(0);
        } else {
          continue;
        }
        const GlobalVariable* target = nullptr;
        const Value* index = nullptr;
        if (!resolve_pointer(ptr, &target, &index)) continue;
        if (target == g || target == nullptr) return true;
      }
    }
  }
  return false;
}

}  // namespace

namespace {

constexpr int kMaxCallDepth = 8;
constexpr int kMaxContexts = 256;

struct FunctionStructure {
  std::unique_ptr<DominatorTree> domtree;
  std::unique_ptr<LoopInfo> loops;
};

using StructureCache = std::unordered_map<const Function*, FunctionStructure>;

const FunctionStructure& structure_of(StructureCache& cache,
                                      const Function& func) {
  auto it = cache.find(&func);
  if (it == cache.end()) {
    FunctionStructure s;
    s.domtree = std::make_unique<DominatorTree>(func);
    s.loops = std::make_unique<LoopInfo>(func, *s.domtree);
    it = cache.emplace(&func, std::move(s)).first;
  }
  return it->second;
}

}  // namespace

struct SharedAccessAnalysis::Context {
  int id = 0;
  int depth = 0;
  const Instruction* anchor = nullptr;  // top-level call site; null in entry
  const Function* func = nullptr;
  std::unordered_map<const Value*, AbsVal>* env = nullptr;
  const DominatorTree* domtree = nullptr;
  const LoopInfo* loops = nullptr;
  const Context* parent = nullptr;
  StructureCache* structures = nullptr;
  // Child contexts per call site, shared between the access-collection
  // walk and return-value evaluation so opaque variables stay stable.
  std::unordered_map<const Instruction*, std::unique_ptr<Context>> children;
  std::unique_ptr<std::unordered_map<const Value*, AbsVal>> owned_env;
};

SharedAccessAnalysis::SharedAccessAnalysis(const Module& module,
                                           const Function& entry,
                                           const BarrierPhases& phases)
    : module_(module), entry_(entry), phases_(phases) {
  StructureCache structures;

  Context root;
  root.id = 0;
  root.func = &entry_;
  root.env = &entry_env_;
  root.structures = &structures;
  const FunctionStructure& s = structure_of(structures, entry_);
  root.domtree = s.domtree.get();
  root.loops = s.loops.get();

  // The per-call-site context tree must outlive collection; keep it on the
  // stack of this constructor (children own their envs).
  collect(entry_, root);
  compute_write_regions();
  compute_invariance();
  // Contexts die here; the collected accesses and variable table persist.
}

void SharedAccessAnalysis::collect(const Function& func, Context& ctx) {
  for (const auto& bb : func.blocks()) {
    for (const auto& inst : bb->instructions()) {
      switch (inst->opcode()) {
        case Opcode::Load:
          add_access(inst.get(), ctx, inst->operand(0), /*is_write=*/false,
                     /*is_atomic=*/false);
          break;
        case Opcode::Store:
          add_access(inst.get(), ctx, inst->operand(1), /*is_write=*/true,
                     /*is_atomic=*/false);
          break;
        case Opcode::AtomicAdd:
          add_access(inst.get(), ctx, inst->operand(0), /*is_write=*/true,
                     /*is_atomic=*/true);
          break;
        case Opcode::Call: {
          const Function* callee = inst->callee();
          if (callee == nullptr || callee->empty()) break;
          Context* child = descend(inst.get(), ctx);
          if (child != nullptr) {
            collect(*callee, *child);
          } else {
            truncated_ = true;
            synthesize_summary_accesses(*callee, ctx, inst.get());
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

SharedAccessAnalysis::Context* SharedAccessAnalysis::descend(
    const Instruction* call, Context& ctx) {
  auto it = ctx.children.find(call);
  if (it != ctx.children.end()) return it->second.get();
  if (ctx.depth + 1 > kMaxCallDepth || contexts_spent_ >= kMaxContexts) {
    return nullptr;
  }
  const Function* callee = call->callee();
  // Reject recursion outright (BW-C has none; a cycle would loop forever).
  for (const Context* cur = &ctx; cur != nullptr; cur = cur->parent) {
    if (cur->func == callee) return nullptr;
  }
  ++contexts_spent_;
  auto child = std::make_unique<Context>();
  child->id = next_context_++;
  child->depth = ctx.depth + 1;
  child->anchor = ctx.anchor != nullptr ? ctx.anchor : call;
  child->func = callee;
  child->parent = &ctx;
  child->structures = ctx.structures;
  child->owned_env = std::make_unique<std::unordered_map<const Value*, AbsVal>>();
  child->env = child->owned_env.get();
  const FunctionStructure& s = structure_of(*ctx.structures, *callee);
  child->domtree = s.domtree.get();
  child->loops = s.loops.get();
  // Bind formals to actual abstract values.
  for (std::size_t i = 0; i < callee->num_args(); ++i) {
    AbsVal actual = i < call->num_operands() ? eval(call->operand(i), ctx)
                                             : opaque(callee->arg(i), *child);
    (*child->env)[callee->arg(i)] = std::move(actual);
  }
  Context* out = child.get();
  ctx.children.emplace(call, std::move(child));
  return out;
}

void SharedAccessAnalysis::synthesize_summary_accesses(const Function& func,
                                                       Context& ctx,
                                                       const Instruction*
                                                           call) {
  // Truncated descent: record a free-offset access for every global the
  // callee may transitively touch, so nothing is silently dropped.
  std::unordered_set<const Function*> visited;
  std::vector<const Function*> work{&func};
  const Instruction* anchor = ctx.anchor != nullptr ? ctx.anchor : call;
  while (!work.empty()) {
    const Function* f = work.back();
    work.pop_back();
    if (!visited.insert(f).second) continue;
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->instructions()) {
        const Value* ptr = nullptr;
        bool write = false;
        bool atomic = false;
        switch (inst->opcode()) {
          case Opcode::Load:
            ptr = inst->operand(0);
            break;
          case Opcode::Store:
            ptr = inst->operand(1);
            write = true;
            break;
          case Opcode::AtomicAdd:
            ptr = inst->operand(0);
            write = true;
            atomic = true;
            break;
          case Opcode::Call:
            if (inst->callee() != nullptr) work.push_back(inst->callee());
            continue;
          default:
            continue;
        }
        const GlobalVariable* global = nullptr;
        const Value* index = nullptr;
        if (!resolve_pointer(ptr, &global, &index)) continue;
        auto emit = [&](const GlobalVariable* g) {
          SharedAccess access;
          access.instr = inst.get();
          access.anchor = anchor;
          access.global = g;
          access.offset = opaque(inst.get(), ctx);
          access.is_write = write;
          access.is_atomic = atomic;
          access.synthetic = true;
          accesses_.push_back(std::move(access));
        };
        if (global != nullptr) {
          emit(global);
        } else {
          for (const auto& g : module_.globals()) emit(g.get());
        }
      }
    }
  }
}

void SharedAccessAnalysis::add_access(const Instruction* inst, Context& ctx,
                                      const Value* pointer, bool is_write,
                                      bool is_atomic) {
  const GlobalVariable* global = nullptr;
  const Value* index = nullptr;
  if (!resolve_pointer(pointer, &global, &index)) return;  // thread-local

  const Instruction* anchor = ctx.anchor != nullptr ? ctx.anchor : inst;
  auto emit = [&](const GlobalVariable* g, AbsVal offset, bool synthetic) {
    SharedAccess access;
    access.instr = inst;
    access.anchor = anchor;
    access.global = g;
    access.offset = std::move(offset);
    access.is_write = is_write;
    access.is_atomic = is_atomic;
    access.synthetic = synthetic;
    accesses_.push_back(std::move(access));
  };

  if (global == nullptr) {
    // Untrackable pointer: may touch anything.
    truncated_ = true;
    for (const auto& g : module_.globals()) {
      emit(g.get(), opaque(inst, ctx), /*synthetic=*/true);
    }
    return;
  }
  AbsVal offset;
  if (index == nullptr) {
    offset.exact = poly_constant(0);
    offset.lo = poly_constant(0);
    offset.hi = poly_constant(0);
  } else {
    offset = eval(index, ctx);
  }
  emit(global, std::move(offset), /*synthetic=*/false);
}

AbsVal SharedAccessAnalysis::opaque(const Value* v, Context& ctx,
                                    bool nonneg) {
  AbsVal out;
  out.exact = poly_var(vars_.opaque_var(v, ctx.id, nonneg));
  if (nonneg) out.lo = poly_constant(0);
  return out;
}

AbsVal SharedAccessAnalysis::eval(const Value* v, Context& ctx) {
  auto it = ctx.env->find(v);
  if (it != ctx.env->end()) return it->second;
  AbsVal result;
  switch (v->kind()) {
    case ValueKind::ConstantInt: {
      std::int64_t c = static_cast<const ConstantInt*>(v)->value();
      result.exact = poly_constant(c);
      result.lo = result.exact;
      result.hi = result.exact;
      result.mod_rem = poly_mod_normalize(result.exact, vars_);
      break;
    }
    case ValueKind::ConstantFloat:
    case ValueKind::GlobalVariable:
    case ValueKind::Argument:
      // Unbound argument (entry function): unknown.
      result = opaque(v, ctx);
      break;
    case ValueKind::Instruction:
      result = eval_instruction(static_cast<const Instruction*>(v), ctx);
      break;
  }
  (*ctx.env)[v] = result;
  return result;
}

LinPoly residue_of(const AbsVal& v, const SymTable& vars) {
  if (v.mod_rem.has_value()) return *v.mod_rem;
  return poly_mod_normalize(v.exact, vars);
}

namespace {

/// Effective bounds: the exact polynomial always equals the value, so it
/// is a valid (tightest) bound whenever no looser one was derived.
LinPoly lo_of(const AbsVal& v) { return v.lo.has_value() ? *v.lo : v.exact; }
LinPoly hi_of(const AbsVal& v) { return v.hi.has_value() ? *v.hi : v.exact; }

}  // namespace

AbsVal SharedAccessAnalysis::eval_instruction(const Instruction* inst,
                                              Context& ctx) {
  switch (inst->opcode()) {
    case Opcode::Tid: {
      AbsVal out;
      out.exact = poly_var(vars_.tid_var());
      out.lo = poly_constant(0);
      out.hi = poly_sub(poly_var(vars_.nthreads_var()), poly_constant(1));
      out.mod_rem = out.exact;
      return out;
    }
    case Opcode::NumThreads: {
      AbsVal out;
      out.exact = poly_var(vars_.nthreads_var());
      out.lo = poly_constant(1);
      out.mod_rem = poly_constant(0);
      return out;
    }
    case Opcode::Add: {
      AbsVal a = eval(inst->operand(0), ctx);
      AbsVal b = eval(inst->operand(1), ctx);
      AbsVal out;
      out.exact = poly_add(a.exact, b.exact);
      out.lo = poly_add(lo_of(a), lo_of(b));
      out.hi = poly_add(hi_of(a), hi_of(b));
      out.mod_rem = poly_mod_normalize(
          poly_add(residue_of(a, vars_), residue_of(b, vars_)), vars_);
      return out;
    }
    case Opcode::Sub: {
      AbsVal a = eval(inst->operand(0), ctx);
      AbsVal b = eval(inst->operand(1), ctx);
      AbsVal out;
      out.exact = poly_sub(a.exact, b.exact);
      out.lo = poly_sub(lo_of(a), hi_of(b));
      out.hi = poly_sub(hi_of(a), lo_of(b));
      out.mod_rem = poly_mod_normalize(
          poly_sub(residue_of(a, vars_), residue_of(b, vars_)), vars_);
      return out;
    }
    case Opcode::Mul: {
      AbsVal a = eval(inst->operand(0), ctx);
      AbsVal b = eval(inst->operand(1), ctx);
      AbsVal out;
      auto exact = poly_mul(a.exact, b.exact);
      out.exact = exact.has_value() ? *exact : opaque(inst, ctx).exact;
      // Bounds only scale through a constant factor.
      const AbsVal* scaled = nullptr;
      std::int64_t factor = 0;
      if (a.exact.is_constant()) {
        factor = a.exact.constant;
        scaled = &b;
      } else if (b.exact.is_constant()) {
        factor = b.exact.constant;
        scaled = &a;
      }
      if (scaled != nullptr) {
        auto scale = [&](const LinPoly& p) -> std::optional<LinPoly> {
          return poly_mul(p, poly_constant(factor));
        };
        if (factor >= 0) {
          out.lo = scale(lo_of(*scaled));
          out.hi = scale(hi_of(*scaled));
        } else {
          out.lo = scale(hi_of(*scaled));
          out.hi = scale(lo_of(*scaled));
        }
      }
      if (exact.has_value()) {
        auto rem = poly_mul(residue_of(a, vars_), residue_of(b, vars_));
        if (rem.has_value()) out.mod_rem = poly_mod_normalize(*rem, vars_);
      }
      return out;
    }
    case Opcode::Shl: {
      AbsVal a = eval(inst->operand(0), ctx);
      AbsVal b = eval(inst->operand(1), ctx);
      if (b.exact.is_constant() && b.exact.constant >= 0 &&
          b.exact.constant < 32) {
        std::int64_t factor = std::int64_t{1} << b.exact.constant;
        AbsVal scaled_by;
        scaled_by.exact = poly_constant(factor);
        scaled_by.lo = scaled_by.exact;
        scaled_by.hi = scaled_by.exact;
        // Reuse the Mul logic by hand: x << c == x * 2^c.
        AbsVal out;
        auto exact = poly_mul(a.exact, scaled_by.exact);
        out.exact = exact.has_value() ? *exact : opaque(inst, ctx).exact;
        if (a.lo) out.lo = poly_mul(*a.lo, scaled_by.exact);
        if (a.hi) out.hi = poly_mul(*a.hi, scaled_by.exact);
        return out;
      }
      return opaque(inst, ctx);
    }
    case Opcode::SDiv: {
      AbsVal a = eval(inst->operand(0), ctx);
      AbsVal b = eval(inst->operand(1), ctx);
      bool dividend_nonneg =
          a.lo.has_value() && poly_min(*a.lo, vars_).value_or(-1) >= 0;
      bool divisor_positive =
          (b.exact.is_constant() && b.exact.constant > 0) ||
          b.exact == poly_var(vars_.nthreads_var());
      if (dividend_nonneg && divisor_positive) {
        AbsVal out = opaque(inst, ctx, /*nonneg=*/true);
        out.lo = poly_constant(0);
        out.hi = a.hi;  // division by >= 1 cannot grow a nonneg value
        return out;
      }
      return opaque(inst, ctx);
    }
    case Opcode::SRem: {
      AbsVal a = eval(inst->operand(0), ctx);
      AbsVal b = eval(inst->operand(1), ctx);
      bool dividend_nonneg =
          a.lo.has_value() && poly_min(*a.lo, vars_).value_or(-1) >= 0;
      if (!dividend_nonneg) return opaque(inst, ctx);
      if (b.exact.is_constant() && b.exact.constant > 0) {
        AbsVal out = opaque(inst, ctx, /*nonneg=*/true);
        out.lo = poly_constant(0);
        out.hi = poly_constant(b.exact.constant - 1);
        return out;
      }
      if (b.exact == poly_var(vars_.nthreads_var())) {
        AbsVal out = opaque(inst, ctx, /*nonneg=*/true);
        out.lo = poly_constant(0);
        out.hi = poly_sub(poly_var(vars_.nthreads_var()), poly_constant(1));
        out.mod_rem = poly_mod_normalize(residue_of(a, vars_), vars_);
        return out;
      }
      return opaque(inst, ctx);
    }
    case Opcode::And: {
      AbsVal b = eval(inst->operand(1), ctx);
      if (b.exact.is_constant() && b.exact.constant >= 0) {
        AbsVal out = opaque(inst, ctx, /*nonneg=*/true);
        out.lo = poly_constant(0);
        out.hi = poly_constant(b.exact.constant);
        return out;
      }
      AbsVal a = eval(inst->operand(0), ctx);
      if (a.exact.is_constant() && a.exact.constant >= 0) {
        AbsVal out = opaque(inst, ctx, /*nonneg=*/true);
        out.lo = poly_constant(0);
        out.hi = poly_constant(a.exact.constant);
        return out;
      }
      return opaque(inst, ctx);
    }
    case Opcode::AShr: {
      AbsVal a = eval(inst->operand(0), ctx);
      AbsVal b = eval(inst->operand(1), ctx);
      bool nonneg = a.lo.has_value() && poly_min(*a.lo, vars_).value_or(-1) >= 0;
      if (nonneg && b.exact.is_constant() && b.exact.constant >= 0) {
        AbsVal out = opaque(inst, ctx, /*nonneg=*/true);
        out.lo = poly_constant(0);
        out.hi = a.hi;  // shifting right cannot grow a nonneg value
        return out;
      }
      return opaque(inst, ctx);
    }
    case Opcode::ICmp:
    case Opcode::FCmp: {
      AbsVal out = opaque(inst, ctx, /*nonneg=*/true);
      out.lo = poly_constant(0);
      out.hi = poly_constant(1);
      return out;
    }
    case Opcode::Select: {
      AbsVal a = eval(inst->operand(1), ctx);
      AbsVal b = eval(inst->operand(2), ctx);
      if (a.exact == b.exact) return a;
      AbsVal out = opaque(inst, ctx);
      if (a.lo && b.lo && *a.lo == *b.lo) out.lo = a.lo;
      if (a.hi && b.hi && *a.hi == *b.hi) out.hi = a.hi;
      return out;
    }
    case Opcode::Load: {
      const GlobalVariable* global = nullptr;
      const Value* index = nullptr;
      if (resolve_pointer(inst->operand(0), &global, &index) &&
          global != nullptr && global->is_scalar_global() &&
          global->element_type() != Type::F64 &&
          !global_is_stored_anywhere(module_, global)) {
        // A never-stored scalar keeps its initializer for the whole run.
        std::int64_t init =
            global->init_words().empty() ? 0 : global->init_words()[0];
        AbsVal out;
        out.exact = poly_constant(init);
        out.lo = out.exact;
        out.hi = out.exact;
        out.mod_rem = poly_mod_normalize(out.exact, vars_);
        return out;
      }
      return opaque(inst, ctx);
    }
    case Opcode::Phi:
      return eval_phi(inst, ctx);
    case Opcode::Call:
      return eval_call(inst, ctx);
    default:
      return opaque(inst, ctx);
  }
}

namespace {

bool value_defined_outside_loop(const Value* v, const ir::Loop* loop) {
  const auto* inst = dyn_cast<Instruction>(v);
  if (inst == nullptr) return true;  // constants, arguments, globals
  return !loop->contains(inst->parent());
}

bool has_use_outside_loop(const Function& func, const Instruction* def,
                          const ir::Loop* loop) {
  for (const auto& bb : func.blocks()) {
    for (const auto& inst : bb->instructions()) {
      for (std::size_t i = 0; i < inst->num_operands(); ++i) {
        if (inst->operand(i) != def) continue;
        const BasicBlock* where =
            inst->is_phi() ? inst->incoming_blocks()[i] : bb.get();
        if (!loop->contains(where)) return true;
      }
    }
  }
  return false;
}

/// True when every in-loop use of `def` other than `exempt` (the exit
/// comparison itself) sits in a block dominated by `cont`, the exit
/// branch's in-loop successor. Uses by phis count at their incoming
/// block, matching has_use_outside_loop above.
bool loop_uses_dominated_by(const Function& func, const Instruction* def,
                            const ir::Loop* loop, const BasicBlock* cont,
                            const DominatorTree& domtree,
                            const Instruction* exempt) {
  for (const auto& bb : func.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst.get() == exempt) continue;
      for (std::size_t i = 0; i < inst->num_operands(); ++i) {
        if (inst->operand(i) != def) continue;
        const BasicBlock* where =
            inst->is_phi() ? inst->incoming_blocks()[i] : bb.get();
        if (!loop->contains(where)) continue;
        if (!domtree.dominates(cont, where)) return false;
      }
    }
  }
  return true;
}

}  // namespace

AbsVal SharedAccessAnalysis::eval_phi(const Instruction* phi, Context& ctx) {
  // Break evaluation cycles: the phi stands for itself until refined.
  (*ctx.env)[phi] = opaque(phi, ctx);

  const BasicBlock* bb = phi->parent();
  const ir::Loop* loop = ctx.loops->loop_for(bb);
  if (loop != nullptr && loop->header == bb && phi->num_operands() == 2) {
    // Induction-variable pattern: phi(init from outside, phi + step inside).
    const Value* init = nullptr;
    const Instruction* latch_inc = nullptr;
    for (std::size_t i = 0; i < 2; ++i) {
      const BasicBlock* in = phi->incoming_blocks()[i];
      if (loop->contains(in)) {
        latch_inc = dyn_cast<Instruction>(phi->operand(i));
      } else {
        init = phi->operand(i);
      }
    }
    if (init != nullptr && latch_inc != nullptr &&
        latch_inc->opcode() == Opcode::Add) {
      const Value* step_val = nullptr;
      if (latch_inc->operand(0) == phi) step_val = latch_inc->operand(1);
      if (latch_inc->operand(1) == phi) step_val = latch_inc->operand(0);
      if (step_val != nullptr) {
        AbsVal init_v = eval(init, ctx);
        AbsVal step_v = eval(step_val, ctx);
        AbsVal out = opaque(phi, ctx);
        bool step_nonneg =
            step_v.lo.has_value() &&
            poly_min(*step_v.lo, vars_).value_or(-1) >= 0;
        if (step_v.exact == poly_var(vars_.nthreads_var())) {
          // Round-robin: i == init (mod nthreads) on every iteration.
          out.mod_rem = poly_mod_normalize(residue_of(init_v, vars_), vars_);
        }
        if (step_nonneg) out.lo = init_v.exact;
        // Upper bound from the unique in-loop exit comparison, valid only
        // for uses dominated by a passed check (verified below per use).
        // A use outside the loop sees the post-exit value; drop the bound
        // then.
        if (step_nonneg && !has_use_outside_loop(*ctx.func, phi, loop)) {
          const Instruction* exit_br = nullptr;
          int exits = 0;
          for (const BasicBlock* lb : loop->blocks) {
            const Instruction* term = lb->terminator();
            if (term == nullptr || !term->is_cond_branch()) continue;
            for (const BasicBlock* succ : term->successors()) {
              if (!loop->contains(succ)) {
                exit_br = term;
                ++exits;
                break;
              }
            }
          }
          if (exits == 1 && exit_br != nullptr) {
            const auto* cond = dyn_cast<Instruction>(exit_br->operand(0));
            bool continue_on_true = loop->contains(exit_br->successors()[0]);
            if (cond != nullptr && cond->opcode() == Opcode::ICmp &&
                continue_on_true) {
              // Continue-predicate shapes: phi < B, phi <= B, B > phi,
              // B >= phi, with B loop-invariant.
              const Value* lhs = cond->operand(0);
              const Value* rhs = cond->operand(1);
              const Value* bound = nullptr;
              bool inclusive = false;
              if (lhs == phi && value_defined_outside_loop(rhs, loop)) {
                if (cond->cmp_pred() == CmpPred::LT) bound = rhs;
                if (cond->cmp_pred() == CmpPred::LE) {
                  bound = rhs;
                  inclusive = true;
                }
              } else if (rhs == phi && value_defined_outside_loop(lhs, loop)) {
                if (cond->cmp_pred() == CmpPred::GT) bound = lhs;
                if (cond->cmp_pred() == CmpPred::GE) {
                  bound = lhs;
                  inclusive = true;
                }
              }
              // The test only bounds *this* iteration's value on paths
              // that already passed it. Require (a) the condition to be
              // computed in the branch block (re-evaluated every time
              // the branch runs), (b) the continue successor to be
              // entered through the branch alone, and (c) that successor
              // to dominate every in-loop use of the phi bar the
              // condition itself. A rotated loop (access before test)
              // runs once more with phi == B after the last passed
              // check, so the bound must not be attached there.
              const BasicBlock* cont = exit_br->successors()[0];
              std::vector<BasicBlock*> cont_preds = cont->predecessors();
              bool sole_entry = cont_preds.size() == 1 &&
                                cont_preds.front() == exit_br->parent();
              if (bound != nullptr && cond->parent() == exit_br->parent() &&
                  sole_entry &&
                  loop_uses_dominated_by(*ctx.func, phi, loop, cont,
                                         *ctx.domtree, cond)) {
                AbsVal bound_v = eval(bound, ctx);
                out.hi = inclusive
                             ? bound_v.exact
                             : poly_sub(bound_v.exact, poly_constant(1));
              }
            }
          }
        }
        if (out.lo.has_value() && poly_min(*out.lo, vars_).value_or(-1) >= 0) {
          // Mark the phi's opaque variable nonneg for downstream proofs.
          vars_.opaque_var(phi, ctx.id, /*nonneg=*/true);
        }
        (*ctx.env)[phi] = out;
        return out;
      }
    }
  }

  // General merge: exact only when all incomings agree; constant hull
  // bounds otherwise.
  std::vector<AbsVal> incoming;
  incoming.reserve(phi->num_operands());
  for (const Value* op : phi->operands()) {
    if (op == phi) continue;
    incoming.push_back(eval(op, ctx));
  }
  if (!incoming.empty()) {
    bool all_equal = true;
    for (const AbsVal& v : incoming) {
      if (!(v.exact == incoming.front().exact)) all_equal = false;
    }
    if (all_equal) {
      (*ctx.env)[phi] = incoming.front();
      return incoming.front();
    }
    bool all_const = true;
    std::int64_t lo = 0, hi = 0;
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      if (!incoming[i].exact.is_constant()) {
        all_const = false;
        break;
      }
      std::int64_t c = incoming[i].exact.constant;
      lo = i == 0 ? c : std::min(lo, c);
      hi = i == 0 ? c : std::max(hi, c);
    }
    if (all_const) {
      AbsVal out = opaque(phi, ctx, /*nonneg=*/lo >= 0);
      out.lo = poly_constant(lo);
      out.hi = poly_constant(hi);
      (*ctx.env)[phi] = out;
      return out;
    }
  }
  return (*ctx.env)[phi];
}

AbsVal SharedAccessAnalysis::eval_call(const Instruction* call, Context& ctx) {
  const Function* callee = call->callee();
  if (callee == nullptr || callee->empty() ||
      callee->return_type() == Type::Void) {
    return opaque(call, ctx);
  }
  Context* child = descend(call, ctx);
  if (child == nullptr) return opaque(call, ctx);
  // Single-return functions propagate their return value symbolically.
  const Instruction* ret = nullptr;
  int rets = 0;
  for (const auto& bb : callee->blocks()) {
    const Instruction* term = bb->terminator();
    if (term != nullptr && term->opcode() == Opcode::Ret) {
      ret = term;
      ++rets;
    }
  }
  if (rets != 1 || ret->num_operands() != 1) return opaque(call, ctx);
  return eval(ret->operand(0), *child);
}

// --- Write regions and invariance --------------------------------------------

void SharedAccessAnalysis::compute_write_regions() {
  for (const SharedAccess& access : accesses_) {
    if (!access.is_write) continue;
    auto& set = write_regions_[access.global];
    for (unsigned region : phases_.regions_of(access.anchor)) {
      if (std::find(set.begin(), set.end(), region) == set.end()) {
        set.push_back(region);
      }
    }
  }
  for (auto& [g, set] : write_regions_) std::sort(set.begin(), set.end());
}

const std::vector<unsigned>& SharedAccessAnalysis::write_regions(
    const GlobalVariable* global) const {
  static const std::vector<unsigned> kEmpty;
  auto it = write_regions_.find(global);
  return it == write_regions_.end() ? kEmpty : it->second;
}

bool SharedAccessAnalysis::global_touched_in_parallel(
    const GlobalVariable* g) const {
  return !write_regions(g).empty();
}

bool SharedAccessAnalysis::callee_result_invariant(const Function* callee) {
  auto memo = callee_invariant_memo_.find(callee);
  if (memo != callee_invariant_memo_.end()) return memo->second;
  callee_invariant_memo_[callee] = false;  // pessimistic for cycles
  bool ok = true;
  for (const auto& bb : callee->blocks()) {
    for (const auto& inst : bb->instructions()) {
      switch (inst->opcode()) {
        case Opcode::Tid:
        case Opcode::AtomicAdd:
          ok = false;
          break;
        case Opcode::Load: {
          const GlobalVariable* global = nullptr;
          const Value* index = nullptr;
          if (!resolve_pointer(inst->operand(0), &global, &index)) break;
          if (global == nullptr || global_touched_in_parallel(global)) {
            ok = false;
          }
          break;
        }
        case Opcode::Call:
          if (inst->callee() == nullptr ||
              !callee_result_invariant(inst->callee())) {
            ok = false;
          }
          break;
        default:
          break;
      }
      if (!ok) break;
    }
    if (!ok) break;
  }
  callee_invariant_memo_[callee] = ok;
  return ok;
}

void SharedAccessAnalysis::compute_invariance() {
  DominatorTree domtree(entry_);
  LoopInfo loops(entry_, domtree);
  variant_.clear();

  auto mark = [&](const Value* v, bool& changed) {
    if (variant_.insert(v).second) changed = true;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& bb : entry_.blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (variant_.count(inst.get()) != 0) continue;
        bool v = false;
        switch (inst->opcode()) {
          case Opcode::Tid:
          case Opcode::AtomicAdd:
          case Opcode::Alloca:
            v = true;
            break;
          case Opcode::Load: {
            const GlobalVariable* global = nullptr;
            const Value* index = nullptr;
            if (!resolve_pointer(inst->operand(0), &global, &index)) {
              v = true;  // thread-local slot (pre-mem2reg IR): per-thread
              break;
            }
            if (global == nullptr) {
              v = true;
            } else {
              // Region-stability: invariant only when no write to this
              // global can land in any phase region the load occupies.
              const auto& writes = write_regions(global);
              for (unsigned region : phases_.regions_of(inst.get())) {
                if (std::binary_search(writes.begin(), writes.end(),
                                       region)) {
                  v = true;
                }
              }
            }
            break;
          }
          case Opcode::Call:
            if (inst->callee() == nullptr ||
                !callee_result_invariant(inst->callee())) {
              v = true;
            }
            break;
          default:
            break;
        }
        for (const Value* op : inst->operands()) {
          if (variant_.count(op) != 0) v = true;
          if (const auto* arg = dyn_cast<Argument>(op)) {
            (void)arg;
            v = true;  // entry arguments are unconstrained
          }
        }
        if (v) mark(inst.get(), changed);
      }
    }

    // Divergent control: a branch whose condition varies across threads
    // makes the phis at its join block (and, for loop exits, everything
    // that outlives the loop) thread-dependent.
    for (const auto& bb : entry_.blocks()) {
      const Instruction* term = bb->terminator();
      if (term == nullptr || !term->is_cond_branch()) continue;
      if (variant_.count(term->operand(0)) == 0 &&
          !dyn_cast<Argument>(term->operand(0))) {
        continue;
      }
      const BasicBlock* join = phases_.join_block(term);
      if (join == nullptr) {
        // Unknown reconvergence: every phi in the function may diverge.
        for (const auto& b2 : entry_.blocks()) {
          for (const auto& i2 : b2->instructions()) {
            if (i2->is_phi()) mark(i2.get(), changed);
          }
        }
      } else {
        for (const auto& i2 : join->instructions()) {
          if (i2->is_phi()) mark(i2.get(), changed);
        }
      }
      // Loop exits with divergent conditions: trip counts differ across
      // threads, so header phis and loop live-outs diverge.
      for (const ir::Loop* loop = loops.loop_for(bb.get()); loop != nullptr;
           loop = loop->parent) {
        bool exits_loop = false;
        for (const BasicBlock* succ : term->successors()) {
          if (!loop->contains(succ)) exits_loop = true;
        }
        if (!exits_loop) continue;
        for (const auto& i2 : loop->header->instructions()) {
          if (i2->is_phi()) mark(i2.get(), changed);
        }
        for (const BasicBlock* lb : loop->blocks) {
          for (const auto& i2 : lb->instructions()) {
            if (i2->type() == Type::Void) continue;
            if (has_use_outside_loop(entry_, i2.get(), loop)) {
              mark(i2.get(), changed);
            }
          }
        }
      }
    }
  }
}

void SharedAccessAnalysis::recompute_invariance() {
  write_regions_.clear();
  callee_invariant_memo_.clear();
  compute_write_regions();
  compute_invariance();
}

bool SharedAccessAnalysis::thread_invariant(const Value* v) const {
  switch (v->kind()) {
    case ValueKind::ConstantInt:
    case ValueKind::ConstantFloat:
    case ValueKind::GlobalVariable:
      return true;
    case ValueKind::Argument:
      return false;
    case ValueKind::Instruction:
      return variant_.count(v) == 0;
  }
  return false;
}

bool SharedAccessAnalysis::per_thread_constant(const Value* v) const {
  auto memo = ptc_memo_.find(v);
  if (memo != ptc_memo_.end()) return memo->second;
  ptc_memo_[v] = false;  // cycle guard
  bool ok = false;
  switch (v->kind()) {
    case ValueKind::ConstantInt:
    case ValueKind::ConstantFloat:
      ok = true;
      break;
    case ValueKind::GlobalVariable:
    case ValueKind::Argument:
      ok = false;
      break;
    case ValueKind::Instruction: {
      const auto* inst = static_cast<const Instruction*>(v);
      switch (inst->opcode()) {
        case Opcode::Tid:
        case Opcode::NumThreads:
          ok = true;
          break;
        case Opcode::Load: {
          const GlobalVariable* global = nullptr;
          const Value* index = nullptr;
          if (resolve_pointer(inst->operand(0), &global, &index) &&
              global != nullptr && !global_touched_in_parallel(global) &&
              (index == nullptr || per_thread_constant(index))) {
            ok = true;
          }
          break;
        }
        default:
          if (inst->is_pure_computation() || inst->opcode() == Opcode::Select) {
            ok = true;
            for (const Value* op : inst->operands()) {
              if (!per_thread_constant(op)) ok = false;
            }
          }
          break;
      }
      break;
    }
  }
  ptc_memo_[v] = ok;
  return ok;
}

const AbsVal& SharedAccessAnalysis::abs_value(const Value* v) {
  auto it = entry_env_.find(v);
  if (it != entry_env_.end()) return it->second;
  // Entry-context evaluation on demand (certificates ask about guard
  // operands that never fed an access offset).
  StructureCache structures;
  Context root;
  root.id = 0;
  root.func = &entry_;
  root.env = &entry_env_;
  root.structures = &structures;
  const FunctionStructure& s = structure_of(structures, entry_);
  root.domtree = s.domtree.get();
  root.loops = s.loops.get();
  eval(v, root);
  return entry_env_.at(v);
}

bool SharedAccessAnalysis::var_invariant(int var) const {
  const SymVar& v = vars_.var(var);
  switch (v.kind) {
    case SymVar::Kind::Tid:
      return false;
    case SymVar::Kind::NumThreads:
      return true;
    case SymVar::Kind::Opaque:
      // Only entry-context opaques get the real judgement; callee-context
      // values are conservatively variant.
      return v.context == 0 && v.origin != nullptr &&
             thread_invariant(v.origin);
  }
  return false;
}

}  // namespace bw::analysis
