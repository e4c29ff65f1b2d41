#include "analysis/race_checker.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "analysis/barrier_phases.h"
#include "analysis/lock_dominators.h"
#include "analysis/shared_access.h"
#include "ir/dominators.h"
#include "ir/loop_info.h"

namespace bw::analysis {

using namespace bw::ir;

std::string RaceSite::to_string() const {
  std::ostringstream os;
  os << (is_write ? "write" : "read");
  if (is_atomic) os << " (atomic)";
  os << " of '" << (global != nullptr ? global->name() : "?") << "'";
  if (loc.valid()) os << " at " << loc.to_string();
  return os.str();
}

namespace {

/// Can `to` be reached from `from` without passing through `banned`?
bool reachable_avoiding(const BasicBlock* from, const BasicBlock* to,
                        const BasicBlock* banned) {
  if (from == banned) return false;
  std::unordered_set<const BasicBlock*> visited;
  std::deque<const BasicBlock*> work{from};
  while (!work.empty()) {
    const BasicBlock* bb = work.front();
    work.pop_front();
    if (bb == banned || !visited.insert(bb).second) continue;
    if (bb == to) return true;
    const Instruction* term = bb->terminator();
    if (term == nullptr) continue;
    for (const BasicBlock* succ : term->successors()) work.push_back(succ);
  }
  return false;
}

/// A dominating-guard fact: when the access runs, branch `br` last took
/// arm `arm` (arm 0 = condition true) and the condition's operands have
/// not been recomputed since. `ptc` marks per-thread-constant conditions,
/// which hold as thread-level truths rather than path-local ones.
struct Fact {
  const Instruction* br = nullptr;
  int arm = 0;
  bool ptc = false;

  bool polarity() const noexcept { return arm == 0; }
};

bool structural_equal(const Value* a, const Value* b, int depth = 0) {
  if (a == b) return true;
  if (depth > 16) return false;
  const auto* ca = dyn_cast<ConstantInt>(a);
  const auto* cb = dyn_cast<ConstantInt>(b);
  if (ca != nullptr && cb != nullptr) return ca->value() == cb->value();
  const auto* ia = dyn_cast<Instruction>(a);
  const auto* ib = dyn_cast<Instruction>(b);
  if (ia == nullptr || ib == nullptr) return false;
  if (ia->opcode() != ib->opcode()) return false;
  switch (ia->opcode()) {
    case Opcode::Tid:
    case Opcode::NumThreads:
      return true;
    case Opcode::Phi:
    case Opcode::Call:
    case Opcode::AtomicAdd:
    case Opcode::HashRand:
      return false;  // identity matters; pointer equality handled above
    default:
      break;
  }
  if (ia->is_cmp() && ia->cmp_pred() != ib->cmp_pred()) return false;
  if (ia->num_operands() != ib->num_operands()) return false;
  for (std::size_t i = 0; i < ia->num_operands(); ++i) {
    if (!structural_equal(ia->operand(i), ib->operand(i), depth + 1)) {
      return false;
    }
  }
  return true;
}

bool poly_contains_var(const LinPoly& p, int var) {
  for (const auto& [m, c] : p.terms) {
    if (std::find(m.begin(), m.end(), var) != m.end()) return true;
  }
  return false;
}

void poly_collect_vars(const LinPoly& p, std::unordered_set<int>& out) {
  for (const auto& [m, c] : p.terms) {
    for (int v : m) out.insert(v);
  }
}

/// residue == 1*tid + c for a constant c?
std::optional<std::int64_t> tid_plus_const(const LinPoly& p, int tid_var) {
  if (p.terms.size() != 1) return std::nullopt;
  const auto& [m, c] = p.terms.front();
  if (m.size() != 1 || m.front() != tid_var || c != 1) return std::nullopt;
  return p.constant;
}

using LockSet = std::vector<std::int64_t>;

bool sets_intersect(const LockSet& a, const LockSet& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Per-access certificate inputs, derived once from a SharedAccess.
struct AccessRec {
  const SharedAccess* access = nullptr;
  LockSet held;
  std::vector<Fact> facts;
  std::vector<std::int64_t> tid_consts;  // proven facts tid == c
  LinPoly residue;                       // offset mod nthreads, substituted
  LinPoly lo, hi;                        // effective per-execution bounds
  // Strided decomposition of the exact offset: stride * var + koff.
  bool strided = false;
  int svar = -1;
  std::int64_t stride = 1;
  std::int64_t koff = 0;
  std::optional<LinPoly> svar_residue;  // residue class of the strided var
};

class Checker {
 public:
  Checker(const Module& module, const Function& entry)
      : module_(module),
        entry_(entry),
        phases_(entry, callees_have_barriers()),
        shares_(module, entry, phases_),
        locks_(module),
        domtree_(entry),
        loops_(entry, domtree_) {
    aligned_ = phases_.verify_alignment(
        [&](const Value* v) { return shares_.thread_invariant(v); });
    if (!aligned_) shares_.recompute_invariance();
    callee_locks_ = false;
    for (const auto& func : module_.functions()) {
      if (func.get() == &entry_) continue;
      for (const auto& bb : func->blocks()) {
        for (const auto& inst : bb->instructions()) {
          if (inst->opcode() == Opcode::LockAcquire ||
              inst->opcode() == Opcode::LockRelease) {
            callee_locks_ = true;
          }
        }
      }
    }
    u_var_ = shares_.symtab_mutable().opaque_var(nullptr, -1, /*nonneg=*/true);
    e_var_ = shares_.symtab_mutable().opaque_var(nullptr, -2, /*nonneg=*/true);
  }

  RaceCheckResult run() {
    RaceCheckResult result;
    result.analyzable = true;
    result.alignment_verified = aligned_;
    result.conservative_phases = phases_.conservative();
    result.truncated = shares_.truncated();
    result.num_regions = phases_.num_regions();
    result.num_accesses = shares_.accesses().size();

    std::vector<AccessRec> recs;
    recs.reserve(shares_.accesses().size());
    for (const SharedAccess& access : shares_.accesses()) {
      recs.push_back(build_rec(access));
    }

    // Verdicts per unordered *site* pair: every context instance of the
    // pair must be certified, otherwise the site pair is a candidate.
    struct SiteVerdict {
      const AccessRec* a = nullptr;
      const AccessRec* b = nullptr;
      std::string certificate;  // empty = candidate
      bool decided = false;
    };
    std::map<std::pair<const Instruction*, const Instruction*>, SiteVerdict>
        verdicts;

    for (std::size_t i = 0; i < recs.size(); ++i) {
      for (std::size_t j = i; j < recs.size(); ++j) {
        const AccessRec& a = recs[i];
        const AccessRec& b = recs[j];
        if (a.access->global != b.access->global) continue;
        if (!a.access->is_write && !b.access->is_write) continue;
        if (a.access->is_atomic && b.access->is_atomic) continue;
        ++result.pairs_examined;
        std::optional<std::string> cert = certify(a, b);

        const Instruction* k1 = a.access->instr;
        const Instruction* k2 = b.access->instr;
        if (k2 < k1) std::swap(k1, k2);
        SiteVerdict& v = verdicts[{k1, k2}];
        if (v.a == nullptr) {
          v.a = &a;
          v.b = &b;
        }
        if (!cert.has_value()) {
          v.certificate.clear();
          v.decided = true;  // candidate wins over any proof
        } else if (!v.decided || !v.certificate.empty()) {
          if (v.certificate.empty() && !v.decided) v.certificate = *cert;
          v.decided = true;
        }
      }
    }

    for (const auto& [key, v] : verdicts) {
      RacePair pair;
      pair.first = site_of(*v.a);
      pair.second = site_of(*v.b);
      pair.certificate = v.certificate;
      if (v.certificate.empty()) {
        result.candidates.push_back(std::move(pair));
      } else {
        result.proven.push_back(std::move(pair));
      }
    }
    auto order = [](const RacePair& x, const RacePair& y) {
      auto tup = [](const RacePair& p) {
        return std::make_tuple(p.first.loc.line, p.first.loc.column,
                               p.second.loc.line, p.second.loc.column,
                               p.first.global != nullptr ? p.first.global->name()
                                                         : std::string());
      };
      return tup(x) < tup(y);
    };
    std::sort(result.candidates.begin(), result.candidates.end(), order);
    std::sort(result.proven.begin(), result.proven.end(), order);
    return result;
  }

 private:
  bool callees_have_barriers() const {
    std::unordered_set<const Function*> visited{&entry_};
    std::deque<const Function*> work;
    for (const auto& bb : entry_.blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() == Opcode::Call && inst->callee() != nullptr) {
          work.push_back(inst->callee());
        }
      }
    }
    while (!work.empty()) {
      const Function* f = work.front();
      work.pop_front();
      if (!visited.insert(f).second) continue;
      for (const auto& bb : f->blocks()) {
        for (const auto& inst : bb->instructions()) {
          if (inst->opcode() == Opcode::Barrier) return true;
          if (inst->opcode() == Opcode::Call && inst->callee() != nullptr) {
            work.push_back(inst->callee());
          }
        }
      }
    }
    return false;
  }

  RaceSite site_of(const AccessRec& rec) const {
    RaceSite site;
    site.instr = rec.access->instr;
    site.global = rec.access->global;
    site.loc = rec.access->instr->loc();
    site.is_write = rec.access->is_write;
    site.is_atomic = rec.access->is_atomic;
    return site;
  }

  // --- Dominating-guard facts ----------------------------------------------

  const std::vector<Fact>& facts_for_block(const BasicBlock* bb) {
    auto it = fact_memo_.find(bb);
    if (it != fact_memo_.end()) return it->second;
    if (!facts_in_progress_.insert(bb).second) {
      // Phi-indicator derivation re-entered a block currently being
      // computed; breaking the cycle with "no facts" is always sound.
      static const std::vector<Fact> kNoFacts;
      return kNoFacts;
    }
    std::vector<Fact> facts;
    for (const BasicBlock* d = domtree_.idom(bb); d != nullptr;
         d = domtree_.idom(d)) {
      const Instruction* term = d->terminator();
      if (term == nullptr || !term->is_cond_branch()) continue;
      const auto& succs = term->successors();
      if (succs.size() != 2 || succs[0] == succs[1]) continue;
      for (int arm = 0; arm < 2; ++arm) {
        if (!domtree_.dominates(succs[static_cast<std::size_t>(arm)], bb)) {
          continue;
        }
        bool ptc = shares_.per_thread_constant(term->operand(0));
        if (!ptc) {
          // Path-local fact: valid only if (a) no path sneaks in from the
          // other arm and (b) no containing loop can recompute the
          // condition's inputs between the branch and the access.
          if (reachable_avoiding(succs[static_cast<std::size_t>(1 - arm)], bb,
                                 d)) {
            continue;
          }
          bool stale = false;
          for (const ir::Loop* loop = loops_.loop_for(d); loop != nullptr;
               loop = loop->parent) {
            if (reachable_avoiding(loop->header, bb, d)) stale = true;
          }
          if (stale) continue;
        }
        facts.push_back({term, arm, ptc});
      }
    }
    derive_indicator_facts(facts);
    facts_in_progress_.erase(bb);
    return fact_memo_.emplace(bb, std::move(facts)).first->second;
  }

  /// Phi-indicator derivation: for a fact `phi == c` where every incoming
  /// value is a known constant, any branch fact holding at EVERY c-valued
  /// incoming block also holds here. The phi value witnesses that control
  /// most recently entered through a c-valued edge, and no path from the
  /// inherited guard can re-reach this access without re-evaluating the
  /// phi (the phi's block dominates the access, so any such path would
  /// have to cross it). Covers `mine == 1` flags set under a tid or
  /// modulo-partition test, where the guard itself dies at the join.
  void derive_indicator_facts(std::vector<Fact>& facts) {
    std::vector<Fact> derived;
    for (const Fact& fact : facts) {
      auto eq = equality_of(fact);
      if (!eq.has_value()) continue;
      for (int side = 0; side < 2; ++side) {
        const Value* x = side == 0 ? eq->first : eq->second;
        const Value* y = side == 0 ? eq->second : eq->first;
        const auto* phi = dyn_cast<Instruction>(x);
        if (phi == nullptr || !phi->is_phi()) continue;
        const AbsVal& yv = shares_.abs_value(y);
        if (!yv.exact.is_constant()) continue;
        std::int64_t c = yv.exact.constant;
        // Intersect the fact sets of all c-valued incoming blocks.
        bool viable = true;
        bool first_c = true;
        std::vector<Fact> common;
        for (std::size_t k = 0; k < phi->num_operands(); ++k) {
          const AbsVal& inc = shares_.abs_value(phi->operand(k));
          if (!inc.exact.is_constant()) {
            viable = false;
            break;
          }
          if (inc.exact.constant != c) continue;
          const std::vector<Fact>& at_src =
              facts_for_block(phi->incoming_blocks()[k]);
          if (first_c) {
            common = at_src;
            first_c = false;
          } else {
            std::vector<Fact> kept;
            for (const Fact& g : common) {
              for (const Fact& h : at_src) {
                if (g.br == h.br && g.arm == h.arm) {
                  kept.push_back(g);
                  break;
                }
              }
            }
            common = std::move(kept);
          }
          if (common.empty()) break;
        }
        if (!viable || first_c) continue;  // no c-incoming at all
        derived.insert(derived.end(), common.begin(), common.end());
      }
    }
    for (const Fact& d : derived) {
      bool dup = false;
      for (const Fact& f : facts) {
        if (f.br == d.br && f.arm == d.arm) dup = true;
      }
      if (!dup) facts.push_back(d);
    }
  }

  /// The equality a fact asserts, if any: EQ taken true or NE taken false.
  std::optional<std::pair<const Value*, const Value*>> equality_of(
      const Fact& fact) {
    const auto* cond = dyn_cast<Instruction>(fact.br->operand(0));
    if (cond == nullptr || cond->opcode() != Opcode::ICmp) return std::nullopt;
    bool eq = (cond->cmp_pred() == CmpPred::EQ && fact.polarity()) ||
              (cond->cmp_pred() == CmpPred::NE && !fact.polarity());
    if (!eq) return std::nullopt;
    return std::make_pair(cond->operand(0), cond->operand(1));
  }

  // --- Per-access record -----------------------------------------------------

  AccessRec build_rec(const SharedAccess& access) {
    AccessRec rec;
    rec.access = &access;

    rec.held = locks_.held_at(access.instr);
    const Function* home = access.instr->parent() != nullptr
                               ? access.instr->parent()->parent()
                               : nullptr;
    if (home != &entry_ && !callee_locks_) {
      // Lock-transparent call chain: locks held at the call site in the
      // entry are still held inside the callee.
      for (std::int64_t id : locks_.held_at(access.anchor)) {
        auto pos = std::lower_bound(rec.held.begin(), rec.held.end(), id);
        if (pos == rec.held.end() || *pos != id) rec.held.insert(pos, id);
      }
    }

    rec.facts = facts_for_block(access.anchor->parent());

    // tid == c facts and var-residue substitutions from equalities.
    std::unordered_map<int, LinPoly> var_residues;
    const int tid = shares_.symtab().tid_var();
    for (const Fact& fact : rec.facts) {
      auto eq = equality_of(fact);
      if (!eq.has_value()) continue;
      const AbsVal& xv = shares_.abs_value(eq->first);
      const AbsVal& yv = shares_.abs_value(eq->second);
      for (int side = 0; side < 2; ++side) {
        const AbsVal& a = side == 0 ? xv : yv;
        const AbsVal& b = side == 0 ? yv : xv;
        if (fact.ptc && a.exact == poly_var(tid) && b.exact.is_constant()) {
          rec.tid_consts.push_back(b.exact.constant);
        }
        // Residues are per-execution relations; ptc not required.
        LinPoly ra = residue_of(a, shares_.symtab());
        LinPoly rb = residue_of(b, shares_.symtab());
        if (ra.constant == 0 && ra.terms.size() == 1 &&
            ra.terms.front().first.size() == 1 &&
            ra.terms.front().second == 1 &&
            ra.terms.front().first.front() != tid) {
          var_residues.emplace(ra.terms.front().first.front(), rb);
        }
      }
    }
    std::sort(rec.tid_consts.begin(), rec.tid_consts.end());

    // Effective residue of the offset under the fact substitutions.
    rec.residue = residue_of(access.offset, shares_.symtab());
    for (int round = 0; round < 4; ++round) {
      bool changed = false;
      for (const auto& [v, r] : var_residues) {
        if (!poly_contains_var(rec.residue, v)) continue;
        auto next = poly_subst(rec.residue, v, r);
        if (!next.has_value()) continue;
        rec.residue = poly_mod_normalize(*next, shares_.symtab());
        changed = true;
      }
      if (!changed) break;
    }

    rec.lo = access.offset.lo.has_value() ? *access.offset.lo
                                          : access.offset.exact;
    rec.hi = access.offset.hi.has_value() ? *access.offset.hi
                                          : access.offset.exact;

    // Strided decomposition: exact == stride * var + koff.
    const LinPoly& exact = access.offset.exact;
    if (exact.terms.size() == 1 && exact.terms.front().first.size() == 1 &&
        exact.terms.front().second > 0) {
      rec.strided = true;
      rec.svar = exact.terms.front().first.front();
      rec.stride = exact.terms.front().second;
      rec.koff = exact.constant;
      if (rec.svar == tid) {
        rec.svar_residue = poly_var(tid);
      } else {
        auto it = var_residues.find(rec.svar);
        if (it != var_residues.end()) {
          rec.svar_residue = it->second;
        } else if (rec.stride == 1) {
          // residue(offset) == residue(var) + koff when stride is 1.
          rec.svar_residue = poly_sub(rec.residue, poly_constant(rec.koff));
        }
      }
    }
    return rec;
  }

  // --- Certificates ----------------------------------------------------------

  /// Can this opaque variable be shared between two threads of the same
  /// dynamic phase (same value on both)? True for per-thread-constant
  /// origins; under verified alignment, also for values whose containing
  /// loops all cross a barrier (same iteration in the same phase).
  bool stable_var(int var) {
    const SymVar& v = shares_.symtab().var(var);
    if (v.kind == SymVar::Kind::NumThreads) return true;
    if (v.kind == SymVar::Kind::Tid) return false;  // callers special-case
    if (v.origin == nullptr || v.context != 0) return false;
    if (!shares_.thread_invariant(v.origin)) return false;
    if (shares_.per_thread_constant(v.origin)) return true;
    const auto* inst = dyn_cast<Instruction>(v.origin);
    if (inst == nullptr || !aligned_) return false;
    return loops_all_have_barriers(inst->parent());
  }

  bool loops_all_have_barriers(const BasicBlock* bb) {
    for (const ir::Loop* loop = loops_.loop_for(bb); loop != nullptr;
         loop = loop->parent) {
      bool has_barrier = false;
      for (const BasicBlock* lb : loop->blocks) {
        for (const auto& inst : lb->instructions()) {
          if (inst->opcode() == Opcode::Barrier) has_barrier = true;
        }
      }
      if (!has_barrier) return false;
    }
    return true;
  }

  bool bounds_usable(const LinPoly& p) {
    std::unordered_set<int> vars;
    poly_collect_vars(p, vars);
    for (int v : vars) {
      if (v == shares_.symtab().tid_var()) continue;
      if (!stable_var(v)) return false;
    }
    return true;
  }

  bool intervals_disjoint(const AccessRec& a, const AccessRec& b) {
    if (!bounds_usable(a.lo) || !bounds_usable(a.hi) || !bounds_usable(b.lo) ||
        !bounds_usable(b.hi)) {
      return false;
    }
    const SymTable& vars = shares_.symtab();
    LinPoly u = poly_var(u_var_);
    auto at_u = [&](const LinPoly& p) {
      return poly_subst(p, vars.tid_var(), u);
    };
    auto at_t = [&](const LinPoly& p) {
      return poly_split_tid(p, vars, u_var_, e_var_);  // tid := u + 1 + e
    };
    auto ge1 = [&](const std::optional<LinPoly>& lo,
                   const std::optional<LinPoly>& hi) {
      if (!lo.has_value() || !hi.has_value()) return false;
      auto min = poly_min(poly_sub(*lo, *hi), vars);
      return min.has_value() && *min >= 1;
    };
    // Case t > u: a at thread t, b at thread u — and the mirror case.
    bool case1 = ge1(at_u(b.lo), at_t(a.hi)) || ge1(at_t(a.lo), at_u(b.hi));
    bool case2 = ge1(at_u(a.lo), at_t(b.hi)) || ge1(at_t(b.lo), at_u(a.hi));
    return case1 && case2;
  }

  bool refinement_cert(const AccessRec& a, const AccessRec& b) {
    for (const Fact& fa : a.facts) {
      const Value* ca = fa.br->operand(0);
      if (!shares_.thread_invariant(ca)) continue;
      bool fa_stable = shares_.per_thread_constant(ca) ||
                       (aligned_ && loops_all_have_barriers(fa.br->parent()));
      if (!fa_stable) continue;
      for (const Fact& fb : b.facts) {
        if (fa.polarity() == fb.polarity() &&
            !(fa.br == fb.br && fa.arm != fb.arm)) {
          continue;
        }
        const Value* cb = fb.br->operand(0);
        if (fa.br == fb.br) {
          if (fa.arm != fb.arm) return true;
          continue;
        }
        if (!shares_.thread_invariant(cb)) continue;
        bool fb_stable =
            shares_.per_thread_constant(cb) ||
            (aligned_ && loops_all_have_barriers(fb.br->parent()));
        if (!fb_stable) continue;
        if (structural_equal(ca, cb)) return true;
      }
    }
    return false;
  }

  std::optional<std::string> certify(const AccessRec& a, const AccessRec& b) {
    if (!phases_.may_share_region(a.access->anchor, b.access->anchor)) {
      return "phase-separated";
    }
    if (sets_intersect(a.held, b.held)) return "lock";
    if (sets_intersect(a.tid_consts, b.tid_consts)) return "tid-guard";
    if (a.access != b.access && refinement_cert(a, b)) return "refinement";
    const int tid = shares_.symtab().tid_var();
    if (a.strided && b.strided && a.stride == b.stride) {
      if (a.koff != b.koff && a.koff >= 0 && a.koff < a.stride &&
          b.koff >= 0 && b.koff < b.stride) {
        return "stride-offset";
      }
      if (a.koff == b.koff && a.svar_residue.has_value() &&
          b.svar_residue.has_value()) {
        auto ca = tid_plus_const(*a.svar_residue, tid);
        auto cb = tid_plus_const(*b.svar_residue, tid);
        if (ca.has_value() && cb.has_value() && *ca == *cb) {
          return "mod-class";
        }
      }
    }
    {
      auto ca = tid_plus_const(a.residue, tid);
      auto cb = tid_plus_const(b.residue, tid);
      if (ca.has_value() && cb.has_value() && *ca == *cb) return "mod-class";
    }
    if (intervals_disjoint(a, b)) return "interval";
    return std::nullopt;
  }

  const Module& module_;
  const Function& entry_;
  BarrierPhases phases_;
  SharedAccessAnalysis shares_;
  LockDominators locks_;
  DominatorTree domtree_;
  LoopInfo loops_;
  bool aligned_ = false;
  bool callee_locks_ = false;
  int u_var_ = -1;
  int e_var_ = -1;
  std::unordered_map<const BasicBlock*, std::vector<Fact>> fact_memo_;
  std::unordered_set<const BasicBlock*> facts_in_progress_;
};

}  // namespace

RaceCheckResult check_races(const Module& module,
                            const std::string& entry_name) {
  const Function* entry = module.find_function(entry_name);
  if (entry == nullptr || entry->empty()) return RaceCheckResult{};
  Checker checker(module, *entry);
  return checker.run();
}

}  // namespace bw::analysis
