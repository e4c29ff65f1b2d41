// The direct-threaded execution tier: module fingerprinting + decode cache,
// the DecodedProgram -> ThreadedFunction translator, and the dispatch loop
// itself (computed goto on GNU-compatible compilers, switch fallback
// elsewhere or with -DBW_COMPUTED_GOTO=OFF). See dispatch.h for the design
// contract; tests/tier_differential_test.cpp for the bit-identity proof.
#include "vm/dispatch.h"

#include <cstring>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "support/telemetry/telemetry.h"
#include "vm/exec_internal.h"

#if defined(BW_COMPUTED_GOTO) && BW_COMPUTED_GOTO && \
    (defined(__GNUC__) || defined(__clang__))
#define BW_USE_COMPUTED_GOTO 1
#else
#define BW_USE_COMPUTED_GOTO 0
#endif

namespace bw::vm {

const char* to_string(ExecTier tier) {
  switch (tier) {
    case ExecTier::Auto: return "auto";
    case ExecTier::Interpreter: return "interpreter";
    case ExecTier::Threaded: return "threaded";
  }
  return "<bad-tier>";
}

bool parse_exec_tier(std::string_view name, ExecTier& out) {
  if (name == "auto") {
    out = ExecTier::Auto;
  } else if (name == "interpreter") {
    out = ExecTier::Interpreter;
  } else if (name == "threaded") {
    out = ExecTier::Threaded;
  } else {
    return false;
  }
  return true;
}

ExecTier resolve_tier(ExecTier requested) {
  return requested == ExecTier::Auto ? ExecTier::Threaded : requested;
}

// ---------------------------------------------------------------------------
// Translator: DecodedProgram -> ThreadedFunction (one-time, per module).
// ---------------------------------------------------------------------------

namespace {

class FunctionTranslator {
 public:
  explicit FunctionTranslator(const DFunction& f) : f_(f) {
    out_.num_regs = f.num_regs;
  }

  ThreadedFunction translate() {
    out_.code.reserve(f_.code.size());
    const std::size_t num_blocks =
        f_.block_first.empty() ? 0 : f_.block_first.size() - 1;
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      for (std::uint32_t ip = f_.block_first[b];
           ip < f_.block_first[b + 1]; ++ip) {
        out_.code.push_back(encode(f_.code[ip], b));
      }
    }
    out_.num_slots =
        f_.num_regs + static_cast<std::uint32_t>(out_.consts.size());
    return std::move(out_);
  }

 private:
  /// Frame slot of an operand: the register index, or a (deduplicated)
  /// constant slot holding the operand's raw 64-bit pattern — exactly what
  /// ThreadRunner::raw() returns for it, so hashes and moves agree with
  /// the interpreter bit for bit.
  std::uint32_t slot(const DOperand& op) {
    if (op.kind == DOperand::Kind::Reg) return op.reg;
    const std::uint64_t bits =
        op.kind == DOperand::Kind::ImmF
            ? std::bit_cast<std::uint64_t>(op.f)
            : static_cast<std::uint64_t>(op.i);
    auto [it, inserted] = const_slots_.try_emplace(
        bits, f_.num_regs + static_cast<std::uint32_t>(out_.consts.size()));
    if (inserted) out_.consts.push_back(static_cast<std::int64_t>(bits));
    return it->second;
  }

  /// Pre-resolve the edge from_block -> target: phi matching happens here,
  /// once, instead of on every dynamic block entry. An unmatched phi makes
  /// the edge trap when taken (the interpreter traps at the same point, at
  /// the first unmatched phi, before charging any phi instructions).
  std::uint32_t edge(std::uint32_t from, std::uint32_t target) {
    TEdge e;
    e.target_block = target;
    const std::uint32_t first = f_.block_first[target];
    std::uint32_t i = first;
    e.moves_first = static_cast<std::uint32_t>(out_.moves.size());
    while (i < f_.block_first[target + 1] &&
           f_.code[i].op == ir::Opcode::Phi) {
      const DInst& phi = f_.code[i];
      bool matched = false;
      for (const DPhiEntry& entry : phi.phis) {
        if (entry.pred_block == from) {
          out_.moves.push_back({phi.dest, slot(entry.value)});
          matched = true;
          break;
        }
      }
      if (!matched) {
        e.bad_phi = true;
        break;
      }
      ++i;
    }
    e.moves_count =
        static_cast<std::uint32_t>(out_.moves.size()) - e.moves_first;
    e.target_ip = i;
    e.phi_count = i - first;
    for (std::uint32_t a = e.moves_first;
         a < e.moves_first + e.moves_count && !e.needs_staging; ++a) {
      for (std::uint32_t b = e.moves_first;
           b < e.moves_first + e.moves_count; ++b) {
        if (a != b && out_.moves[a].dest == out_.moves[b].src) {
          e.needs_staging = true;
          break;
        }
      }
    }
    out_.edges.push_back(e);
    return static_cast<std::uint32_t>(out_.edges.size()) - 1;
  }

  void pool_range(const std::vector<DOperand>& ops, TInst& t) {
    t.a = static_cast<std::uint32_t>(out_.pool.size());
    t.b = static_cast<std::uint32_t>(ops.size());
    for (const DOperand& op : ops) out_.pool.push_back(slot(op));
  }

  TInst unary(THandler h, const DInst& d) {
    TInst t;
    t.handler = h;
    t.dest = d.dest;
    t.a = slot(d.ops[0]);
    return t;
  }

  TInst binary(THandler h, const DInst& d) {
    TInst t = unary(h, d);
    t.b = slot(d.ops[1]);
    return t;
  }

  TInst encode(const DInst& d, std::uint32_t b) {
    TInst t;
    switch (d.op) {
      case ir::Opcode::Add: return binary(THandler::Add, d);
      case ir::Opcode::Sub: return binary(THandler::Sub, d);
      case ir::Opcode::Mul: return binary(THandler::Mul, d);
      case ir::Opcode::SDiv: return binary(THandler::SDiv, d);
      case ir::Opcode::SRem: return binary(THandler::SRem, d);
      case ir::Opcode::And: return binary(THandler::And, d);
      case ir::Opcode::Or: return binary(THandler::Or, d);
      case ir::Opcode::Xor: return binary(THandler::Xor, d);
      case ir::Opcode::Shl: return binary(THandler::Shl, d);
      case ir::Opcode::AShr: return binary(THandler::AShr, d);
      case ir::Opcode::FAdd: return binary(THandler::FAdd, d);
      case ir::Opcode::FSub: return binary(THandler::FSub, d);
      case ir::Opcode::FMul: return binary(THandler::FMul, d);
      case ir::Opcode::FDiv: return binary(THandler::FDiv, d);
      case ir::Opcode::ICmp:
        t = binary(THandler::ICmp, d);
        t.pred = d.pred;
        return t;
      case ir::Opcode::FCmp:
        t = binary(THandler::FCmp, d);
        t.pred = d.pred;
        return t;
      case ir::Opcode::SIToFP: return unary(THandler::SIToFP, d);
      case ir::Opcode::FPToSI: return unary(THandler::FPToSI, d);
      case ir::Opcode::Select:
        t = binary(THandler::Select, d);
        t.c = slot(d.ops[2]);
        return t;
      case ir::Opcode::Alloca:
        t.handler = THandler::Alloca;
        t.dest = d.dest;
        return t;
      case ir::Opcode::Load: return unary(THandler::Load, d);
      case ir::Opcode::Store:
        t.handler = THandler::Store;
        t.a = slot(d.ops[0]);  // value
        t.b = slot(d.ops[1]);  // address
        return t;
      case ir::Opcode::Gep: return binary(THandler::Gep, d);
      case ir::Opcode::Br:
        t.handler = THandler::Br;
        t.a = edge(b, d.succ0);
        return t;
      case ir::Opcode::CondBr:
        t.handler = THandler::CondBr;
        t.a = slot(d.ops[0]);
        t.b = edge(b, d.succ0);
        t.c = edge(b, d.succ1);
        return t;
      case ir::Opcode::Ret:
        t.handler = THandler::Ret;
        if (!d.ops.empty()) t.a = slot(d.ops[0]);
        return t;
      case ir::Opcode::Phi:
        // Resolved into edge moves; the slot is never dispatched (edges
        // land past it) unless the IR falls through into a block.
        t.handler = THandler::Unreachable;
        return t;
      case ir::Opcode::Call:
        t.handler = THandler::Call;
        pool_range(d.ops, t);
        t.dest = d.dest;
        t.imm = d.imm;
        t.aux = d.callee;
        return t;
      case ir::Opcode::Tid:
        t.handler = THandler::Tid;
        t.dest = d.dest;
        return t;
      case ir::Opcode::NumThreads:
        t.handler = THandler::NumThreads;
        t.dest = d.dest;
        return t;
      case ir::Opcode::Barrier:
        t.handler = THandler::Barrier;
        return t;
      case ir::Opcode::LockAcquire:
        t.handler = THandler::LockAcquire;
        t.a = slot(d.ops[0]);
        return t;
      case ir::Opcode::LockRelease:
        t.handler = THandler::LockRelease;
        t.a = slot(d.ops[0]);
        return t;
      case ir::Opcode::AtomicAdd: return binary(THandler::AtomicAdd, d);
      case ir::Opcode::PrintI64:
        t.handler = THandler::PrintI64;
        t.a = slot(d.ops[0]);
        return t;
      case ir::Opcode::PrintF64:
        t.handler = THandler::PrintF64;
        t.a = slot(d.ops[0]);
        return t;
      case ir::Opcode::HashRand: return unary(THandler::HashRand, d);
      case ir::Opcode::Sqrt: return unary(THandler::Sqrt, d);
      case ir::Opcode::Sin: return unary(THandler::Sin, d);
      case ir::Opcode::Cos: return unary(THandler::Cos, d);
      case ir::Opcode::FAbs: return unary(THandler::FAbs, d);
      case ir::Opcode::Floor: return unary(THandler::Floor, d);
      case ir::Opcode::BwSendCond:
        t.handler = THandler::BwSendCond;
        pool_range(d.ops, t);
        t.imm = d.imm;
        return t;
      case ir::Opcode::BwSendOutcome:
        t.handler = THandler::BwSendOutcome;
        t.imm = d.imm;
        t.flag = d.flag ? 1 : 0;
        return t;
      case ir::Opcode::BwLoopEnter:
        t.handler = THandler::BwLoopEnter;
        t.imm = d.imm;
        return t;
      case ir::Opcode::BwLoopIter:
        t.handler = THandler::BwLoopIter;
        t.imm = d.imm;
        return t;
      case ir::Opcode::BwLoopExit:
        t.handler = THandler::BwLoopExit;
        t.imm = d.imm;
        return t;
    }
    t.handler = THandler::Unreachable;
    return t;
  }

  const DFunction& f_;
  ThreadedFunction out_;
  std::unordered_map<std::uint64_t, std::uint32_t> const_slots_;
};

}  // namespace

ProgramCode::ProgramCode(const ir::Module& module) : decoded(module) {
  threaded.reserve(decoded.functions.size());
  for (const DFunction& f : decoded.functions) {
    threaded.push_back(FunctionTranslator(f).translate());
  }
}

// ---------------------------------------------------------------------------
// Decode cache.
// ---------------------------------------------------------------------------

namespace {

/// Content fingerprint over everything decode reads, INCLUDING the
/// addresses of every component (globals, functions, blocks, instructions,
/// operands, callees). A fingerprint match therefore proves the cached
/// decode was built from these exact live objects — which makes its
/// pointer-keyed GlobalLayout (dereferenced by make_initial_heap at run
/// time) safe to reuse — while any in-place mutation (the instrumentation
/// pass inserting bw.* ops, a changed immediate) changes the fingerprint
/// and forces a re-decode.
std::uint64_t module_fingerprint(const ir::Module& module) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  auto mix = [&h](std::uint64_t v) { h = support::hash_combine(h, v); };
  auto mix_ptr = [&](const void* p) {
    mix(static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p)));
  };
  auto mix_str = [&](const std::string& s) {
    mix(std::hash<std::string>{}(s));
  };

  mix_ptr(&module);
  mix(module.globals().size());
  for (const auto& g : module.globals()) {
    mix_ptr(g.get());
    mix_str(g->name());
    mix(static_cast<std::uint64_t>(g->element_type()));
    mix(g->size());
    mix(g->init_words().size());
    for (std::int64_t w : g->init_words()) {
      mix(static_cast<std::uint64_t>(w));
    }
  }
  mix(module.functions().size());
  for (const auto& fn : module.functions()) {
    mix_ptr(fn.get());
    mix_str(fn->name());
    mix(fn->num_args());
    for (const auto& arg : fn->args()) mix_ptr(arg.get());
    mix(fn->blocks().size());
    for (const auto& bb : fn->blocks()) {
      mix_ptr(bb.get());
      mix(bb->size());
      for (const auto& inst : bb->instructions()) {
        mix_ptr(inst.get());
        mix(static_cast<std::uint64_t>(inst->opcode()));
        mix(static_cast<std::uint64_t>(inst->cmp_pred()));
        mix(inst->imm());
        mix(inst->flag() ? 1u : 2u);
        mix_ptr(inst->callee());
        for (const ir::Value* op : inst->operands()) {
          mix_ptr(op);
          if (const auto* ci = ir::dyn_cast<ir::ConstantInt>(op)) {
            mix(static_cast<std::uint64_t>(ci->value()));
          } else if (const auto* cf =
                         ir::dyn_cast<ir::ConstantFloat>(op)) {
            mix(std::bit_cast<std::uint64_t>(cf->value()));
          }
        }
        for (const ir::BasicBlock* s : inst->successors()) mix_ptr(s);
        for (const ir::BasicBlock* p : inst->incoming_blocks()) mix_ptr(p);
      }
    }
  }
  return h;
}

struct CacheEntry {
  const ir::Module* module = nullptr;
  std::uint64_t fingerprint = 0;
  std::shared_ptr<const ProgramCode> code;
  std::uint64_t stamp = 0;  // LRU tiebreak
};

// A handful of modules are ever live at once (pipeline run + campaign
// golden + injection variants); bounded so dead-module entries cannot
// accumulate across long test sessions. Entries for dead modules are
// inert: they are only ever compared by address + stored fingerprint.
constexpr std::size_t kMaxCacheEntries = 32;

std::mutex g_cache_mu;
std::vector<CacheEntry> g_cache;
std::uint64_t g_cache_hits = 0;
std::uint64_t g_cache_misses = 0;
std::uint64_t g_cache_stamp = 0;

}  // namespace

std::shared_ptr<const ProgramCode> acquire_program_code(
    const ir::Module& module) {
  const std::uint64_t fp = module_fingerprint(module);
  {
    std::lock_guard<std::mutex> lock(g_cache_mu);
    for (CacheEntry& e : g_cache) {
      if (e.module == &module && e.fingerprint == fp) {
        ++g_cache_hits;
        e.stamp = ++g_cache_stamp;
        telemetry::counter_add(telemetry::Counter::DecodeCacheHits);
        return e.code;
      }
    }
  }
  // Decode outside the lock: concurrent first-decodes of one module may
  // duplicate work, but the results are identical and either may win.
  std::shared_ptr<const ProgramCode> code;
  {
    telemetry::SpanScope span(telemetry::Phase::Execution, "vm.decode");
    code = std::make_shared<const ProgramCode>(module);
  }
  std::lock_guard<std::mutex> lock(g_cache_mu);
  ++g_cache_misses;
  telemetry::counter_add(telemetry::Counter::DecodeCacheMisses);
  // The module mutated since it was last cached: its old entry is stale.
  std::erase_if(g_cache,
                [&](const CacheEntry& e) { return e.module == &module; });
  if (g_cache.size() >= kMaxCacheEntries) {
    auto oldest = g_cache.begin();
    for (auto it = g_cache.begin(); it != g_cache.end(); ++it) {
      if (it->stamp < oldest->stamp) oldest = it;
    }
    g_cache.erase(oldest);
  }
  g_cache.push_back(CacheEntry{&module, fp, code, ++g_cache_stamp});
  return code;
}

DecodeCacheStats decode_cache_stats() {
  std::lock_guard<std::mutex> lock(g_cache_mu);
  DecodeCacheStats stats;
  stats.hits = g_cache_hits;
  stats.misses = g_cache_misses;
  stats.entries = g_cache.size();
  return stats;
}

void decode_cache_clear() {
  std::lock_guard<std::mutex> lock(g_cache_mu);
  g_cache.clear();
  g_cache_hits = 0;
  g_cache_misses = 0;
}

// ---------------------------------------------------------------------------
// The threaded dispatch loop.
// ---------------------------------------------------------------------------

namespace detail {

// Handler bodies are written ONCE below and compiled either as computed-
// goto labels or as switch cases. Bit-identity with the interpreter is by
// construction: same ip numbering (1:1 with DFunction::code), the same
// count-poll-execute order per retired instruction, phi instructions
// charged at edge-taking exactly as enter_block charges them, and all
// side-effectful machinery (traps, barriers, monitor reports, fault
// application, snapshots) shared via exec_internal.h.
RtValue ThreadRunner::call_threaded(std::uint32_t func_index,
                                    std::vector<RtValue> args,
                                    std::uint32_t callsite_id) {
  const DFunction& f = m_.program_.functions[func_index];
  const ThreadedFunction& tf = m_.code_->threaded[func_index];
  if (call_depth_ > 512) {
    trap(TrapKind::BadPointer, "call stack overflow");
  }
  ++call_depth_;
  const bool restoring = restore_frames_ != nullptr;
  bool tracked = monitor_ != nullptr && callsite_id != 0;
  if (tracked && !restoring) tracker_.push_call(callsite_id);

  // Unified frame: SSA registers at [0, num_regs) — the same indices the
  // interpreter uses — then the materialized constant slots.
  std::vector<RtValue> slots(tf.num_slots, RtValue{0});
  for (std::size_t i = 0; i < args.size(); ++i) slots[i] = args[i];
  for (std::size_t k = 0; k < tf.consts.size(); ++k) {
    slots[tf.num_regs + k].i = tf.consts[k];
  }

  // The frame never reallocates after this point, so hoist the hot-loop
  // base pointers out of their containers once: across ~50 replicated
  // dispatch sites the register allocator keeps plain locals pinned where
  // repeated vector operator[] loads would be re-issued.
  RtValue* const S = slots.data();
  const TInst* const code = tf.code.data();
  const TEdge* const edges = tf.edges.data();
  const TMove* const moves = tf.moves.data();
  const std::uint32_t* const pool = tf.pool.data();

  RtValue result{0};
  std::uint32_t block = 0;
  std::uint32_t ip = f.block_first.empty() ? 0 : f.block_first[0];

  if (restoring) {
    const FrameSnapshot& fs = (*restore_frames_)[restore_depth_];
    BW_INTERNAL_CHECK(fs.func_index == func_index,
                      "checkpoint frame does not match call target");
    BW_INTERNAL_CHECK(fs.regs.size() == tf.num_regs,
                      "checkpoint frame register count mismatch");
    for (std::size_t i = 0; i < fs.regs.size(); ++i) {
      S[i].i = fs.regs[i];
    }
    block = fs.block;
    ip = fs.ip;  // parent frames: the pending Call; deepest: the Barrier
    if (++restore_depth_ == restore_frames_->size()) {
      restore_frames_ = nullptr;  // stack rebuilt; resume for real
      restore_depth_ = 0;
    }
  }
  frame_stack_.push_back({func_index, callsite_id, &slots, &block, &ip});

  if (tf.code.empty()) {
    trap(TrapKind::BadPointer, "call into empty function");
  }

  // Retired-instruction and branch counters live in locals for the
  // duration of the loop: a member read-modify-write per retired
  // instruction is the largest non-ALU cost per dispatched op. Every
  // escape point — poll, trap, blocking coordinator call, snapshot,
  // recursion, return — syncs them back first (recursion reloads after),
  // so all observable state (outcomes, checkpoints, budget traps, fault
  // anchors) sees exactly the counts the interpreter writes.
  std::uint64_t icount = instructions_;
  std::uint64_t bcount = branches_;
#define BW_SYNC()           \
  do {                      \
    instructions_ = icount; \
    branches_ = bcount;     \
  } while (0)
#define BW_RELOAD()         \
  do {                      \
    icount = instructions_; \
    bcount = branches_;     \
  } while (0)

  // Forced inline: without it GCC outlines the lambda and all ~36 branch
  // handler sites pay a spill-call-reload round trip per taken edge.
  auto take_edge = [&](std::uint32_t ei)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((always_inline))
#endif
  {
    const TEdge& e = edges[ei];
    if (e.bad_phi) {
      BW_SYNC();
      trap(TrapKind::BadPointer, "phi without matching incoming edge");
    }
    if (e.moves_count != 0) {
      const TMove* mv = moves + e.moves_first;
      if (!e.needs_staging) {
        // No move writes a slot another move reads (the decode-time check
        // above), so the parallel copy degenerates to a direct one.
        for (std::uint32_t k = 0; k < e.moves_count; ++k) {
          S[mv[k].dest] = S[mv[k].src];
        }
      } else {
        // Parallel copy: all reads before all writes, matching the
        // interpreter's phi staging.
        phi_staging_.resize(e.moves_count);
        for (std::uint32_t k = 0; k < e.moves_count; ++k) {
          phi_staging_[k] = S[mv[k].src].i;
        }
        for (std::uint32_t k = 0; k < e.moves_count; ++k) {
          S[mv[k].dest].i = phi_staging_[k];
        }
      }
    }
    icount += e.phi_count;  // phis retire without being dispatched
    block = e.target_block;
    ip = e.target_ip;
  };

  const TInst* t = nullptr;

#if BW_USE_COMPUTED_GOTO
  // Base dispatch table; order must match THandler exactly.
  static const void* const kBase[] = {
      &&H_Add, &&H_Sub, &&H_Mul, &&H_SDiv, &&H_SRem,
      &&H_And, &&H_Or, &&H_Xor, &&H_Shl, &&H_AShr,
      &&H_FAdd, &&H_FSub, &&H_FMul, &&H_FDiv,
      &&H_ICmp, &&H_FCmp, &&H_SIToFP, &&H_FPToSI, &&H_Select,
      &&H_Alloca, &&H_Load, &&H_Store, &&H_Gep,
      &&H_Br, &&H_CondBr, &&H_Ret, &&H_Call,
      &&H_Tid, &&H_NumThreads, &&H_Barrier, &&H_LockAcquire,
      &&H_LockRelease, &&H_AtomicAdd,
      &&H_PrintI64, &&H_PrintF64, &&H_HashRand,
      &&H_Sqrt, &&H_Sin, &&H_Cos, &&H_FAbs, &&H_Floor,
      &&H_BwSendCond, &&H_BwSendOutcome, &&H_BwLoopEnter, &&H_BwLoopIter,
      &&H_BwLoopExit, &&H_Unreachable,
  };
  static_assert(sizeof(kBase) / sizeof(kBase[0]) ==
                static_cast<std::size_t>(THandler::kCount));

  // Per-run patching: run-constant properties (no monitor / fault cannot
  // fire here / no recovery) select fast handler variants ONCE instead of
  // being re-checked on every dynamic instruction. The base handlers keep
  // the checks, so patching is purely an optimization.
  const void* table[static_cast<std::size_t>(THandler::kCount)];
  std::memcpy(table, kBase, sizeof(table));
  if (monitor_ == nullptr) {
    table[static_cast<std::size_t>(THandler::BwSendCond)] = &&H_Nop;
    table[static_cast<std::size_t>(THandler::BwSendOutcome)] = &&H_Nop;
    table[static_cast<std::size_t>(THandler::BwLoopEnter)] = &&H_Nop;
    table[static_cast<std::size_t>(THandler::BwLoopIter)] = &&H_Nop;
    table[static_cast<std::size_t>(THandler::BwLoopExit)] = &&H_Nop;
  }
  if (!fault_possible()) {
    table[static_cast<std::size_t>(THandler::CondBr)] = &&H_CondBrFast;
  }
  if (recovery_ == nullptr && phase_ == nullptr) {
    // H_BarrierFast bypasses barrier_sync() entirely, so it is only sound
    // when neither recovery checkpointing nor a phase plan needs the
    // staging/exit logic there.
    table[static_cast<std::size_t>(THandler::Barrier)] = &&H_BarrierFast;
  }

// Count-poll-execute per dispatch, in the interpreter's exact order.
// BW_STEP assumes t is already on the next op; sequential fallthrough
// (BW_NEXT) advances the pointer directly so the handler-address load
// never waits on an index computation, and ip is kept in lockstep for
// fault anchors, checkpoints and traps.
#define BW_STEP()                                           \
  do {                                                      \
    ++icount;                                               \
    if ((icount & 0x1fff) == 0) {                           \
      BW_SYNC();                                            \
      poll();                                               \
    }                                                       \
    goto* table[static_cast<std::size_t>(t->handler)];      \
  } while (0)
#define BW_DISPATCH() \
  do {                \
    t = &code[ip];    \
    BW_STEP();        \
  } while (0)
#define BW_CASE(name) H_##name:
#define BW_NEXT() \
  do {            \
    ++ip;         \
    ++t;          \
    BW_STEP();    \
  } while (0)
#define BW_JUMP() BW_DISPATCH()

  BW_DISPATCH();
#else  // portable switch fallback
#define BW_CASE(name) case THandler::name:
#define BW_NEXT() \
  {               \
    ++ip;         \
    continue;     \
  }
#define BW_JUMP() continue
  for (;;) {
    t = &code[ip];
    ++icount;
    if ((icount & 0x1fff) == 0) {
      BW_SYNC();
      poll();
    }
    switch (t->handler) {
#endif

  // --- Integer arithmetic (wrap-around, UB-free) ---------------------------
  BW_CASE(Add) {
    S[t->dest].i = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(S[t->a].i) +
        static_cast<std::uint64_t>(S[t->b].i));
    BW_NEXT();
  }
  BW_CASE(Sub) {
    S[t->dest].i = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(S[t->a].i) -
        static_cast<std::uint64_t>(S[t->b].i));
    BW_NEXT();
  }
  BW_CASE(Mul) {
    S[t->dest].i = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(S[t->a].i) *
        static_cast<std::uint64_t>(S[t->b].i));
    BW_NEXT();
  }
  BW_CASE(SDiv) {
    std::int64_t a = S[t->a].i;
    std::int64_t b = S[t->b].i;
    if (b == 0) {
      BW_SYNC();
      trap(TrapKind::DivideByZero, "sdiv by zero");
    }
    if (a == std::numeric_limits<std::int64_t>::min() && b == -1) {
      S[t->dest].i = a;  // wrap like hardware
    } else {
      S[t->dest].i = a / b;
    }
    BW_NEXT();
  }
  BW_CASE(SRem) {
    std::int64_t a = S[t->a].i;
    std::int64_t b = S[t->b].i;
    if (b == 0) {
      BW_SYNC();
      trap(TrapKind::DivideByZero, "srem by zero");
    }
    if (a == std::numeric_limits<std::int64_t>::min() && b == -1) {
      S[t->dest].i = 0;
    } else {
      S[t->dest].i = a % b;
    }
    BW_NEXT();
  }
  BW_CASE(And) {
    S[t->dest].i = S[t->a].i & S[t->b].i;
    BW_NEXT();
  }
  BW_CASE(Or) {
    S[t->dest].i = S[t->a].i | S[t->b].i;
    BW_NEXT();
  }
  BW_CASE(Xor) {
    S[t->dest].i = S[t->a].i ^ S[t->b].i;
    BW_NEXT();
  }
  BW_CASE(Shl) {
    S[t->dest].i = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(S[t->a].i)
        << (S[t->b].i & 63));
    BW_NEXT();
  }
  BW_CASE(AShr) {
    S[t->dest].i = S[t->a].i >> (S[t->b].i & 63);
    BW_NEXT();
  }
  // --- Floating point ------------------------------------------------------
  BW_CASE(FAdd) {
    S[t->dest].f = S[t->a].f + S[t->b].f;
    BW_NEXT();
  }
  BW_CASE(FSub) {
    S[t->dest].f = S[t->a].f - S[t->b].f;
    BW_NEXT();
  }
  BW_CASE(FMul) {
    S[t->dest].f = S[t->a].f * S[t->b].f;
    BW_NEXT();
  }
  BW_CASE(FDiv) {
    S[t->dest].f = S[t->a].f / S[t->b].f;
    BW_NEXT();
  }
  // --- Comparisons ---------------------------------------------------------
  BW_CASE(ICmp) {
    S[t->dest].i =
        eval_icmp(t->pred, S[t->a].i, S[t->b].i) ? 1 : 0;
    BW_NEXT();
  }
  BW_CASE(FCmp) {
    S[t->dest].i =
        eval_fcmp(t->pred, S[t->a].f, S[t->b].f) ? 1 : 0;
    BW_NEXT();
  }
  // --- Conversions ---------------------------------------------------------
  BW_CASE(SIToFP) {
    S[t->dest].f = static_cast<double>(S[t->a].i);
    BW_NEXT();
  }
  BW_CASE(FPToSI) {
    S[t->dest].i = safe_fptosi(S[t->a].f);
    BW_NEXT();
  }
  BW_CASE(Select) {
    S[t->dest].i = S[S[t->a].i != 0 ? t->b : t->c].i;
    BW_NEXT();
  }
  // --- Memory --------------------------------------------------------------
  BW_CASE(Alloca) {
    local_slots_.push_back(0);
    S[t->dest].i = static_cast<std::int64_t>(
        kLocalTag | (local_slots_.size() - 1));
    BW_NEXT();
  }
  BW_CASE(Load) {
    std::int64_t addr = S[t->a].i;
    BW_SYNC();  // heap/local access may trap out-of-bounds
    S[t->dest].i =
        is_local_addr(addr) ? local_slot(addr) : heap_load(addr);
    BW_NEXT();
  }
  BW_CASE(Store) {
    std::int64_t value = S[t->a].i;
    std::int64_t addr = S[t->b].i;
    BW_SYNC();  // heap/local access may trap out-of-bounds
    if (is_local_addr(addr)) {
      local_slot(addr) = value;
    } else {
      heap_store(addr, value);
    }
    BW_NEXT();
  }
  BW_CASE(Gep) {
    S[t->dest].i = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(S[t->a].i) +
        static_cast<std::uint64_t>(S[t->b].i));
    BW_NEXT();
  }
  // --- Control flow --------------------------------------------------------
  BW_CASE(Br) {
    take_edge(t->a);
    BW_JUMP();
  }
  BW_CASE(CondBr) {
    ++bcount;
    BW_SYNC();  // fault_fires anchors on the member branch counter
    bool taken = S[t->a].i != 0;
    if (fault_fires(f, ip)) {
      taken = apply_fault(f, f.code[ip], S, taken);
      note_fault_site(f, ip, block);
    }
    take_edge(taken ? t->b : t->c);
    BW_JUMP();
  }
  BW_CASE(Ret) {
    BW_SYNC();
    if (t->a != kNoSlot) result.i = S[t->a].i;
    if (tracked) tracker_.pop_call();
    frame_stack_.pop_back();
    --call_depth_;
    return result;
  }
  BW_CASE(Call) {
    BW_SYNC();  // callee continues counting through the members
    std::vector<RtValue> call_args;
    call_args.reserve(t->b);
    for (std::uint32_t k = 0; k < t->b; ++k) {
      call_args.push_back(S[pool[t->a + k]]);
    }
    RtValue r = call_threaded(t->aux, std::move(call_args), t->imm);
    BW_RELOAD();
    if (t->dest != kNoReg) S[t->dest] = r;
    BW_NEXT();
  }
  // --- SPMD intrinsics -----------------------------------------------------
  BW_CASE(Tid) {
    S[t->dest].i = static_cast<std::int64_t>(tid_);
    BW_NEXT();
  }
  BW_CASE(NumThreads) {
    S[t->dest].i = static_cast<std::int64_t>(m_.options_.num_threads);
    BW_NEXT();
  }
  BW_CASE(Barrier) {
    BW_SYNC();  // checkpoint capture and barrier wait observe the members
    barrier_sync();
    BW_NEXT();
  }
  BW_CASE(LockAcquire) {
    BW_SYNC();  // may block or throw
    lock_sync_acquire(S[t->a].i);
    BW_NEXT();
  }
  BW_CASE(LockRelease) {
    BW_SYNC();
    lock_sync_release(S[t->a].i);
    BW_NEXT();
  }
  BW_CASE(AtomicAdd) {
    BW_SYNC();  // heap_atomic_add may trap
    S[t->dest].i = heap_atomic_add(S[t->a].i, S[t->b].i);
    BW_NEXT();
  }
  BW_CASE(PrintI64) {
    BW_SYNC();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld\n",
                  static_cast<long long>(S[t->a].i));
    output_ += buf;
    BW_NEXT();
  }
  BW_CASE(PrintF64) {
    BW_SYNC();
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g\n", S[t->a].f);
    output_ += buf;
    BW_NEXT();
  }
  BW_CASE(HashRand) {
    S[t->dest].i = static_cast<std::int64_t>(
        support::splitmix64(static_cast<std::uint64_t>(S[t->a].i)));
    BW_NEXT();
  }
  BW_CASE(Sqrt) {
    S[t->dest].f = std::sqrt(S[t->a].f);
    BW_NEXT();
  }
  BW_CASE(Sin) {
    S[t->dest].f = std::sin(S[t->a].f);
    BW_NEXT();
  }
  BW_CASE(Cos) {
    S[t->dest].f = std::cos(S[t->a].f);
    BW_NEXT();
  }
  BW_CASE(FAbs) {
    S[t->dest].f = std::fabs(S[t->a].f);
    BW_NEXT();
  }
  BW_CASE(Floor) {
    S[t->dest].f = std::floor(S[t->a].f);
    BW_NEXT();
  }
  // --- BLOCKWATCH instrumentation ------------------------------------------
  BW_CASE(BwSendCond) {
    if (monitor_ != nullptr && !muted(t->imm)) {
      std::uint64_t h = 0x6a09e667f3bcc909ULL;
      for (std::uint32_t k = 0; k < t->b; ++k) {
        h = support::hash_combine(
            h, static_cast<std::uint64_t>(S[pool[t->a + k]].i));
      }
      latch_condition_hashed(t->imm, h);
    }
    BW_NEXT();
  }
  BW_CASE(BwSendOutcome) {
    BW_SYNC();
    if (monitor_ != nullptr) send_outcome(t->imm, t->flag != 0);
    BW_NEXT();
  }
  BW_CASE(BwLoopEnter) {
    if (monitor_ != nullptr) tracker_.loop_enter();
    BW_NEXT();
  }
  BW_CASE(BwLoopIter) {
    if (monitor_ != nullptr) tracker_.loop_iter();
    BW_NEXT();
  }
  BW_CASE(BwLoopExit) {
    if (monitor_ != nullptr) tracker_.loop_exit();
    BW_NEXT();
  }
  BW_CASE(Unreachable) {
    // Phi slots are skipped via edges; dispatching one means the IR fell
    // through into a block (forbidden) — trap like the interpreter.
    BW_SYNC();
    trap(TrapKind::BadPointer, "fell through into phi");
  }

#if BW_USE_COMPUTED_GOTO
  // Fast variants reached only via per-run table patching above.
  BW_CASE(Nop) { BW_NEXT(); }
  BW_CASE(CondBrFast) {
    ++bcount;
    take_edge(S[t->a].i != 0 ? t->b : t->c);
    BW_JUMP();
  }
  BW_CASE(BarrierFast) {
    BW_SYNC();  // barrier wait may block or throw
    if (monitor_ != nullptr) monitor_->flush(tid_);  // as barrier_sync()
    m_.coordinator_.barrier_wait(tid_);
    ++epoch_;  // the race oracle keys concurrency on barrier phases
    BW_NEXT();
  }
#else
      case THandler::kCount:
        trap(TrapKind::BadPointer, "bad handler");
    }
  }
#endif

#undef BW_SYNC
#undef BW_RELOAD
#undef BW_STEP
#undef BW_DISPATCH
#undef BW_CASE
#undef BW_NEXT
#undef BW_JUMP
}

}  // namespace detail
}  // namespace bw::vm
