// The second execution tier: a direct-threaded dispatcher over a compact,
// cache-friendly re-encoding of the decoded program. Where the interpreter
// (vm/machine.cpp) walks DInst records — heap-allocated operand vectors,
// an operand-kind branch per access, phi resolution on every block entry —
// the threaded tier pre-resolves all of that once per module:
//
//   * every operand becomes a frame SLOT index: SSA registers occupy
//     slots [0, num_regs) exactly as in the interpreter, and each distinct
//     immediate/global-base constant is materialized into one slot of
//     [num_regs, num_slots) at frame entry, so the hot loop reads
//     `slots[i]` unconditionally;
//   * every branch edge becomes a TEdge with the target's first non-phi
//     instruction, its block index, and a pre-matched parallel-copy move
//     list replacing runtime phi scanning;
//   * sendBranchCondition instrumentation, fault-plan anchoring and the
//     checkpoint-barrier hook are resolved at decode time — per run, the
//     dispatch table entries for bw.*, cond_br and barrier are patched to
//     fast variants when no monitor / no fault victim / no recovery is
//     attached, instead of re-checking per dynamic instruction;
//   * dispatch is computed-goto (BW_COMPUTED_GOTO, the default on
//     GCC/Clang) with a portable switch fallback compiled from the same
//     handler bodies.
//
// The instruction stream is index-aligned 1:1 with DFunction::code (phi
// positions hold an Unreachable handler that is never dispatched — edges
// jump past them), so instruction counters, checkpoint frame (block, ip)
// pairs, targeted-fault anchors and fault-site diagnostics are bitwise
// interchangeable between tiers. The interpreter stays the differential
// oracle: tests/tier_differential_test.cpp proves verdicts, outputs,
// recovery partitions and campaign checkpoints byte-identical.
//
// Known deliberate asymmetry: a constant slot stores the 64-bit raw
// pattern of its immediate, so an ill-typed access (geti of a float
// immediate) would read the bit pattern where the interpreter reads 0.
// The IR verifier rejects such programs; for verified modules the two
// tiers are exact.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "ir/module.h"
#include "vm/interpreter.h"

namespace bw::vm {

/// Which dispatcher executes the program. Auto resolves to Threaded (the
/// interpreter remains selectable as the differential oracle and for
/// debugging). Campaign checkpoints deliberately do NOT record the tier:
/// the tiers are bit-identical by construction, so a campaign may be
/// checkpointed under one tier and resumed under the other.
enum class ExecTier : std::uint8_t { Auto = 0, Interpreter, Threaded };

const char* to_string(ExecTier tier);

/// Parse "auto" | "interpreter" | "threaded" (false = unknown name,
/// `out` untouched).
bool parse_exec_tier(std::string_view name, ExecTier& out);

/// The tier Auto resolves to (Interpreter and Threaded map to themselves).
ExecTier resolve_tier(ExecTier requested);

constexpr std::uint32_t kNoSlot = 0xffffffffu;
constexpr std::uint32_t kNoEdge = 0xffffffffu;

/// Handler index for the threaded dispatcher; one label/case per entry.
/// CondBr, Barrier and the bw.* handlers have fast variants selected by
/// per-run dispatch-table patching, not by extra enum values.
enum class THandler : std::uint8_t {
  Add = 0, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr,
  FAdd, FSub, FMul, FDiv,
  ICmp, FCmp, SIToFP, FPToSI, Select,
  Alloca, Load, Store, Gep,
  Br, CondBr, Ret, Call,
  Tid, NumThreads, Barrier, LockAcquire, LockRelease, AtomicAdd,
  PrintI64, PrintF64, HashRand, Sqrt, Sin, Cos, FAbs, Floor,
  BwSendCond, BwSendOutcome, BwLoopEnter, BwLoopIter, BwLoopExit,
  Unreachable,  // phi slots (skipped via edges) and malformed fallthrough
  kCount,
};

/// One phi move crossing an edge: slots[dest] = slots[src].
struct TMove {
  std::uint32_t dest = 0;
  std::uint32_t src = 0;
};

/// A pre-resolved control-flow edge. Taking it performs the move list as a
/// parallel copy (all reads before all writes, matching the interpreter's
/// phi staging), charges phi_count retired instructions, and lands on the
/// target block's first non-phi instruction.
struct TEdge {
  std::uint32_t target_ip = 0;
  std::uint32_t target_block = 0;
  std::uint32_t phi_count = 0;
  std::uint32_t moves_first = 0;  // range into ThreadedFunction::moves
  std::uint32_t moves_count = 0;
  /// A phi in the target block has no entry for this predecessor; taking
  /// the edge traps exactly where the interpreter would.
  bool bad_phi = false;
  /// Some move's destination is another move's source, so a sequential
  /// copy would observe a clobbered value: route through the staging
  /// buffer. Decided at decode time because it is false for almost every
  /// edge, letting the hot path copy directly.
  bool needs_staging = false;
};

/// Fixed-size decoded op (32 bytes aligned, so an op never straddles a
/// cache line and indexing is a shift; the interpreter's DInst is ~100
/// bytes plus two heap vectors). Field meaning depends on the handler:
///   a/b/c  operand slots; CondBr: a=cond, b/c=edge indices; Br: a=edge;
///          Call/BwSendCond: a=first pool index, b=count
///   imm    callsite id (Call) / packed static_id+check (bw.*)
///   aux    callee function index (Call)
struct alignas(32) TInst {
  THandler handler = THandler::Unreachable;
  ir::CmpPred pred = ir::CmpPred::EQ;
  std::uint8_t flag = 0;
  std::uint8_t pad = 0;
  std::uint32_t dest = kNoReg;
  std::uint32_t a = kNoSlot;
  std::uint32_t b = kNoSlot;
  std::uint32_t c = kNoSlot;
  std::uint32_t imm = 0;
  std::uint32_t aux = kNoFunc;
};

struct ThreadedFunction {
  /// Index-aligned 1:1 with DFunction::code (same ip space).
  std::vector<TInst> code;
  std::vector<TEdge> edges;
  std::vector<TMove> moves;
  /// Flattened operand-slot lists for Call arguments and BwSendCond hash
  /// inputs (TInst::a/b index a range of this pool).
  std::vector<std::uint32_t> pool;
  /// Raw 64-bit patterns for the constant slots, copied into slots
  /// [num_regs, num_slots) at frame entry (and on checkpoint restore).
  std::vector<std::int64_t> consts;
  std::uint32_t num_regs = 0;
  std::uint32_t num_slots = 0;
};

/// Both tiers' decoded forms of one module, built together so they can
/// never drift. Shared (const, immutable) between concurrent Machines.
struct ProgramCode {
  explicit ProgramCode(const ir::Module& module);

  DecodedProgram decoded;
  std::vector<ThreadedFunction> threaded;  // index-aligned with functions
};

/// Decode-IR cache, keyed by module identity: a content fingerprint over
/// everything decode reads (function/block/instruction/operand addresses,
/// opcodes, immediates, global layout), so in-place mutation (e.g. the
/// instrumentation pass between runs) re-decodes while repeated runs of
/// an unchanged module — every injection of a fault campaign — share one
/// decode. The caller must keep the module alive while running, as
/// run_program always did; cache entries for dead modules are inert (they
/// are only compared by stored fingerprint, never dereferenced).
std::shared_ptr<const ProgramCode> acquire_program_code(
    const ir::Module& module);

struct DecodeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
};

DecodeCacheStats decode_cache_stats();

/// Test hook: drop all cached decodes (and zero the stats).
void decode_cache_clear();

}  // namespace bw::vm
