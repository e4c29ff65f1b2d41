// Instruction set of the BLOCKWATCH IR. One concrete Instruction class with
// an opcode tag keeps the interpreter's dispatch loop flat and the analysis
// passes simple; opcode-specific payloads (compare predicate, callee, branch
// targets, immediates) live in dedicated fields.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/value.h"
#include "support/diagnostics.h"

namespace bw::ir {

class BasicBlock;
class Function;

enum class Opcode {
  // Integer arithmetic / bitwise (I64 x I64 -> I64).
  Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr,
  // Floating-point arithmetic (F64 x F64 -> F64).
  FAdd, FSub, FMul, FDiv,
  // Comparisons (-> I1); predicate in cmp_pred().
  ICmp, FCmp,
  // Conversions.
  SIToFP,  // I64 -> F64
  FPToSI,  // F64 -> I64 (truncating)
  // select(cond I1, a, b) -> type of a/b.
  Select,
  // Memory.
  Alloca,  // one stack slot of alloca_type(); result is Ptr
  Load,    // load result_type from [op0:Ptr]
  Store,   // store op0 to [op1:Ptr]
  Gep,     // op0:Ptr + op1:I64 elements -> Ptr
  // Control flow. Successor blocks live in successors(), not operands.
  Br,      // unconditional
  CondBr,  // op0:I1; successors = {taken, not-taken}
  Ret,     // 0 or 1 operand
  Phi,     // operands parallel to incoming_blocks()
  Call,    // callee() + argument operands; imm() = call-site id (0 = none)
  // SPMD intrinsics.
  Tid,          // -> I64, this task's thread id
  NumThreads,   // -> I64
  Barrier,      // all-thread barrier
  LockAcquire,  // op0:I64 lock id
  LockRelease,  // op0:I64 lock id
  AtomicAdd,    // [op0:Ptr] += op1:I64, returns old value
  PrintI64,     // append op0 to program output
  PrintF64,     // append op0 to program output
  HashRand,     // pure 64-bit mix of op0 (deterministic "rand")
  // Math intrinsics (F64 -> F64).
  Sqrt, Sin, Cos, FAbs, Floor,
  // BLOCKWATCH instrumentation, inserted by the instrumentation pass and
  // forwarded by the VM to the runtime monitor. imm() = static branch id
  // in the low 24 bits and check code (0-3) above them (send*), or loop id
  // (loop tracking).
  BwSendCond,     // condition data, latched before the branch
  BwSendOutcome,  // flag(): TAKEN/NOTTAKEN (+ latched data), sent on the edge
  BwLoopEnter,    // push iteration counter for loop imm()
  BwLoopIter,     // increment innermost iteration counter (loop header)
  BwLoopExit,     // pop iteration counter
};

/// Comparison predicates shared by ICmp and FCmp.
enum class CmpPred { EQ, NE, LT, LE, GT, GE };

const char* to_string(Opcode op);
const char* to_string(CmpPred pred);

class Instruction : public Value {
 public:
  Instruction(Opcode op, Type type) : Value(ValueKind::Instruction, type),
                                      opcode_(op) {}

  Opcode opcode() const noexcept { return opcode_; }
  BasicBlock* parent() const noexcept { return parent_; }
  void set_parent(BasicBlock* bb) noexcept { parent_ = bb; }

  // --- Operands -----------------------------------------------------------
  const std::vector<Value*>& operands() const noexcept { return operands_; }
  Value* operand(std::size_t i) const { return operands_[i]; }
  std::size_t num_operands() const noexcept { return operands_.size(); }
  void add_operand(Value* v) { operands_.push_back(v); }
  void set_operand(std::size_t i, Value* v) { operands_[i] = v; }

  // --- Successors (Br / CondBr only) --------------------------------------
  const std::vector<BasicBlock*>& successors() const noexcept {
    return successors_;
  }
  void add_successor(BasicBlock* bb) { successors_.push_back(bb); }
  void set_successor(std::size_t i, BasicBlock* bb) { successors_[i] = bb; }

  // --- Phi incoming blocks (parallel to operands) --------------------------
  const std::vector<BasicBlock*>& incoming_blocks() const noexcept {
    return incoming_blocks_;
  }
  void add_incoming(Value* v, BasicBlock* from) {
    operands_.push_back(v);
    incoming_blocks_.push_back(from);
  }
  void set_incoming_block(std::size_t i, BasicBlock* bb) {
    incoming_blocks_[i] = bb;
  }
  void remove_incoming(std::size_t i) {
    operands_.erase(operands_.begin() + static_cast<std::ptrdiff_t>(i));
    incoming_blocks_.erase(incoming_blocks_.begin() +
                           static_cast<std::ptrdiff_t>(i));
  }

  // --- Payload -------------------------------------------------------------
  CmpPred cmp_pred() const noexcept { return cmp_pred_; }
  void set_cmp_pred(CmpPred pred) noexcept { cmp_pred_ = pred; }

  Function* callee() const noexcept { return callee_; }
  void set_callee(Function* f) noexcept { callee_ = f; }

  Type alloca_type() const noexcept { return alloca_type_; }
  void set_alloca_type(Type t) noexcept { alloca_type_ = t; }

  /// Static branch id / loop id / call-site id, per opcode docs above.
  std::uint32_t imm() const noexcept { return imm_; }
  void set_imm(std::uint32_t v) noexcept { imm_ = v; }

  /// BwSendOutcome: true = TAKEN edge.
  bool flag() const noexcept { return flag_; }
  void set_flag(bool v) noexcept { flag_ = v; }

  /// BW-C source position this instruction was lowered from (invalid for
  /// parsed textual IR and pass-synthesized instructions). Stamped by
  /// IRBuilder; diagnostics such as `bwc race` reports read it back.
  support::SourceLoc loc() const noexcept { return loc_; }
  void set_loc(support::SourceLoc loc) noexcept { loc_ = loc; }

  // --- Queries --------------------------------------------------------------
  bool is_terminator() const noexcept {
    return opcode_ == Opcode::Br || opcode_ == Opcode::CondBr ||
           opcode_ == Opcode::Ret;
  }
  bool is_phi() const noexcept { return opcode_ == Opcode::Phi; }
  bool is_cond_branch() const noexcept { return opcode_ == Opcode::CondBr; }
  bool is_int_binary() const noexcept {
    return opcode_ >= Opcode::Add && opcode_ <= Opcode::AShr;
  }
  bool is_float_binary() const noexcept {
    return opcode_ >= Opcode::FAdd && opcode_ <= Opcode::FDiv;
  }
  bool is_cmp() const noexcept {
    return opcode_ == Opcode::ICmp || opcode_ == Opcode::FCmp;
  }
  bool is_bw_instrumentation() const noexcept {
    return opcode_ >= Opcode::BwSendCond && opcode_ <= Opcode::BwLoopExit;
  }
  /// True for instructions whose result depends only on their operands
  /// (used by the similarity analysis's operand-join propagation).
  bool is_pure_computation() const noexcept {
    return is_int_binary() || is_float_binary() || is_cmp() ||
           opcode_ == Opcode::SIToFP || opcode_ == Opcode::FPToSI ||
           opcode_ == Opcode::Gep || is_pure_math();
  }
  bool is_pure_math() const noexcept {
    return (opcode_ >= Opcode::Sqrt && opcode_ <= Opcode::Floor) ||
           opcode_ == Opcode::HashRand;
  }

  static bool classof(const Value* v) {
    return v->kind() == ValueKind::Instruction;
  }

 private:
  Opcode opcode_;
  BasicBlock* parent_ = nullptr;
  std::vector<Value*> operands_;
  std::vector<BasicBlock*> successors_;
  std::vector<BasicBlock*> incoming_blocks_;
  CmpPred cmp_pred_ = CmpPred::EQ;
  Function* callee_ = nullptr;
  Type alloca_type_ = Type::I64;
  std::uint32_t imm_ = 0;
  bool flag_ = false;
  support::SourceLoc loc_;
};

}  // namespace bw::ir
