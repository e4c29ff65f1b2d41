#include "ir/verifier.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ir/dominators.h"
#include "support/diagnostics.h"

namespace bw::ir {

namespace {

class Verifier {
 public:
  explicit Verifier(const Module& module) : module_(module) {}

  std::vector<std::string> run() {
    for (const auto& func : module_.functions()) verify_function(*func);
    return std::move(errors_);
  }

 private:
  void fail(const Function& f, const std::string& message) {
    errors_.push_back("@" + f.name() + ": " + message);
  }

  void verify_function(const Function& func) {
    if (func.empty()) {
      fail(func, "function has no blocks");
      return;
    }

    // Every block ends with exactly one terminator, at the end.
    for (const auto& bb : func.blocks()) {
      if (bb->terminator() == nullptr) {
        fail(func, "block '" + bb->name() + "' lacks a terminator");
        return;  // structure too broken for further checks
      }
      for (std::size_t i = 0; i + 1 < bb->size(); ++i) {
        if (bb->instructions()[i]->is_terminator()) {
          fail(func, "block '" + bb->name() + "' has a mid-block terminator");
        }
      }
    }

    // Phis precede non-phis, and match predecessor sets exactly.
    for (const auto& bb : func.blocks()) {
      bool seen_non_phi = false;
      for (const auto& inst : bb->instructions()) {
        if (inst->is_phi()) {
          if (seen_non_phi) {
            fail(func, "phi after non-phi in block '" + bb->name() + "'");
          }
          verify_phi(func, *bb, *inst);
        } else {
          seen_non_phi = true;
        }
      }
    }

    // Operand types and arities.
    for (const auto& bb : func.blocks()) {
      for (const auto& inst : bb->instructions()) {
        verify_types(func, *bb, *inst);
      }
    }

    // SSA dominance: each non-phi use must be dominated by its definition;
    // a phi use must be dominated at the end of the incoming block.
    DominatorTree domtree(func);
    std::unordered_map<const Value*, const BasicBlock*> def_block;
    std::unordered_map<const Value*, std::size_t> def_index;
    for (const auto& bb : func.blocks()) {
      for (std::size_t i = 0; i < bb->size(); ++i) {
        const Instruction* inst = bb->instructions()[i].get();
        def_block[inst] = bb.get();
        def_index[inst] = i;
      }
    }
    for (const auto& bb : func.blocks()) {
      if (!domtree.is_reachable(bb.get())) continue;
      for (std::size_t i = 0; i < bb->size(); ++i) {
        const Instruction* inst = bb->instructions()[i].get();
        for (std::size_t oi = 0; oi < inst->num_operands(); ++oi) {
          const Value* op = inst->operand(oi);
          const auto* def = dyn_cast<Instruction>(const_cast<Value*>(op));
          if (def == nullptr) continue;  // constants/args/globals: always ok
          auto it = def_block.find(def);
          if (it == def_block.end()) {
            fail(func, "operand defined in another function");
            continue;
          }
          const BasicBlock* dbb = it->second;
          if (!domtree.is_reachable(dbb)) continue;
          if (inst->is_phi()) {
            const BasicBlock* incoming = inst->incoming_blocks()[oi];
            if (!domtree.is_reachable(incoming)) continue;
            if (!domtree.dominates(dbb, incoming)) {
              fail(func, "phi operand does not dominate incoming edge in '" +
                             bb->name() + "'");
            }
          } else if (dbb == bb.get()) {
            if (def_index[def] >= i) {
              fail(func,
                   "use before def inside block '" + bb->name() + "'");
            }
          } else if (!domtree.dominates(dbb, bb.get())) {
            fail(func, "definition does not dominate use in '" + bb->name() +
                           "'");
          }
        }
      }
    }
  }

  void verify_phi(const Function& func, const BasicBlock& bb,
                  const Instruction& phi) {
    std::vector<BasicBlock*> preds = bb.predecessors();
    if (phi.num_operands() != preds.size()) {
      fail(func, "phi in '" + bb.name() + "' has " +
                     std::to_string(phi.num_operands()) + " entries for " +
                     std::to_string(preds.size()) + " predecessors");
      return;
    }
    std::unordered_set<const BasicBlock*> seen;
    for (const BasicBlock* in : phi.incoming_blocks()) {
      if (!seen.insert(in).second) {
        fail(func, "phi in '" + bb.name() + "' has duplicate incoming block");
      }
      if (std::find(preds.begin(), preds.end(), in) == preds.end()) {
        fail(func, "phi in '" + bb.name() + "' names a non-predecessor '" +
                       in->name() + "'");
      }
    }
    for (const Value* op : phi.operands()) {
      if (op->type() != phi.type()) {
        fail(func, "phi operand type mismatch in '" + bb.name() + "'");
      }
    }
  }

  void check(bool cond, const Function& func, const BasicBlock& bb,
             const Instruction& inst, const char* what) {
    if (!cond) {
      fail(func, std::string(what) + " (" + to_string(inst.opcode()) +
                     " in '" + bb.name() + "')");
    }
  }

  /// The monitor has checkers for check codes 0-3 only (runtime::CheckCode);
  /// a send with any other code would be filed but never checked.
  void check_code(const Function& func, const BasicBlock& bb,
                  const Instruction& inst) {
    const std::uint32_t code = inst.imm() >> 24;
    if (code <= 3) return;
    check(false, func, bb, inst,
          ("check code " + std::to_string(code) + " is not 0-3").c_str());
  }

  void verify_types(const Function& func, const BasicBlock& bb,
                    const Instruction& inst) {
    auto op_type = [&](std::size_t i) { return inst.operand(i)->type(); };
    if (inst.is_int_binary()) {
      check(inst.num_operands() == 2 && op_type(0) == Type::I64 &&
                op_type(1) == Type::I64,
            func, bb, inst, "integer binary op expects two i64");
    } else if (inst.is_float_binary()) {
      check(inst.num_operands() == 2 && op_type(0) == Type::F64 &&
                op_type(1) == Type::F64,
            func, bb, inst, "float binary op expects two f64");
    } else {
      switch (inst.opcode()) {
        case Opcode::ICmp:
          check(inst.num_operands() == 2 && op_type(0) == Type::I64 &&
                    op_type(1) == Type::I64,
                func, bb, inst, "icmp expects two i64");
          break;
        case Opcode::FCmp:
          check(inst.num_operands() == 2 && op_type(0) == Type::F64 &&
                    op_type(1) == Type::F64,
                func, bb, inst, "fcmp expects two f64");
          break;
        case Opcode::SIToFP:
          check(inst.num_operands() == 1 && op_type(0) == Type::I64, func, bb,
                inst, "sitofp expects i64");
          break;
        case Opcode::FPToSI:
          check(inst.num_operands() == 1 && op_type(0) == Type::F64, func, bb,
                inst, "fptosi expects f64");
          break;
        case Opcode::Select:
          check(inst.num_operands() == 3 && op_type(0) == Type::I1 &&
                    op_type(1) == op_type(2) && op_type(1) == inst.type(),
                func, bb, inst, "select type mismatch");
          break;
        case Opcode::Load:
          check(inst.num_operands() == 1 && op_type(0) == Type::Ptr, func, bb,
                inst, "load expects ptr operand");
          check(is_scalar(inst.type()), func, bb, inst,
                "load must produce a scalar");
          break;
        case Opcode::Store:
          check(inst.num_operands() == 2 && op_type(1) == Type::Ptr &&
                    is_scalar(op_type(0)),
                func, bb, inst, "store expects (scalar, ptr)");
          break;
        case Opcode::Gep:
          check(inst.num_operands() == 2 && op_type(0) == Type::Ptr &&
                    op_type(1) == Type::I64,
                func, bb, inst, "gep expects (ptr, i64)");
          break;
        case Opcode::CondBr:
          check(inst.num_operands() == 1 && op_type(0) == Type::I1 &&
                    inst.successors().size() == 2,
                func, bb, inst, "cond_br expects (i1) and two successors");
          break;
        case Opcode::Br:
          check(inst.num_operands() == 0 && inst.successors().size() == 1,
                func, bb, inst, "br expects one successor");
          break;
        case Opcode::Ret: {
          bool ok;
          if (func.return_type() == Type::Void) {
            ok = inst.num_operands() == 0;
          } else {
            ok = inst.num_operands() == 1 &&
                 op_type(0) == func.return_type();
          }
          check(ok, func, bb, inst, "ret type mismatch");
          break;
        }
        case Opcode::Call: {
          const Function* callee = inst.callee();
          check(callee != nullptr, func, bb, inst, "call without callee");
          if (callee != nullptr) {
            bool ok = inst.num_operands() == callee->num_args();
            if (ok) {
              for (std::size_t i = 0; i < inst.num_operands(); ++i) {
                ok = ok && op_type(i) == callee->arg(i)->type();
              }
            }
            check(ok, func, bb, inst, "call argument mismatch");
          }
          break;
        }
        case Opcode::LockAcquire:
        case Opcode::LockRelease:
        case Opcode::PrintI64:
        case Opcode::HashRand:
          check(inst.num_operands() == 1 && op_type(0) == Type::I64, func, bb,
                inst, "expects one i64 operand");
          break;
        case Opcode::PrintF64:
        case Opcode::Sqrt:
        case Opcode::Sin:
        case Opcode::Cos:
        case Opcode::FAbs:
        case Opcode::Floor:
          check(inst.num_operands() == 1 && op_type(0) == Type::F64, func, bb,
                inst, "expects one f64 operand");
          break;
        case Opcode::AtomicAdd:
          check(inst.num_operands() == 2 && op_type(0) == Type::Ptr &&
                    op_type(1) == Type::I64,
                func, bb, inst, "atomic_add expects (ptr, i64)");
          break;
        case Opcode::BwSendOutcome:
          check_code(func, bb, inst);
          [[fallthrough]];
        case Opcode::Tid:
        case Opcode::NumThreads:
        case Opcode::Barrier:
        case Opcode::Alloca:
        case Opcode::BwLoopEnter:
        case Opcode::BwLoopIter:
        case Opcode::BwLoopExit:
          check(inst.num_operands() == 0, func, bb, inst,
                "expects no operands");
          break;
        case Opcode::BwSendCond: {
          bool ok = inst.num_operands() >= 1 && inst.num_operands() <= 2;
          for (std::size_t i = 0; ok && i < inst.num_operands(); ++i) {
            ok = is_scalar(op_type(i));
          }
          check(ok, func, bb, inst,
                "bw.send_cond expects one or two scalar operands");
          check_code(func, bb, inst);
          break;
        }
        case Opcode::Phi:
          break;  // checked in verify_phi
        default:
          break;
      }
    }
  }

  const Module& module_;
  std::vector<std::string> errors_;
};

}  // namespace

std::vector<std::string> verify_module(const Module& module) {
  return Verifier(module).run();
}

void verify_module_or_throw(const Module& module) {
  std::vector<std::string> errors = verify_module(module);
  if (errors.empty()) return;
  std::string message = "IR verification failed:";
  for (const std::string& e : errors) message += "\n  " + e;
  throw support::CompileError(message);
}

}  // namespace bw::ir
