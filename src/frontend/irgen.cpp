#include "frontend/irgen.h"

#include <bit>
#include <unordered_map>

#include "frontend/sema.h"
#include "ir/irbuilder.h"
#include "support/diagnostics.h"

namespace bw::frontend {

namespace {

using ir::IRBuilder;
using ir::Opcode;
using ir::Type;
using support::CompileError;

Type lower_type(BwType type) {
  switch (type) {
    case BwType::Void: return Type::Void;
    case BwType::Bool: return Type::I1;
    case BwType::Int: return Type::I64;
    case BwType::Float: return Type::F64;
  }
  return Type::Void;
}

class IRGen {
 public:
  explicit IRGen(const Program& program)
      : program_(program),
        module_(std::make_unique<ir::Module>("bwc")),
        builder_(module_.get()) {}

  std::unique_ptr<ir::Module> run() {
    for (const GlobalDecl& g : program_.globals) lower_global(g);
    // Create all function shells first so calls can reference them in any
    // order.
    for (const auto& f : program_.functions) {
      std::vector<Type> params;
      for (const Param& p : f->params) params.push_back(lower_type(p.type));
      ir::Function* func = module_->create_function(
          f->name, lower_type(f->return_type), std::move(params));
      functions_[f->name] = func;
    }
    for (const auto& f : program_.functions) lower_function(*f);
    return std::move(module_);
  }

 private:
  void lower_global(const GlobalDecl& g) {
    std::uint64_t size = g.array_size == 0 ? 1 : g.array_size;
    ir::GlobalVariable* gv =
        module_->create_global(g.name, lower_type(g.element_type), size);
    if (g.has_init) {
      std::vector<std::int64_t> words;
      words.reserve(size);
      if (g.element_type == BwType::Float) {
        for (double v : g.float_init) {
          words.push_back(std::bit_cast<std::int64_t>(v));
        }
      } else {
        words = g.int_init;
      }
      if (words.size() > size) {
        throw CompileError(g.loc, "too many initializers for '" + g.name +
                                      "'");
      }
      gv->set_init_words(std::move(words));
    }
    globals_[g.name] = gv;
  }

  void lower_function(const FuncDecl& decl) {
    func_ = functions_.at(decl.name);
    ir::BasicBlock* entry = func_->create_block("entry");
    builder_.set_insert_point(entry);

    // One alloca per parameter (so parameters are assignable like locals)
    // and per declared local slot; mem2reg promotes them all.
    param_slots_.clear();
    local_slots_.clear();
    for (std::size_t i = 0; i < decl.params.size(); ++i) {
      func_->arg(i)->set_name(decl.params[i].name);
      ir::Instruction* slot = builder_.alloca_slot(
          lower_type(decl.params[i].type), decl.params[i].name + ".addr");
      builder_.store(func_->arg(i), slot);
      param_slots_.push_back(slot);
    }
    for (const auto& [name, type] : decl.local_slots) {
      ir::Instruction* slot =
          builder_.alloca_slot(lower_type(type), name);
      // Definite zero-initialization keeps mem2reg free of undef values and
      // makes interpreter behaviour deterministic.
      if (type == BwType::Float) {
        builder_.store(builder_.f64(0.0), slot);
      } else {
        builder_.store(builder_.i64(0), slot);
      }
      local_slots_.push_back(slot);
    }

    loop_stack_.clear();
    lower_stmt(*decl.body);

    // Terminate any fall-through or dead blocks.
    for (const auto& bb : func_->blocks()) {
      if (bb->terminator() != nullptr) continue;
      builder_.set_insert_point(bb.get());
      switch (func_->return_type()) {
        case Type::Void: builder_.ret(); break;
        case Type::F64: builder_.ret(builder_.f64(0.0)); break;
        default: builder_.ret(builder_.i64(0)); break;
      }
    }
    func_ = nullptr;

  }

  ir::Value* slot_for(const Expr& ref) {
    BW_INTERNAL_CHECK(ref.kind == ExprKind::VarRef, "not a VarRef");
    switch (ref.ref_kind) {
      case RefKind::Param:
        return param_slots_[static_cast<std::size_t>(ref.local_slot)];
      case RefKind::Local:
        return local_slots_[static_cast<std::size_t>(ref.local_slot)];
      case RefKind::GlobalScalar:
        return globals_.at(ref.name);
      case RefKind::Unresolved:
        break;
    }
    BW_INTERNAL_CHECK(false, "unresolved VarRef survived sema");
  }

  // --- Statements -----------------------------------------------------------

  void lower_stmt(const Stmt& stmt) {
    // Statements after a break/continue/return in the same block are
    // unreachable; drop them (sema accepts, CFG cleanup would remove).
    if (builder_.insert_block()->terminator() != nullptr) return;
    if (stmt.loc.valid()) builder_.set_loc(stmt.loc);
    switch (stmt.kind) {
      case StmtKind::Block:
        for (const auto& child : stmt.stmts) lower_stmt(*child);
        break;
      case StmtKind::Decl:
        if (stmt.expr0 != nullptr) {
          ir::Value* value = lower_expr(*stmt.expr0);
          builder_.store(
              value, local_slots_[static_cast<std::size_t>(stmt.local_slot)]);
        }
        break;
      case StmtKind::Assign: {
        ir::Value* value = lower_expr(*stmt.expr0);
        switch (stmt.assign_kind) {
          case RefKind::Local:
            builder_.store(value, local_slots_[static_cast<std::size_t>(
                                      stmt.local_slot)]);
            break;
          case RefKind::Param:
            builder_.store(value, param_slots_[static_cast<std::size_t>(
                                      stmt.local_slot)]);
            break;
          case RefKind::GlobalScalar:
            builder_.store(value, globals_.at(stmt.name));
            break;
          case RefKind::Unresolved:
            BW_INTERNAL_CHECK(false, "unresolved assignment survived sema");
        }
        break;
      }
      case StmtKind::IndexAssign: {
        ir::Value* index = lower_expr(*stmt.expr0);
        ir::Value* value = lower_expr(*stmt.expr1);
        ir::Value* ptr = builder_.gep(globals_.at(stmt.name), index);
        builder_.store(value, ptr);
        break;
      }
      case StmtKind::If: lower_if(stmt); break;
      case StmtKind::While: lower_while(stmt); break;
      case StmtKind::For: lower_for(stmt); break;
      case StmtKind::Break: {
        if (loop_stack_.empty()) {
          throw CompileError(stmt.loc, "'break' outside a loop");
        }
        builder_.br(loop_stack_.back().break_target);
        break;
      }
      case StmtKind::Continue: {
        if (loop_stack_.empty()) {
          throw CompileError(stmt.loc, "'continue' outside a loop");
        }
        builder_.br(loop_stack_.back().continue_target);
        break;
      }
      case StmtKind::Return: {
        if (stmt.expr0 != nullptr) {
          builder_.ret(lower_expr(*stmt.expr0));
        } else {
          builder_.ret();
        }
        break;
      }
      case StmtKind::ExprStmt:
        lower_expr(*stmt.expr0);
        break;
    }
  }

  void lower_if(const Stmt& stmt) {
    ir::Value* cond = lower_expr(*stmt.expr0);
    ir::BasicBlock* then_bb = func_->create_block("if.then");
    ir::BasicBlock* merge_bb = func_->create_block("if.end");
    ir::BasicBlock* else_bb =
        stmt.body1 != nullptr ? func_->create_block("if.else") : merge_bb;
    builder_.cond_br(cond, then_bb, else_bb);

    builder_.set_insert_point(then_bb);
    lower_stmt(*stmt.body0);
    if (builder_.insert_block()->terminator() == nullptr) {
      builder_.br(merge_bb);
    }
    if (stmt.body1 != nullptr) {
      builder_.set_insert_point(else_bb);
      lower_stmt(*stmt.body1);
      if (builder_.insert_block()->terminator() == nullptr) {
        builder_.br(merge_bb);
      }
    }
    builder_.set_insert_point(merge_bb);
  }

  void lower_while(const Stmt& stmt) {
    ir::BasicBlock* header = func_->create_block("while.cond");
    ir::BasicBlock* body = func_->create_block("while.body");
    ir::BasicBlock* exit = func_->create_block("while.end");
    builder_.br(header);

    builder_.set_insert_point(header);
    ir::Value* cond = lower_expr(*stmt.expr0);
    builder_.cond_br(cond, body, exit);

    builder_.set_insert_point(body);
    loop_stack_.push_back({exit, header});
    lower_stmt(*stmt.body0);
    loop_stack_.pop_back();
    if (builder_.insert_block()->terminator() == nullptr) {
      builder_.br(header);
    }
    builder_.set_insert_point(exit);
  }

  void lower_for(const Stmt& stmt) {
    if (stmt.init_stmt != nullptr) lower_stmt(*stmt.init_stmt);
    ir::BasicBlock* header = func_->create_block("for.cond");
    ir::BasicBlock* body = func_->create_block("for.body");
    ir::BasicBlock* step = func_->create_block("for.step");
    ir::BasicBlock* exit = func_->create_block("for.end");
    builder_.br(header);

    builder_.set_insert_point(header);
    if (stmt.expr0 != nullptr) {
      ir::Value* cond = lower_expr(*stmt.expr0);
      builder_.cond_br(cond, body, exit);
    } else {
      builder_.br(body);
    }

    builder_.set_insert_point(body);
    loop_stack_.push_back({exit, step});
    lower_stmt(*stmt.body0);
    loop_stack_.pop_back();
    if (builder_.insert_block()->terminator() == nullptr) {
      builder_.br(step);
    }

    builder_.set_insert_point(step);
    if (stmt.step_stmt != nullptr) lower_stmt(*stmt.step_stmt);
    builder_.br(header);

    builder_.set_insert_point(exit);
  }

  // --- Expressions -----------------------------------------------------------

  ir::Value* lower_expr(const Expr& expr) {
    if (expr.loc.valid()) builder_.set_loc(expr.loc);
    switch (expr.kind) {
      case ExprKind::IntLit: return builder_.i64(expr.int_value);
      case ExprKind::FloatLit: return builder_.f64(expr.float_value);
      case ExprKind::BoolLit: return builder_.i1(expr.bool_value);
      case ExprKind::VarRef: {
        ir::Value* slot = slot_for(expr);
        return builder_.load(lower_type(expr.type), slot);
      }
      case ExprKind::Index: {
        ir::Value* index = lower_expr(*expr.children[0]);
        ir::Value* ptr = builder_.gep(globals_.at(expr.name), index);
        return builder_.load(lower_type(expr.type), ptr);
      }
      case ExprKind::Unary: {
        ir::Value* operand = lower_expr(*expr.children[0]);
        if (expr.unary_op == UnaryOp::Neg) {
          if (expr.type == BwType::Float) {
            return builder_.binary(Opcode::FSub, builder_.f64(0.0), operand);
          }
          return builder_.binary(Opcode::Sub, builder_.i64(0), operand);
        }
        // !x  ->  select(x, false, true)
        return builder_.select(operand, builder_.i1(false),
                               builder_.i1(true));
      }
      case ExprKind::Binary: return lower_binary(expr);
      case ExprKind::Call: return lower_call(expr);
      case ExprKind::Cast: {
        ir::Value* operand = lower_expr(*expr.children[0]);
        BwType from = expr.children[0]->type;
        if (from == expr.cast_to) return operand;
        if (expr.cast_to == BwType::Float) return builder_.sitofp(operand);
        return builder_.fptosi(operand);
      }
    }
    BW_INTERNAL_CHECK(false, "unhandled expression kind in irgen");
  }

  ir::Value* lower_binary(const Expr& expr) {
    // Short-circuit operators lower to control flow through an i1 slot;
    // mem2reg turns the slot into the canonical phi.
    if (expr.binary_op == BinaryOp::LogicalAnd ||
        expr.binary_op == BinaryOp::LogicalOr) {
      return lower_short_circuit(expr);
    }

    ir::Value* lhs = lower_expr(*expr.children[0]);
    ir::Value* rhs = lower_expr(*expr.children[1]);
    bool is_float = expr.children[0]->type == BwType::Float;

    auto cmp = [&](ir::CmpPred pred) -> ir::Value* {
      return is_float ? builder_.fcmp(pred, lhs, rhs)
                      : builder_.icmp(pred, lhs, rhs);
    };
    switch (expr.binary_op) {
      case BinaryOp::Add:
        return builder_.binary(is_float ? Opcode::FAdd : Opcode::Add, lhs,
                               rhs);
      case BinaryOp::Sub:
        return builder_.binary(is_float ? Opcode::FSub : Opcode::Sub, lhs,
                               rhs);
      case BinaryOp::Mul:
        return builder_.binary(is_float ? Opcode::FMul : Opcode::Mul, lhs,
                               rhs);
      case BinaryOp::Div:
        return builder_.binary(is_float ? Opcode::FDiv : Opcode::SDiv, lhs,
                               rhs);
      case BinaryOp::Rem: return builder_.binary(Opcode::SRem, lhs, rhs);
      case BinaryOp::BitAnd: return builder_.binary(Opcode::And, lhs, rhs);
      case BinaryOp::BitOr: return builder_.binary(Opcode::Or, lhs, rhs);
      case BinaryOp::BitXor: return builder_.binary(Opcode::Xor, lhs, rhs);
      case BinaryOp::Shl: return builder_.binary(Opcode::Shl, lhs, rhs);
      case BinaryOp::Shr: return builder_.binary(Opcode::AShr, lhs, rhs);
      case BinaryOp::Eq: return cmp(ir::CmpPred::EQ);
      case BinaryOp::Ne: return cmp(ir::CmpPred::NE);
      case BinaryOp::Lt: return cmp(ir::CmpPred::LT);
      case BinaryOp::Le: return cmp(ir::CmpPred::LE);
      case BinaryOp::Gt: return cmp(ir::CmpPred::GT);
      case BinaryOp::Ge: return cmp(ir::CmpPred::GE);
      case BinaryOp::LogicalAnd:
      case BinaryOp::LogicalOr:
        break;  // handled above
    }
    BW_INTERNAL_CHECK(false, "unhandled binary op in irgen");
  }

  ir::Value* lower_short_circuit(const Expr& expr) {
    bool is_and = expr.binary_op == BinaryOp::LogicalAnd;
    ir::Value* tmp = builder_.alloca_slot(Type::I1, "sc.tmp");
    ir::Value* lhs = lower_expr(*expr.children[0]);
    builder_.store(lhs, tmp);
    ir::BasicBlock* rhs_bb = func_->create_block(is_and ? "and.rhs"
                                                        : "or.rhs");
    ir::BasicBlock* merge_bb =
        func_->create_block(is_and ? "and.end" : "or.end");
    if (is_and) {
      builder_.cond_br(lhs, rhs_bb, merge_bb);
    } else {
      builder_.cond_br(lhs, merge_bb, rhs_bb);
    }
    builder_.set_insert_point(rhs_bb);
    ir::Value* rhs = lower_expr(*expr.children[1]);
    builder_.store(rhs, tmp);
    builder_.br(merge_bb);
    builder_.set_insert_point(merge_bb);
    return builder_.load(Type::I1, tmp);
  }

  ir::Value* lower_call(const Expr& expr) {
    Builtin builtin = builtin_from_name(expr.name);
    auto arg = [&](std::size_t i) { return lower_expr(*expr.children[i]); };
    switch (builtin) {
      case Builtin::Tid: return builder_.tid();
      case Builtin::NThreads: return builder_.num_threads();
      case Builtin::Barrier: return builder_.barrier();
      case Builtin::Lock: return builder_.lock_acquire(arg(0));
      case Builtin::Unlock: return builder_.lock_release(arg(0));
      case Builtin::PrintI: return builder_.print_i64(arg(0));
      case Builtin::PrintF: return builder_.print_f64(arg(0));
      case Builtin::HashRand: return builder_.hash_rand(arg(0));
      case Builtin::AtomicAdd: {
        const Expr& target = *expr.children[0];
        ir::Value* ptr;
        if (target.kind == ExprKind::Index) {
          ir::Value* index = lower_expr(*target.children[0]);
          ptr = builder_.gep(globals_.at(target.name), index);
        } else {
          ptr = globals_.at(target.name);
        }
        return builder_.atomic_add(ptr, arg(1));
      }
      case Builtin::Sqrt: return builder_.math_unary(Opcode::Sqrt, arg(0));
      case Builtin::Sin: return builder_.math_unary(Opcode::Sin, arg(0));
      case Builtin::Cos: return builder_.math_unary(Opcode::Cos, arg(0));
      case Builtin::FAbs: return builder_.math_unary(Opcode::FAbs, arg(0));
      case Builtin::FFloor:
        return builder_.math_unary(Opcode::Floor, arg(0));
      case Builtin::NotABuiltin: {
        std::vector<ir::Value*> args;
        for (const auto& child : expr.children) {
          args.push_back(lower_expr(*child));
        }
        return builder_.call(functions_.at(expr.name), args);
      }
    }
    BW_INTERNAL_CHECK(false, "unhandled call in irgen");
  }

  struct LoopTargets {
    ir::BasicBlock* break_target;
    ir::BasicBlock* continue_target;
  };

  const Program& program_;
  std::unique_ptr<ir::Module> module_;
  IRBuilder builder_;
  std::unordered_map<std::string, ir::GlobalVariable*> globals_;
  std::unordered_map<std::string, ir::Function*> functions_;
  ir::Function* func_ = nullptr;

  std::vector<ir::Value*> param_slots_;
  std::vector<ir::Value*> local_slots_;
  std::vector<LoopTargets> loop_stack_;
};

}  // namespace

std::unique_ptr<ir::Module> generate_ir(const Program& program) {
  return IRGen(program).run();
}

}  // namespace bw::frontend
