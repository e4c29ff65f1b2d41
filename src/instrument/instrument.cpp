#include "instrument/instrument.h"

#include <memory>
#include <unordered_map>

#include "analysis/category.h"
#include "ir/dominators.h"
#include "ir/loop_info.h"
#include "support/diagnostics.h"

namespace bw::instrument {

using namespace bw::ir;
using analysis::BranchInfo;
using analysis::CheckKind;

namespace {

/// Encode (static id, check kind) into the single imm field carried by the
/// bw.send_* instructions; the VM decodes the same layout.
std::uint32_t encode_imm(std::uint32_t static_id, CheckKind check) {
  std::uint32_t code = 0;
  switch (check) {
    case CheckKind::SharedOutcome: code = 0; break;
    case CheckKind::ThreadIdEq: code = 1; break;
    case CheckKind::ThreadIdMonotone: code = 2; break;
    case CheckKind::PartialValue: code = 3; break;
    case CheckKind::Unchecked: code = 0; break;
  }
  BW_INTERNAL_CHECK(static_id < (1u << 24), "static branch id overflow");
  return static_id | (code << 24);
}

class Instrumenter {
 public:
  Instrumenter(Module& module, const analysis::SimilarityResult& analysis,
               const InstrumentOptions& options)
      : module_(module), analysis_(analysis), options_(options) {}

  InstrumentStats run() {
    assign_callsite_ids();
    instrument_loops();
    instrument_branches();
    return stats_;
  }

 private:
  bool in_parallel(const Function* func) const {
    return analysis_.parallel_functions.count(func) != 0;
  }

  void assign_callsite_ids() {
    std::uint32_t next = 1;
    for (const auto& func : module_.functions()) {
      if (!in_parallel(func.get())) continue;
      for (const auto& bb : func->blocks()) {
        for (const auto& inst : bb->instructions()) {
          if (inst->opcode() == Opcode::Call) {
            inst->set_imm(next++);
            ++stats_.callsites_assigned;
          }
        }
      }
    }
  }

  /// Split the CFG edge from -> to: create a fresh block E with `br to`,
  /// retarget `from`'s terminator, and rewrite `to`'s phis. Returns E.
  BasicBlock* split_edge(BasicBlock* from, BasicBlock* to) {
    Function* func = from->parent();
    BasicBlock* edge = func->create_block(from->name() + ".to." + to->name());
    auto br = std::make_unique<Instruction>(Opcode::Br, Type::Void);
    br->add_successor(to);
    edge->append(std::move(br));

    Instruction* term = from->terminator();
    for (std::size_t i = 0; i < term->successors().size(); ++i) {
      if (term->successors()[i] == to) {
        term->set_successor(i, edge);
        break;  // split exactly one edge occurrence
      }
    }
    for (const auto& inst : to->instructions()) {
      if (!inst->is_phi()) break;
      for (std::size_t i = 0; i < inst->incoming_blocks().size(); ++i) {
        if (inst->incoming_blocks()[i] == from) {
          inst->set_incoming_block(i, edge);
        }
      }
    }
    return edge;
  }

  /// Insert `inst` at the earliest position of `bb` that is after any phis.
  Instruction* insert_at_front(BasicBlock* bb,
                               std::unique_ptr<Instruction> inst) {
    std::size_t pos = 0;
    while (pos < bb->size() && bb->instructions()[pos]->is_phi()) ++pos;
    return bb->insert(pos, std::move(inst));
  }

  void instrument_loops() {
    std::uint32_t next_loop_id = 1;
    for (const auto& func : module_.functions()) {
      if (!in_parallel(func.get()) || func->empty()) continue;
      DominatorTree domtree(*func);
      LoopInfo loops(*func, domtree);

      // Collect edge work first; splitting edges while iterating loop
      // structures would invalidate the analysis.
      struct EdgeWork {
        BasicBlock* from;
        BasicBlock* to;
        int enters = 0;  // loops entered along this edge
        int exits = 0;   // loops exited along this edge
      };
      std::vector<EdgeWork> work;
      auto find_work = [&](BasicBlock* from, BasicBlock* to) -> EdgeWork& {
        for (EdgeWork& w : work) {
          if (w.from == from && w.to == to) return w;
        }
        work.push_back(EdgeWork{from, to, 0, 0});
        return work.back();
      };

      for (const auto& loop : loops.loops()) {
        ++stats_.loops_instrumented;
        std::uint32_t loop_id = next_loop_id++;
        // Header: advance the innermost counter each iteration.
        auto iter = std::make_unique<Instruction>(Opcode::BwLoopIter,
                                                  Type::Void);
        iter->set_imm(loop_id);
        insert_at_front(loop->header, std::move(iter));

        for (BasicBlock* pred : loop->header->predecessors()) {
          if (!loop->contains(pred)) {
            ++find_work(pred, loop->header).enters;
          }
        }
        for (BasicBlock* bb : loop->blocks) {
          for (BasicBlock* succ : bb->successors()) {
            if (!loop->contains(succ)) ++find_work(bb, succ).exits;
          }
        }
      }

      for (const EdgeWork& w : work) {
        BasicBlock* edge = split_edge(w.from, w.to);
        // Order within the edge block: exits fire before enters (leaving
        // inner loops, then entering the next region's loops).
        std::size_t pos = 0;
        for (int i = 0; i < w.exits; ++i) {
          auto exit = std::make_unique<Instruction>(Opcode::BwLoopExit,
                                                    Type::Void);
          edge->insert(pos++, std::move(exit));
        }
        for (int i = 0; i < w.enters; ++i) {
          auto enter = std::make_unique<Instruction>(Opcode::BwLoopEnter,
                                                     Type::Void);
          edge->insert(pos++, std::move(enter));
        }
      }
    }
  }

  void instrument_branches() {
    // For §VI dedup: the first checked branch per condition value, plus a
    // per-function dominator tree (built on the post-loop-split CFG).
    std::unordered_map<const Value*, const Instruction*> first_checked;
    std::unordered_map<const Function*, std::unique_ptr<DominatorTree>>
        domtrees;

    for (const BranchInfo& info : analysis_.branches) {
      if (!info.in_parallel_section) {
        ++stats_.skipped_serial;
        continue;
      }
      if (info.check == CheckKind::Unchecked) {
        ++stats_.skipped_unchecked;
        continue;
      }
      if (info.loop_depth >= options_.max_nesting_depth) {
        ++stats_.skipped_depth;
        continue;
      }
      if (options_.dedup_same_condition) {
        const Value* cond = info.branch->operand(0);
        auto it = first_checked.find(cond);
        if (it != first_checked.end() &&
            it->second->parent()->parent() == info.function) {
          auto& domtree = domtrees[info.function];
          if (domtree == nullptr) {
            domtree = std::make_unique<DominatorTree>(*info.function);
          }
          // Safe to skip only if the checked twin executes whenever this
          // branch does.
          if (domtree->dominates(it->second->parent(),
                                 info.branch->parent())) {
            ++stats_.skipped_dedup;
            continue;
          }
        }
        first_checked.emplace(cond, info.branch);
      }

      auto* branch = const_cast<Instruction*>(info.branch);
      BasicBlock* bb = branch->parent();
      std::uint32_t imm = encode_imm(info.static_id, info.check);

      // sendBranchCondition before the branch (partial checks): latches
      // the condition data for the edge report below.
      if (info.check == CheckKind::PartialValue) {
        auto cond = std::make_unique<Instruction>(Opcode::BwSendCond,
                                                  Type::Void);
        cond->set_imm(imm);
        if (!info.cond_data.empty()) {
          for (const Value* v : info.cond_data) {
            cond->add_operand(const_cast<Value*>(v));
          }
        } else {
          cond->add_operand(branch->operand(0));
        }
        bb->insert_before_terminator(std::move(cond));
      }

      // sendBranchAddr on each outgoing edge (paper Fig. 5: the call sits
      // inside the taken / not-taken arm so a flipped branch reports the
      // flipped behaviour).
      for (std::size_t s = 0; s < 2; ++s) {
        BasicBlock* succ = branch->successors()[s];
        BasicBlock* target = succ;
        if (succ->predecessors().size() > 1) {
          target = split_edge(bb, succ);
        }
        auto outcome = std::make_unique<Instruction>(Opcode::BwSendOutcome,
                                                     Type::Void);
        outcome->set_imm(imm);
        outcome->set_flag(s == 0);
        insert_at_front(target, std::move(outcome));
      }
      ++stats_.instrumented_branches;
    }
  }

  Module& module_;
  const analysis::SimilarityResult& analysis_;
  const InstrumentOptions& options_;
  InstrumentStats stats_;
};

}  // namespace

InstrumentStats instrument_module(ir::Module& module,
                                  const analysis::SimilarityResult& analysis,
                                  const InstrumentOptions& options) {
  return Instrumenter(module, analysis, options).run();
}

}  // namespace bw::instrument
