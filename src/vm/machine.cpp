#include "vm/machine.h"

#include <chrono>
#include <thread>

#include "support/telemetry/telemetry.h"
#include "vm/exec_internal.h"

namespace bw::vm {

const char* to_string(TrapKind kind) {
  switch (kind) {
    case TrapKind::None: return "none";
    case TrapKind::OutOfBounds: return "out-of-bounds";
    case TrapKind::DivideByZero: return "divide-by-zero";
    case TrapKind::BadPointer: return "bad-pointer";
    case TrapKind::InstructionBudget: return "instruction-budget";
    case TrapKind::Deadlock: return "deadlock";
    case TrapKind::Detected: return "detected";
    case TrapKind::Aborted: return "aborted";
  }
  return "<bad-trap>";
}

namespace detail {

// The interpreter dispatch loop: the reference tier and differential
// oracle. Every semantic here must stay bit-identical to the threaded
// loop in dispatch.cpp — the shared machinery lives in exec_internal.h;
// only raw dispatch differs.
RtValue ThreadRunner::call(std::uint32_t func_index,
                           std::vector<RtValue> args,
                           std::uint32_t callsite_id) {
  const DFunction& f = m_.program_.functions[func_index];
  if (call_depth_ > 512) {
    trap(TrapKind::BadPointer, "call stack overflow");
  }
  ++call_depth_;
  const bool restoring = restore_frames_ != nullptr;
  bool tracked = monitor_ != nullptr && callsite_id != 0;
  // A restored frame's context is already inside the restored tracker
  // state; pushing again would double it (Ret still pops either way).
  if (tracked && !restoring) tracker_.push_call(callsite_id);

  std::vector<RtValue> regs(f.num_regs, RtValue{0});
  for (std::size_t i = 0; i < args.size(); ++i) regs[i] = args[i];

  RtValue result{0};
  std::uint32_t block = 0;
  std::uint32_t ip = f.block_first.empty() ? 0 : f.block_first[0];
  std::vector<std::pair<std::uint32_t, RtValue>> phi_staging;

  if (restoring) {
    const FrameSnapshot& fs = (*restore_frames_)[restore_depth_];
    BW_INTERNAL_CHECK(fs.func_index == func_index,
                      "checkpoint frame does not match call target");
    BW_INTERNAL_CHECK(fs.regs.size() == regs.size(),
                      "checkpoint frame register count mismatch");
    for (std::size_t i = 0; i < fs.regs.size(); ++i) regs[i].i = fs.regs[i];
    block = fs.block;
    ip = fs.ip;  // parent frames: the pending Call; deepest: the Barrier
    if (++restore_depth_ == restore_frames_->size()) {
      restore_frames_ = nullptr;  // stack rebuilt; resume for real
      restore_depth_ = 0;
    }
  }
  frame_stack_.push_back({func_index, callsite_id, &regs, &block, &ip});
  if (profiling_) profile_block(func_index, block);

  auto enter_block = [&](std::uint32_t target, std::uint32_t from) {
    if (profiling_) profile_block(func_index, target);
    std::uint32_t first = f.block_first[target];
    phi_staging.clear();
    std::uint32_t i = first;
    while (i < f.block_first[target + 1] &&
           f.code[i].op == ir::Opcode::Phi) {
      const DInst& phi = f.code[i];
      bool matched = false;
      for (const DPhiEntry& entry : phi.phis) {
        if (entry.pred_block == from) {
          RtValue v;
          v.i = static_cast<std::int64_t>(raw(entry.value, regs.data()));
          phi_staging.emplace_back(phi.dest, v);
          matched = true;
          break;
        }
      }
      if (!matched) {
        trap(TrapKind::BadPointer, "phi without matching incoming edge");
      }
      ++i;
    }
    for (const auto& [dest, value] : phi_staging) regs[dest] = value;
    block = target;
    ip = i;  // skip the phis; they are executed
    instructions_ += i - first;
  };

  for (;;) {
    const DInst& d = f.code[ip];
    ++instructions_;
    if ((instructions_ & 0x1fff) == 0) poll();
    switch (d.op) {
      // --- Integer arithmetic (wrap-around, UB-free) -------------------
      case ir::Opcode::Add: {
        regs[d.dest].i = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(geti(d.ops[0], regs.data())) +
            static_cast<std::uint64_t>(geti(d.ops[1], regs.data())));
        break;
      }
      case ir::Opcode::Sub: {
        regs[d.dest].i = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(geti(d.ops[0], regs.data())) -
            static_cast<std::uint64_t>(geti(d.ops[1], regs.data())));
        break;
      }
      case ir::Opcode::Mul: {
        regs[d.dest].i = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(geti(d.ops[0], regs.data())) *
            static_cast<std::uint64_t>(geti(d.ops[1], regs.data())));
        break;
      }
      case ir::Opcode::SDiv: {
        std::int64_t a = geti(d.ops[0], regs.data());
        std::int64_t b = geti(d.ops[1], regs.data());
        if (b == 0) trap(TrapKind::DivideByZero, "sdiv by zero");
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1) {
          regs[d.dest].i = a;  // wrap like hardware
        } else {
          regs[d.dest].i = a / b;
        }
        break;
      }
      case ir::Opcode::SRem: {
        std::int64_t a = geti(d.ops[0], regs.data());
        std::int64_t b = geti(d.ops[1], regs.data());
        if (b == 0) trap(TrapKind::DivideByZero, "srem by zero");
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1) {
          regs[d.dest].i = 0;
        } else {
          regs[d.dest].i = a % b;
        }
        break;
      }
      case ir::Opcode::And:
        regs[d.dest].i =
            geti(d.ops[0], regs.data()) & geti(d.ops[1], regs.data());
        break;
      case ir::Opcode::Or:
        regs[d.dest].i =
            geti(d.ops[0], regs.data()) | geti(d.ops[1], regs.data());
        break;
      case ir::Opcode::Xor:
        regs[d.dest].i =
            geti(d.ops[0], regs.data()) ^ geti(d.ops[1], regs.data());
        break;
      case ir::Opcode::Shl: {
        std::uint64_t a =
            static_cast<std::uint64_t>(geti(d.ops[0], regs.data()));
        regs[d.dest].i = static_cast<std::int64_t>(
            a << (geti(d.ops[1], regs.data()) & 63));
        break;
      }
      case ir::Opcode::AShr: {
        regs[d.dest].i =
            geti(d.ops[0], regs.data()) >> (geti(d.ops[1], regs.data()) & 63);
        break;
      }
      // --- Floating point ------------------------------------------------
      case ir::Opcode::FAdd:
        regs[d.dest].f =
            getf(d.ops[0], regs.data()) + getf(d.ops[1], regs.data());
        break;
      case ir::Opcode::FSub:
        regs[d.dest].f =
            getf(d.ops[0], regs.data()) - getf(d.ops[1], regs.data());
        break;
      case ir::Opcode::FMul:
        regs[d.dest].f =
            getf(d.ops[0], regs.data()) * getf(d.ops[1], regs.data());
        break;
      case ir::Opcode::FDiv:
        regs[d.dest].f =
            getf(d.ops[0], regs.data()) / getf(d.ops[1], regs.data());
        break;
      // --- Comparisons ------------------------------------------------------
      case ir::Opcode::ICmp: {
        std::int64_t a = geti(d.ops[0], regs.data());
        std::int64_t b = geti(d.ops[1], regs.data());
        regs[d.dest].i = eval_icmp(d.pred, a, b) ? 1 : 0;
        break;
      }
      case ir::Opcode::FCmp: {
        double a = getf(d.ops[0], regs.data());
        double b = getf(d.ops[1], regs.data());
        regs[d.dest].i = eval_fcmp(d.pred, a, b) ? 1 : 0;
        break;
      }
      // --- Conversions ---------------------------------------------------------
      case ir::Opcode::SIToFP:
        regs[d.dest].f =
            static_cast<double>(geti(d.ops[0], regs.data()));
        break;
      case ir::Opcode::FPToSI: {
        double v = getf(d.ops[0], regs.data());
        regs[d.dest].i = safe_fptosi(v);
        break;
      }
      case ir::Opcode::Select: {
        bool cond = geti(d.ops[0], regs.data()) != 0;
        const DOperand& chosen = cond ? d.ops[1] : d.ops[2];
        regs[d.dest].i =
            static_cast<std::int64_t>(raw(chosen, regs.data()));
        break;
      }
      // --- Memory ------------------------------------------------------------
      case ir::Opcode::Alloca: {
        local_slots_.push_back(0);
        regs[d.dest].i = static_cast<std::int64_t>(
            kLocalTag | (local_slots_.size() - 1));
        break;
      }
      case ir::Opcode::Load: {
        std::int64_t addr = geti(d.ops[0], regs.data());
        regs[d.dest].i =
            is_local_addr(addr) ? local_slot(addr) : heap_load(addr);
        break;
      }
      case ir::Opcode::Store: {
        std::int64_t value =
            static_cast<std::int64_t>(raw(d.ops[0], regs.data()));
        std::int64_t addr = geti(d.ops[1], regs.data());
        if (is_local_addr(addr)) {
          local_slot(addr) = value;
        } else {
          heap_store(addr, value);
        }
        break;
      }
      case ir::Opcode::Gep: {
        regs[d.dest].i = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(geti(d.ops[0], regs.data())) +
            static_cast<std::uint64_t>(geti(d.ops[1], regs.data())));
        break;
      }
      // --- Control flow -----------------------------------------------------------
      case ir::Opcode::Br:
        enter_block(d.succ0, block);
        continue;
      case ir::Opcode::CondBr: {
        ++branches_;
        bool taken = geti(d.ops[0], regs.data()) != 0;
        if (fault_fires(f, ip)) {
          taken = apply_fault(f, d, regs.data(), taken);
          note_fault_site(f, ip, block);
        }
        enter_block(taken ? d.succ0 : d.succ1, block);
        continue;
      }
      case ir::Opcode::Ret: {
        if (!d.ops.empty()) {
          result.i = static_cast<std::int64_t>(raw(d.ops[0], regs.data()));
        }
        if (tracked) tracker_.pop_call();
        frame_stack_.pop_back();
        --call_depth_;
        return result;
      }
      case ir::Opcode::Call: {
        std::vector<RtValue> call_args;
        call_args.reserve(d.ops.size());
        for (const DOperand& op : d.ops) {
          RtValue v;
          v.i = static_cast<std::int64_t>(raw(op, regs.data()));
          call_args.push_back(v);
        }
        RtValue r = call(d.callee, std::move(call_args), d.imm);
        if (d.dest != kNoReg) regs[d.dest] = r;
        // The callee may have crossed barriers: re-attribute the rest of
        // this block to the phase the thread is now in.
        if (profiling_) profile_block(func_index, block);
        break;
      }
      // --- SPMD intrinsics ------------------------------------------------------------
      case ir::Opcode::Tid:
        regs[d.dest].i = static_cast<std::int64_t>(tid_);
        break;
      case ir::Opcode::NumThreads:
        regs[d.dest].i = static_cast<std::int64_t>(
            m_.options_.num_threads);
        break;
      case ir::Opcode::Barrier:
        barrier_sync();
        break;
      case ir::Opcode::LockAcquire:
        lock_sync_acquire(geti(d.ops[0], regs.data()));
        break;
      case ir::Opcode::LockRelease:
        lock_sync_release(geti(d.ops[0], regs.data()));
        break;
      case ir::Opcode::AtomicAdd:
        regs[d.dest].i = heap_atomic_add(geti(d.ops[0], regs.data()),
                                         geti(d.ops[1], regs.data()));
        break;
      case ir::Opcode::PrintI64: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld\n",
                      static_cast<long long>(geti(d.ops[0], regs.data())));
        output_ += buf;
        break;
      }
      case ir::Opcode::PrintF64: {
        // Six significant digits, like SPLASH-2's printf output: the SDC
        // comparison should not flag sub-output-precision perturbations.
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.6g\n",
                      getf(d.ops[0], regs.data()));
        output_ += buf;
        break;
      }
      case ir::Opcode::HashRand:
        regs[d.dest].i = static_cast<std::int64_t>(support::splitmix64(
            static_cast<std::uint64_t>(geti(d.ops[0], regs.data()))));
        break;
      case ir::Opcode::Sqrt:
        regs[d.dest].f = std::sqrt(getf(d.ops[0], regs.data()));
        break;
      case ir::Opcode::Sin:
        regs[d.dest].f = std::sin(getf(d.ops[0], regs.data()));
        break;
      case ir::Opcode::Cos:
        regs[d.dest].f = std::cos(getf(d.ops[0], regs.data()));
        break;
      case ir::Opcode::FAbs:
        regs[d.dest].f = std::fabs(getf(d.ops[0], regs.data()));
        break;
      case ir::Opcode::Floor:
        regs[d.dest].f = std::floor(getf(d.ops[0], regs.data()));
        break;
      // --- BLOCKWATCH instrumentation ------------------------------------------------
      case ir::Opcode::BwSendCond: {
        if (monitor_ != nullptr && !muted(d.imm)) {
          latch_condition(d, regs.data());
        }
        break;
      }
      case ir::Opcode::BwSendOutcome: {
        if (monitor_ != nullptr) send_outcome(d.imm, d.flag);
        break;
      }
      case ir::Opcode::BwLoopEnter:
        if (monitor_ != nullptr) tracker_.loop_enter();
        break;
      case ir::Opcode::BwLoopIter:
        if (monitor_ != nullptr) tracker_.loop_iter();
        break;
      case ir::Opcode::BwLoopExit:
        if (monitor_ != nullptr) tracker_.loop_exit();
        break;
      case ir::Opcode::Phi:
        // Phis are executed by enter_block; reaching one here means fall
        // through into a block, which the IR forbids.
        trap(TrapKind::BadPointer, "fell through into phi");
    }
    ++ip;
  }
}

RunResult Machine::run() {
  RunResult result;
  result.tier = tier_;
  result.threads.resize(options_.num_threads);

  const PhasePlan& phase = options_.phase;
  const bool phase_restore = phase.active && phase.entry != nullptr;
  if (phase.active) {
    BW_INTERNAL_CHECK(!options_.recovery.enabled,
                      "phase plans are mutually exclusive with recovery");
    BW_INTERNAL_CHECK(
        phase.block_profile == nullptr || tier_ == ExecTier::Interpreter,
        "phase block profiling requires the interpreter tier");
    if (phase_restore) {
      BW_INTERNAL_CHECK(
          phase.entry->threads.size() == options_.num_threads,
          "phase entry checkpoint thread count mismatch");
      // An incomplete capture holds leftover/default snapshots for the
      // threads that never staged at its cut; restoring from one would
      // execute a fabricated hybrid state (an empty-frames leftover reads
      // as "restart the entry from scratch"). Callers must classify such
      // runs end-to-end instead (fault/compositional.cpp does).
      BW_INTERNAL_CHECK(phase.entry->complete,
                        "phase entry checkpoint is incomplete");
    }
  }

  // Sequential init (mirrors SPLASH-2 main() setup). Skipped on a
  // phase-entry restore: the entry checkpoint already embodies the
  // post-init state (including anything init printed — phase runs are
  // compared on section output only).
  std::uint32_t init_index =
      options_.init_function.empty() || phase_restore
          ? kNoFunc
          : program_.function_index(options_.init_function);
  if (init_index != kNoFunc) {
    ThreadRunner init_runner(*this, 0, /*parallel_section=*/false);
    ThreadOutcome init_outcome = init_runner.run(init_index);
    if (init_outcome.trap != TrapKind::None) {
      result.threads[0] = std::move(init_outcome);
      result.output = result.threads[0].output;
      return result;  // init failed; not ok
    }
    result.output += init_outcome.output;
    result.total_instructions += init_outcome.instructions;
    result.reports_muted += init_outcome.reports_muted;
  }

  std::uint32_t entry_index =
      program_.function_index(options_.parallel_entry);
  BW_INTERNAL_CHECK(entry_index != kNoFunc,
                    "parallel entry function not found: " +
                        options_.parallel_entry);

  if (options_.recovery.enabled) {
    recovery_ = std::make_unique<RecoveryCoordinator>(
        options_.num_threads, options_.recovery, options_.monitor);
  }
  if (recovery_ != nullptr || phase.active) {
    // Barrier cuts: each thread stages its snapshot on the way into a
    // wanted barrier; the releasing thread assembles the cut once and
    // hands it to recovery (the quiesce-and-clean gate and the ring) or
    // to the phase plan (trace, exit capture, exit flag).
    staged_.resize(options_.num_threads);
    coordinator_.set_checkpoint_hook(
        [this](std::uint64_t generation,
               const std::unordered_map<std::int64_t, unsigned>& lock_owner) {
          if (!cut_wanted(generation)) return false;
          const auto assembly_start = std::chrono::steady_clock::now();
          Checkpoint cut = assemble_cut(generation, lock_owner);
          if (recovery_ != nullptr) {
            return recovery_->commit(std::move(cut), assembly_start);
          }
          const PhasePlan& pp = options_.phase;
          const bool at_exit =
              pp.exit_generation != 0 && generation == pp.exit_generation;
          if (at_exit && pp.exit_capture != nullptr) *pp.exit_capture = cut;
          if (pp.trace != nullptr) pp.trace->push_back(std::move(cut));
          if (at_exit) {
            phase_exit_done_.store(true, std::memory_order_release);
          }
          return false;  // never a forced rollback
        });
  }

  // The generation-0 cut (post-init heap, empty frames) is the rollback
  // baseline and the golden trace[0]: restarting the parallel entry from
  // scratch is always a valid resume.
  if (recovery_ != nullptr) {
    recovery_->set_baseline(assemble_cut(0, {}));
  } else if (phase.trace != nullptr && !phase_restore) {
    phase.trace->push_back(assemble_cut(0, {}));
  }
  // Enter a phase from its cut exactly like a recovery restore.
  if (phase_restore) restore_shared(*phase.entry);

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(options_.num_threads);
  for (unsigned t = 0; t < options_.num_threads; ++t) {
    threads.emplace_back([this, t, entry_index, phase_restore, &result] {
      telemetry::SpanScope span(telemetry::Phase::Execution, "vm.thread");
      ThreadRunner runner(*this, t, /*parallel_section=*/true);
      if (phase_restore) runner.resume_from(options_.phase.entry->threads[t]);
      result.threads[t] = runner.run(entry_index);
      runner.publish_block_profile();
    });
  }
  for (std::thread& th : threads) th.join();
  auto end = std::chrono::steady_clock::now();
  result.parallel_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());

  bool any_trap = false;
  for (const ThreadOutcome& t : result.threads) {
    result.output += t.output;
    result.total_instructions += t.instructions;
    result.total_branches += t.branches;
    result.reports_muted += t.reports_muted;
    if (t.trap == TrapKind::Detected) result.detected = true;
    if (t.trap == TrapKind::Deadlock ||
        t.trap == TrapKind::InstructionBudget) {
      result.hang = true;
    }
    if (t.trap == TrapKind::OutOfBounds ||
        t.trap == TrapKind::DivideByZero ||
        t.trap == TrapKind::BadPointer) {
      result.crash = true;
    }
    if (t.fault_applied) result.fault_applied = true;
    if (t.trap != TrapKind::None) any_trap = true;
  }
  result.ok = !any_trap;
  result.phase_exited = phase_exit_done_.load(std::memory_order_acquire);
  if (recovery_ != nullptr) {
    result.recovery = recovery_->finalize_stats(result.ok);
    result.recovered = result.recovery.recovered;
  }
  return result;
}

}  // namespace detail

RunResult run_program(const ir::Module& module, const RunOptions& options) {
  detail::Machine machine(module, options);
  return machine.run();
}

}  // namespace bw::vm
