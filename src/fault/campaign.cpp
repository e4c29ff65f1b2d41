#include "fault/campaign.h"

#include <algorithm>

#include "fault/engine.h"
#include "support/diagnostics.h"
#include "support/prng.h"
#include "support/telemetry/telemetry.h"

namespace bw::fault {

const char* to_string(FaultType type) {
  switch (type) {
    case FaultType::BranchFlip: return "branch-flip";
    case FaultType::BranchCondition: return "branch-condition";
    case FaultType::MonitorStall: return "monitor-stall";
    case FaultType::QueueCorrupt: return "queue-corrupt";
    case FaultType::ReportDrop: return "report-drop";
    case FaultType::TargetedFlip: return "targeted-flip";
  }
  return "<bad-fault-type>";
}

bool parse_fault_type(std::string_view name, FaultType& out) {
  struct Alias {
    std::string_view name;
    FaultType type;
  };
  static constexpr Alias kAliases[] = {
      {"branch-flip", FaultType::BranchFlip},
      {"flip", FaultType::BranchFlip},
      {"branch-condition", FaultType::BranchCondition},
      {"cond", FaultType::BranchCondition},
      {"monitor-stall", FaultType::MonitorStall},
      {"stall", FaultType::MonitorStall},
      {"queue-corrupt", FaultType::QueueCorrupt},
      {"corrupt", FaultType::QueueCorrupt},
      {"report-drop", FaultType::ReportDrop},
      {"drop", FaultType::ReportDrop},
      {"targeted-flip", FaultType::TargetedFlip},
      {"targeted", FaultType::TargetedFlip},
  };
  for (const Alias& alias : kAliases) {
    if (alias.name == name) {
      out = alias.type;
      return true;
    }
  }
  return false;
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::NotActivated: return "not-activated";
    case Verdict::Benign: return "benign";
    case Verdict::Detected: return "detected";
    case Verdict::Recovered: return "recovered";
    case Verdict::Crashed: return "crashed";
    case Verdict::Hung: return "hung";
    case Verdict::Sdc: return "sdc";
    case Verdict::FalseAlarm: return "false-alarm";
  }
  return "<bad-verdict>";
}

bool is_monitor_fault(FaultType type) {
  return type == FaultType::MonitorStall || type == FaultType::QueueCorrupt ||
         type == FaultType::ReportDrop;
}

runtime::MonitorOptions fast_degrade_monitor_options() {
  runtime::MonitorOptions options;
  options.queue_capacity = 1 << 8;  // small ring: stalls backpressure fast
  options.backoff.spins = 32;
  options.backoff.yields = 128;
  options.watchdog.stall_timeout_ns = 2'000'000;  // 2 ms
  return options;
}

GoldenRun golden_run(const pipeline::CompiledProgram& program,
                     unsigned num_threads, vm::ExecTier tier) {
  pipeline::ExecutionConfig config;
  config.num_threads = num_threads;
  config.exec_tier = tier;
  // Golden profiling runs uninstrumented semantics: drain-only keeps the
  // branch counts identical to the protected run without paying checks.
  config.monitor = program.instrumented ? pipeline::MonitorMode::DrainOnly
                                        : pipeline::MonitorMode::Off;
  pipeline::ExecutionResult result = pipeline::execute(program, config);
  BW_INTERNAL_CHECK(result.run.ok, "golden run failed");

  GoldenRun golden;
  golden.output = result.run.output;
  for (const vm::ThreadOutcome& t : result.run.threads) {
    golden.branches_per_thread.push_back(t.branches);
    golden.max_thread_instructions =
        std::max(golden.max_thread_instructions, t.instructions);
  }
  golden.monitor_reports = result.monitor_stats.reports_processed;
  return golden;
}

std::uint64_t auto_instruction_budget(const GoldenRun& golden) {
  // A fault-free thread never exceeds its golden retired-instruction count
  // by 10x (the counter tracks the logical timeline, so recovery retries
  // do not inflate it); the additive slack floors the budget for tiny and
  // empty kernels. Clamp the multiply so a pathological golden count can
  // never wrap to a small — or zero — budget: ExecutionConfig reads 0 as
  // "no watchdog at all", which would let a hung injection run forever.
  constexpr std::uint64_t kSlack = 1'000'000;
  constexpr std::uint64_t kMax = ~std::uint64_t{0} - kSlack;
  std::uint64_t scaled = golden.max_thread_instructions <= kMax / 10
                             ? golden.max_thread_instructions * 10
                             : kMax;
  std::uint64_t budget = scaled <= kMax - kSlack ? scaled + kSlack : ~std::uint64_t{0};
  BW_INTERNAL_CHECK(budget > 0, "auto instruction budget must be nonzero");
  return budget;
}

std::uint64_t auto_phase_instruction_budget(
    std::uint64_t max_entry_instructions, std::uint64_t max_phase_delta) {
  // Same shape as auto_instruction_budget, but the 10x headroom applies
  // only to the phase's own work: the entry cost is retired exactly once
  // (the restored counter starts at the entry checkpoint's value and a
  // fault cannot inflate work that already happened), so it enters the
  // budget unscaled. A single-instruction phase therefore gets
  // entry + 10 + slack, not 10x the whole program.
  constexpr std::uint64_t kSlack = 1'000'000;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::uint64_t scaled =
      max_phase_delta <= (kMax - kSlack) / 10 ? max_phase_delta * 10 : kMax;
  std::uint64_t budget = scaled <= kMax - kSlack ? scaled + kSlack : kMax;
  budget = max_entry_instructions <= kMax - budget
               ? max_entry_instructions + budget
               : kMax;
  BW_INTERNAL_CHECK(budget > 0,
                    "auto phase instruction budget must be nonzero");
  return budget;
}

std::uint64_t injection_seed(std::uint64_t base_seed, std::uint32_t index) {
  // Two rounds of splitmix over (seed, index) decorrelate neighbouring
  // indices; the stream depends only on the plan position, never on which
  // worker runs it or in what order.
  return support::splitmix64(support::splitmix64(base_seed) +
                             0x9e3779b97f4a7c15ULL * (index + 1));
}

void accumulate(CampaignResult& shard, const InjectionOutcome& outcome) {
  // Wall-time fold first: min needs to know whether the shard is empty.
  if (shard.injected == 0 || outcome.wall_ns < shard.run_ns_min) {
    shard.run_ns_min = outcome.wall_ns;
  }
  shard.run_ns_max = std::max(shard.run_ns_max, outcome.wall_ns);
  shard.run_ns_total += outcome.wall_ns;

  ++shard.injected;
  shard.rollbacks += outcome.rollbacks;
  shard.checkpoints += outcome.checkpoints;
  shard.restore_ns += outcome.restore_ns;
  shard.checkpoint_ns += outcome.checkpoint_ns;
  if (outcome.retry_exhausted) ++shard.retry_exhausted_runs;
  if (outcome.degraded) ++shard.degraded_runs;
  if (outcome.failed) ++shard.failed_runs;
  if (outcome.discarded) ++shard.discarded;
  if (outcome.recovered_mismatch) ++shard.recovered_mismatch;

  switch (outcome.verdict) {
    case Verdict::NotActivated: return;
    case Verdict::Benign: ++shard.benign; break;
    case Verdict::Detected: ++shard.detected; break;
    case Verdict::Recovered: ++shard.recovered; break;
    case Verdict::Crashed: ++shard.crashed; break;
    case Verdict::Hung: ++shard.hung; break;
    case Verdict::Sdc: ++shard.sdc; break;
    case Verdict::FalseAlarm: ++shard.false_alarms; break;
  }
  ++shard.activated;
}

void merge(CampaignResult& into, const CampaignResult& from) {
  if (from.injected == 0) return;
  if (into.injected == 0 || from.run_ns_min < into.run_ns_min) {
    into.run_ns_min = from.run_ns_min;
  }
  into.run_ns_max = std::max(into.run_ns_max, from.run_ns_max);
  into.run_ns_total += from.run_ns_total;

  into.injected += from.injected;
  into.activated += from.activated;
  into.benign += from.benign;
  into.detected += from.detected;
  into.recovered += from.recovered;
  into.crashed += from.crashed;
  into.hung += from.hung;
  into.sdc += from.sdc;
  into.false_alarms += from.false_alarms;
  into.degraded_runs += from.degraded_runs;
  into.failed_runs += from.failed_runs;
  into.discarded += from.discarded;
  into.recovered_mismatch += from.recovered_mismatch;
  into.retry_exhausted_runs += from.retry_exhausted_runs;
  into.rollbacks += from.rollbacks;
  into.checkpoints += from.checkpoints;
  into.restore_ns += from.restore_ns;
  into.checkpoint_ns += from.checkpoint_ns;
}

namespace {

telemetry::FaultOutcomeCode to_outcome_code(Verdict verdict) {
  // The enums are kept value-aligned (both serialize NotActivated..
  // FalseAlarm as 0..7); a static_cast would work but the switch keeps the
  // compiler checking exhaustiveness for us.
  using OC = telemetry::FaultOutcomeCode;
  switch (verdict) {
    case Verdict::NotActivated: return OC::NotActivated;
    case Verdict::Benign: return OC::Benign;
    case Verdict::Detected: return OC::Detected;
    case Verdict::Recovered: return OC::Recovered;
    case Verdict::Crashed: return OC::Crashed;
    case Verdict::Hung: return OC::Hung;
    case Verdict::Sdc: return OC::Sdc;
    case Verdict::FalseAlarm: return OC::FalseAlarm;
  }
  return OC::NotActivated;
}

}  // namespace

void record_outcome(Verdict verdict, unsigned thread, std::uint64_t target) {
  if (!telemetry::enabled()) return;
  using telemetry::Counter;
  telemetry::counter_add(Counter::FaultInjected);
  Counter counter = Counter::kCount;
  switch (verdict) {
    case Verdict::NotActivated: break;  // FaultInjected - FaultActivated
    case Verdict::Benign: counter = Counter::FaultBenign; break;
    case Verdict::Detected: counter = Counter::FaultDetected; break;
    case Verdict::Recovered: counter = Counter::FaultRecovered; break;
    case Verdict::Crashed: counter = Counter::FaultCrashed; break;
    case Verdict::Hung: counter = Counter::FaultHung; break;
    case Verdict::Sdc: counter = Counter::FaultSdc; break;
    case Verdict::FalseAlarm: counter = Counter::FaultFalseAlarm; break;
  }
  if (counter != Counter::kCount) {
    telemetry::counter_add(Counter::FaultActivated);
    telemetry::counter_add(counter);
  }
  telemetry::record_event(
      telemetry::EventKind::FaultOutcome, telemetry::Phase::Other,
      static_cast<std::uint64_t>(to_outcome_code(verdict)), thread, target);
}

pipeline::ExecutionConfig fault_run_config(const CampaignOptions& options,
                                           std::uint64_t budget) {
  pipeline::ExecutionConfig config;
  config.num_threads = options.num_threads;
  config.exec_tier = options.exec_tier;
  config.monitor = options.protect ? pipeline::MonitorMode::Full
                                   : pipeline::MonitorMode::Off;
  config.instruction_budget = budget;
  config.monitor_options.sampling = options.monitor.sampling;
  config.recovery = options.recovery;
  return config;
}

Verdict classify_application_fault(const pipeline::ExecutionResult& run,
                                   bool protect, const std::string& output,
                                   const std::string& golden_output) {
  // Classification precedence mirrors the paper's procedure: recovery
  // first (the run both detected and corrected), then detection, then
  // crash/hang (caught by other means), then the output comparison
  // against the golden result.
  if (protect && run.recovered) {
    // Rolled back, replayed, and STILL diverged: the restore is unsound.
    // Counted as sdc (the partition tells the truth); the caller flags it
    // separately so tests can require zero.
    return output == golden_output ? Verdict::Recovered : Verdict::Sdc;
  }
  if (protect && run.detected) return Verdict::Detected;
  if (run.run.crash) return Verdict::Crashed;
  if (run.run.hang) return Verdict::Hung;
  return output == golden_output ? Verdict::Benign : Verdict::Sdc;
}

CampaignCheckpoint resume_checkpoint(const CampaignOptions& options) {
  CampaignCheckpoint cp;
  if (options.resume_file.empty()) return cp;
  std::string error;
  if (!load_checkpoint(options.resume_file, cp, &error)) {
    throw support::CompileError("campaign resume: " + error);
  }
  if (!cp.matches(options)) {
    throw support::CompileError(
        "campaign resume: checkpoint '" + options.resume_file +
        "' was written by a different campaign (seed/type/plan/threads/"
        "protect/sampling/flips mismatch)");
  }
  return cp;
}

namespace {

/// One injection run against the application (the paper's BranchFlip /
/// BranchCondition models), classified into the paper's taxonomy.
Verdict run_application_fault(const pipeline::CompiledProgram& program,
                              const CampaignOptions& options,
                              const GoldenRun& golden, std::uint64_t budget,
                              support::SplitMixRng& rng,
                              InjectionOutcome& outcome) {
  // Paper: pick thread j uniformly, then the k-th dynamic branch of j.
  unsigned thread =
      static_cast<unsigned>(rng.next_below(options.num_threads));
  std::uint64_t branches = golden.branches_per_thread[thread];
  if (branches == 0) {
    // Fault lands in a thread that runs no branches: never activated.
    record_outcome(Verdict::NotActivated, thread, 0);
    return Verdict::NotActivated;
  }
  std::uint64_t target = 1 + rng.next_below(branches);

  pipeline::ExecutionConfig config = fault_run_config(options, budget);
  config.fault.active = true;
  config.fault.thread = thread;
  config.fault.target_branch = target;
  config.fault.mode = options.type == FaultType::BranchCondition
                          ? vm::FaultPlan::Mode::CondBit
                          : vm::FaultPlan::Mode::BranchFlip;
  // Drawn unconditionally so every fault type consumes the same RNG
  // stream shape (verdict lists stay comparable across types per index).
  config.fault.bit = static_cast<unsigned>(rng.next_below(64));
  config.fault.targeted = options.type == FaultType::TargetedFlip;
  config.fault.targeted_flips = options.targeted_flips;

  pipeline::ExecutionResult run = pipeline::execute(program, config);
  outcome.rollbacks = run.recovery.rollbacks;
  outcome.checkpoints = run.recovery.checkpoints_taken;
  outcome.restore_ns = run.recovery.restore_ns;
  outcome.checkpoint_ns = run.recovery.checkpoint_ns;
  outcome.retry_exhausted = run.recovery.retries_exhausted;
  Verdict verdict = Verdict::NotActivated;
  if (run.run.fault_applied) {
    verdict = classify_application_fault(run, options.protect,
                                         run.run.output, golden.output);
    outcome.recovered_mismatch =
        options.protect && run.recovered && verdict == Verdict::Sdc;
  }
  record_outcome(verdict, thread, target);
  return verdict;
}

/// One injection run against the monitor runtime: the program itself is
/// clean, the fault lands in the detection path. Proves liveness (no
/// hangs), output integrity (no SDC) and no false alarms from lost data.
Verdict run_monitor_fault(const pipeline::CompiledProgram& program,
                          const CampaignOptions& options,
                          const GoldenRun& golden, std::uint64_t budget,
                          support::SplitMixRng& rng,
                          InjectionOutcome& outcome) {
  std::uint64_t reports = std::max<std::uint64_t>(1, golden.monitor_reports);
  std::uint64_t target = 1 + rng.next_below(reports);

  pipeline::ExecutionConfig config;
  config.num_threads = options.num_threads;
  config.exec_tier = options.exec_tier;
  config.monitor = pipeline::MonitorMode::Full;
  config.instruction_budget = budget;
  config.monitor_options = options.monitor;
  switch (options.type) {
    case FaultType::MonitorStall:
      config.monitor_options.fault_hooks.stall_after_reports = target;
      break;
    case FaultType::QueueCorrupt:
      config.monitor_options.fault_hooks.corrupt_report_index = target;
      config.monitor_options.fault_hooks.corrupt_bit =
          static_cast<unsigned>(rng.next_below(
              8 * sizeof(runtime::BranchReport)));
      // The defence under test: producers seal a checksum, the consumer
      // verifies and discards corrupted slots.
      config.monitor_options.validate_reports = true;
      break;
    case FaultType::ReportDrop:
      config.monitor_options.fault_hooks.drop_report_index = target;
      break;
    default:
      BW_INTERNAL_CHECK(false, "not a monitor fault type");
  }

  pipeline::ExecutionResult run = pipeline::execute(program, config);
  if (run.monitor_stats.hooks_fired == 0) {
    record_outcome(Verdict::NotActivated, 0, target);
    return Verdict::NotActivated;  // never activated
  }

  outcome.degraded = run.monitor_health == runtime::MonitorHealth::Degraded;
  outcome.failed = run.monitor_health == runtime::MonitorHealth::Failed;
  outcome.discarded = run.monitor_stats.reports_rejected > 0;

  Verdict verdict;
  if (run.run.hang) {
    verdict = Verdict::Hung;  // liveness failure: policy did not protect us
  } else if (run.run.crash) {
    verdict = Verdict::Crashed;
  } else if (run.detected) {
    // A violation on a clean program. For QueueCorrupt without rejection
    // this would be legitimate detection of the corruption; with the
    // degradation logic in place any flag here is a false alarm.
    if (options.type == FaultType::QueueCorrupt &&
        run.monitor_stats.reports_rejected == 0) {
      verdict = Verdict::Detected;
    } else {
      verdict = Verdict::FalseAlarm;
    }
  } else if (run.run.output == golden.output) {
    verdict = Verdict::Benign;
  } else {
    verdict = Verdict::Sdc;  // monitor faults must never corrupt output
  }
  record_outcome(verdict, 0, target);
  return verdict;
}

}  // namespace

CampaignResult run_campaign(std::string_view source,
                            const CampaignOptions& options) {
  const bool monitor_fault = is_monitor_fault(options.type);
  BW_INTERNAL_CHECK(!monitor_fault || options.protect,
                    "monitor-path faults require the protected build");
  BW_INTERNAL_CHECK(options.injections >= 0,
                    "negative injection plan");
  telemetry::SpanScope span(telemetry::Phase::Other, "fault.campaign");

  // Compile once; the module is read-only during execution so every
  // injection run reuses it across all workers.
  pipeline::CompiledProgram program =
      options.protect ? pipeline::protect_program(source, options.pipeline)
                      : pipeline::compile_program(source, options.pipeline);

  GoldenRun golden =
      golden_run(program, options.num_threads, options.exec_tier);
  std::uint64_t budget = options.instruction_budget != 0
                             ? options.instruction_budget
                             : auto_instruction_budget(golden);

  // Slot i is owned by injection i; `done` marks the completed set.
  const std::size_t plan = static_cast<std::size_t>(options.injections);
  std::vector<InjectionOutcome> outcomes(plan);
  std::vector<char> done(plan, 0);

  // Resume: replay completed outcomes into their plan slots. Their
  // telemetry was emitted by the run that produced them; replays only
  // fold into the result.
  int resumed = 0;
  for (const InjectionOutcome& o : resume_checkpoint(options).completed) {
    if (o.index >= plan || done[o.index]) continue;
    outcomes[o.index] = o;
    done[o.index] = 1;
    ++resumed;
  }
  std::vector<std::uint32_t> pending;
  for (std::uint32_t i = 0; i < plan; ++i) {
    if (!done[i]) pending.push_back(i);
  }

  PoolControl control{.workers = options.campaign_workers,
                      .halt_after = options.halt_after,
                      .completed = resumed,
                      .checkpoint_every = options.checkpoint_every};
  if (!options.checkpoint_file.empty()) {
    // Serialize every completed outcome plus the plan cursor.
    control.checkpoint = [&] {
      CampaignCheckpoint cp = checkpoint_identity(options);
      for (std::size_t i = 0; i < plan; ++i) {
        if (done[i]) cp.completed.push_back(outcomes[i]);
      }
      while (static_cast<std::size_t>(cp.cursor) < plan && done[cp.cursor]) {
        ++cp.cursor;
      }
      save_checkpoint(options.checkpoint_file, cp);
    };
  }
  const unsigned workers = run_pool(
      pending.size(), control,
      [&](std::size_t task, unsigned) {
        InjectionOutcome outcome;
        outcome.index = pending[task];
        support::SplitMixRng rng(injection_seed(options.seed, outcome.index));
        outcome.verdict =
            monitor_fault
                ? run_monitor_fault(program, options, golden, budget, rng,
                                    outcome)
                : run_application_fault(program, options, golden, budget,
                                        rng, outcome);
        return outcome;
      },
      [&](std::size_t, InjectionOutcome&& outcome, std::uint64_t wall_ns,
          unsigned worker) {
        outcome.wall_ns = wall_ns;
        telemetry::record_event(telemetry::EventKind::CampaignInjection,
                                telemetry::Phase::Other, outcome.index,
                                static_cast<std::uint64_t>(outcome.verdict),
                                worker);
        outcomes[outcome.index] = outcome;
        done[outcome.index] = 1;
      });

  // Deterministic fold: outcomes enter the result in plan order, never in
  // completion order, so any worker count produces identical bytes.
  CampaignResult result;
  result.workers = workers;
  result.resumed = resumed;
  for (std::size_t i = 0; i < plan; ++i) {
    if (!done[i]) continue;
    accumulate(result, outcomes[i]);
    result.verdicts.push_back(outcomes[i].verdict);
  }
  result.interrupted = result.injected < options.injections;
  if (result.injected > 0) {
    result.run_ns_mean =
        static_cast<double>(result.run_ns_total) / result.injected;
  }
  return result;
}

CleanRunResult run_clean_campaign(const pipeline::CompiledProgram& program,
                                  const pipeline::ExecutionConfig& config,
                                  int runs, unsigned workers) {
  telemetry::SpanScope span(telemetry::Phase::Other, "fault.clean_campaign");
  CleanRunResult total;
  run_pool(
      static_cast<std::size_t>(std::max(runs, 0)), PoolControl{.workers = workers},
      [&](std::size_t, unsigned) { return pipeline::execute(program, config); },
      [&](std::size_t, pipeline::ExecutionResult&& result, std::uint64_t,
          unsigned) {
        ++total.runs;
        if (!result.run.ok) ++total.failures;
        total.violations += static_cast<int>(result.violations.size());
        if (result.monitor_health == runtime::MonitorHealth::Degraded) {
          ++total.degraded;
        } else if (result.monitor_health == runtime::MonitorHealth::Failed) {
          ++total.failed_health;
        }
        total.reports += result.monitor_stats.reports_processed;
        total.checks += result.monitor_stats.instances_checked;
        total.dropped += result.monitor_stats.dropped_reports;
      });
  return total;
}

}  // namespace bw::fault
