// bwc: a command-line driver for the whole toolchain, the way a downstream
// user would interact with BLOCKWATCH on their own programs.
//
//   bwc run <prog> [threads]              execute (uninstrumented)
//   bwc protect <prog> [threads] [--recover]
//                                         execute under BLOCKWATCH;
//                                         --recover adds barrier-aligned
//                                         checkpoint/rollback
//   bwc analyze <prog>                    per-branch similarity report
//   bwc emit-ir <prog>                    dump SSA IR
//   bwc emit-instrumented <prog>          dump instrumented IR
//   bwc inject <prog> <thread> <k> [flip|cond] [threads] [--recover]
//                                         inject one fault and classify
//   bwc campaign <prog> [injections] [threads] [--type=...] [--workers=N]
//                [--seed=S] [--checkpoint=<file>] [--resume=<file>]
//                [--no-protect] [--recover] [--flips=N]
//                                         run a parallel fault-injection
//                                         campaign and print the outcome
//                                         partition with Wilson 95% CIs
//   bwc serve <prog> [sessions] [threads] [--shards=K] [--quota=N]
//                                         run many protected runs of the
//                                         program, one after another, as
//                                         sessions of ONE long-lived
//                                         MonitorService, then print the
//                                         sessions' aggregate stats
//   bwc race <prog> [threads] [--static-only]
//                                         static race check (certificates
//                                         per conflicting access pair),
//                                         then dynamic confirmation of any
//                                         unproven candidates under the VM
//                                         race oracle; --static-only skips
//                                         the dynamic runs and treats every
//                                         candidate as a finding
//
// <prog> is a path to a .bwc source file, or "bench:<name>" for a
// built-in SPLASH-2 kernel (bench:fft, bench:radix, ...) or service
// kernel (bench:auth_check, bench:dispatch).
//
// Every count (threads, injections, sessions, shards, ...) must be a whole
// number within the bounds docs/bwc_cli.md lists; anything else exits 2
// before a program thread starts.
//
// Sampled monitoring (protect and campaign; see docs/bwc_cli.md):
//   --sampling        adaptive 1-in-N sampling: full checking while the
//                     overhead budget holds, degrade under queue pressure,
//                     snap back to full on any violation/anomaly
//   --sample-rate=N   pin deterministic 1-in-N sampling (no adaptation);
//                     N=1 is full checking through the sampling path
//   --flips=N         targeted-flip campaigns: adversary budget per
//                     injection (0 = unbounded; default 4)
//
// Execution tier (run, protect, inject, campaign; see docs/bwc_cli.md):
//   --tier=auto|interpreter|threaded
//                    which VM dispatcher executes the program. "threaded"
//                    (the auto default) pre-decodes to a direct-threaded
//                    form; "interpreter" is the differential oracle. Both
//                    tiers produce byte-identical outputs and verdicts.
//
// Observability flags (any command, see docs/observability.md):
//   --trace=<file>   record a Chrome trace_event JSON trace of the run
//                    (loadable in ui.perfetto.dev / about://tracing)
//   --metrics        dump the metrics registry to stderr at exit
//
// Exit codes (scriptable):
//   0  clean run
//   1  program trapped (crash/hang/abort) or compile error
//   2  usage error (including a bad count)
//   3  monitor detected a violation and the run stopped (or finished
//      with a recorded violation)
//   4  run finished but the monitor ended Degraded (partial protection)
//   5  run finished but the monitor ended Failed (unprotected tail)
//   6  a violation was detected, the run rolled back to a checkpoint and
//      finished correctly (recovered)
//   8  race only: data races found — dynamically confirmed, or (with
//      --static-only) at least one conflicting pair has no certificate
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/registry.h"
#include "fault/campaign.h"
#include "fault/compositional.h"
#include "pipeline/pipeline.h"
#include "runtime/monitor_service.h"
#include "support/string_utils.h"
#include "support/telemetry/telemetry.h"

namespace {

using namespace bw;

// Bounds of bwc's counts (docs/bwc_cli.md). The benches go to 32 program
// threads.
constexpr std::uint64_t kMaxThreads = 256;
constexpr std::uint64_t kMaxShards = 64;
constexpr std::uint64_t kMaxWorkers = 256;
constexpr std::uint64_t kMaxRuns = 1'000'000;  // injections, sessions
constexpr std::uint64_t kMaxFlips = 1'000'000;
constexpr std::uint64_t kMaxQuota = UINT32_MAX;

std::uint64_t count_arg(const char* what, std::string_view text,
                        std::uint64_t min, std::uint64_t max) {
  return support::count_arg_or_exit("bwc", what, text, min, max);
}

/// Positional argument `index` as a count, or `fallback` when absent.
std::uint64_t count_at(const std::vector<std::string>& args,
                       std::size_t index, const char* what,
                       std::uint64_t fallback, std::uint64_t min,
                       std::uint64_t max) {
  return args.size() > index ? count_arg(what, args[index], min, max)
                             : fallback;
}

unsigned threads_at(const std::vector<std::string>& args,
                    std::size_t index) {
  return static_cast<unsigned>(
      count_at(args, index, "thread count", 4, 1, kMaxThreads));
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bwc: cannot open '%s'\n", path);
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// "bench:<name>" resolves to a built-in SPLASH-2 kernel; anything else is
/// a path to a .bwc source file.
std::string load_source(const std::string& spec) {
  if (spec.rfind("bench:", 0) == 0) {
    const std::string name = spec.substr(6);
    const benchmarks::Benchmark* bench = benchmarks::find_benchmark(name);
    if (bench == nullptr) {
      std::fprintf(stderr, "bwc: unknown benchmark '%s'; available:",
                   name.c_str());
      for (const benchmarks::Benchmark& b : benchmarks::all_benchmarks()) {
        std::fprintf(stderr, " %s", b.name.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    return bench->source;
  }
  return read_file(spec.c_str());
}

int usage() {
  std::fprintf(
      stderr,
      "usage: bwc <run|protect|analyze|emit-ir|emit-instrumented|inject|"
      "campaign|serve|race> <file.bwc|bench:name> [args] [--recover] "
      "[--trace=<file>] "
      "[--metrics] [--sampling] [--sample-rate=N] "
      "[--tier=auto|interpreter|threaded]\n"
      "       bwc campaign <prog> [injections] [threads] [--type=flip|cond|"
      "targeted|stall|corrupt|drop]\n"
      "           [--workers=N] [--seed=S] [--checkpoint=<file>] "
      "[--resume=<file>] [--no-protect] [--recover] [--flips=N] "
      "[--compositional]\n"
      "       bwc serve <prog> [sessions] [threads] [--shards=K] "
      "[--quota=N]\n"
      "       bwc race <prog> [threads] [--static-only]\n");
  return 2;
}

void print_recovery_stats(const vm::RecoveryStats& r) {
  std::fprintf(stderr,
               "bwc: recovery: %llu checkpoints (%llu discarded), "
               "%llu rollbacks (%llu to section start), %u/%s retries%s\n",
               static_cast<unsigned long long>(r.checkpoints_taken),
               static_cast<unsigned long long>(r.checkpoints_discarded),
               static_cast<unsigned long long>(r.rollbacks),
               static_cast<unsigned long long>(r.rollbacks_to_section_start),
               r.retries_used,
               r.retries_exhausted ? "all" : "budget",
               r.recovered ? ", recovered" : "");
}

int cmd_run(const std::string& source, unsigned threads, bool protect,
            bool recover, const runtime::SamplingOptions& sampling,
            vm::ExecTier tier) {
  pipeline::CompiledProgram program =
      protect ? pipeline::protect_program(source)
              : pipeline::compile_program(source);
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
  config.exec_tier = tier;
  config.monitor =
      protect ? pipeline::MonitorMode::Full : pipeline::MonitorMode::Off;
  config.monitor_options.sampling = sampling;
  config.recovery.enabled = recover;
  pipeline::ExecutionResult result = pipeline::execute(program, config);
  std::fputs(result.run.output.c_str(), stdout);
  std::fprintf(stderr, "bwc: tier: %s\n", vm::to_string(result.run.tier));
  if (recover) print_recovery_stats(result.recovery);
  if (!result.run.ok) {
    for (const auto& t : result.run.threads) {
      if (t.trap != vm::TrapKind::None) {
        std::fprintf(stderr, "bwc: thread trapped: %s (%s)\n",
                     vm::to_string(t.trap), t.detail.c_str());
      }
    }
    return result.detected ? 3 : 1;
  }
  if (protect) {
    std::fprintf(stderr, "bwc: monitor processed %llu reports, %zu "
                 "violations\n",
                 static_cast<unsigned long long>(
                     result.monitor_stats.reports_processed),
                 result.violations.size());
    if (sampling.enabled || sampling.forced_rate > 0) {
      std::fprintf(stderr,
                   "bwc: sampling: %llu sampled out, %llu degrades, "
                   "%llu snap-backs, rate 1-in-%u (peak 1-in-%u)\n",
                   static_cast<unsigned long long>(
                       result.monitor_stats.reports_sampled_out),
                   static_cast<unsigned long long>(
                       result.monitor_stats.sampling_degrades),
                   static_cast<unsigned long long>(
                       result.monitor_stats.sampling_snap_backs),
                   result.monitor_stats.sampling_rate_final,
                   result.monitor_stats.sampling_rate_peak);
    }
    if (result.recovered) return 6;
    if (result.detected) return 3;
    if (result.monitor_health == runtime::MonitorHealth::Degraded) return 4;
    if (result.monitor_health == runtime::MonitorHealth::Failed) return 5;
  }
  return 0;
}

int cmd_analyze(const std::string& source) {
  pipeline::CompiledProgram program = pipeline::compile_program(source);
  std::printf("%-4s %-16s %-22s %-10s %-18s %5s %s\n", "id", "function",
              "block", "category", "check", "depth", "flags");
  for (const analysis::BranchInfo& info : program.analysis.branches) {
    std::string flags;
    if (info.promoted) flags += " promoted";
    if (info.elided_critical_section) flags += " lock-elided";
    if (info.elision_promoted) flags += " elision-promoted";
    if (!info.in_parallel_section) flags += " serial";
    std::printf("%-4u %-16s %-22s %-10s %-18s %5u%s\n", info.static_id,
                info.function->name().c_str(),
                info.branch->parent()->name().c_str(),
                analysis::to_string(info.category),
                analysis::to_string(info.check), info.loop_depth,
                flags.c_str());
  }
  analysis::CategoryCounts c = program.analysis.parallel_counts();
  std::printf("\n%d parallel branches: %d shared, %d threadID, %d partial, "
              "%d none (%.0f%% similar)\n",
              c.total(), c.shared, c.thread_id, c.partial, c.none,
              c.total() ? 100.0 * c.similar() / c.total() : 0.0);
  return 0;
}

int cmd_race(const std::string& source, unsigned threads, bool static_only) {
  pipeline::CompiledProgram program = pipeline::compile_program(source);
  pipeline::RaceCheckConfig config;
  config.num_threads = threads;
  config.run_dynamic = !static_only;
  pipeline::RaceCheckReport report =
      pipeline::check_program_races(program, config);
  const analysis::RaceCheckResult& s = report.static_result;
  if (!s.analyzable) {
    std::fprintf(stderr, "bwc: no parallel entry 'slave' to analyze\n");
    return 2;
  }

  std::printf("static: %u phase region(s)%s%s, %zu shared accesses, "
              "%zu conflicting pairs\n",
              s.num_regions,
              s.alignment_verified ? " (barrier alignment verified)"
                                   : " (alignment unverified, conservative)",
              s.truncated ? ", access collection truncated" : "",
              s.num_accesses, s.pairs_examined);

  // One line per certificate kind, so the proof surface is scannable even
  // when a kernel has hundreds of proven pairs.
  std::vector<std::pair<std::string, int>> by_cert;
  for (const analysis::RacePair& p : s.proven) {
    bool found = false;
    for (auto& entry : by_cert) {
      if (entry.first == p.certificate) {
        ++entry.second;
        found = true;
        break;
      }
    }
    if (!found) by_cert.emplace_back(p.certificate, 1);
  }
  std::printf("proven race-free: %zu pair(s)\n", s.proven.size());
  for (const auto& entry : by_cert) {
    std::printf("  %-12s %d\n", entry.first.c_str(), entry.second);
  }

  if (s.candidates.empty()) {
    std::printf("candidates: none — statically race-free\n");
    return 0;
  }
  std::printf("candidates: %zu pair(s) with no certificate\n",
              s.candidates.size());
  for (const analysis::RacePair& p : s.candidates) {
    std::printf("  %s\n    vs %s\n", p.first.to_string().c_str(),
                p.second.to_string().c_str());
  }

  if (static_only) {
    std::printf("\nverdict: POTENTIAL RACES (static-only; rerun without "
                "--static-only to confirm dynamically)\n");
    return 8;
  }
  std::printf("\ndynamic: %s oracle run(s) at %u threads\n",
              report.dynamic_ran ? "completed" : "skipped", threads);
  if (report.dynamic_races.empty()) {
    std::printf("verdict: no races confirmed (candidates are artifacts of "
                "the checker's incompleteness)\n");
    return 0;
  }
  for (const pipeline::DynamicRaceReport& r : report.dynamic_races) {
    std::printf("  RACE %s[%lld]: thread %u (%s) vs thread %u (%s)\n",
                r.global.c_str(), static_cast<long long>(r.word), r.tid_a,
                r.write_a ? "write" : "read", r.tid_b,
                r.write_b ? "write" : "read");
  }
  std::printf("verdict: DATA RACES CONFIRMED (%zu conflict(s))\n",
              report.dynamic_races.size());
  return 8;
}

int cmd_inject(const std::string& source, unsigned thread, std::uint64_t k,
               bool cond_fault, unsigned threads, bool recover,
               vm::ExecTier tier) {
  pipeline::CompiledProgram program = pipeline::protect_program(source);
  fault::GoldenRun golden = fault::golden_run(program, threads, tier);
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
  config.exec_tier = tier;
  config.instruction_budget = fault::auto_instruction_budget(golden);
  config.fault.active = true;
  config.fault.thread = thread;
  config.fault.target_branch = k;
  config.fault.mode = cond_fault ? vm::FaultPlan::Mode::CondBit
                                 : vm::FaultPlan::Mode::BranchFlip;
  config.recovery.enabled = recover;
  pipeline::ExecutionResult result = pipeline::execute(program, config);

  const char* verdict;
  if (!result.run.fault_applied) {
    verdict = "not-activated";
  } else if (result.recovered) {
    verdict = result.run.output == golden.output ? "RECOVERED"
                                                 : "recovered-mismatch";
  } else if (result.detected) {
    verdict = "DETECTED";
  } else if (result.run.crash) {
    verdict = "crash";
  } else if (result.run.hang) {
    verdict = "hang";
  } else if (result.run.output == golden.output) {
    verdict = "benign";
  } else {
    verdict = "SDC";
  }
  std::printf("fault thread=%u branch=%llu type=%s -> %s\n", thread,
              static_cast<unsigned long long>(k),
              cond_fault ? "condition" : "flip", verdict);
  if (recover) print_recovery_stats(result.recovery);
  return 0;
}

/// Flags consumed only by `bwc serve`.
struct ServeFlags {
  unsigned shards = 2;
  std::uint64_t quota = 0;  // 0 = no quota
};

int cmd_serve(const std::string& source, unsigned sessions, unsigned threads,
              const ServeFlags& flags,
              const runtime::SamplingOptions& sampling, vm::ExecTier tier) {
  pipeline::CompiledProgram program = pipeline::protect_program(source);

  runtime::MonitorServiceOptions service_options;
  service_options.num_shards = flags.shards;
  runtime::MonitorService service(service_options);
  service.start();
  std::fprintf(stderr,
               "bwc: serve: %u sessions (%u program threads each), one "
               "after another over %u shard(s)\n",
               sessions, threads, service.num_shards());

  // Each session is a full admit -> run -> close turnaround on the
  // long-lived service.
  unsigned ok = 0, trapped = 0, with_violations = 0;
  unsigned degraded = 0, failed = 0;
  std::uint64_t processed = 0, throttled = 0, dropped = 0;
  std::size_t violations = 0;
  for (unsigned i = 0; i < sessions; ++i) {
    pipeline::ExecutionConfig config;
    config.num_threads = threads;
    config.exec_tier = tier;
    config.stop_on_detection = false;
    config.session_quota = flags.quota;
    config.monitor_options.sampling = sampling;
    const pipeline::ExecutionResult result =
        pipeline::execute_in_session(program, config, service);
    if (result.admit_error != runtime::AdmitError::None) {
      std::fprintf(stderr, "bwc: session %u not admitted: %s\n", i,
                   runtime::to_string(result.admit_error));
      return 1;
    }
    if (!result.run.ok) ++trapped;
    if (result.detected) ++with_violations;
    if (result.monitor_health == runtime::MonitorHealth::Degraded) {
      ++degraded;
    } else if (result.monitor_health == runtime::MonitorHealth::Failed) {
      ++failed;
    }
    if (result.run.ok && !result.detected &&
        result.monitor_health == runtime::MonitorHealth::Healthy) {
      ++ok;
    }
    processed += result.monitor_stats.reports_processed;
    throttled += result.monitor_stats.reports_throttled;
    dropped += result.monitor_stats.dropped_reports;
    violations += result.violations.size();
  }
  service.stop();

  std::fprintf(stderr,
               "bwc: sessions: %u ok, %u with violations (%zu total), %u "
               "degraded, %u failed, %u trapped\n",
               ok, with_violations, violations, degraded, failed, trapped);
  std::fprintf(stderr,
               "bwc: reports: processed %llu, throttled %llu, dropped %llu\n",
               static_cast<unsigned long long>(processed),
               static_cast<unsigned long long>(throttled),
               static_cast<unsigned long long>(dropped));

  if (trapped > 0) return 1;
  if (with_violations > 0) return 3;
  if (failed > 0) return 5;
  if (degraded > 0) return 4;
  return 0;
}

/// Flags consumed only by `bwc campaign`.
struct CampaignFlags {
  fault::FaultType type = fault::FaultType::BranchFlip;
  unsigned workers = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 0x5eedf00d;
  std::string checkpoint_file;
  std::string resume_file;
  bool no_protect = false;
  bool compositional = false;
  unsigned targeted_flips = 4;
};

/// `bwc campaign --compositional`: the per-phase engine with the v3
/// phase-outcome cache. Point --checkpoint at a stable file and re-run
/// after each source edit: only the phases whose code or entry state
/// changed re-inject.
int cmd_campaign_compositional(const std::string& source,
                               const fault::CampaignOptions& options) {
  fault::CompositionalResult r =
      fault::run_compositional_campaign(source, options);
  if (r.refused) {
    std::fprintf(stderr, "bwc: compositional campaign refused: %s\n",
                 r.refusal_reason.c_str());
    return 2;
  }
  std::printf("compositional campaign: %s, %d injections over %u phases, "
              "%u threads, %u workers, seed 0x%llx%s\n",
              fault::to_string(options.type), options.injections,
              r.phase_count, options.num_threads, r.composed.workers,
              static_cast<unsigned long long>(options.seed),
              options.protect ? "" : ", unprotected");
  std::printf("%-6s %10s %8s %10s %8s %8s %8s %18s\n", "phase", "inject",
              "cached", "activated", "benign", "detect", "sdc", "code fp");
  for (const fault::PhaseOutcomeSummary& p : r.phases) {
    std::printf("%-6u %10d %8d %10d %8d %8d %8d   %016llx\n", p.phase,
                p.injections, p.cached, p.tally.activated, p.tally.benign,
                p.tally.detected, p.tally.sdc,
                static_cast<unsigned long long>(p.code_fp));
  }
  if (r.null_injections > 0) {
    std::printf("null bucket: %d injections on branchless threads "
                "(not activated)\n", r.null_injections);
  }
  std::printf("cache: %d of %d phases hit, %d injections served, "
              "%d executed\n",
              r.phase_cache_hits, r.phase_cache_hits + r.phase_cache_misses,
              r.injections_cached, r.injections_executed);
  const fault::CampaignResult& c = r.composed;
  std::printf("composed: injected %d  activated %d  benign %d  detected %d  "
              "crashed %d  hung %d  sdc %d\n",
              c.injected, c.activated, c.benign, c.detected, c.crashed,
              c.hung, c.sdc);
  fault::ConfidenceInterval cov = c.coverage_interval();
  fault::ConfidenceInterval sdc = c.sdc_interval();
  std::printf("coverage   %6.2f%%  [%.2f%%, %.2f%%] Wilson 95%%\n",
              100.0 * c.coverage(), 100.0 * cov.lo, 100.0 * cov.hi);
  std::printf("sdc rate   %6.2f%%  [%.2f%%, %.2f%%] Wilson 95%%\n",
              100.0 * (c.activated ? 1.0 - c.coverage() : 0.0),
              100.0 * sdc.lo, 100.0 * sdc.hi);
  if (r.interrupted) {
    std::printf("INTERRUPTED after %d/%d injections%s\n", c.injected,
                options.injections,
                options.checkpoint_file.empty()
                    ? ""
                    : " (checkpoint holds the completed phases)");
  }
  return 0;
}

int cmd_campaign(const std::string& source, int injections, unsigned threads,
                 const CampaignFlags& flags, bool recover,
                 const runtime::SamplingOptions& sampling,
                 vm::ExecTier tier) {
  fault::CampaignOptions options;
  options.num_threads = threads;
  options.exec_tier = tier;
  options.injections = injections;
  options.type = flags.type;
  options.seed = flags.seed;
  options.protect = !flags.no_protect;
  options.campaign_workers = flags.workers;
  options.checkpoint_file = flags.checkpoint_file;
  options.resume_file = flags.resume_file;
  options.recovery.enabled = recover;
  options.monitor.sampling = sampling;
  options.targeted_flips = flags.targeted_flips;
  if (fault::is_monitor_fault(options.type) && flags.no_protect) {
    std::fprintf(stderr,
                 "bwc: monitor-path fault types require the protected "
                 "build (drop --no-protect)\n");
    return 2;
  }
  if (flags.compositional) {
    return cmd_campaign_compositional(source, options);
  }

  fault::CampaignResult r = fault::run_campaign(source, options);

  std::printf("campaign: %s, %d injections, %u threads, %u workers, "
              "seed 0x%llx, tier %s%s\n",
              fault::to_string(options.type), options.injections, threads,
              r.workers, static_cast<unsigned long long>(options.seed),
              vm::to_string(vm::resolve_tier(tier)),
              options.protect ? "" : ", unprotected");
  if (sampling.forced_rate > 0) {
    std::printf("sampling: forced 1-in-%u\n", sampling.forced_rate);
  } else if (sampling.enabled) {
    std::printf("sampling: adaptive (max 1-in-%u)\n", sampling.max_rate);
  }
  if (options.type == fault::FaultType::TargetedFlip) {
    std::printf("adversary budget: %u flips per injection%s\n",
                options.targeted_flips,
                options.targeted_flips == 0 ? " (unbounded)" : "");
  }
  if (r.resumed > 0) {
    std::printf("resumed %d completed injections from %s\n", r.resumed,
                flags.resume_file.c_str());
  }
  std::printf("injected   %6d\nactivated  %6d  (%.1f%% activation)\n",
              r.injected, r.activated, 100.0 * r.activation_rate());
  std::printf("  benign      %6d\n  detected    %6d\n", r.benign,
              r.detected);
  if (recover) std::printf("  recovered   %6d\n", r.recovered);
  std::printf("  crashed     %6d\n  hung        %6d\n  sdc         %6d\n",
              r.crashed, r.hung, r.sdc);
  if (fault::is_monitor_fault(options.type)) {
    std::printf("  false-alarm %6d\n", r.false_alarms);
    std::printf("degraded %d  failed %d  discarded %d\n", r.degraded_runs,
                r.failed_runs, r.discarded);
  }
  fault::ConfidenceInterval cov = r.coverage_interval();
  fault::ConfidenceInterval sdc = r.sdc_interval();
  std::printf("coverage   %6.2f%%  [%.2f%%, %.2f%%] Wilson 95%%\n",
              100.0 * r.coverage(), 100.0 * cov.lo, 100.0 * cov.hi);
  std::printf("sdc rate   %6.2f%%  [%.2f%%, %.2f%%] Wilson 95%%\n",
              100.0 * (r.activated ? 1.0 - r.coverage() : 0.0),
              100.0 * sdc.lo, 100.0 * sdc.hi);
  if (recover) {
    std::printf("recovery   %6.2f%% of flagged runs finished correctly "
                "(%llu rollbacks)\n",
                100.0 * r.recovery_rate(),
                static_cast<unsigned long long>(r.rollbacks));
  }
  std::printf("run wall   min %.3f ms  mean %.3f ms  max %.3f ms\n",
              r.run_ns_min * 1e-6, r.run_ns_mean * 1e-6,
              r.run_ns_max * 1e-6);
  if (r.interrupted) {
    std::printf("INTERRUPTED after %d/%d injections%s\n", r.injected,
                options.injections,
                options.checkpoint_file.empty()
                    ? ""
                    : " (checkpoint holds the cursor)");
  }
  return 0;
}

int dispatch(const std::string& cmd, const std::string& source,
             const std::vector<std::string>& args,
             const CampaignFlags& campaign_flags,
             const ServeFlags& serve_flags, bool recover, bool static_only,
             const runtime::SamplingOptions& sampling, vm::ExecTier tier) {
  if (cmd == "run" || cmd == "protect") {
    return cmd_run(source, threads_at(args, 2), cmd == "protect",
                   recover && cmd == "protect", sampling, tier);
  }
  if (cmd == "analyze") return cmd_analyze(source);
  if (cmd == "race") {
    return cmd_race(source, threads_at(args, 2), static_only);
  }
  if (cmd == "emit-ir") {
    std::fputs(pipeline::compile_program(source).module->to_string().c_str(),
               stdout);
    return 0;
  }
  if (cmd == "emit-instrumented") {
    std::fputs(pipeline::protect_program(source).module->to_string().c_str(),
               stdout);
    return 0;
  }
  if (cmd == "campaign") {
    const int injections = static_cast<int>(
        count_at(args, 2, "injection count", 200, 1, kMaxRuns));
    return cmd_campaign(source, injections, threads_at(args, 3),
                        campaign_flags, recover, sampling, tier);
  }
  if (cmd == "serve") {
    const unsigned sessions = static_cast<unsigned>(
        count_at(args, 2, "session count", 16, 1, kMaxRuns));
    return cmd_serve(source, sessions, threads_at(args, 3), serve_flags,
                     sampling, tier);
  }
  if (cmd == "inject" && args.size() >= 4) {
    bool cond_fault = args.size() > 4 && args[4] == "cond";
    const unsigned threads = threads_at(args, 5);
    const unsigned thread = static_cast<unsigned>(
        count_arg("fault thread", args[2], 0, threads - 1));
    const std::uint64_t k =
        count_arg("branch index", args[3], 0, UINT64_MAX);
    return cmd_inject(source, thread, k, cond_fault, threads, recover, tier);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip flags wherever they appear; everything else is positional.
  std::vector<std::string> args;
  bool recover = false;
  bool static_only = false;
  bool metrics = false;
  std::string trace_path;
  CampaignFlags campaign_flags;
  ServeFlags serve_flags;
  runtime::SamplingOptions sampling;
  vm::ExecTier tier = vm::ExecTier::Auto;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--recover") == 0) {
      recover = true;
    } else if (std::strcmp(argv[i], "--static-only") == 0) {
      static_only = true;
    } else if (std::strncmp(argv[i], "--tier=", 7) == 0) {
      if (!vm::parse_exec_tier(argv[i] + 7, tier)) {
        std::fprintf(stderr, "bwc: unknown tier '%s'\n", argv[i] + 7);
        return usage();
      }
    } else if (std::strcmp(argv[i], "--sampling") == 0) {
      sampling.enabled = true;
    } else if (std::strncmp(argv[i], "--sample-rate=", 14) == 0) {
      sampling.forced_rate = static_cast<std::uint32_t>(
          count_arg("--sample-rate", argv[i] + 14, 1, UINT32_MAX));
    } else if (std::strncmp(argv[i], "--flips=", 8) == 0) {
      campaign_flags.targeted_flips = static_cast<unsigned>(
          count_arg("--flips", argv[i] + 8, 0, kMaxFlips));
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strncmp(argv[i], "--type=", 7) == 0) {
      if (!fault::parse_fault_type(argv[i] + 7, campaign_flags.type)) {
        std::fprintf(stderr, "bwc: unknown fault type '%s'\n", argv[i] + 7);
        return usage();
      }
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      campaign_flags.workers = static_cast<unsigned>(
          count_arg("--workers", argv[i] + 10, 0, kMaxWorkers));
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      campaign_flags.seed = count_arg("--seed", argv[i] + 7, 0, UINT64_MAX);
    } else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0) {
      campaign_flags.checkpoint_file = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--resume=", 9) == 0) {
      campaign_flags.resume_file = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--no-protect") == 0) {
      campaign_flags.no_protect = true;
    } else if (std::strcmp(argv[i], "--compositional") == 0) {
      campaign_flags.compositional = true;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      serve_flags.shards = static_cast<unsigned>(
          count_arg("--shards", argv[i] + 9, 1, kMaxShards));
    } else if (std::strncmp(argv[i], "--quota=", 8) == 0) {
      serve_flags.quota = count_arg("--quota", argv[i] + 8, 0, kMaxQuota);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "bwc: unknown flag '%s'\n", argv[i]);
      return usage();
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.size() < 2) return usage();
  const bool observing = metrics || !trace_path.empty();
  if (observing) telemetry::set_enabled(true);
  const std::string& cmd = args[0];
  std::string source = load_source(args[1]);
  int rc;
  try {
    rc = dispatch(cmd, source, args, campaign_flags, serve_flags, recover,
                  static_only, sampling, tier);
  } catch (const bw::support::CompileError& e) {
    std::fprintf(stderr, "bwc: %s\n", e.what());
    rc = 1;
  }
  // Export AFTER the command so the snapshot covers the whole run,
  // including failed ones — a trace of a detected/degraded run is
  // exactly what docs/observability.md's diagnosis walkthrough needs.
  if (observing) {
    telemetry::Snapshot snap = telemetry::scrape();
    if (metrics) std::fputs(telemetry::to_text(snap).c_str(), stderr);
    if (!trace_path.empty()) {
      if (telemetry::write_file(trace_path,
                                telemetry::to_chrome_trace(snap))) {
        std::fprintf(stderr, "bwc: trace written to %s (%zu spans, "
                     "%zu events)\n",
                     trace_path.c_str(), snap.spans.size(),
                     snap.events.size());
      } else {
        std::fprintf(stderr, "bwc: cannot write trace '%s'\n",
                     trace_path.c_str());
        if (rc == 0) rc = 1;
      }
    }
  }
  return rc;
}
