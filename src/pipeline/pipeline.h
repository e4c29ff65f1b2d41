// One-call drivers for the full BLOCKWATCH flow:
//   BW-C source -> SSA IR -> similarity analysis -> instrumentation
//     -> VM execution with the runtime monitor.
// This is the library's primary public API; the examples, benches and the
// fault-injection campaign are all written against it.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/race_checker.h"
#include "analysis/similarity.h"
#include "frontend/compiler.h"
#include "instrument/instrument.h"
#include "runtime/monitor.h"
#include "runtime/monitor_service.h"
#include "vm/machine.h"

namespace bw::pipeline {

struct PipelineOptions {
  frontend::CompileOptions compile;
  analysis::SimilarityOptions similarity;
  instrument::InstrumentOptions instrumentation;
};

/// A compiled (and possibly instrumented) program plus its analysis.
struct CompiledProgram {
  std::unique_ptr<ir::Module> module;
  analysis::SimilarityResult analysis;
  instrument::InstrumentStats instrument_stats;
  bool instrumented = false;
};

/// Compile and analyze only — the module carries no instrumentation
/// (baseline runs, Table IV/V statistics).
CompiledProgram compile_program(std::string_view source,
                                const PipelineOptions& options = {});

/// Compile, analyze, and instrument: the full BLOCKWATCH build.
CompiledProgram protect_program(std::string_view source,
                                const PipelineOptions& options = {});

enum class MonitorMode {
  Off,        // no monitor thread; bw.* instructions are ignored
  DrainOnly,  // monitor drains queues but checks nothing (the paper's
              // 32-thread performance configuration)
  Full,       // drain + check (normal operation)
};

struct ExecutionConfig {
  unsigned num_threads = 4;
  /// Which VM dispatcher runs the program (vm/dispatch.h). Auto resolves
  /// to the threaded tier; the interpreter is the differential oracle.
  /// The resolved tier is reported in ExecutionResult::run.tier.
  vm::ExecTier exec_tier = vm::ExecTier::Auto;
  MonitorMode monitor = MonitorMode::Full;
  vm::FaultPlan fault;
  std::uint64_t instruction_budget = 0;
  bool stop_on_detection = true;
  runtime::MonitorOptions monitor_options;
  /// Checker shards for MonitorMode::Full / DrainOnly. 0 (default) keeps
  /// the legacy single-consumer Monitor; >= 1 runs the program as the only
  /// session of a private runtime::MonitorService with that many shards
  /// (1 = the legacy topology: the same wire of reports, staged and
  /// published in runs of SpscQueue::kStride). monitor_options carries
  /// over: perform_checks follows the mode, queue_capacity sizes every
  /// (thread, shard) ring as it sizes the Monitor's, backoff/watchdog
  /// configure the service, and validation/sampling/fault hooks configure
  /// the session (fault hooks fire per shard unless shard_filter picks
  /// one). session_quota applies as in execute_in_session; at its default
  /// of 0 only the rings apply backpressure, as on the legacy Monitor.
  unsigned monitor_shards = 0;
  /// Entry points (must match the names used at analysis time).
  std::string parallel_entry = "slave";
  std::string init_function = "init";
  /// Barrier-aligned checkpoint/rollback (see vm/recovery.h). Only honored
  /// when a monitor is attached (the legacy Monitor and MonitorSession
  /// both support the recovery protocol) AND stop_on_detection is set —
  /// recovery is pointless if detection cannot interrupt the run.
  /// execute() silently disables it otherwise.
  vm::RecoveryOptions recovery;
  /// Single-phase execution for the compositional campaign engine (see
  /// vm::PhasePlan). Mutually exclusive with recovery; inactive by default.
  vm::PhasePlan phase;
  /// Session runs only (execute_in_session, and execute() with
  /// monitor_shards >= 1): this run's queued-report quota (0 = no
  /// quota). monitor_options carries the rest of the session shape
  /// (validation, fault hooks, sampling, max_pending); monitor
  /// Full/DrainOnly maps onto the session's perform_checks.
  std::uint64_t session_quota = 0;
};

struct ExecutionResult {
  vm::RunResult run;
  std::vector<runtime::Violation> violations;
  runtime::MonitorStats monitor_stats;
  /// Violation raised either during the run (stop-on-detection) or found
  /// when the monitor finalized at end of run.
  bool detected = false;
  /// Final health of the attached monitor (Healthy when none attached).
  /// Degraded: reports were dropped/rejected, detection ran on partial
  /// data; Failed: the watchdog declared the monitor dead and the program
  /// finished unprotected. See DESIGN.md "Failure modes & degradation".
  runtime::MonitorHealth monitor_health = runtime::MonitorHealth::Healthy;
  /// Checkpoint/rollback accounting (all-zero when recovery was off or
  /// disabled by the gating above).
  vm::RecoveryStats recovery;
  /// The run rolled back at least once and still finished cleanly.
  bool recovered = false;
  /// execute_in_session only: why admission failed. When != None the
  /// program did NOT run (run/violations/stats are all default).
  runtime::AdmitError admit_error = runtime::AdmitError::None;
};

/// Run a compiled program under the monitor `config` selects: none
/// (MonitorMode::Off), the legacy single-consumer Monitor
/// (monitor_shards == 0), or a private MonitorService
/// (monitor_shards >= 1, delegating to execute_in_session).
ExecutionResult execute(const CompiledProgram& program,
                        const ExecutionConfig& config);

/// As execute(), but the monitor is a session admitted from (and torn
/// down back into) a caller-owned MonitorService instead of a monitor
/// owned by this run. The service must be started. It hosts one session
/// at a time: a call made while another call's session is live gets
/// admit_error == AdmitError::Busy and runs nothing, so callers run their
/// sessions one after another.
/// The service, not the config, fixes shards, ring size, backoff and the
/// watchdog; monitor_shards and monitor_options.queue_capacity are
/// ignored here.
/// MonitorMode::Off is not meaningful here and maps to a checking session
/// (Full). Admission failure is reported in ExecutionResult::admit_error
/// without running the program.
ExecutionResult execute_in_session(const CompiledProgram& program,
                                   const ExecutionConfig& config,
                                   runtime::MonitorService& service);

/// Configuration for the `bwc race` flow (check_program_races).
struct RaceCheckConfig {
  unsigned num_threads = 4;
  /// Uninstrumented validation runs per invocation when the static checker
  /// leaves candidates. Repeated schedules raise the odds that a racy
  /// interleaving actually collides in the oracle's epoch/lockset model.
  unsigned dynamic_runs = 4;
  /// false = static verdict only (`bwc race --static-only`): any unproven
  /// candidate counts as a race.
  bool run_dynamic = true;
  /// Watchdog for the validation runs; 0 = unlimited.
  std::uint64_t instruction_budget = 500'000'000;
};

/// One dynamically observed unsynchronized conflict, attributed back to
/// the global that owns the heap word.
struct DynamicRaceReport {
  std::string global;      // owning global's name, "?" if unattributable
  std::int64_t word = 0;   // word index within that global
  unsigned tid_a = 0, tid_b = 0;
  bool write_a = false, write_b = false;
};

/// Static + dynamic race verdict for one program (the `bwc race` verb).
struct RaceCheckReport {
  analysis::RaceCheckResult static_result;
  /// Validation runs were executed (candidates existed and run_dynamic).
  bool dynamic_ran = false;
  std::vector<DynamicRaceReport> dynamic_races;
  /// Final verdict: with dynamic validation, a race is only *found* when
  /// the oracle confirms a candidate; static-only treats every candidate
  /// as a finding. When static_result.analyzable is false nothing was
  /// checked and races_found stays false — consult analyzable first.
  bool races_found = false;
};

/// Run the static race checker over an (uninstrumented) program and, when
/// it leaves unproven candidate pairs, confirm or clear them with repeated
/// uninstrumented executions under the dynamic race oracle.
RaceCheckReport check_program_races(const CompiledProgram& program,
                                    const RaceCheckConfig& config = {});

}  // namespace bw::pipeline
