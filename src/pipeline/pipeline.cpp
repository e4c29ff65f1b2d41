#include "pipeline/pipeline.h"

#include <algorithm>

#include "ir/verifier.h"
#include "support/telemetry/telemetry.h"
#include "vm/memory.h"
#include "vm/race_oracle.h"

namespace bw::pipeline {

namespace {

/// Single publication point for the Table V classification: the
/// similarity_report example and the bw_table5_categories bench both read
/// these gauges instead of re-deriving the counts, so they cannot drift.
void publish_analysis(const analysis::SimilarityResult& analysis) {
  if (!telemetry::enabled()) return;
  analysis::CategoryCounts counts = analysis.parallel_counts();
  telemetry::gauge_set(telemetry::Gauge::AnalysisBranchesTotal,
                       static_cast<std::uint64_t>(counts.total()));
  telemetry::gauge_set(telemetry::Gauge::AnalysisBranchesShared,
                       static_cast<std::uint64_t>(counts.shared));
  telemetry::gauge_set(telemetry::Gauge::AnalysisBranchesThreadId,
                       static_cast<std::uint64_t>(counts.thread_id));
  telemetry::gauge_set(telemetry::Gauge::AnalysisBranchesPartial,
                       static_cast<std::uint64_t>(counts.partial));
  telemetry::gauge_set(telemetry::Gauge::AnalysisBranchesNone,
                       static_cast<std::uint64_t>(counts.none));
  telemetry::gauge_set(
      telemetry::Gauge::AnalysisFixpointIterations,
      static_cast<std::uint64_t>(analysis.fixpoint_iterations));
  telemetry::counter_add(telemetry::Counter::BranchesAnalyzed,
                         static_cast<std::uint64_t>(analysis.branches.size()));
}

/// Fold an execution's monitor accounting into the registry. The per-shard
/// consumer counters are only coherent after stop(), so this runs at the
/// end of execute() rather than on the monitor's hot path.
void publish_execution(const ExecutionResult& result,
                       const ExecutionConfig& config) {
  if (!telemetry::enabled()) return;
  telemetry::counter_add(telemetry::Counter::RunsExecuted);
  telemetry::counter_add(telemetry::Counter::ReportsMuted,
                         result.run.reports_muted);
  telemetry::counter_add(telemetry::Counter::ReportsProcessed,
                         result.monitor_stats.reports_processed);
  telemetry::counter_add(telemetry::Counter::InstancesChecked,
                         result.monitor_stats.instances_checked);
  telemetry::counter_add(telemetry::Counter::InstancesSkipped,
                         result.monitor_stats.instances_skipped);
  telemetry::gauge_set(telemetry::Gauge::NumThreads, config.num_threads);
  telemetry::gauge_set(telemetry::Gauge::MonitorShards,
                       config.monitor_shards);
  telemetry::gauge_set(
      telemetry::Gauge::MonitorHealth,
      static_cast<std::uint64_t>(result.monitor_health));
  telemetry::gauge_set(telemetry::Gauge::SamplingRate,
                       result.monitor_stats.sampling_rate_final);
  telemetry::gauge_set(telemetry::Gauge::ExecTier,
                       static_cast<std::uint64_t>(result.run.tier));
}

/// Shared tail of execute()/execute_in_session(): translate the config
/// into vm::RunOptions (gating recovery on sink capability), run, and
/// copy the recovery accounting out.
void run_with_sink(const CompiledProgram& program,
                   const ExecutionConfig& config, runtime::BranchSink* sink,
                   ExecutionResult& result) {
  vm::RunOptions ropts;
  ropts.num_threads = config.num_threads;
  ropts.tier = config.exec_tier;
  ropts.parallel_entry = config.parallel_entry;
  ropts.init_function =
      program.module->find_function(config.init_function) != nullptr
          ? config.init_function
          : std::string();
  ropts.monitor = sink;
  ropts.fault = config.fault;
  ropts.instruction_budget = config.instruction_budget;
  ropts.stop_on_detection = config.stop_on_detection;
  ropts.recovery = config.recovery;
  ropts.phase = config.phase;
  if (sink == nullptr || !sink->supports_recovery() ||
      !config.stop_on_detection) {
    // Recovery needs a monitor that can quiesce/reset and a run that stops
    // on detection (otherwise nothing ever triggers a rollback).
    ropts.recovery.enabled = false;
  }
  {
    telemetry::SpanScope span(telemetry::Phase::Execution, "vm.run");
    result.run = vm::run_program(*program.module, ropts);
  }
  result.recovery = result.run.recovery;
  result.recovered = result.run.recovered;
}

}  // namespace

CompiledProgram compile_program(std::string_view source,
                                const PipelineOptions& options) {
  CompiledProgram program;
  {
    telemetry::SpanScope span(telemetry::Phase::Frontend,
                              "frontend.compile");
    program.module = frontend::compile(source, options.compile);
  }
  {
    telemetry::SpanScope span(telemetry::Phase::Analysis,
                              "analysis.similarity");
    program.analysis =
        analysis::analyze_similarity(*program.module, options.similarity);
  }
  publish_analysis(program.analysis);
  return program;
}

CompiledProgram protect_program(std::string_view source,
                                const PipelineOptions& options) {
  CompiledProgram program = compile_program(source, options);
  telemetry::SpanScope span(telemetry::Phase::Instrumentation,
                            "instrument.module");
  program.instrument_stats = instrument::instrument_module(
      *program.module, program.analysis, options.instrumentation);
  program.instrumented = true;
  ir::verify_module_or_throw(*program.module);
  return program;
}

ExecutionResult execute(const CompiledProgram& program,
                        const ExecutionConfig& config) {
  if (config.num_threads == 0) {
    ExecutionResult refused;
    refused.admit_error = runtime::AdmitError::BadConfig;
    return refused;
  }
  if (config.monitor != MonitorMode::Off && config.monitor_shards >= 1) {
    runtime::MonitorService service(runtime::service_options_for(
        config.monitor_options, config.monitor_shards));
    service.start();
    ExecutionResult result = execute_in_session(program, config, service);
    service.stop();
    return result;
  }

  ExecutionResult result;
  std::unique_ptr<runtime::Monitor> monitor;
  if (config.monitor != MonitorMode::Off) {
    runtime::MonitorOptions mopts = config.monitor_options;
    mopts.perform_checks = config.monitor == MonitorMode::Full;
    monitor = std::make_unique<runtime::Monitor>(config.num_threads, mopts);
    monitor->start();
  }

  run_with_sink(program, config, monitor.get(), result);

  if (monitor != nullptr) {
    monitor->stop();
    result.violations = monitor->violations();
    result.monitor_stats = monitor->stats();
    result.detected = result.run.detected || !result.violations.empty();
    result.monitor_health = monitor->health();
  }
  publish_execution(result, config);
  return result;
}

ExecutionResult execute_in_session(const CompiledProgram& program,
                                   const ExecutionConfig& config,
                                   runtime::MonitorService& service) {
  ExecutionResult result;

  runtime::SessionOptions sopts = runtime::session_options_for(
      config.monitor_options, config.num_threads);
  sopts.report_quota = config.session_quota;
  sopts.perform_checks = config.monitor != MonitorMode::DrainOnly;
  runtime::MonitorService::Admission admission = service.admit(sopts);
  if (admission.error != runtime::AdmitError::None) {
    result.admit_error = admission.error;
    return result;
  }
  runtime::MonitorSession& session = *admission.session;

  run_with_sink(program, config, &session, result);

  session.close();
  result.violations = session.violations();
  result.monitor_stats = session.stats();
  result.detected = result.run.detected || !result.violations.empty();
  result.monitor_health = session.health();
  publish_execution(result, config);
  return result;
}

RaceCheckReport check_program_races(const CompiledProgram& program,
                                    const RaceCheckConfig& config) {
  RaceCheckReport report;
  {
    telemetry::SpanScope span(telemetry::Phase::Analysis, "analysis.race");
    report.static_result = analysis::check_races(*program.module);
  }
  if (!report.static_result.analyzable) {
    // No parallel entry: nothing was checked, so neither a race-free nor
    // a races-found verdict applies. Callers must consult `analyzable`.
    return report;
  }
  if (report.static_result.statically_race_free()) return report;
  if (!config.run_dynamic) {
    // --static-only: every unproven candidate is a finding.
    report.races_found = true;
    return report;
  }

  // Confirm or clear the candidates dynamically: repeated uninstrumented
  // runs with the race oracle attached. One oracle accumulates conflicts
  // across schedules; access history is retired between runs.
  vm::RaceOracle oracle;
  vm::RunOptions ropts;
  ropts.num_threads = config.num_threads;
  ropts.parallel_entry = "slave";
  ropts.init_function =
      program.module->find_function("init") != nullptr ? "init"
                                                       : std::string();
  ropts.monitor = nullptr;
  ropts.stop_on_detection = false;
  ropts.instruction_budget = config.instruction_budget;
  ropts.race_oracle = &oracle;
  report.dynamic_ran = true;
  for (unsigned i = 0; i < std::max(1u, config.dynamic_runs); ++i) {
    telemetry::SpanScope span(telemetry::Phase::Execution, "race.validate");
    vm::run_program(*program.module, ropts);
    if (oracle.race_detected()) break;  // first confirmation suffices
    oracle.reset_accesses();
  }

  // Attribute conflict heap words back to the globals that own them.
  vm::GlobalLayout layout(*program.module);
  for (const vm::RaceOracle::Conflict& c : oracle.conflicts()) {
    DynamicRaceReport r;
    r.global = "?";
    r.word = c.addr;
    r.tid_a = c.tid_a;
    r.tid_b = c.tid_b;
    r.write_a = c.write_a;
    r.write_b = c.write_b;
    for (const auto& g : program.module->globals()) {
      std::uint64_t base = layout.base_of(g.get());
      std::uint64_t size = static_cast<std::uint64_t>(g->size());
      std::uint64_t addr = static_cast<std::uint64_t>(c.addr);
      if (addr >= base && addr < base + size) {
        r.global = g->name();
        r.word = static_cast<std::int64_t>(addr - base);
        break;
      }
    }
    report.dynamic_races.push_back(std::move(r));
  }
  report.races_found = !report.dynamic_races.empty();
  return report;
}

}  // namespace bw::pipeline
