#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "analysis/similarity.h"
#include "bench.h"
#include "benchmarks/registry.h"
#include "fault/checkpoint.h"
#include "frontend/compiler.h"
#include "instrument/instrument.h"
#include "runtime/monitor.h"
#include "stats.h"
#include "vm/machine.h"

namespace bwperf {

using bw::pipeline::CompiledProgram;
using bw::pipeline::ExecutionConfig;
using bw::pipeline::ExecutionResult;
using bw::pipeline::MonitorMode;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"protected_ms_iqm", "ms"}, {"overhead_x", "x"},
    {"runs_per_s", "1/s"},      {"coverage_pct", "%"},
    {"recovery_pct", "%"},      {"healthy_pct", "%"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"frontend.compile_ms", "ms"},
    {"analysis.similarity_ms", "ms"},
    {"instrument.module_ms", "ms"},
    {"instrument.sites", "count"},
    {"vm.instr_per_s", "1/s"},
    {"vm.baseline_parallel_ms", "ms"},
    {"vm.hooks_off_x", "x"},
    {"vm.parallel_overhead_x", "x"},
    {"monitor.start_us", "us"},
    {"monitor.stop_ms", "ms"},
    {"monitor.tail_ms", "ms"},
    {"monitor.drain_only_x", "x"},
    {"monitor.reports_per_run", "count"},
    {"monitor.instances_checked_per_run", "count"},
    {"monitor.instances_evicted", "count"},
    {"monitor.dropped_reports", "count"},
    {"monitor.degraded_runs", "count"},
    {"runtime.send_ns", "ns"},
    {"runtime.replay_mreports_per_s.full", "M/s"},
    {"runtime.replay_mreports_per_s.drain", "M/s"},
    {"spsc.push_ns", "ns"},
    {"spsc.pop_ns", "ns"},
    {"branch_table.process_ns", "ns"},
    {"branch_table.finalize_ms", "ms"},
    {"checker.check_ns.shared", "ns"},
    {"checker.check_ns.tid_eq", "ns"},
    {"checker.check_ns.tid_monotone", "ns"},
    {"checker.check_ns.partial", "ns"},
    {"traffic.reports_per_run", "count"},
    {"traffic.keys_per_run", "count"},
    {"traffic.instances_per_run", "count"},
    {"traffic.threads_per_instance", "count"},
    {"campaign.golden_ms", "ms"},
    {"campaign.injection_ms_p50", "ms"},
    {"campaign.activation_pct", "%"},
    {"campaign.detected_pct", "%"},
    {"recovery.checkpoint_us", "us"},
    {"recovery.restore_us", "us"},
    {"recovery.rollbacks_per_injection", "count"},
    {"service.admit_us", "us"},
    {"service.run_ms", "ms"},
    {"service.close_ms", "ms"},
    {"service.reports_per_session", "count"},
    {"service.throttled", "count"},
    {"service.dropped", "count"},
    {"fail.wrong_output", "count"},
    {"fail.clean_violation", "count"},
    {"fail.admission", "count"},
    {"fail.false_alarm", "count"},
    {"degraded.unhealthy", "count"},
    {"degraded.dropped", "count"},
    {"degraded.recovered_mismatch", "count"},
    {"degraded.verdict_mismatch", "count"},
    {"trace.overhead_pct", "%"},
};

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
double ms_since(Clock::time_point start) {
  return seconds_since(start) * 1e3;
}

/// vm::RunOptions as pipeline::execute derives them from `config`. Recovery
/// stays off, as in ExecutionConfig{}.
bw::vm::RunOptions run_options(const CompiledProgram& program,
                               const ExecutionConfig& config,
                               bw::runtime::BranchSink* sink) {
  bw::vm::RunOptions ropts;
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
  return ropts;
}

constexpr double kSetupInterval_s = 1.0;
constexpr int kBuildReps = 5;
constexpr int kGoldenReps = 3;
/// campaign-recover's unprotected runs per kernel and pass, made right
/// before the kernel's campaign so both sides of overhead_x see the same
/// load on the host.
constexpr int kReferenceRuns = 10;
/// Injections per kernel of the small campaign the other workloads trace.
constexpr int kProbeInjections = 6;
/// Rounds over the kernels for the layers a workload does not stress.
constexpr std::size_t kProbeRounds = 3;
constexpr double kTail = 0.9;

struct Kernel {
  const bw::benchmarks::Benchmark* bench = nullptr;
  CompiledProgram baseline;
  CompiledProgram protected_build;
  std::string golden;  // unprotected output, recorded once
};

/// Operations by what went wrong with them. A failure is an operation the
/// system got wrong; any failure makes the run incorrect. A degradation is
/// an operation that ended correctly but short of full service: the monitor
/// gave up on reports under backpressure, a rolled-back injection still
/// ended with a wrong output, or an injection's verdict did not repeat under
/// the same seed. How often that happens follows the load on the host, so
/// degradations are measured (healthy_pct), not failed. One operation may
/// fall in several classes.
struct Outcomes {
  // Failures.
  std::uint64_t wrong_output = 0;     // includes traps and hangs
  std::uint64_t clean_violation = 0;  // a violation on a fault-free run
  std::uint64_t admission = 0;
  std::uint64_t false_alarm = 0;  // campaign FalseAlarm verdicts
  // Degradations.
  std::uint64_t unhealthy = 0;  // monitor health not Healthy
  std::uint64_t dropped = 0;    // any dropped or throttled report
  std::uint64_t recovered_mismatch = 0;
  std::uint64_t verdict_mismatch = 0;  // same seed, different verdict
};

struct Tally {
  Outcomes outcomes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;  // degraded and not failed

  /// Judges one fault-free run of `op` on kernel `k` against the kernel's
  /// golden output; a failure or degradation is also printed with its
  /// classes.
  void judge(const ExecutionResult& r, const Kernel& k, const char* op) {
    ++attempted;
    std::string failures, degradations;
    auto count = [](std::uint64_t& cls, std::string& classes,
                    const std::string& what) {
      ++cls;
      classes += (classes.empty() ? "" : ", ") + what;
    };
    if (r.admit_error != bw::runtime::AdmitError::None) {
      count(outcomes.admission, failures,
            bw::runtime::to_string(r.admit_error));
    } else {
      if (!r.run.ok || r.run.output != k.golden) {
        count(outcomes.wrong_output, failures, "wrong output");
      }
      if (r.detected || !r.violations.empty()) {
        count(outcomes.clean_violation, failures, "violation on a clean run");
      }
      if (r.monitor_health != bw::runtime::MonitorHealth::Healthy) {
        count(outcomes.unhealthy, degradations,
              bw::runtime::to_string(r.monitor_health));
      }
      const std::uint64_t lost =
          r.monitor_stats.dropped_reports + r.monitor_stats.reports_throttled;
      if (lost > 0) {
        count(outcomes.dropped, degradations,
              std::to_string(lost) + " reports dropped");
      }
    }
    if (!failures.empty()) {
      ++failed;
      std::printf("failed: %s %s: %s\n", k.bench->name.c_str(), op,
                  failures.c_str());
    } else if (!degradations.empty()) {
      ++degraded;
    }
    if (!degradations.empty()) {
      std::printf("degraded: %s %s: %s\n", k.bench->name.c_str(), op,
                  degradations.c_str());
    }
  }

  /// Operations that ended neither failed nor degraded, in percent.
  double healthy_pct() const {
    const std::uint64_t impaired = std::min(attempted, failed + degraded);
    return attempted == 0 ? 100.0
                          : 100.0 * static_cast<double>(attempted - impaired) /
                                static_cast<double>(attempted);
  }
};

/// Metric values by name; finish() orders them by a spec list and refuses
/// a missing or unknown name, so every run emits exactly its list.
using Values = std::map<std::string, double>;

std::vector<Metric> finish(const Values& values,
                           const std::vector<MetricSpec>& specs) {
  std::vector<Metric> metrics;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not measured: ") +
                             spec.name);
    }
    metrics.push_back({spec.name, it->second, spec.unit});
  }
  if (metrics.size() != values.size()) {
    throw std::logic_error("a measured metric is missing from its list");
  }
  return metrics;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Both workloads run the seven SPLASH-2 kernels.
std::vector<Kernel> load_kernels() {
  const auto& registry = bw::benchmarks::all_benchmarks();
  std::vector<Kernel> kernels(registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    kernels[i].bench = &registry[i];
  }
  return kernels;
}

/// setup_s: compile, analyze and instrument every program the workload
/// uses. The host's speed drifts over seconds, so one pass at start-up
/// builds the programs the workload runs, and an untraced run makes more
/// passes between its operations, one every kSetupInterval_s, each program
/// thrown away as soon as it is built. setup_s is the median over the
/// whole run.
class SetUp {
 public:
  explicit SetUp(std::vector<Kernel>& kernels) {
    for (const Kernel& k : kernels) sources_.push_back(k.bench->source);
    const auto start = Clock::now();
    for (Kernel& k : kernels) {
      k.baseline = bw::pipeline::compile_program(k.bench->source);
      k.protected_build = bw::pipeline::protect_program(k.bench->source);
    }
    record(start);
  }

  /// Another pass, when the last one is kSetupInterval_s old.
  void sample() {
    if (seconds_since(last_) < kSetupInterval_s) return;
    const auto start = Clock::now();
    for (const char* source : sources_) {
      bw::pipeline::compile_program(source);
      bw::pipeline::protect_program(source);
    }
    record(start);
  }

  double median_s() const { return median(passes_); }
  std::size_t passes() const { return passes_.size(); }

 private:
  void record(Clock::time_point start) {
    last_ = Clock::now();
    passes_.push_back(std::chrono::duration<double>(last_ - start).count());
  }

  std::vector<const char*> sources_;
  std::vector<double> passes_;
  Clock::time_point last_;
};

/// Records each kernel's golden output and makes one protected run before
/// anything is timed (decode cache, first touch of the heap).
void warm_up(std::vector<Kernel>& kernels) {
  for (Kernel& k : kernels) {
    ExecutionResult base =
        bw::pipeline::execute(k.baseline, steady_config(MonitorMode::Off));
    if (!base.run.ok) {
      throw std::runtime_error(k.bench->name + ": unprotected run failed");
    }
    k.golden = base.run.output;
    ExecutionResult prot = bw::pipeline::execute(
        k.protected_build, steady_config(MonitorMode::Full));
    if (prot.run.output != k.golden || prot.detected) {
      throw std::runtime_error(k.bench->name +
                               ": protected run disagrees with unprotected");
    }
  }
}

/// Per-kernel latency samples behind the end-to-end figures.
struct KernelSamples {
  std::vector<double> protected_ms;
  std::vector<double> unprotected_ms;
};

std::size_t min_samples(const std::vector<KernelSamples>& samples) {
  std::size_t least = SIZE_MAX;
  for (const KernelSamples& s : samples) {
    least = std::min(least, s.protected_ms.size());
  }
  return least;
}

void end_to_end(Values& v, const std::vector<Kernel>& kernels,
                const std::vector<KernelSamples>& samples, double setup_s,
                double runs_per_s, double coverage_pct, double recovery_pct,
                const Tally& tally) {
  std::vector<double> iqm, overhead;
  std::printf("%-16s %8s %12s %12s %12s %12s %14s %10s\n", "kernel",
              "samples", "prot iqm ms", "prot p50 ms", "prot mean ms",
              "prot p90 ms", "unprot iqm ms", "overhead");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelSamples& s = samples[i];
    iqm.push_back(interquartile_mean(s.protected_ms));
    overhead.push_back(
        ratio(iqm.back(), interquartile_mean(s.unprotected_ms)));
    std::printf("%-16s %8zu %12.3f %12.3f %12.3f %12.3f %14.3f %9.2fx\n",
                kernels[i].bench->name.c_str(), s.protected_ms.size(),
                iqm.back(), median(s.protected_ms), mean(s.protected_ms),
                percentile(s.protected_ms, kTail),
                interquartile_mean(s.unprotected_ms),
                overhead.back());
  }
  const std::size_t n = min_samples(samples);
  std::printf("samples: >= %zu protected runs per kernel; p90 has %zu beyond "
              "it (%s)\n",
              n, samples_beyond(n, kTail),
              samples_beyond(n, kTail) >= kTailSamples ? "ok" : "too few");
  v["setup_s"] = setup_s;
  v["peak_rss_mb"] = peak_rss_mb();
  v["protected_ms_iqm"] = geomean(iqm);
  v["overhead_x"] = geomean(overhead);
  v["runs_per_s"] = runs_per_s;
  v["coverage_pct"] = coverage_pct;
  v["recovery_pct"] = recovery_pct;
  v["healthy_pct"] = tally.healthy_pct();
}

void print_outcomes(const Tally& tally) {
  const Outcomes& o = tally.outcomes;
  std::printf(
      "operations: %llu attempted, %llu failed (wrong_output %llu, "
      "clean_violation %llu, admission %llu, false_alarm %llu), %llu "
      "degraded (unhealthy %llu, dropped %llu, recovered_mismatch %llu, "
      "verdict_mismatch %llu)\n",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed),
      static_cast<unsigned long long>(o.wrong_output),
      static_cast<unsigned long long>(o.clean_violation),
      static_cast<unsigned long long>(o.admission),
      static_cast<unsigned long long>(o.false_alarm),
      static_cast<unsigned long long>(tally.degraded),
      static_cast<unsigned long long>(o.unhealthy),
      static_cast<unsigned long long>(o.dropped),
      static_cast<unsigned long long>(o.recovered_mismatch),
      static_cast<unsigned long long>(o.verdict_mismatch));
}

void add_outcomes(Values& v, const Outcomes& o) {
  v["fail.wrong_output"] = static_cast<double>(o.wrong_output);
  v["fail.clean_violation"] = static_cast<double>(o.clean_violation);
  v["fail.admission"] = static_cast<double>(o.admission);
  v["fail.false_alarm"] = static_cast<double>(o.false_alarm);
  v["degraded.unhealthy"] = static_cast<double>(o.unhealthy);
  v["degraded.dropped"] = static_cast<double>(o.dropped);
  v["degraded.recovered_mismatch"] = static_cast<double>(o.recovered_mismatch);
  v["degraded.verdict_mismatch"] = static_cast<double>(o.verdict_mismatch);
}

/// Keeps a closed loop going until it has run for `seconds` and at least
/// `min_rounds` rounds.
class Loop {
 public:
  Loop(double seconds, std::size_t min_rounds)
      : seconds_(seconds), min_rounds_(min_rounds) {}
  bool next() {
    if (rounds_ >= min_rounds_ && seconds_since(start_) >= seconds_) {
      return false;
    }
    ++rounds_;
    return true;
  }

 private:
  Clock::time_point start_ = Clock::now();
  double seconds_;
  std::size_t min_rounds_;
  std::size_t rounds_ = 0;
};

// --- protect-steady ------------------------------------------------------

/// Per round, kernels in a seeded order: one unprotected and then one
/// protected pipeline::execute() per kernel.
void steady_loop(const std::vector<Kernel>& kernels, Loop loop,
                 bw::support::SplitMixRng& rng, SetUp& setup,
                 std::vector<KernelSamples>& samples, Tally& tally) {
  while (loop.next()) {
    setup.sample();
    for (std::size_t i : shuffled(kernels.size(), rng)) {
      const Kernel& k = kernels[i];
      auto start = Clock::now();
      ExecutionResult base =
          bw::pipeline::execute(k.baseline, steady_config(MonitorMode::Off));
      samples[i].unprotected_ms.push_back(ms_since(start));
      tally.judge(base, k, "unprotected");

      start = Clock::now();
      ExecutionResult prot = bw::pipeline::execute(
          k.protected_build, steady_config(MonitorMode::Full));
      samples[i].protected_ms.push_back(ms_since(start));
      tally.judge(prot, k, "protected");
    }
  }
}

// --- campaign-recover ----------------------------------------------------

struct CampaignTotals {
  std::uint64_t injected = 0;
  std::uint64_t activated = 0;
  std::uint64_t detected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t sdc = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restore_ns = 0;
  std::uint64_t checkpoint_ns = 0;
  double seconds = 0;  // inside run_campaign

  double coverage_pct() const {
    return activated == 0 ? 100.0
                          : 100.0 * (1.0 - static_cast<double>(sdc) /
                                               static_cast<double>(activated));
  }
  /// Share of flagged runs that finished with correct output; 100 when
  /// nothing was flagged.
  double recovery_pct() const {
    const std::uint64_t flagged = detected + recovered;
    return flagged == 0 ? 100.0
                        : 100.0 * static_cast<double>(recovered) /
                              static_cast<double>(flagged);
  }
};

/// Two passes of at least 50 give each kernel the 100 injection times its
/// p90 needs; beyond that the plan grows with the run's length.
int injections_per_kernel(const Options& options) {
  if (options.smoke) return 1;
  const int floor = static_cast<int>(samples_for_tail(kTail) + 1) / 2;
  return std::max(floor, static_cast<int>(std::ceil(options.seconds * 5 / 3)));
}

/// One run_campaign per kernel, in `order`, each after `reference_runs`
/// unprotected runs of the kernel (and a set-up sample, given `setup`).
/// Appends each injection's wall time (read back from the campaign's
/// checkpoint file) to samples[i].protected_ms and returns every kernel's
/// verdict list.
std::vector<std::vector<bw::fault::Verdict>> campaign_pass(
    const std::vector<Kernel>& kernels, const std::vector<std::size_t>& order,
    const Options& options, int injections, int reference_runs,
    SetUp* setup, std::vector<KernelSamples>& samples, CampaignTotals& totals,
    Tally& tally) {
  std::vector<std::vector<bw::fault::Verdict>> verdicts(kernels.size());
  for (std::size_t i : order) {
    const Kernel& k = kernels[i];
    if (setup != nullptr) setup->sample();
    for (int run = 0; run < reference_runs; ++run) {
      const auto start = Clock::now();
      ExecutionResult base =
          bw::pipeline::execute(k.baseline, steady_config(MonitorMode::Off));
      samples[i].unprotected_ms.push_back(ms_since(start));
      tally.judge(base, k, "unprotected");
    }
    const std::string path =
        options.scratch_dir + "/campaign-" + k.bench->name + ".ckpt";
    const auto start = Clock::now();
    bw::fault::CampaignResult result = bw::fault::run_campaign(
        k.bench->source, campaign_options(options.seed, injections, path));
    totals.seconds += seconds_since(start);

    bw::fault::CampaignCheckpoint checkpoint;
    std::string error;
    if (!bw::fault::load_checkpoint(path, checkpoint, &error)) {
      throw std::runtime_error("campaign checkpoint: " + error);
    }
    std::filesystem::remove(path);
    for (const bw::fault::InjectionOutcome& o : checkpoint.completed) {
      samples[i].protected_ms.push_back(static_cast<double>(o.wall_ns) * 1e-6);
    }

    totals.injected += static_cast<std::uint64_t>(result.injected);
    totals.activated += static_cast<std::uint64_t>(result.activated);
    totals.detected += static_cast<std::uint64_t>(result.detected);
    totals.recovered += static_cast<std::uint64_t>(result.recovered);
    totals.sdc += static_cast<std::uint64_t>(result.sdc);
    totals.rollbacks += result.rollbacks;
    totals.checkpoints += result.checkpoints;
    totals.restore_ns += result.restore_ns;
    totals.checkpoint_ns += result.checkpoint_ns;
    tally.attempted += static_cast<std::uint64_t>(result.injected);
    tally.outcomes.false_alarm +=
        static_cast<std::uint64_t>(result.false_alarms);
    tally.outcomes.recovered_mismatch +=
        static_cast<std::uint64_t>(result.recovered_mismatch);
    tally.failed += static_cast<std::uint64_t>(result.false_alarms);
    tally.degraded += static_cast<std::uint64_t>(result.recovered_mismatch);
    verdicts[i] = std::move(result.verdicts);
  }
  return verdicts;
}

/// Runs the same campaigns twice with the same seed. Every injection whose
/// verdict differs between the two passes is a degraded operation. Returns
/// the second pass's time over the first's.
double campaign_twice(const std::vector<Kernel>& kernels,
                      bw::support::SplitMixRng& rng, const Options& options,
                      int reference_runs, SetUp* setup,
                      std::vector<KernelSamples>& samples,
                      CampaignTotals& totals, Tally& tally) {
  const int injections = injections_per_kernel(options);
  const std::vector<std::size_t> order = shuffled(kernels.size(), rng);
  auto a = campaign_pass(kernels, order, options, injections, reference_runs,
                         setup, samples, totals, tally);
  const double first_s = totals.seconds;
  auto b = campaign_pass(kernels, order, options, injections, reference_runs,
                         setup, samples, totals, tally);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    std::size_t differ = 0;
    for (std::size_t j = 0; j < std::max(a[i].size(), b[i].size()); ++j) {
      if (j >= a[i].size() || j >= b[i].size() || a[i][j] != b[i][j]) {
        ++differ;
      }
    }
    if (differ > 0) {
      std::printf("finding: %s verdicts differ between two passes of seed "
                  "%llu at %zu of %zu injections\n",
                  kernels[i].bench->name.c_str(),
                  static_cast<unsigned long long>(options.seed), differ,
                  a[i].size());
    }
    tally.outcomes.verdict_mismatch += differ;
    tally.degraded += differ;
  }
  return ratio(totals.seconds - first_s, first_s);
}

// --- traced layers -------------------------------------------------------

/// frontend / analysis / instrument: each module's public call timed on
/// every kernel, as protect_program makes them.
void trace_build(const std::vector<Kernel>& kernels, Values& v) {
  const bw::pipeline::PipelineOptions popts;
  std::vector<double> compile_ms, similarity_ms, instrument_ms;
  double sites = 0;
  for (const Kernel& k : kernels) {
    std::vector<double> c, s, i;
    for (int rep = 0; rep < kBuildReps; ++rep) {
      auto start = Clock::now();
      auto module = bw::frontend::compile(k.bench->source, popts.compile);
      c.push_back(ms_since(start));
      start = Clock::now();
      auto analysis =
          bw::analysis::analyze_similarity(*module, popts.similarity);
      s.push_back(ms_since(start));
      start = Clock::now();
      auto stats = bw::instrument::instrument_module(*module, analysis,
                                                     popts.instrumentation);
      i.push_back(ms_since(start));
      if (rep == 0) sites += stats.instrumented_branches;
    }
    compile_ms.push_back(median(c));
    similarity_ms.push_back(median(s));
    instrument_ms.push_back(median(i));
  }
  v["frontend.compile_ms"] = mean(compile_ms);
  v["analysis.similarity_ms"] = mean(similarity_ms);
  v["instrument.module_ms"] = mean(instrument_ms);
  v["instrument.sites"] = sites;
}

struct VmSamples {
  std::vector<double> base_wall, base_par, hooks_par, drain_wall, full_wall,
      full_par, tail, traced_wall, start_us, stop_ms;
};

/// vm / monitor: per kernel and round, the baseline build unmonitored, the
/// protected build with the monitor off (hooks only), drain-only, full,
/// and the traced full run that records the report streams. Returns the
/// traced run's cost over the full run's, minus one, in percent.
double trace_vm_monitor(const std::vector<Kernel>& kernels, Loop loop,
                        bw::support::SplitMixRng& rng, Values& v,
                        std::vector<Streams>& recordings, Tally& tally) {
  std::vector<VmSamples> s(kernels.size());
  double instructions = 0, base_par_s = 0, full_runs = 0, reports = 0,
         checked = 0, evicted = 0, dropped = 0, degraded = 0;
  auto timed = [](const CompiledProgram& program, MonitorMode mode,
                  double& wall_ms) {
    const auto start = Clock::now();
    ExecutionResult r = bw::pipeline::execute(program, steady_config(mode));
    wall_ms = ms_since(start);
    return r;
  };
  while (loop.next()) {
    for (std::size_t i : shuffled(kernels.size(), rng)) {
      const Kernel& k = kernels[i];
      double wall = 0;
      ExecutionResult r = timed(k.baseline, MonitorMode::Off, wall);
      tally.judge(r, k, "unprotected");
      s[i].base_wall.push_back(wall);
      s[i].base_par.push_back(static_cast<double>(r.run.parallel_ns) * 1e-6);
      instructions += static_cast<double>(r.run.total_instructions);
      base_par_s += static_cast<double>(r.run.parallel_ns) * 1e-9;

      r = timed(k.protected_build, MonitorMode::Off, wall);
      tally.judge(r, k, "hooks-off");
      s[i].hooks_par.push_back(static_cast<double>(r.run.parallel_ns) * 1e-6);

      r = timed(k.protected_build, MonitorMode::DrainOnly, wall);
      tally.judge(r, k, "drain-only");
      s[i].drain_wall.push_back(wall);

      r = timed(k.protected_build, MonitorMode::Full, wall);
      tally.judge(r, k, "protected");
      s[i].full_wall.push_back(wall);
      s[i].full_par.push_back(static_cast<double>(r.run.parallel_ns) * 1e-6);
      s[i].tail.push_back(wall - s[i].full_par.back());
      full_runs += 1;
      reports += static_cast<double>(r.monitor_stats.reports_processed);
      checked += static_cast<double>(r.monitor_stats.instances_checked);
      evicted += static_cast<double>(r.monitor_stats.instances_evicted);
      dropped += static_cast<double>(r.monitor_stats.dropped_reports);
      if (r.monitor_health != bw::runtime::MonitorHealth::Healthy) {
        degraded += 1;
      }

      TracedRun t = run_traced(k.protected_build);
      tally.judge(t.result, k, "traced");
      s[i].traced_wall.push_back(t.start_us * 1e-3 + t.run_ms + t.stop_ms);
      s[i].start_us.push_back(t.start_us);
      s[i].stop_ms.push_back(t.stop_ms);
      recordings[i] = std::move(t.streams);
    }
  }

  std::vector<double> base_par, hooks_x, par_x, tail, drain_x, start_us,
      stop_ms, traced_x;
  std::printf("%-16s %12s %10s %10s %10s %10s\n", "kernel", "base par ms",
              "hooks off", "parallel", "tail ms", "drain");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const double base = median(s[i].base_par);
    base_par.push_back(base);
    hooks_x.push_back(ratio(median(s[i].hooks_par), base));
    par_x.push_back(ratio(median(s[i].full_par), base));
    tail.push_back(median(s[i].tail));
    drain_x.push_back(ratio(median(s[i].drain_wall), median(s[i].base_wall)));
    start_us.push_back(median(s[i].start_us));
    stop_ms.push_back(median(s[i].stop_ms));
    traced_x.push_back(
        ratio(median(s[i].traced_wall), median(s[i].full_wall)));
    std::printf("%-16s %12.3f %9.2fx %9.2fx %10.3f %9.2fx\n",
                kernels[i].bench->name.c_str(), base, hooks_x.back(),
                par_x.back(), tail.back(), drain_x.back());
  }
  v["vm.instr_per_s"] = ratio(instructions, base_par_s);
  v["vm.baseline_parallel_ms"] = geomean(base_par);
  v["vm.hooks_off_x"] = geomean(hooks_x);
  v["vm.parallel_overhead_x"] = geomean(par_x);
  v["monitor.start_us"] = geomean(start_us);
  v["monitor.stop_ms"] = geomean(stop_ms);
  v["monitor.tail_ms"] = geomean(tail);
  v["monitor.drain_only_x"] = geomean(drain_x);
  v["monitor.reports_per_run"] = ratio(reports, full_runs);
  v["monitor.instances_checked_per_run"] = ratio(checked, full_runs);
  v["monitor.instances_evicted"] = evicted;
  v["monitor.dropped_reports"] = dropped;
  v["monitor.degraded_runs"] = degraded;
  return 100.0 * (geomean(traced_x) - 1.0);
}

/// runtime / spsc / branch_table / checker, replayed from the recordings,
/// and the traffic census of each kernel.
void trace_replays(const std::vector<Kernel>& kernels,
                   const std::vector<Streams>& recordings, Values& v,
                   Tally& tally) {
  ReplayTotals totals;
  Census all;
  std::printf("%-16s %9s %7s %9s %8s %7s %7s %9s %8s\n", "traffic",
              "reports", "keys", "instances", "thr/inst", "shared%",
              "tid_eq%", "monotone%", "partial%");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const std::vector<BranchReport> order = interleave(recordings[i]);
    const std::vector<RecordedInstance> instances =
        rebuild_instances(order, kProgramThreads);
    const Census c = take_census(recordings[i], instances);
    auto pct = [&c](std::size_t code) {
      return 100.0 * ratio(static_cast<double>(c.reports_by_code[code]),
                           static_cast<double>(c.reports));
    };
    std::printf("%-16s %9llu %7llu %9llu %8.2f %7.1f %7.1f %9.1f %8.1f\n",
                kernels[i].bench->name.c_str(),
                static_cast<unsigned long long>(c.reports),
                static_cast<unsigned long long>(c.keys),
                static_cast<unsigned long long>(c.instances),
                ratio(static_cast<double>(c.reporters),
                      static_cast<double>(c.instances)),
                pct(0), pct(1), pct(2), pct(3));
    all.reports += c.reports;
    all.keys += c.keys;
    all.instances += c.instances;
    all.reporters += c.reporters;

    const std::uint64_t violations_before = totals.violations;
    replay(recordings[i], order, instances, kProgramThreads, totals);
    ++tally.attempted;
    if (totals.violations != violations_before) {
      ++tally.outcomes.clean_violation;
      ++tally.failed;
    }
  }
  if (totals.dropped > 0) {
    std::printf("replay: %llu reports dropped under backpressure\n",
                static_cast<unsigned long long>(totals.dropped));
  }
  const double runs = static_cast<double>(kernels.size());
  const double sends = static_cast<double>(totals.sends);
  v["runtime.send_ns"] = ratio(totals.send_ns, sends);
  v["runtime.replay_mreports_per_s.full"] = ratio(sends, totals.full_s) * 1e-6;
  v["runtime.replay_mreports_per_s.drain"] =
      ratio(sends, totals.drain_s) * 1e-6;
  v["spsc.push_ns"] =
      ratio(totals.push_ns, static_cast<double>(totals.transfers));
  v["spsc.pop_ns"] =
      ratio(totals.pop_ns, static_cast<double>(totals.transfers));
  v["branch_table.process_ns"] =
      ratio(totals.process_ns, static_cast<double>(totals.processed));
  v["branch_table.finalize_ms"] =
      ratio(totals.finalize_ms, static_cast<double>(totals.finalizes));
  for (std::size_t code = 0; code < kCheckCodes; ++code) {
    v[std::string("checker.check_ns.") + kCheckCodeNames[code]] =
        ratio(totals.check_ns[code], static_cast<double>(totals.checks[code]));
  }
  v["traffic.reports_per_run"] = static_cast<double>(all.reports) / runs;
  v["traffic.keys_per_run"] = static_cast<double>(all.keys) / runs;
  v["traffic.instances_per_run"] = static_cast<double>(all.instances) / runs;
  v["traffic.threads_per_instance"] = ratio(
      static_cast<double>(all.reporters), static_cast<double>(all.instances));
}

/// fault: golden-run cost, per-injection cost and outcome shares, and the
/// recovery machinery's checkpoint and restore costs.
void campaign_layer(const std::vector<Kernel>& kernels,
                    const std::vector<KernelSamples>& injections,
                    const CampaignTotals& totals, Values& v) {
  std::vector<double> golden_ms, injection_p50;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    std::vector<double> reps;
    for (int rep = 0; rep < kGoldenReps; ++rep) {
      const auto start = Clock::now();
      bw::fault::golden_run(kernels[i].protected_build, kProgramThreads);
      reps.push_back(ms_since(start));
    }
    golden_ms.push_back(median(reps));
    injection_p50.push_back(median(injections[i].protected_ms));
  }
  const double injected = static_cast<double>(totals.injected);
  const double activated = static_cast<double>(totals.activated);
  v["campaign.golden_ms"] = geomean(golden_ms);
  v["campaign.injection_ms_p50"] = geomean(injection_p50);
  v["campaign.activation_pct"] = 100.0 * ratio(activated, injected);
  v["campaign.detected_pct"] =
      100.0 * ratio(static_cast<double>(totals.detected + totals.recovered),
                    activated);
  v["recovery.checkpoint_us"] =
      ratio(static_cast<double>(totals.checkpoint_ns),
            static_cast<double>(totals.checkpoints)) * 1e-3;
  v["recovery.restore_us"] = ratio(static_cast<double>(totals.restore_ns),
                                   static_cast<double>(totals.rollbacks)) *
                             1e-3;
  v["recovery.rollbacks_per_injection"] =
      ratio(static_cast<double>(totals.rollbacks), injected);
}

/// monitor_service: execute_in_session's three steps made by hand, in one
/// started service with one shard.
void service_layer(const std::vector<Kernel>& kernels, Loop loop,
                   bw::support::SplitMixRng& rng, Values& v, Tally& tally) {
  bw::runtime::MonitorService service(service_options());
  service.start();
  std::vector<std::vector<double>> admit_us(kernels.size()),
      run_ms(kernels.size()), close_ms(kernels.size());
  double sessions = 0, reports = 0, throttled = 0, dropped = 0;
  while (loop.next()) {
    for (std::size_t i : shuffled(kernels.size(), rng)) {
      const Kernel& k = kernels[i];
      TracedSession t = run_traced_session(k.protected_build, service);
      tally.judge(t.result, k, "session");
      admit_us[i].push_back(t.admit_us);
      run_ms[i].push_back(t.run_ms);
      close_ms[i].push_back(t.close_ms);
      const bw::runtime::MonitorStats& stats = t.result.monitor_stats;
      sessions += 1;
      reports += static_cast<double>(stats.reports_processed);
      throttled += static_cast<double>(stats.reports_throttled);
      dropped += static_cast<double>(stats.dropped_reports);
    }
  }
  service.stop();

  std::vector<double> admit, run, close;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    admit.push_back(median(admit_us[i]));
    run.push_back(median(run_ms[i]));
    close.push_back(median(close_ms[i]));
  }
  v["service.admit_us"] = geomean(admit);
  v["service.run_ms"] = geomean(run);
  v["service.close_ms"] = geomean(close);
  v["service.reports_per_session"] = ratio(reports, sessions);
  v["service.throttled"] = throttled;
  v["service.dropped"] = dropped;
}

/// Every traced run measures every layer on the workload's kernels; the
/// workload's own operation gets the run's time, the others a probe.
Report traced(const Options& options, std::vector<Kernel>& kernels,
              bw::support::SplitMixRng& rng) {
  Tally tally;
  Values v;
  const std::size_t probe_rounds = options.smoke ? 1 : kProbeRounds;
  const bool steady = options.workload == "protect-steady";
  const bool campaign = options.workload == "campaign-recover";

  trace_build(kernels, v);

  std::vector<Streams> recordings(kernels.size());
  const double steady_overhead = trace_vm_monitor(
      kernels,
      steady ? Loop(options.seconds * 0.6, probe_rounds)
             : Loop(0, probe_rounds),
      rng, v, recordings, tally);
  trace_replays(kernels, recordings, v, tally);

  std::vector<KernelSamples> injections(kernels.size());
  CampaignTotals campaign_totals;
  double pass_ratio = 1.0;
  if (campaign) {
    pass_ratio = campaign_twice(kernels, rng, options, 0, nullptr, injections,
                                campaign_totals, tally);
  } else {
    campaign_pass(kernels, shuffled(kernels.size(), rng), options,
                  options.smoke ? 1 : kProbeInjections, 0, nullptr,
                  injections, campaign_totals, tally);
  }
  campaign_layer(kernels, injections, campaign_totals, v);

  service_layer(kernels, Loop(0, probe_rounds), rng, v, tally);

  // The tracing overhead of the workload's own operation. The two campaign
  // passes make identical calls, so there it shows run-to-run noise.
  v["trace.overhead_pct"] =
      steady ? steady_overhead : 100.0 * (pass_ratio - 1.0);
  add_outcomes(v, tally.outcomes);
  print_outcomes(tally);

  Report report;
  report.correct = tally.failed == 0;
  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.metrics = finish(v, kPerLayer);
  return report;
}

Report untraced(const Options& options, std::vector<Kernel>& kernels,
                SetUp& setup, bw::support::SplitMixRng& rng) {
  Tally tally;
  Values v;
  const std::size_t min_rounds =
      options.smoke ? 1 : samples_for_tail(kTail);
  std::vector<KernelSamples> samples(kernels.size());
  if (options.workload == "protect-steady") {
    const auto start = Clock::now();
    steady_loop(kernels, Loop(options.seconds, min_rounds), rng, setup,
                samples, tally);
    const double loop_s = seconds_since(start);
    const double runs = static_cast<double>(tally.attempted) / 2;
    end_to_end(v, kernels, samples, setup.median_s(), ratio(runs, loop_s),
               100.0, 100.0, tally);
  } else {
    CampaignTotals all;
    campaign_twice(kernels, rng, options, options.smoke ? 1 : kReferenceRuns,
                   &setup, samples, all, tally);
    std::printf("campaign: %llu injections, %llu activated, %llu detected, "
                "%llu recovered, %llu sdc, %.3f s in run_campaign\n",
                static_cast<unsigned long long>(all.injected),
                static_cast<unsigned long long>(all.activated),
                static_cast<unsigned long long>(all.detected),
                static_cast<unsigned long long>(all.recovered),
                static_cast<unsigned long long>(all.sdc), all.seconds);
    end_to_end(v, kernels, samples, setup.median_s(),
               ratio(static_cast<double>(all.injected), all.seconds),
               all.coverage_pct(), all.recovery_pct(), tally);
  }
  std::printf("set-up: %zu passes, median %.4f s\n", setup.passes(),
              setup.median_s());
  print_outcomes(tally);

  Report report;
  report.correct = tally.failed == 0;
  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.metrics = finish(v, kEndToEnd);
  return report;
}

}  // namespace

bool known_workload(std::string_view name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

std::vector<std::size_t> shuffled(std::size_t n,
                                  bw::support::SplitMixRng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

ExecutionConfig steady_config(MonitorMode mode) {
  ExecutionConfig config;
  config.num_threads = kProgramThreads;
  config.monitor = mode;
  config.stop_on_detection = false;
  return config;
}

ExecutionConfig session_config() {
  ExecutionConfig config;
  config.num_threads = kProgramThreads;
  return config;
}

bw::runtime::MonitorServiceOptions service_options() {
  bw::runtime::MonitorServiceOptions options;
  options.num_shards = kConsumerThreads;
  return options;
}

bw::fault::CampaignOptions campaign_options(std::uint64_t seed,
                                            int injections,
                                            const std::string& checkpoint) {
  bw::fault::CampaignOptions options;
  options.num_threads = kProgramThreads;
  options.injections = injections;
  options.type = bw::fault::FaultType::BranchFlip;
  options.seed = seed;
  options.recovery.enabled = true;
  options.campaign_workers = 1;
  // The checkpoint carries each injection's wall time. Writing it only
  // when the plan completes keeps file I/O out of the injection loop.
  options.checkpoint_file = checkpoint;
  options.checkpoint_every = std::max(injections, 1);
  return options;
}

TracedRun run_traced(const CompiledProgram& program,
                     const bw::vm::FaultPlan& fault) {
  ExecutionConfig config = steady_config(MonitorMode::Full);
  config.fault = fault;
  TracedRun t;
  auto start = Clock::now();
  auto monitor = std::make_unique<bw::runtime::Monitor>(
      config.num_threads, config.monitor_options);
  monitor->start();
  t.start_us = ms_since(start) * 1e3;

  RecordingSink recorder(*monitor, config.num_threads);
  start = Clock::now();
  t.result.run = bw::vm::run_program(*program.module,
                                     run_options(program, config, &recorder));
  t.run_ms = ms_since(start);

  start = Clock::now();
  monitor->stop();
  t.stop_ms = ms_since(start);
  t.result.violations = monitor->violations();
  t.result.monitor_stats = monitor->stats();
  t.result.detected = t.result.run.detected || !t.result.violations.empty();
  t.result.monitor_health = monitor->health();
  t.streams = recorder.take_streams();
  return t;
}

TracedSession run_traced_session(const CompiledProgram& program,
                                 bw::runtime::MonitorService& service) {
  const ExecutionConfig config = session_config();
  bw::runtime::SessionOptions sopts;
  sopts.num_threads = config.num_threads;
  sopts.report_quota = config.session_quota;
  sopts.perform_checks = config.monitor != MonitorMode::DrainOnly;
  sopts.validate_reports = config.monitor_options.validate_reports;
  sopts.max_pending_per_branch =
      config.monitor_options.max_pending_per_branch;
  sopts.fault_hooks = config.monitor_options.fault_hooks;
  sopts.sampling = config.monitor_options.sampling;

  TracedSession t;
  auto start = Clock::now();
  bw::runtime::MonitorService::Admission admission = service.admit(sopts);
  t.admit_us = ms_since(start) * 1e3;
  if (admission.error != bw::runtime::AdmitError::None) {
    t.result.admit_error = admission.error;
    return t;
  }
  bw::runtime::MonitorSession& session = *admission.session;

  start = Clock::now();
  t.result.run = bw::vm::run_program(*program.module,
                                     run_options(program, config, &session));
  t.run_ms = ms_since(start);

  start = Clock::now();
  session.close();
  t.close_ms = ms_since(start);
  t.result.violations = session.violations();
  t.result.monitor_stats = session.stats();
  t.result.detected = t.result.run.detected || !t.result.violations.empty();
  t.result.monitor_health = session.health();
  return t;
}

Report run_workload(const Options& options) {
  if (!known_workload(options.workload)) {
    throw std::invalid_argument("unknown workload '" + options.workload +
                                "'");
  }
  std::filesystem::create_directories(options.scratch_dir);
  bw::support::SplitMixRng rng(options.seed);
  std::vector<Kernel> kernels = load_kernels();
  SetUp setup(kernels);
  warm_up(kernels);
  return options.trace ? traced(options, kernels, rng)
                       : untraced(options, kernels, setup, rng);
}

}  // namespace bwperf
