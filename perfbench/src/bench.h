// The BLOCKWATCH end-to-end benchmark: three workloads driven through the
// public API (pipeline::, fault::, runtime::) from one process, every
// output checked, end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run. perfbench/README.md describes the
// workloads and what each metric should move.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "runtime/monitor_service.h"
#include "support/prng.h"
#include "traffic.h"

namespace bwperf {

/// Program threads of every run. With the monitor's one consumer thread
/// that fills a four-core budget exactly, so the numbers measure the
/// program and not the scheduler.
inline constexpr unsigned kProgramThreads = 3;
inline constexpr unsigned kConsumerThreads = 1;

inline constexpr const char* kWorkloads[] = {"protect-steady",
                                             "campaign-recover"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Drops the sample-count floors (100 runs per kernel, 50 injections per
  /// kernel and pass) so every workload finishes in about `seconds`.
  bool smoke = false;
  /// Directory for the campaign's checkpoint files.
  std::string scratch_dir = ".";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What an untraced run reports, in order.
extern const std::vector<MetricSpec> kEndToEnd;
/// What a traced run reports, in order.
extern const std::vector<MetricSpec> kPerLayer;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  /// False when an operation failed: a wrong output, a false alarm or an
  /// admission error.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

bool known_workload(std::string_view name);

/// Runs one workload and returns its metrics: kEndToEnd untraced, kPerLayer
/// traced. Human-readable detail (per-kernel tables, the traffic census,
/// failure classes) goes to stdout as it is measured.
Report run_workload(const Options& options);

/// The seeded order in which a round visits n kernels.
std::vector<std::size_t> shuffled(std::size_t n,
                                  bw::support::SplitMixRng& rng);

/// The campaign campaign-recover runs on one kernel.
bw::fault::CampaignOptions campaign_options(std::uint64_t seed,
                                            int injections,
                                            const std::string& checkpoint);

/// One protected run made from the modules' public calls rather than
/// pipeline::execute: a legacy runtime::Monitor started, vm::run_program
/// with the recorder as its sink, the monitor stopped. Configured as
/// steady_config(Full), plus `fault`.
struct TracedRun {
  bw::pipeline::ExecutionResult result;
  double start_us = 0;  // Monitor construction and Monitor::start
  double run_ms = 0;    // vm::run_program
  double stop_ms = 0;   // Monitor::stop: drain, finalize, join
  Streams streams;
};
TracedRun run_traced(const bw::pipeline::CompiledProgram& program,
                     const bw::vm::FaultPlan& fault = {});

/// pipeline::execute_in_session's three public steps, each timed.
struct TracedSession {
  bw::pipeline::ExecutionResult result;
  double admit_us = 0;  // MonitorService::admit
  double run_ms = 0;    // vm::run_program with the session as the sink
  double close_ms = 0;  // MonitorSession::close
};
TracedSession run_traced_session(const bw::pipeline::CompiledProgram& program,
                                 bw::runtime::MonitorService& service);

/// The configurations the workloads run with: pipeline defaults apart from
/// the thread count (and, for protect-steady, stop_on_detection off).
bw::pipeline::ExecutionConfig steady_config(bw::pipeline::MonitorMode mode);
bw::pipeline::ExecutionConfig session_config();
bw::runtime::MonitorServiceOptions service_options();

}  // namespace bwperf
