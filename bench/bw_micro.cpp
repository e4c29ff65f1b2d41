// Micro-benchmarks (google-benchmark) for the BLOCKWATCH runtime and
// compiler components:
//  * Lamport SPSC queue push/pop, on one thread and across two
//  * context-tracker key maintenance
//  * per-category instance checks
//  * branch-table filing (process + finalize) per CheckCode, and under
//    eviction pressure
//  * monitor end-to-end report throughput, and the minor page faults of
//    a monitor's whole start-send-stop lifetime and of a protected run
//  * front-end compile, similarity analysis (paper: < 1 s per program),
//    and instrumentation pass latency per benchmark kernel
//  * VM throughput, baseline vs instrumented, and the interpreter-vs-
//    threaded dispatcher comparison (vm/dispatch.h)
//
// Accepts --tier=auto|interpreter|threaded (stripped before the
// google-benchmark flags) to pin the tier the BM_VmExecute cases run on;
// BM_VmTier always benchmarks both tiers side by side regardless.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "analysis/similarity.h"
#include "benchmarks/registry.h"
#include "frontend/compiler.h"
#include "instrument/instrument.h"
#include "pipeline/pipeline.h"
#include "runtime/branch_table.h"
#include "runtime/checker.h"
#include "runtime/context_tracker.h"
#include "runtime/monitor.h"
#include "runtime/spsc_queue.h"

namespace {

using namespace bw;

vm::ExecTier g_tier = vm::ExecTier::Auto;

void BM_SpscQueuePushPop(benchmark::State& state) {
  runtime::SpscQueue<runtime::BranchReport> queue(4096);
  runtime::BranchReport report;
  report.static_id = 7;
  runtime::BranchReport out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.try_push(report));
    benchmark::DoNotOptimize(queue.try_pop(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscQueuePushPop);

// The Monitor's wire on one thread: a stride of staged pushes, one
// publish, and one burst consume that files them in place.
void BM_SpscQueueStageConsume(benchmark::State& state) {
  using Queue = runtime::SpscQueue<runtime::BranchReport>;
  Queue queue(4096);
  runtime::BranchReport report;
  report.static_id = 7;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < Queue::kStride; ++i) {
      report.iter_hash = i;
      benchmark::DoNotOptimize(queue.try_stage(report));
    }
    queue.publish();
    queue.consume(Queue::kStride, [&](runtime::BranchReport& r) {
      sum += r.iter_hash;
      return true;
    });
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Queue::kStride);
}
BENCHMARK(BM_SpscQueueStageConsume);

// One producer thread streams reports to the consumer (the benchmark
// thread) through a ring of the legacy Monitor's default size. The ring is
// warmed by one full lap first, so first-touch page faults stay out of the
// timed loop. Unlike BM_SpscQueuePushPop, the two indices live on
// different cores here, so this is where index-line traffic shows.
void BM_SpscQueueCrossThread(benchmark::State& state) {
  runtime::SpscQueue<runtime::BranchReport> queue(
      runtime::MonitorOptions{}.queue_capacity);
  runtime::BranchReport report;
  report.static_id = 7;
  runtime::BranchReport out;
  while (queue.try_push(report)) {
  }
  while (queue.try_pop(out)) {
  }
  queue.try_push(report);  // the one slot the first fill left untouched
  queue.try_pop(out);
  const benchmark::IterationCount items = state.max_iterations;
  std::thread producer([&queue, report, items]() mutable {
    for (benchmark::IterationCount i = 0; i < items; ++i) {
      report.iter_hash = static_cast<std::uint64_t>(i);
      while (!queue.try_push(report)) {
      }
    }
  });
  for (auto _ : state) {
    while (!queue.try_pop(out)) {
    }
    benchmark::DoNotOptimize(out);
  }
  producer.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscQueueCrossThread)->UseRealTime();

// As BM_SpscQueueCrossThread, on the Monitor's wire: the producer stages
// (publishing once per stride) and each iteration consumes one burst of
// up to 256 reports in place, as the monitor thread does. Items are the
// reports consumed.
void BM_SpscQueueCrossThreadStaged(benchmark::State& state) {
  runtime::SpscQueue<runtime::BranchReport> queue(
      runtime::MonitorOptions{}.queue_capacity);
  runtime::BranchReport report;
  report.static_id = 7;
  while (queue.try_push(report)) {
  }
  while (queue.consume(256, [](runtime::BranchReport&) { return true; })) {
  }
  queue.try_push(report);  // the one slot the first fill left untouched
  queue.consume(1, [](runtime::BranchReport&) { return true; });
  std::atomic<bool> done{false};
  std::thread producer([&queue, &done, report]() mutable {
    using Queue = runtime::SpscQueue<runtime::BranchReport>;
    for (std::uint64_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
      report.iter_hash = i;
      while (!queue.try_stage(report) &&
             !done.load(std::memory_order_relaxed)) {
        queue.publish();
      }
      if (queue.staged() == Queue::kStride) queue.publish();
    }
  });
  std::uint64_t items = 0;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    items += queue.consume(256, [&](runtime::BranchReport& r) {
      sum += r.iter_hash;
      return true;
    });
  }
  done.store(true, std::memory_order_relaxed);
  producer.join();
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_SpscQueueCrossThreadStaged)->UseRealTime();

void BM_ContextTrackerLoopKey(benchmark::State& state) {
  runtime::ContextTracker tracker;
  tracker.push_call(3);
  tracker.loop_enter();
  tracker.loop_enter();
  for (auto _ : state) {
    tracker.loop_iter();
    benchmark::DoNotOptimize(tracker.iter_hash());
    benchmark::DoNotOptimize(tracker.ctx_hash());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContextTrackerLoopKey);

void BM_CheckInstance(benchmark::State& state) {
  const auto check = static_cast<runtime::CheckCode>(state.range(0));
  std::vector<runtime::ThreadObservation> obs(32);
  for (unsigned t = 0; t < 32; ++t) {
    obs[t].thread = t;
    obs[t].has_outcome = true;
    obs[t].outcome = check == runtime::CheckCode::ThreadIdMonotone ? t < 20
                                                                   : true;
    obs[t].has_value = true;
    obs[t].value = check == runtime::CheckCode::PartialValue ? t % 4 : 42;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::check_instance(check, obs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckInstance)->DenseRange(0, 3);

/// BranchTable filing on a synthetic 3-thread stream over 8 branch keys.
/// Arg 0-3: one CheckCode each, thread 0 running 16 instances ahead of
/// the others. Arg 4: SharedOutcome with thread 0 running 256 instances
/// ahead under a pending cap of 4, so most instances are evicted.
void BM_BranchTableProcess(benchmark::State& state) {
  constexpr unsigned kThreads = 3;
  const bool evicting = state.range(0) == 4;
  const auto check = evicting ? runtime::CheckCode::SharedOutcome
                              : static_cast<runtime::CheckCode>(state.range(0));
  const std::uint64_t lead = evicting ? 256 : 16;
  std::vector<runtime::BranchReport> order;
  for (std::uint64_t i = 0; order.size() < 60'000; ++i) {
    for (unsigned t = 0; t < kThreads; ++t) {
      if (t != 0 && i < lead) continue;
      const std::uint64_t instance = t == 0 ? i : i - lead;
      runtime::BranchReport r;
      r.thread = t;
      r.check = check;
      r.static_id = static_cast<std::uint32_t>(1 + instance % 8);
      r.iter_hash = instance / 8;
      if (check == runtime::CheckCode::PartialValue) r.value = instance % 2;
      r.outcome = check == runtime::CheckCode::ThreadIdMonotone ? t < 2
                  : check == runtime::CheckCode::ThreadIdEq     ? t == 1
                                                                : true;
      order.push_back(r);
    }
  }
  runtime::BranchTable table(kThreads, evicting ? 4 : 1 << 15);
  for (auto _ : state) {
    for (const runtime::BranchReport& r : order) table.process(r, false);
    table.finalize(false);
  }
  benchmark::DoNotOptimize(table.instances_checked());
  state.SetLabel(evicting ? "evict cap=4" : "");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(order.size()));
}
BENCHMARK(BM_BranchTableProcess)->DenseRange(0, 4);

void BM_MonitorThroughput(benchmark::State& state) {
  const unsigned kThreads = 4;
  for (auto _ : state) {
    runtime::Monitor monitor(kThreads);
    monitor.start();
    runtime::BranchReport report;
    report.check = runtime::CheckCode::SharedOutcome;
    report.kind = runtime::ReportKind::Outcome;
    report.outcome = true;
    for (std::uint32_t instance = 0; instance < 1024; ++instance) {
      report.iter_hash = instance;
      report.static_id = 1 + instance % 8;
      for (unsigned t = 0; t < kThreads; ++t) {
        report.thread = t;
        monitor.send(report);
      }
    }
    monitor.stop();
    benchmark::DoNotOptimize(monitor.stats().reports_processed);
  }
  state.SetItemsProcessed(state.iterations() * 1024 * kThreads);
}
BENCHMARK(BM_MonitorThroughput);

/// Minor page faults this process has taken so far.
std::int64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// One protected run's monitor lifetime, as execute() drives it: construct
/// and start a Monitor, send 40k synthetic reports from each of 3 producer
/// threads, then stop. `minflt_per_run` counts the minor page faults per
/// lifetime (ring slots and table slab faulted in, or reused warm).
/// Between lifetimes, untimed, an unprotected 3-thread run of water_nsq
/// comes and goes, as in perfbench's protect-steady loop, so the allocator
/// may hand the freed rings' pages back to the kernel in between.
void BM_MonitorRoundTrip(benchmark::State& state) {
  constexpr unsigned kThreads = 3;
  constexpr std::uint32_t kReports = 40'000;
  const pipeline::CompiledProgram program =
      pipeline::compile_program(benchmarks::find_benchmark("water_nsq")->source);
  pipeline::ExecutionConfig unprotected;
  unprotected.num_threads = kThreads;
  unprotected.monitor = pipeline::MonitorMode::Off;
  std::int64_t faults = 0;
  for (auto _ : state) {
    state.PauseTiming();
    benchmark::DoNotOptimize(pipeline::execute(program, unprotected).run.ok);
    state.ResumeTiming();
    const std::int64_t before = minor_faults();
    runtime::Monitor monitor(kThreads);
    monitor.start();
    std::vector<std::thread> producers;
    for (unsigned t = 0; t < kThreads; ++t) {
      producers.emplace_back([&monitor, t] {
        runtime::BranchReport report;
        report.thread = t;
        report.check = runtime::CheckCode::SharedOutcome;
        report.outcome = true;
        for (std::uint32_t i = 0; i < kReports; ++i) {
          report.static_id = 1 + i % 8;
          report.iter_hash = i / 8;
          monitor.send(report);
        }
        monitor.flush(t);
      });
    }
    for (std::thread& producer : producers) producer.join();
    monitor.stop();
    benchmark::DoNotOptimize(monitor.stats().reports_processed);
    faults += minor_faults() - before;
  }
  state.SetItemsProcessed(state.iterations() * kReports * kThreads);
  state.counters["minflt_per_run"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MonitorRoundTrip)->UseRealTime();

/// A steady-state protected execute() of each kernel at 3 threads, in
/// perfbench's protect-steady shape: every protected run follows an
/// unprotected run of the same kernel, and one warm-up pair runs first.
/// `minflt_per_run` counts the protected run's minor page faults.
void BM_ProtectedExecuteFaults(benchmark::State& state) {
  const benchmarks::Benchmark& bench =
      benchmarks::all_benchmarks()[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(bench.name);
  const pipeline::CompiledProgram baseline =
      pipeline::compile_program(bench.source);
  const pipeline::CompiledProgram program =
      pipeline::protect_program(bench.source);
  pipeline::ExecutionConfig unprotected;
  unprotected.num_threads = 3;
  unprotected.exec_tier = g_tier;
  unprotected.monitor = pipeline::MonitorMode::Off;
  pipeline::ExecutionConfig config = unprotected;
  config.monitor = pipeline::MonitorMode::Full;
  benchmark::DoNotOptimize(pipeline::execute(baseline, unprotected).run.ok);
  benchmark::DoNotOptimize(pipeline::execute(program, config).run.ok);
  std::int64_t faults = 0;
  for (auto _ : state) {
    state.PauseTiming();
    benchmark::DoNotOptimize(pipeline::execute(baseline, unprotected).run.ok);
    state.ResumeTiming();
    const std::int64_t before = minor_faults();
    benchmark::DoNotOptimize(pipeline::execute(program, config).run.ok);
    faults += minor_faults() - before;
  }
  state.counters["minflt_per_run"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ProtectedExecuteFaults)->DenseRange(0, 6)->UseRealTime();

void BM_Compile(benchmark::State& state) {
  const benchmarks::Benchmark& bench =
      benchmarks::all_benchmarks()[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(bench.name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frontend::compile(bench.source));
  }
}
BENCHMARK(BM_Compile)->DenseRange(0, 6);

void BM_SimilarityAnalysis(benchmark::State& state) {
  const benchmarks::Benchmark& bench =
      benchmarks::all_benchmarks()[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(bench.name);
  auto module = frontend::compile(bench.source);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_similarity(*module));
  }
}
BENCHMARK(BM_SimilarityAnalysis)->DenseRange(0, 6);

void BM_InstrumentPass(benchmark::State& state) {
  const benchmarks::Benchmark& bench = *benchmarks::find_benchmark("fft");
  for (auto _ : state) {
    state.PauseTiming();
    auto module = frontend::compile(bench.source);
    auto analysis_result = analysis::analyze_similarity(*module);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        instrument::instrument_module(*module, analysis_result));
  }
}
BENCHMARK(BM_InstrumentPass);

void BM_VmExecute(benchmark::State& state) {
  const benchmarks::Benchmark& bench = *benchmarks::find_benchmark("fft");
  bool instrumented = state.range(0) != 0;
  state.SetLabel(std::string(instrumented ? "instrumented+drain"
                                          : "baseline") +
                 " " + vm::to_string(vm::resolve_tier(g_tier)));
  pipeline::CompiledProgram program =
      instrumented ? pipeline::protect_program(bench.source)
                   : pipeline::compile_program(bench.source);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    pipeline::ExecutionConfig config;
    config.num_threads = 2;
    config.exec_tier = g_tier;
    config.monitor = instrumented ? pipeline::MonitorMode::DrainOnly
                                  : pipeline::MonitorMode::Off;
    pipeline::ExecutionResult result = pipeline::execute(program, config);
    instructions += result.run.total_instructions;
    benchmark::DoNotOptimize(result.run.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_VmExecute)->Arg(0)->Arg(1);

/// Head-to-head dispatcher comparison per kernel: same compiled program,
/// monitor off, only the tier differs. Manual time clocks the PARALLEL
/// SECTION (result.run.parallel_ns) — where dispatch lives — so thread
/// spawn and the sequential init() don't dilute the ratio; items/s is
/// retired instructions per parallel-section second, and the threaded
/// tier's speedup reads directly off it (EXPERIMENTS.md records it; the
/// differential suite guarantees the outputs are identical).
void BM_VmTier(benchmark::State& state) {
  const benchmarks::Benchmark& bench =
      benchmarks::all_benchmarks()[static_cast<std::size_t>(state.range(0))];
  const vm::ExecTier tier = state.range(1) != 0 ? vm::ExecTier::Threaded
                                                : vm::ExecTier::Interpreter;
  state.SetLabel(bench.name + " " + vm::to_string(tier));
  pipeline::CompiledProgram program =
      pipeline::compile_program(bench.source);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    pipeline::ExecutionConfig config;
    config.num_threads = 2;
    config.exec_tier = tier;
    config.monitor = pipeline::MonitorMode::Off;
    pipeline::ExecutionResult result = pipeline::execute(program, config);
    instructions += result.run.total_instructions;
    state.SetIterationTime(static_cast<double>(result.run.parallel_ns) *
                           1e-9);
    benchmark::DoNotOptimize(result.run.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_VmTier)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 6, 1), {0, 1}})
    ->UseManualTime();

// The paper kernels spend much of their parallel section in barriers and
// heap traffic, costs both tiers share, so their tier ratio understates
// what the dispatcher itself gains. This kernel is pure register compute —
// the workload the threaded tier exists for — and isolates the dispatch
// speedup the same way BM_SpscQueuePushPop isolates the queue.
constexpr const char* kDispatchBoundKernel = R"(
global int out[8];
func slave() {
  int id = tid();
  int acc = 0;
  for (int i = 0; i < 400000; i = i + 1) {
    acc = acc + i * 3 - i;
    acc = acc + i * 5 - i;
    acc = acc + i * 7 - i;
    acc = acc + i * 9 - i;
    acc = acc + i * 11 - i;
    acc = acc + i * 13 - i;
    acc = acc + i * 2 - i;
    acc = acc + i * 4 - i;
    acc = acc + i * 6 - i;
    acc = acc + i * 8 - i;
  }
  out[id] = acc;
  if (id == 0) { print_i(acc); }
}
)";

void BM_VmTierDispatch(benchmark::State& state) {
  const vm::ExecTier tier = state.range(0) != 0 ? vm::ExecTier::Threaded
                                                : vm::ExecTier::Interpreter;
  state.SetLabel(std::string("dispatch-bound ") + vm::to_string(tier));
  pipeline::CompiledProgram program =
      pipeline::compile_program(kDispatchBoundKernel);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    pipeline::ExecutionConfig config;
    config.num_threads = 2;
    config.exec_tier = tier;
    config.monitor = pipeline::MonitorMode::Off;
    pipeline::ExecutionResult result = pipeline::execute(program, config);
    instructions += result.run.total_instructions;
    state.SetIterationTime(static_cast<double>(result.run.parallel_ns) *
                           1e-9);
    benchmark::DoNotOptimize(result.run.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_VmTierDispatch)->Arg(0)->Arg(1)->UseManualTime();

}  // namespace

// Custom main: pluck --tier= out of argv (google-benchmark rejects flags
// it does not know), then hand the rest to the normal benchmark driver.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tier=", 7) == 0) {
      if (!bw::vm::parse_exec_tier(argv[i] + 7, g_tier)) {
        std::fprintf(stderr, "bw_micro: unknown tier '%s'\n", argv[i] + 7);
        return 2;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
