// Shared helpers for the BLOCKWATCH test suite.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "pipeline/pipeline.h"

namespace bw::test {

/// Compile + run a BW-C program uninstrumented and return its printed
/// output (empty ExecutionConfig = monitor off, `threads` workers).
inline std::string run_output(std::string_view source, unsigned threads = 1) {
  pipeline::CompiledProgram program = pipeline::compile_program(source);
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
  config.monitor = pipeline::MonitorMode::Off;
  return pipeline::execute(program, config).run.output;
}

/// Full protected execution (instrument + monitor) of a BW-C program.
inline pipeline::ExecutionResult run_protected(std::string_view source,
                                               unsigned threads = 4) {
  pipeline::CompiledProgram program = pipeline::protect_program(source);
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
  return pipeline::execute(program, config);
}

/// Find the BranchInfo of the first conditional branch inside `function`
/// whose block name matches `block` (nullptr if absent).
inline const analysis::BranchInfo* branch_in(
    const pipeline::CompiledProgram& program, const std::string& function,
    const std::string& block) {
  for (const analysis::BranchInfo& info : program.analysis.branches) {
    if (info.function->name() == function &&
        info.branch->parent()->name() == block) {
      return &info;
    }
  }
  return nullptr;
}

/// Captures the instrumented program's report streams, one vector per
/// producer thread (send() is called by exactly one thread per id, so
/// the per-thread vectors need no locking).
class RecorderSink : public runtime::BranchSink {
 public:
  explicit RecorderSink(unsigned num_threads) : streams_(num_threads) {}

  void send(const runtime::BranchReport& report) override {
    streams_[report.thread].push_back(report);
  }
  bool violation_detected() const override { return false; }

  const std::vector<std::vector<runtime::BranchReport>>& streams() const {
    return streams_;
  }

 private:
  std::vector<std::vector<runtime::BranchReport>> streams_;
};

}  // namespace bw::test
