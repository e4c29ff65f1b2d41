// Real monitor traffic for the runtime-layer measurements: a BranchSink
// that records each protected run's report stream per program thread, the
// traffic census derived from the recordings, and the replays that time
// the runtime pieces (Monitor::send, SpscQueue, BranchTable,
// check_instance) on those streams instead of on a synthetic one.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "runtime/checker.h"
#include "runtime/monitor_interface.h"
#include "runtime/report.h"

namespace bwperf {

using bw::runtime::BranchReport;

/// One run's reports, indexed by program thread, each in send order.
using Streams = std::vector<std::vector<BranchReport>>;

inline constexpr std::size_t kCheckCodes = 4;
inline constexpr const char* kCheckCodeNames[kCheckCodes] = {
    "shared", "tid_eq", "tid_monotone", "partial"};

/// Records every report and forwards every call to the monitor it wraps,
/// so a run with the recorder attached is judged exactly as one without.
class RecordingSink final : public bw::runtime::BranchSink {
 public:
  RecordingSink(bw::runtime::BranchSink& monitor, unsigned num_threads);

  RecordingSink(const RecordingSink&) = delete;
  RecordingSink& operator=(const RecordingSink&) = delete;

  void send(const BranchReport& report) override;
  void flush(std::uint32_t thread) override { monitor_.flush(thread); }
  bool violation_detected() const override {
    return monitor_.violation_detected();
  }
  bw::runtime::MonitorHealth health() const override {
    return monitor_.health();
  }
  bw::runtime::SamplingController* sampler() override {
    return monitor_.sampler();
  }
  bool supports_recovery() const override {
    return monitor_.supports_recovery();
  }
  bool quiesce() override { return monitor_.quiesce(); }
  bool finalize_section() override { return monitor_.finalize_section(); }
  bool reset_epoch() override { return monitor_.reset_epoch(); }

  /// The recording so far; call once the run has ended.
  Streams take_streams();

 private:
  // One producer per lane; padded so producers never share a line.
  struct alignas(64) Lane {
    std::vector<BranchReport> reports;
  };

  bw::runtime::BranchSink& monitor_;
  std::vector<Lane> lanes_;
};

/// Every thread's reports in one deterministic order: round robin over the
/// threads, each contributing its reports in its own send order.
std::vector<BranchReport> interleave(const Streams& streams);

/// A branch instance as the monitor's table assembles it.
struct RecordedInstance {
  bw::runtime::CheckCode check = bw::runtime::CheckCode::SharedOutcome;
  std::vector<bw::runtime::ThreadObservation> observations;
  unsigned reporters = 0;  // threads that reported an outcome
};

/// The instances BranchTable forms from `order`: an instance closes once
/// every thread reported its outcome; at the end, leftovers with at least
/// two outcomes close as the finalize pass would check them.
std::vector<RecordedInstance> rebuild_instances(
    const std::vector<BranchReport>& order, unsigned num_threads);

struct Census {
  std::uint64_t reports = 0;
  std::uint64_t keys = 0;  // distinct (ctx, static_id)
  std::uint64_t instances = 0;
  std::uint64_t reporters = 0;  // summed over instances
  std::array<std::uint64_t, kCheckCodes> reports_by_code{};
};

Census take_census(const Streams& streams,
                   const std::vector<RecordedInstance>& instances);

/// Time and work of the runtime replays, summed over every replayed stream.
struct ReplayTotals {
  double send_ns = 0;  // producer time inside Monitor::send, all threads
  std::uint64_t sends = 0;
  double full_s = 0;   // first send to stop() returning, perform_checks on
  double drain_s = 0;  // the same with perform_checks off
  double push_ns = 0;
  double pop_ns = 0;
  std::uint64_t transfers = 0;
  double process_ns = 0;
  std::uint64_t processed = 0;
  double finalize_ms = 0;
  std::uint64_t finalizes = 0;
  std::array<double, kCheckCodes> check_ns{};
  std::array<std::uint64_t, kCheckCodes> checks{};
  /// Violations found replaying a clean recording (false alarms).
  std::uint64_t violations = 0;
  /// Reports the replayed Monitor dropped under backpressure.
  std::uint64_t dropped = 0;
};

/// Replays one recording: `order` is interleave(streams) and `instances`
/// rebuild_instances(order, num_threads).
void replay(const Streams& streams, const std::vector<BranchReport>& order,
            const std::vector<RecordedInstance>& instances,
            unsigned num_threads, ReplayTotals& totals);

}  // namespace bwperf
