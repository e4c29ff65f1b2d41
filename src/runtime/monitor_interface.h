// Abstract interface between instrumented program threads and whichever
// monitor implementation is attached: the flat single-consumer Monitor of
// the paper's implementation, or a MonitorSession of the sharded
// MonitorService. The VM talks only to this.
#pragma once

#include "runtime/report.h"
#include "runtime/resilience.h"
#include "runtime/sampling.h"

namespace bw::runtime {

class BranchSink {
 public:
  virtual ~BranchSink() = default;

  /// The adaptive sampling controller gating this sink's checks, or
  /// nullptr for sinks that check every instance unconditionally.
  /// Harnesses use it to read rates/stats; the sink itself consults the
  /// controller inside send().
  virtual SamplingController* sampler() { return nullptr; }

  /// Called by program thread `report.thread`; must be safe to call
  /// concurrently from distinct threads (one producer per thread id).
  /// Never blocks indefinitely: under a bounded BackoffPolicy a full queue
  /// eventually drops the report (counted, health degrades) rather than
  /// wedging the program thread.
  virtual void send(const BranchReport& report) = 0;

  /// Make every report program thread `thread` has sent visible to the
  /// consumer: the Monitor and a MonitorSession publish the reports the
  /// thread's rings have staged (a session's after claiming quota). A
  /// sink that buffers must deliver what it holds here and may hold
  /// reports only until here. Called by that thread; the VM calls it at
  /// every barrier arrival, at its periodic poll, and when the thread
  /// leaves the parallel section (normally, by a trap or at a phase
  /// exit). A caller that sends reports outside the VM and then waits on
  /// the consumer must call it first.
  virtual void flush(std::uint32_t thread) { (void)thread; }

  /// Cheap cross-thread poll: has any check failed so far?
  virtual bool violation_detected() const = 0;

  /// Sticky Healthy -> Degraded -> Failed state of the monitor backing
  /// this sink (see resilience.h). Safe to poll from any thread.
  virtual MonitorHealth health() const { return MonitorHealth::Healthy; }

  // --- Recovery protocol (detection-triggered rollback; vm/recovery.h) ---
  //
  // All three calls below share a contract: every producer thread is
  // quiescent for the duration (blocked at a barrier or a rollback
  // rendezvous), and each call is bounded — a stalled or Failed monitor
  // returns false instead of wedging recovery, which then degrades to
  // plain detect-and-report.

  /// Does this sink implement quiesce/finalize_section/reset_epoch? The
  /// VM only enables checkpoint/rollback against sinks that return true.
  virtual bool supports_recovery() const { return false; }

  /// Wait (bounded) until every report sent so far has been drained and
  /// judged, so violation_detected() is authoritative for the prefix of
  /// the run up to this point. False on timeout or a Failed monitor.
  virtual bool quiesce() { return true; }

  /// Run the end-of-section residual check (the finalize pass) on
  /// everything received so far, without stopping the monitor. False on
  /// timeout or a Failed monitor.
  virtual bool finalize_section() { return false; }

  /// Discard every in-flight report, pending instance, and recorded
  /// violation: the timeline they belong to is being rolled back. Health
  /// stays sticky (a Degraded monitor remains Degraded — drops already
  /// happened and nothing may mask them). False on timeout or a Failed
  /// monitor, in which case the caller must abandon recovery.
  virtual bool reset_epoch() { return false; }
};

}  // namespace bw::runtime
