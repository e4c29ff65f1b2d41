// The fault-injection campaign (paper Section IV, "Coverage Evaluation"):
// profile a golden run, sample (thread, dynamic-branch, fault-type)
// targets, execute one fault per run, and classify outcomes into the
// paper's taxonomy. Coverage = 1 - SDC_f over activated faults.
//
// Beyond the paper's application faults, the campaign also injects faults
// into the DETECTION PATH itself (monitor stalls, corrupted queue slots,
// lost reports) — validating the monitor runtime the same way the
// application is validated: the protected program must never deadlock,
// never be misclassified as an SDC, and never raise a false alarm because
// the monitor lost data.
//
// Execution model: the injection plan is embarrassingly parallel — every
// injection is an independent run of the compiled program — so the engine
// partitions it across a worker pool. Determinism is preserved by
// construction: injection i draws its (thread, branch, bit) sample from a
// private RNG stream derived from (campaign seed, i), never from a shared
// sequential stream, and per-injection outcomes are folded into the final
// CampaignResult in index order. The outcome partition, recovery tallies,
// and per-injection verdict list are therefore identical for ANY worker
// count, including the workers=1 serial loop (guarded by
// tests/campaign_parallel_test.cpp). Long campaigns can checkpoint
// completed injections to a file and resume after an interruption; see
// CampaignCheckpoint in fault/checkpoint.h.
//
// run_campaign, run_compositional_campaign (fault/compositional.h) and
// run_clean_campaign run on one engine core (fault/engine.h): one worker
// pool, checkpoint identity, resume loader, fault-run configuration and
// application-fault verdict ladder. Monitor-path faults keep their own
// ladder (hang first; FalseAlarm exists only there).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/stats.h"
#include "pipeline/pipeline.h"

namespace bw::fault {

enum class FaultType {
  BranchFlip,       // flip the branch outcome ("flag register" fault)
  BranchCondition,  // flip one bit of the condition data, persisting
  // Monitor-path fault models (injected into the detection runtime, not
  // the application; require protect=true):
  MonitorStall,     // suspend the monitor thread mid-run, forever
  QueueCorrupt,     // flip one bit of an enqueued BranchReport
  ReportDrop,       // silently lose one report at the consumer
  /// Adversarial model: repeated flips of ONE chosen branch. The fault
  /// anchors at a uniformly drawn dynamic branch of the victim thread and
  /// re-flips every subsequent execution of that same static site, up to
  /// CampaignOptions::targeted_flips applications (0 = unbounded). The
  /// hostile scenario from "Securing Conditional Branches in the Presence
  /// of Fault Attacks": a single flip can be masked, a barrage on one
  /// critical branch is what a monitor must catch.
  TargetedFlip,
};

const char* to_string(FaultType type);

/// Parse a fault-type name as printed by to_string (plus the short CLI
/// aliases "flip"/"cond"/"stall"/"corrupt"/"drop"). Returns false on an
/// unknown name, leaving `out` untouched.
bool parse_fault_type(std::string_view name, FaultType& out);

/// True for the fault models that target the monitor runtime itself.
bool is_monitor_fault(FaultType type);

/// Monitor runtime settings for monitor-path campaigns: a small ring plus
/// tight backoff/watchdog budgets so a stalled-monitor run degrades and
/// completes in milliseconds instead of serializing the campaign on the
/// production 250 ms deadline.
bw::runtime::MonitorOptions fast_degrade_monitor_options();

/// Classification of one injection (the paper's outcome taxonomy plus the
/// monitor-path FalseAlarm bucket). Values are serialized into campaign
/// checkpoints — append only, never renumber.
enum class Verdict : std::uint8_t {
  NotActivated = 0,  // the fault target was never reached
  Benign,            // output matched the golden run (masked)
  Detected,          // the monitor flagged the run
  Recovered,         // flagged, rolled back, finished with correct output
  Crashed,           // memory/arithmetic trap
  Hung,              // deadlock or runaway (watchdog)
  Sdc,               // completed with wrong output
  FalseAlarm,        // monitor-path fault made a clean run get flagged
};

const char* to_string(Verdict verdict);

/// Everything one injection contributes to the campaign: its verdict plus
/// the side tallies the serial engine used to accumulate in place. Workers
/// produce these independently; accumulate()/merge() fold them into
/// CampaignResult deterministically. Also the unit of checkpoint
/// serialization (fault/checkpoint.h).
struct InjectionOutcome {
  std::uint32_t index = 0;  // position in the injection plan
  Verdict verdict = Verdict::NotActivated;
  // Monitor-path side flags (set only for activated monitor faults):
  bool degraded = false;   // run ended MonitorHealth::Degraded
  bool failed = false;     // run ended MonitorHealth::Failed
  bool discarded = false;  // checksum validation rejected corrupted report
  // Recovery side tallies (application faults under recovery):
  bool recovered_mismatch = false;  // rolled back, replayed, still diverged
  bool retry_exhausted = false;     // burned the whole retry budget
  std::uint64_t rollbacks = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restore_ns = 0;
  std::uint64_t checkpoint_ns = 0;
  // Wall time of this injection's full pipeline run.
  std::uint64_t wall_ns = 0;
};

struct CampaignOptions {
  unsigned num_threads = 4;
  /// VM dispatcher for every run of the campaign — golden profiling and
  /// injections alike (vm/dispatch.h; Auto = threaded). Any mix of tiers
  /// yields the same verdicts, budgets and checkpoints: the tiers retire
  /// identical logical instruction streams, and campaign checkpoints
  /// deliberately do not record the tier, so a campaign checkpointed under
  /// one tier may resume under the other.
  vm::ExecTier exec_tier = vm::ExecTier::Auto;
  int injections = 200;
  FaultType type = FaultType::BranchFlip;
  std::uint64_t seed = 0x5eedf00d;
  /// true: run the BLOCKWATCH-protected binary (instrumented + full
  /// monitor). false: the original program (the paper's coverage_original
  /// baseline — crashes/hangs/masking still provide "natural" coverage).
  bool protect = true;
  pipeline::PipelineOptions pipeline;
  /// Monitor runtime configuration used for monitor-path fault types.
  /// Application-fault runs take only its `sampling` block (so sampled
  /// campaigns are expressible without disturbing the default runtime).
  bw::runtime::MonitorOptions monitor = fast_degrade_monitor_options();
  /// TargetedFlip only: total flips the adversary may spend on its chosen
  /// branch site (0 = unbounded, every execution of the site is flipped).
  unsigned targeted_flips = 4;
  /// Per-thread retired-instruction watchdog for every injection run.
  /// 0 = auto: 10x the golden run's max thread count plus slack (covers
  /// recovery retries, which re-execute checkpointed work up to
  /// 1 + max_retries times). See auto_instruction_budget().
  std::uint64_t instruction_budget = 0;
  /// Barrier-aligned checkpoint/rollback for application-fault runs (see
  /// vm/recovery.h). Ignored for monitor-path fault types: those stress
  /// the detection fabric itself, and recovery against a deliberately
  /// broken monitor is exactly the degraded path the recovery tests cover
  /// separately.
  vm::RecoveryOptions recovery;

  // --- Parallel engine ------------------------------------------------
  /// Worker threads executing the injection plan. 0 = hardware
  /// concurrency (min 1); 1 = the serial loop, no pool spawned. The
  /// outcome partition is worker-count-invariant by construction.
  unsigned campaign_workers = 0;
  /// When non-empty, serialize every completed injection plus the plan
  /// cursor to this file after each `checkpoint_every` completions (and
  /// once more at campaign end), so an interrupted campaign can resume.
  std::string checkpoint_file;
  int checkpoint_every = 16;
  /// When non-empty, load a checkpoint written by a previous run of the
  /// SAME campaign (seed/type/injections/threads/protect must match;
  /// throws support::CompileError otherwise). Completed injections replay
  /// their recorded outcomes; only the remainder executes.
  std::string resume_file;
  /// Test hook simulating a mid-campaign kill: stop dispatching new
  /// injections once this many have completed, resumed ones included
  /// (0 = run to completion).
  /// The result is marked interrupted and the checkpoint file (if any)
  /// holds everything needed to resume.
  int halt_after = 0;
};

struct CampaignResult {
  int injected = 0;
  int activated = 0;
  // Outcome counts over activated faults (a partition: benign + detected
  // + recovered + crashed + hung + sdc + false_alarms == activated):
  int benign = 0;    // output matched the golden run (masked)
  int detected = 0;  // BLOCKWATCH monitor flagged the run (and it stopped)
  /// Recovery campaigns only: the monitor flagged the run, it rolled back
  /// to a clean checkpoint, re-executed, and finished with output equal
  /// to the golden run — the fault was detected AND corrected.
  int recovered = 0;
  int crashed = 0;   // memory/arithmetic trap
  int hung = 0;      // deadlock or runaway (watchdog)
  int sdc = 0;       // completed with wrong output
  /// Monitor-path campaigns only: the monitor flagged a violation on a
  /// clean program because its own fault lost data — the failure mode the
  /// degraded-health logic exists to prevent. Must be zero.
  int false_alarms = 0;

  // Side tallies for monitor-path campaigns (not part of the partition):
  int degraded_runs = 0;  // runs ending with MonitorHealth::Degraded
  int failed_runs = 0;    // runs ending with MonitorHealth::Failed
  int discarded = 0;      // runs where checksum validation rejected the
                          // corrupted report (QueueCorrupt defence)

  // Side tallies for recovery campaigns (not part of the partition):
  /// Runs that rolled back, re-executed, and completed with output that
  /// did NOT match golden (counted as sdc in the partition). Must be zero
  /// for transient faults — a mismatch means restore is unsound.
  int recovered_mismatch = 0;
  int retry_exhausted_runs = 0;       // runs that burned the whole budget
  std::uint64_t rollbacks = 0;        // total across all runs
  std::uint64_t checkpoints = 0;      // total checkpoints committed
  std::uint64_t restore_ns = 0;       // total time inside restores
  std::uint64_t checkpoint_ns = 0;    // total time inside commits

  // Per-injection-run wall time (nanoseconds), over all injected runs.
  // min/max/total merge associatively across worker shards; mean is
  // derived from total at the end, never accumulated.
  std::uint64_t run_ns_min = 0;
  std::uint64_t run_ns_max = 0;
  std::uint64_t run_ns_total = 0;
  double run_ns_mean = 0.0;

  // --- Parallel-engine bookkeeping ------------------------------------
  /// Worker threads the engine actually used.
  unsigned workers = 1;
  /// Injections replayed from a resume checkpoint instead of re-executed.
  int resumed = 0;
  /// The campaign was halted before completing the plan (halt_after);
  /// the partition covers only the completed prefix set.
  bool interrupted = false;
  /// Per-injection verdicts in plan (index) order — the campaign's
  /// canonical outcome list. Identical across worker counts and across
  /// kill/resume for a fixed (source, options) pair.
  std::vector<Verdict> verdicts;

  /// The paper's coverage metric: fraction of activated faults that do
  /// not produce an SDC (includes masked/crash/hang/detected/recovered).
  double coverage() const {
    return activated == 0 ? 1.0
                          : 1.0 - static_cast<double>(sdc) / activated;
  }
  /// Wilson 95% bounds on coverage() over the activated sample.
  ConfidenceInterval coverage_interval() const {
    return wilson_interval(static_cast<std::uint64_t>(activated - sdc),
                           static_cast<std::uint64_t>(activated));
  }
  /// Wilson 95% bounds on the SDC rate (the complement's interval).
  ConfidenceInterval sdc_interval() const {
    return wilson_interval(static_cast<std::uint64_t>(sdc),
                           static_cast<std::uint64_t>(activated));
  }
  /// Fraction of activated faults whose run finished with CORRECT output:
  /// masked plus detect-and-correct. Detection alone keeps coverage() high
  /// but still loses the run's work; this is the recovery payoff metric.
  double coverage_with_recovery() const {
    return activated == 0
               ? 1.0
               : static_cast<double>(benign + recovered) / activated;
  }
  /// Of the runs the monitor flagged, how many finished correctly after
  /// rollback (the ISSUE acceptance metric).
  double recovery_rate() const {
    int flagged = recovered + detected;
    return flagged == 0 ? 0.0
                        : static_cast<double>(recovered) / flagged;
  }
  double activation_rate() const {
    return injected == 0 ? 0.0
                         : static_cast<double>(activated) / injected;
  }
};

/// Fold one injection outcome into a result shard. Pure tallying — order
/// of calls does not matter except for the verdict list, which the engine
/// writes separately in index order.
void accumulate(CampaignResult& shard, const InjectionOutcome& outcome);

/// Merge a worker shard into `into`. Associative and commutative (all
/// fields are sums, mins, maxes, or ors), so any shard fold order yields
/// the same bytes — guarded by tests/campaign_stats_test.cpp. Does not
/// touch `verdicts`, `workers`, `resumed`, `interrupted` or the derived
/// `run_ns_mean`.
void merge(CampaignResult& into, const CampaignResult& from);

/// The RNG seed for injection `index` of a campaign with `base_seed`:
/// a splitmix64 mix of the two, so every injection owns an independent
/// stream regardless of which worker runs it or when.
std::uint64_t injection_seed(std::uint64_t base_seed, std::uint32_t index);

/// Run a whole campaign against one BW-C program.
CampaignResult run_campaign(std::string_view source,
                            const CampaignOptions& options);

/// One golden (fault-free) execution; exposed for the false-positive bench
/// (paper: 100 clean instrumented runs must report nothing).
struct GoldenRun {
  std::string output;
  std::vector<std::uint64_t> branches_per_thread;
  std::uint64_t max_thread_instructions = 0;
  /// Reports the monitor drained in the golden run (monitor-path fault
  /// targeting: the k-th report stands in for the k-th dynamic branch).
  std::uint64_t monitor_reports = 0;
};

GoldenRun golden_run(const pipeline::CompiledProgram& program,
                     unsigned num_threads,
                     vm::ExecTier tier = vm::ExecTier::Auto);

/// The auto watchdog budget for one injection run: 10x the golden run's
/// max per-thread retired-instruction count plus fixed slack, clamped so
/// it is always finite and nonzero — a kernel whose parallel section
/// retires zero instructions must still get a real budget, never the 0
/// that ExecutionConfig interprets as "no watchdog".
///
/// Tier independence: the count profiled here is LOGICAL retired
/// instructions (decoded ops, phis included), which both dispatchers
/// charge identically — the threaded tier folds phi retirement into its
/// pre-resolved edges rather than dispatching them, but charges the same
/// totals. A budget derived from a golden run under either tier therefore
/// trips the watchdog at the same logical point under the other
/// (tests/tier_differential_test.cpp, BudgetWatchdogParity).
std::uint64_t auto_instruction_budget(const GoldenRun& golden);

/// Per-phase watchdog budget for one compositional injection run
/// (fault/compositional.h). auto_instruction_budget() is scaled to the
/// WHOLE program, so a short phase inside a long kernel would inherit a
/// near-infinite window and a hung phase run would burn the rest of the
/// program's budget before tripping. A phase run retires the entry
/// checkpoint's logical count unconditionally (the restored counter starts
/// there), so the budget is that entry cost plus 10x the phase's own
/// golden delta plus the same fixed slack, with the same saturating
/// clamps.
std::uint64_t auto_phase_instruction_budget(
    std::uint64_t max_entry_instructions, std::uint64_t max_phase_delta);

/// Fault-free campaign: execute `runs` clean runs of an instrumented
/// program across the same worker pool the injection engine uses, and
/// tally violations/health (the paper's false-positive experiment, and
/// the fuzz lane's per-seed clean sweep). Any violation on a race-free
/// program is a false positive.
struct CleanRunResult {
  int runs = 0;
  int failures = 0;    // runs that did not complete cleanly
  int violations = 0;  // total violations across all runs (must be 0)
  int degraded = 0;    // runs ending Degraded
  int failed_health = 0;  // runs ending Failed
  std::uint64_t reports = 0;  // total reports the monitors processed
  std::uint64_t checks = 0;   // total instances checked
  std::uint64_t dropped = 0;  // total reports dropped
};

CleanRunResult run_clean_campaign(const pipeline::CompiledProgram& program,
                                  const pipeline::ExecutionConfig& config,
                                  int runs, unsigned workers = 0);

}  // namespace bw::fault
