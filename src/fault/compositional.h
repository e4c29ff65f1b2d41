// Compositional fault-injection campaigns (FastFlip-style): instead of
// re-running every injection end-to-end, inject within a SINGLE barrier
// phase — entering it from the golden run's barrier-aligned checkpoint —
// classify the phase-exit state delta, and compose the per-phase outcome
// distributions into whole-program SDC/coverage estimates.
//
// Why this is sound here: BLOCKWATCH kernels are SPMD programs whose
// barriers are total cuts — no branch instance, lock hold, or monitor
// report spans one (the same property that makes barriers the only sound
// recovery rollback targets, vm/recovery.h). The golden trace therefore
// factors the execution into phases whose entry states are complete
// (heap + every thread's frames/locals/outputs + tracker + lock owners),
// and a transient fault injected inside phase p can only influence later
// phases THROUGH the state at p's exit cut:
//   * exit state fingerprint-equal to golden  -> the continuation is the
//     golden continuation; the fault is fully masked (Benign).
//   * exit state differs                      -> the corruption is real;
//     a continuation run from the faulty exit checkpoint (fault inactive:
//     the transient upset already happened) classifies whether it is
//     detected downstream, crashes, hangs, or escapes as an SDC.
// Faults that never reach the cut (crash/hang/detected inside the phase,
// or the program leaves the section early) are classified directly. A
// fault can also desynchronize the cut itself (the victim thread skips a
// conditional barrier and never stages at the exit): the exit capture is
// then marked incomplete (vm::Checkpoint::complete) and the engine falls
// back to re-running that injection end-to-end from the phase entry —
// the direct classification the monolithic engine would produce —
// instead of continuing from a partially-fabricated checkpoint.
//
// Engine: the uncached (phase, injection) slots run on the worker pool
// every campaign shares (fault/engine.h), with the monolithic
// engine's checkpoint identity, resume loader, fault-run configuration
// and application-fault verdict ladder — the in-phase run, the
// continuation run and the incomplete-capture fallback are all classified
// by that one ladder. The per-phase outcome tallies then merge — the same
// associative fold the monolithic engine uses — with each phase weighted
// by its share of the whole program's dynamic branches, so the composed
// verdict distribution estimates the same population the monolithic
// sampler draws from. tests/compositional_test.cpp proves composed and
// monolithic estimates agree within overlapping Wilson 95% CIs on every
// registry kernel.
//
// Caching: an injection's verdict depends on (the code its phase's
// blocks execute, the state the phase enters from, the fault model) —
// and, when the classification flowed through a continuation run, an
// early section exit, or the incomplete-capture fallback, ALSO on the
// code of every downstream phase and the golden section output it was
// compared against. All three dependencies are fingerprinted —
// content-hashed, no pointers — and persisted per slot through
// fault/checkpoint.h v3: code_fp pins the phase's own code, entry_fp
// pins its entry state (which transitively pins the golden suffix from
// the cut, given the code), and cont_fp folds the code_fps of every
// later phase. A cached verdict is served iff code_fp and entry_fp
// match AND (the verdict resolved inside the phase OR cont_fp matches).
// So re-running a campaign over a modified kernel re-injects the edited
// phase (code fp), any downstream phase whose entry state shifted
// (entry fp), and the continuation-dependent slots of phases UPSTREAM
// of the edit (cont fp) — in-phase verdicts (NotActivated, in-phase
// Detected/Crashed/Hung, Benign via exit-fingerprint match) survive a
// downstream edit untouched. Granularity caveat, inherited from the
// block profile: code fingerprints cover the blocks the GOLDEN run
// executes; an edit confined to blocks no golden phase ever runs is
// invisible to the keys (and to the composed estimate's golden
// baseline).
//
// Refused configurations (composition would be unsound, not just
// conservative):
//   * FaultType::TargetedFlip — the persistent adversary re-flips its
//     chosen site across barrier cuts, so phase outcomes are not
//     independent.
//   * Monitor-path fault types — the fault lives in the detection fabric
//     for the WHOLE run, not inside one phase.
//   * RecoveryOptions::enabled — a rollback crosses the phase cut and
//     re-entangles the slices.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/campaign.h"
#include "fault/checkpoint.h"
#include "vm/interpreter.h"
#include "vm/recovery.h"

namespace bw::fault {

/// Content fingerprint of one execution state at a barrier cut: shared
/// heap, every thread's frames (function NAME — stable across unrelated
/// edits — callsite, block, ip, raw registers), locals, output, context
/// tracker hashes, and the sorted held-lock set. Deliberately EXCLUDES
/// the retired-instruction/branch counters and the generation number:
/// they tick with upstream code-size changes that do not alter the state
/// the phase actually computes on, and injection targets are drawn
/// relative to the CURRENT golden entry counts anyway.
std::uint64_t fingerprint_state(const vm::Checkpoint& checkpoint,
                                const vm::DecodedProgram& decoded);

/// Content fingerprint of the code a phase executes: the sorted unique
/// (function, block) pairs the golden run profiled for that phase, each
/// hashed by function name plus the block's full decoded instruction
/// stream (opcode, predicate, operands, immediates, successors, callee
/// names, phi moves). Any textual edit that survives to the IR of a
/// block the phase runs changes this fingerprint.
std::uint64_t fingerprint_phase_code(
    const vm::DecodedProgram& decoded,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& blocks);

/// Largest-remainder apportionment of `total` injections over per-phase
/// weights plus a trailing null bucket (faults landing in threads that
/// never branch — NotActivated by construction, no runs needed). Returns
/// weights.size() + 1 allotments summing to exactly `total`; ties break
/// toward the lower index. Exposed for the unit tests.
std::vector<int> apportion_injections(
    const std::vector<std::uint64_t>& weights, std::uint64_t null_weight,
    int total);

/// One phase's slice of the campaign.
struct PhaseOutcomeSummary {
  std::uint32_t phase = 0;
  std::uint64_t code_fp = 0;
  std::uint64_t entry_fp = 0;
  /// Fold of the code_fps of every later phase (see header comment):
  /// the staleness key for this phase's continuation-dependent verdicts.
  std::uint64_t cont_fp = 0;
  /// Injections apportioned to this phase (== tally.injected when the
  /// campaign ran to completion).
  int injections = 0;
  /// How many of them were served from the v3 phase-outcome cache.
  int cached = 0;
  /// Per-phase watchdog budget (auto_phase_instruction_budget unless the
  /// campaign pinned an explicit budget).
  std::uint64_t budget = 0;
  /// This phase's outcome partition and verdict list (verdicts in
  /// injection order; cached injections contribute verdicts but zero
  /// wall time).
  CampaignResult tally;
};

struct CompositionalResult {
  /// The whole-program estimate: every phase's tally merged, plus the
  /// null bucket's NotActivated injections. coverage()/sdc_interval()
  /// etc. on this are the composed campaign's headline numbers.
  CampaignResult composed;
  std::vector<PhaseOutcomeSummary> phases;  // one per phase, in order
  std::uint32_t phase_count = 0;
  /// Injections that never needed a run because a thread ran no branches
  /// (the monolithic engine's NotActivated-by-sampling bucket).
  int null_injections = 0;
  /// Phase-level cache accounting: a phase "hits" when at least one of
  /// its injections was served from cache.
  int phase_cache_hits = 0;
  int phase_cache_misses = 0;
  /// Injection-level accounting (executed + cached + null == composed
  /// plan size when not interrupted).
  int injections_executed = 0;
  int injections_cached = 0;
  /// halt_after stopped the engine before the plan completed.
  bool interrupted = false;
  /// The configuration cannot be composed soundly (see header comment);
  /// nothing ran and `composed` is empty.
  bool refused = false;
  std::string refusal_reason;
};

/// Run a compositional campaign against one BW-C program. Honors the
/// same CampaignOptions the monolithic engine takes: seed/type/
/// injections/threads/protect/sampling identity (checkpoint-guarded),
/// campaign_workers (byte-identical results for any worker count),
/// checkpoint_file/checkpoint_every/resume_file/halt_after. When
/// resume_file is empty but checkpoint_file names a loadable v3 file,
/// the phase cache warms from it automatically (the incremental-recheck
/// workflow: same file across runs, only changed phases re-inject).
CompositionalResult run_compositional_campaign(std::string_view source,
                                               const CampaignOptions& options);

}  // namespace bw::fault
