// Campaign checkpointing: a textual, versioned serialization of every
// completed injection outcome plus the plan cursor, so a long coverage
// campaign that dies mid-flight (preempted bench box, ctrl-C, crash)
// resumes instead of restarting. Because every injection's RNG stream is
// derived from (seed, index) — never from scheduling order — replaying
// recorded outcomes for the completed set and executing only the
// remainder reproduces the uninterrupted campaign's partition and verdict
// list exactly (tests/campaign_parallel_test.cpp, KillAndResume*).
//
// Format (line-oriented; '#' starts a comment):
//   bw-campaign-checkpoint v3
//   seed <hex> type <fault-type> injections <n> threads <n> protect <0|1>
//     sampling <enabled> <forced-rate> <max-rate> flips <targeted-flips>
//   cursor <contiguous-completed-prefix>
//   o <index> <verdict> <flags-hex> <rollbacks> <checkpoints> <restore_ns>
//     <checkpoint_ns> <wall_ns>            (one line per completed injection,
//                                           sorted by index)
//   pc <phase> <code-fp-hex> <entry-fp-hex> <cont-fp-hex> <done>
//     <verdict-hex-digits|->
//     (one line per phase the compositional engine completed injections
//      for: the contiguous done-prefix of that phase's verdict list, each
//      slot one lowercase hex digit packing verdict | (via_continuation
//      << 3); '-' when the prefix is empty)
// The identity line guards against resuming with mismatched options: the
// outcomes are only valid for the exact (seed, type, plan size, threads,
// protect, sampling configuration, targeted-flip budget) tuple they were
// produced under. v2 widened the identity with the sampling/flips fields;
// v1 files are rejected rather than resumed under guessed-at sampling.
// v3 added the per-phase outcome cache (`pc` lines) for the compositional
// engine; v2 files still load (they simply carry no phase cache), and
// writers always emit v3.
#pragma once

#include <string>
#include <vector>

#include "fault/campaign.h"

namespace bw::fault {

/// One phase's cached injection outcomes (compositional engine, v3). A
/// cached slot may only be replayed when the fingerprints that pinned its
/// classification still match: code_fp pins the instructions the phase
/// executes, entry_fp pins the state it executes them from (an upstream
/// phase edit invalidates every phase downstream of the change through
/// this field), and cont_fp pins the DOWNSTREAM phases' code — a verdict
/// that flowed through a continuation run (silent delta at the cut, an
/// early section exit, or the incomplete-capture fallback) also depends
/// on the code after the phase and on the golden section output it was
/// compared against, so a downstream semantic edit must invalidate it.
/// Verdicts classified entirely inside the phase (NotActivated, in-phase
/// Detected/Crashed/Hung, Benign via exit-fingerprint match) carry
/// via_continuation=false and survive downstream edits.
struct PhaseCacheEntry {
  std::uint32_t phase = 0;
  std::uint64_t code_fp = 0;
  std::uint64_t entry_fp = 0;
  /// Continuation fingerprint: fold of the code_fps of every phase AFTER
  /// this one (a domain tag alone for the last phase).
  std::uint64_t cont_fp = 0;
  /// Verdicts of the contiguous completed prefix [0, done) of this
  /// phase's injection plan, one Verdict per element.
  std::vector<Verdict> verdicts;
  /// Parallel to `verdicts`: 1 when that slot's classification flowed
  /// through downstream code (servable only while cont_fp matches).
  std::vector<char> via_continuation;
};

struct CampaignCheckpoint {
  // Campaign identity: a checkpoint may only resume an identical plan.
  std::uint64_t seed = 0;
  FaultType type = FaultType::BranchFlip;
  int injections = 0;
  unsigned num_threads = 0;
  bool protect = true;
  // Sampled-monitoring identity: a verdict produced under 1-in-N checking
  // is not interchangeable with one produced under full checking, so the
  // sampling configuration is part of what the checkpoint guards.
  bool sampling_enabled = false;
  unsigned sampling_forced_rate = 0;
  unsigned sampling_max_rate = 64;
  // TargetedFlip budget (identity even for non-targeted types: 0-cost).
  unsigned targeted_flips = 4;

  /// Completed injections, sorted by index (holes allowed: workers finish
  /// out of order, so an interrupt can leave gaps behind the high-water
  /// mark).
  std::vector<InjectionOutcome> completed;
  /// Length of the contiguous completed prefix [0, cursor) — the plan
  /// cursor a resumed campaign can skip without consulting the set.
  int cursor = 0;

  /// Compositional engine only: per-phase cached outcome prefixes, sorted
  /// by phase index (one entry per phase at most). Empty for monolithic
  /// campaigns and for v2 files.
  std::vector<PhaseCacheEntry> phase_cache;

  /// Does this checkpoint belong to the campaign `options` describes?
  bool matches(const CampaignOptions& options) const;

  std::string to_text() const;
  /// Parse a checkpoint written by to_text(). On failure returns false
  /// and, when `error` is non-null, stores a one-line reason. A repeated
  /// outcome index or a second `pc` line for one phase is rejected.
  static bool from_text(const std::string& text, CampaignCheckpoint& out,
                        std::string* error = nullptr);
};

/// Atomically-enough persistence: write to `path` in one pass. Returns
/// false on any I/O error.
bool save_checkpoint(const std::string& path,
                     const CampaignCheckpoint& checkpoint);

/// Load and parse `path`. Returns false (with a reason in `error`) if the
/// file is unreadable or malformed.
bool load_checkpoint(const std::string& path, CampaignCheckpoint& out,
                     std::string* error = nullptr);

}  // namespace bw::fault
