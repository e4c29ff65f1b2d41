// The instrumentation pass (paper Section III-B, "Instrumentation"):
// rewrites an analyzed module in place so the VM forwards branch behaviour
// to the runtime monitor.
//
//  * Every checked branch gets a bw.send_outcome on each outgoing edge
//    (edges are split when shared) — reporting from the *edge* rather than
//    before the branch is what lets a flipped branch be caught, exactly as
//    the paper's sendBranchAddr calls inside the taken/not-taken arms.
//    It is the only report a branch instance sends per thread.
//  * PartialValue checks additionally get a bw.send_cond before the branch
//    (the paper's sendBranchCondition). It sends nothing: the VM hashes the
//    condition data there and latches it, and the edge report carries it.
//    Capturing it before the branch matters, because a condition fault
//    corrupts the operand inside cond_br, after this point.
//  * Every loop in the parallel section gets iteration tracking
//    (bw.loop_enter / bw.loop_iter / bw.loop_exit) so the monitor can key
//    branch instances by outer-loop iteration numbers.
//  * Every call in the parallel section gets a unique call-site id (the
//    dynamic call-stack half of the hash key).
//  * Branches nested deeper than `max_nesting_depth` loops are left
//    unchecked (paper Section V-C1; the reason raytrace's coverage lags).
#pragma once

#include "analysis/similarity.h"
#include "ir/module.h"

namespace bw::instrument {

struct InstrumentOptions {
  /// The paper's six-level loop-nesting cutoff.
  unsigned max_nesting_depth = 6;
  /// The paper's Section VI overhead optimization: when several branches
  /// test the same condition value, checking the first (dominating) one
  /// suffices for data faults — later ones are skipped. Trades away
  /// detection of flag-register flips at the skipped branches, so off by
  /// default; measured by the ablation bench.
  bool dedup_same_condition = false;
};

struct InstrumentStats {
  int instrumented_branches = 0;
  int skipped_unchecked = 0;  // none-category without promotion, or elided
  int skipped_depth = 0;      // beyond the nesting cutoff
  int skipped_serial = 0;     // outside the parallel section
  int skipped_dedup = 0;      // same condition already checked (§VI opt.)
  int loops_instrumented = 0;
  int callsites_assigned = 0;
};

/// Instrument `module` in place according to the analysis result (which
/// must have been computed on this very module instance). The module
/// remains verifier-clean afterwards.
InstrumentStats instrument_module(ir::Module& module,
                                  const analysis::SimilarityResult& analysis,
                                  const InstrumentOptions& options = {});

}  // namespace bw::instrument
