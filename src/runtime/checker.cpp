#include "runtime/checker.h"

#include <algorithm>
#include <vector>

namespace bw::runtime {

namespace {

constexpr std::uint32_t kNoSuspect = 0xffffffffu;

/// Per-check scratch lives in a stack array of this many entries; larger
/// instances fall back to a heap buffer.
constexpr std::size_t kStackEntries = 64;

using Observations = std::span<const ThreadObservation>;

/// All reporting threads must agree on the outcome. Suspect: the minority
/// thread if the minority is a single thread.
std::optional<std::uint32_t> check_shared(Observations obs) {
  int taken = 0;
  int not_taken = 0;
  for (const ThreadObservation& o : obs) {
    if (!o.has_outcome) continue;
    (o.outcome ? taken : not_taken)++;
  }
  if (taken == 0 || not_taken == 0) return std::nullopt;
  bool minority_outcome = taken < not_taken;
  int minority = std::min(taken, not_taken);
  if (minority == 1) {
    for (const ThreadObservation& o : obs) {
      if (o.has_outcome && o.outcome == minority_outcome) return o.thread;
    }
  }
  return kNoSuspect;
}

/// threadID with an equality comparison: at most one thread may deviate
/// from the majority outcome (paper: "one thread follows one path and the
/// remaining threads follow the other"). All-agree is also legal (the
/// singled-out thread may simply not be participating).
std::optional<std::uint32_t> check_threadid_eq(Observations obs) {
  int taken = 0;
  int not_taken = 0;
  for (const ThreadObservation& o : obs) {
    if (!o.has_outcome) continue;
    (o.outcome ? taken : not_taken)++;
  }
  if (std::min(taken, not_taken) <= 1) return std::nullopt;
  return kNoSuspect;
}

/// threadID with an ordered comparison over an affine function of tid:
/// ordered by thread id, the outcome sequence must change at most once
/// (prefix/suffix pattern). Suspect: a thread flanked by two transitions.
std::optional<std::uint32_t> check_threadid_monotone(Observations obs) {
  const ThreadObservation* stack_sorted[kStackEntries];
  std::vector<const ThreadObservation*> heap_sorted;
  const ThreadObservation** sorted = stack_sorted;
  if (obs.size() > kStackEntries) {
    heap_sorted.resize(obs.size());
    sorted = heap_sorted.data();
  }
  std::size_t count = 0;
  bool in_order = true;
  for (const ThreadObservation& o : obs) {
    if (!o.has_outcome) continue;
    if (count > 0 && o.thread < sorted[count - 1]->thread) in_order = false;
    sorted[count++] = &o;
  }
  if (!in_order) {
    std::sort(sorted, sorted + count,
              [](const ThreadObservation* a, const ThreadObservation* b) {
                return a->thread < b->thread;
              });
  }
  int transitions = 0;
  std::size_t first_transition = 0;
  for (std::size_t i = 1; i < count; ++i) {
    if (sorted[i]->outcome != sorted[i - 1]->outcome) {
      if (transitions == 0) first_transition = i;
      ++transitions;
    }
  }
  if (transitions <= 1) return std::nullopt;
  // A lone island like 0001000 indicts the island thread.
  if (transitions == 2 && first_transition + 1 < count &&
      sorted[first_transition + 1]->outcome !=
          sorted[first_transition]->outcome) {
    return sorted[first_transition]->thread;
  }
  return kNoSuspect;
}

/// partial: threads reporting equal condition data must agree on the
/// outcome (paper: "threads which are assigned to the same shared variable
/// take the same decision"). Groups are formed in observation order; when
/// several groups conflict, the first one decides the suspect.
std::optional<std::uint32_t> check_partial(Observations obs) {
  struct Group {
    std::uint64_t value;
    int taken;
    int not_taken;
    std::uint32_t last_taken;
    std::uint32_t last_not_taken;
  };
  // Uninitialised on purpose: only groups [0, used) are ever read.
  Group stack_groups[kStackEntries];
  std::vector<Group> heap_groups;
  Group* groups = stack_groups;
  if (obs.size() > kStackEntries) {
    heap_groups.resize(obs.size());
    groups = heap_groups.data();
  }
  std::size_t used = 0;
  for (const ThreadObservation& o : obs) {
    if (!o.has_outcome || !o.has_value) continue;
    Group* g = groups;
    while (g != groups + used && g->value != o.value) ++g;
    if (g == groups + used) {
      *g = {o.value, 0, 0, kNoSuspect, kNoSuspect};
      ++used;
    }
    if (o.outcome) {
      ++g->taken;
      g->last_taken = o.thread;
    } else {
      ++g->not_taken;
      g->last_not_taken = o.thread;
    }
  }
  for (const Group* g = groups; g != groups + used; ++g) {
    if (g->taken == 0 || g->not_taken == 0) continue;
    // A lone minority inside a group is the suspect; a tie (e.g. 1 vs 1)
    // identifies a violation but no particular thread.
    if (g->taken == 1 && g->not_taken > 1) return g->last_taken;
    if (g->not_taken == 1 && g->taken > 1) return g->last_not_taken;
    return kNoSuspect;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::uint32_t> check_instance(CheckCode check,
                                            Observations observations) {
  switch (check) {
    case CheckCode::SharedOutcome: return check_shared(observations);
    case CheckCode::ThreadIdEq: return check_threadid_eq(observations);
    case CheckCode::ThreadIdMonotone:
      return check_threadid_monotone(observations);
    case CheckCode::PartialValue: return check_partial(observations);
  }
  return std::nullopt;
}

}  // namespace bw::runtime
