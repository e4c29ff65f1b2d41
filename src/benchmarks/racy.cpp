// Racy diagnostic kernels: deliberately broken BW-C programs used to
// exercise the static race checker and the dynamic race oracle from the
// findings side (`bwc race` exit code 8, tests/static_analysis_test.cpp).
// They are registered behind find_benchmark() (bench:racy_sum,
// bench:racy_guard, bench:racy_flag) but kept out of all_benchmarks() and
// service_benchmarks() so no evaluation harness, campaign, or serve lane
// ever runs them by accident — they are findable, not enumerable.
#include "benchmarks/registry.h"

namespace bw::benchmarks {

// Unprotected read-modify-write of one shared accumulator: the classic
// lost-update race. Every thread's `total = total + local` is a plain
// load/store pair on the same word in the same barrier phase with no lock,
// so the static checker has no certificate and the Eraser-style oracle
// flags the pair on every schedule (detection does not depend on an
// actual lost update occurring).
const char* racy_sum_source() {
  return R"BWC(
global int N = 64;
global int total = 0;

func slave() {
  int id = tid();
  int p = nthreads();
  int local = 0;
  for (int i = id; i < N; i = i + p) {
    local = local + i;
  }
  // BUG: shared accumulation without lock() or atomic_add().
  total = total + local;
  barrier();
  if (id == 0) {
    print_i(total);
  }
}
)BWC";
}

// Mismatched lock discipline: both arms guard the same counter, but even
// threads take lock 0 and odd threads take lock 1, so cross-parity pairs
// hold no common lock. The lock-dominator analysis correctly refuses the
// lock certificate and the oracle sees disjoint locksets on the same word.
const char* racy_guard_source() {
  return R"BWC(
global int ROUNDS = 16;
global int counter = 0;

func slave() {
  int id = tid();
  for (int r = 0; r < ROUNDS; r = r + 1) {
    if (id % 2 == 0) {
      lock(0);
      counter = counter + 1;
      unlock(0);
    } else {
      // BUG: guards the same counter with a different lock.
      lock(1);
      counter = counter + 1;
      unlock(1);
    }
  }
  barrier();
  if (id == 0) {
    print_i(counter);
  }
}
)BWC";
}

// Unlocked flag handoff: thread 0 does a little work, then publishes with
// a plain store to `flag`, while every thread spins on a plain load of it
// before the barrier. The spin's `while.cond` branch reads the same word
// in every thread, so the instrumenter classes it `shared`, and its
// operand is exactly the racy read. Each thread evaluates the condition
// at least once in the writer's barrier phase, so the oracle flags the
// write/read pair on every schedule; the writer loop stays short so the
// spin does too.
const char* racy_flag_source() {
  return R"BWC(
global int WORK = 64;
global int flag = 0;
global int total = 0;

func slave() {
  int id = tid();
  if (id == 0) {
    int s = 0;
    for (int i = 0; i < WORK; i = i + 1) {
      s = s + i;
    }
    total = s;
    // BUG: publishes with a plain store, no lock() or atomic_add().
    flag = 1;
  }
  // BUG: unlocked poll of a word another thread writes in this phase.
  while (flag == 0) {
  }
  barrier();
  if (id == 0) {
    print_i(total);
  }
}
)BWC";
}

}  // namespace bw::benchmarks
