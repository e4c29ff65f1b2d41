// Reference-oracle test for BranchTable: a test-only model of the
// two-level table written the straightforward way (std::map per level, a
// sequence number per instance, a scan for the oldest instance to evict)
// is replayed side by side with the flat BranchTable. They must agree
// exactly on the sorted violation tuples (suspect thread included) and on
// the checked / evicted / skipped counters, over
//   * the report streams of randomized kernels (tests/kernel_generator.h),
//     recorded as the monitor differential suite records them, and
//   * seeded synthetic streams: 2-8 threads, shuffled interleavings, all
//     four CheckCodes, several pending caps, `degraded` toggling, and
//     finalize()/clear() calls in mid-stream, and
//   * the same over keys that alias in the table's 64-entry level-1 memo:
//     static_ids equal mod 64, and one static_id under many contexts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "kernel_generator.h"
#include "pipeline/pipeline.h"
#include "runtime/block_cache.h"
#include "runtime/branch_table.h"
#include "support/prng.h"
#include "test_support.h"
#include "vm/machine.h"

namespace {

using namespace bw;
using runtime::BranchReport;
using runtime::CheckCode;
using runtime::ThreadObservation;

using ViolationTuple = std::tuple<std::uint32_t, std::uint64_t,
                                  std::uint64_t, std::uint8_t, std::uint32_t>;

std::vector<ViolationTuple> sorted_tuples(
    const std::vector<runtime::Violation>& violations) {
  std::vector<ViolationTuple> out;
  for (const runtime::Violation& v : violations) {
    out.emplace_back(v.static_id, v.ctx_hash, v.iter_hash,
                     static_cast<std::uint8_t>(v.check), v.suspect_thread);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The two-level algorithm, step by step: level 1 maps the combined
/// (ctx, static_id) key to a branch, level 2 maps the iteration hash to an
/// instance. An over-cap branch evicts its oldest instance other than the
/// one being filed.
class OracleTable {
 public:
  OracleTable(unsigned num_threads, std::size_t cap)
      : num_threads_(num_threads), cap_(cap) {}

  void process(const BranchReport& r, bool degraded) {
    const std::uint64_t key1 = support::hash_combine(r.ctx_hash, r.static_id);
    names_.emplace(key1, std::make_pair(r.static_id, r.ctx_hash));
    auto& instances = table_[key1];
    auto [it, inserted] = instances.try_emplace(r.iter_hash);
    Instance& inst = it->second;
    if (inserted) {
      inst.observations.resize(num_threads_);
      for (unsigned t = 0; t < num_threads_; ++t) {
        inst.observations[t].thread = t;
      }
      inst.check = r.check;
      inst.sequence = next_sequence_++;
      maybe_evict(key1, r.iter_hash, degraded);
    }
    ThreadObservation& obs = inst.observations[r.thread];
    if (r.check == CheckCode::PartialValue) {
      obs.has_value = true;
      obs.value = r.value;
    }
    if (!obs.has_outcome) ++inst.outcomes;
    obs.has_outcome = true;
    obs.outcome = r.outcome;
    if (inst.outcomes == num_threads_) {
      check(key1, r.iter_hash, inst);
      instances.erase(r.iter_hash);
    }
  }

  void finalize(bool degraded) {
    for (auto& [key1, instances] : table_) {
      for (auto& [iter_hash, inst] : instances) {
        if (inst.outcomes < 2) continue;
        if (degraded && inst.outcomes < num_threads_) {
          ++skipped;
          continue;
        }
        check(key1, iter_hash, inst);
      }
    }
    table_.clear();
  }

  void clear() {
    table_.clear();
    names_.clear();
    violations.clear();
  }

  std::vector<runtime::Violation> violations;
  std::uint64_t checked = 0;
  std::uint64_t evicted = 0;
  std::uint64_t skipped = 0;

 private:
  struct Instance {
    std::vector<ThreadObservation> observations;
    unsigned outcomes = 0;
    CheckCode check = CheckCode::SharedOutcome;
    std::uint64_t sequence = 0;
  };

  void maybe_evict(std::uint64_t key1, std::uint64_t filing, bool degraded) {
    auto& instances = table_[key1];
    if (instances.size() <= cap_) return;
    auto oldest = instances.end();
    for (auto it = instances.begin(); it != instances.end(); ++it) {
      if (it->first == filing) continue;
      if (oldest == instances.end() ||
          it->second.sequence < oldest->second.sequence) {
        oldest = it;
      }
    }
    if (oldest == instances.end()) return;
    if (oldest->second.outcomes >= 2) {
      if (degraded) {
        ++skipped;
      } else {
        check(key1, oldest->first, oldest->second);
      }
    }
    ++evicted;
    instances.erase(oldest);
  }

  void check(std::uint64_t key1, std::uint64_t iter_hash,
             const Instance& inst) {
    ++checked;
    auto suspect = runtime::check_instance(inst.check, inst.observations);
    if (!suspect) return;
    runtime::Violation v;
    v.static_id = names_[key1].first;
    v.ctx_hash = names_[key1].second;
    v.iter_hash = iter_hash;
    v.check = inst.check;
    v.suspect_thread = *suspect;
    violations.push_back(v);
  }

  unsigned num_threads_;
  std::size_t cap_;
  std::map<std::uint64_t, std::map<std::uint64_t, Instance>> table_;
  std::map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>> names_;
  std::uint64_t next_sequence_ = 0;
};

void expect_same(const OracleTable& oracle, const runtime::BranchTable& table,
                 const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(sorted_tuples(oracle.violations),
            sorted_tuples(table.violations()));
  EXPECT_EQ(oracle.checked, table.instances_checked());
  EXPECT_EQ(oracle.evicted, table.instances_evicted());
  EXPECT_EQ(oracle.skipped, table.instances_skipped());
}

/// One thread's reports for every instance it reaches, in program order.
using Streams = std::vector<std::vector<BranchReport>>;

/// Interleaves the streams at random, keeping each thread's own order.
std::vector<BranchReport> shuffle_interleave(const Streams& streams,
                                             support::SplitMixRng& rng) {
  std::vector<std::size_t> cursor(streams.size(), 0);
  std::vector<std::size_t> live;
  for (std::size_t t = 0; t < streams.size(); ++t) {
    if (!streams[t].empty()) live.push_back(t);
  }
  std::vector<BranchReport> order;
  while (!live.empty()) {
    const std::size_t pick = rng.next_below(live.size());
    const std::size_t t = live[pick];
    order.push_back(streams[t][cursor[t]++]);
    if (cursor[t] == streams[t].size()) {
      live[pick] = live.back();
      live.pop_back();
    }
  }
  return order;
}

/// How synthetic_streams names its branch keys.
enum class Keys {
  Few,        // up to 6 keys over 3 static_ids and 2 contexts
  MemoAlias,  // up to 12 keys that all share one level-1 memo entry
};

/// Synthetic streams: a handful of branch keys over every CheckCode, most
/// threads reaching most instances, legal outcome patterns with sparse
/// flips, now and then a repeated report, and partial values that are
/// sometimes unique to their thread (a group of one, which never fires).
/// MemoAlias keys alternate between static_ids 7, 71, 135, ... (equal
/// mod 64) under one context and static_id 7 under a context per key.
Streams synthetic_streams(unsigned threads, support::SplitMixRng& rng,
                          Keys shape = Keys::Few) {
  Streams streams(threads);
  const bool alias = shape == Keys::MemoAlias;
  const unsigned keys =
      1 + static_cast<unsigned>(rng.next_below(alias ? 12 : 6));
  for (unsigned k = 0; k < keys; ++k) {
    const auto check = static_cast<CheckCode>(rng.next_below(4));
    const std::uint32_t static_id = !alias       ? 1 + k % 3
                                    : k % 2 == 0 ? 7 + 64 * (k / 2)
                                                 : 7;
    const std::uint64_t ctx = !alias       ? 100 + k / 3
                              : k % 2 == 0 ? 100
                                           : 100 + k;
    const unsigned iterations = 20 + static_cast<unsigned>(rng.next_below(80));
    for (unsigned i = 0; i < iterations; ++i) {
      const unsigned boundary =
          static_cast<unsigned>(rng.next_below(threads + 1));
      for (unsigned t = 0; t < threads; ++t) {
        if (rng.next_below(8) == 0) continue;  // divergent control
        BranchReport r;
        r.static_id = static_id;
        r.ctx_hash = ctx;
        r.iter_hash = i;
        r.thread = t;
        r.check = check;
        if (check == CheckCode::PartialValue) {
          r.value = rng.next_below(5) != 0 ? t % 3 : 1000 + t;
        }
        r.outcome = check == CheckCode::ThreadIdMonotone ? t < boundary
                    : check == CheckCode::ThreadIdEq     ? t == boundary
                    : check == CheckCode::PartialValue   ? t % 3 == 1
                                                         : i % 2 == 0;
        if (rng.next_below(20) == 0) r.outcome = !r.outcome;
        streams[t].push_back(r);
        if (rng.next_below(50) == 0) streams[t].push_back(r);
      }
    }
  }
  return streams;
}

/// What a table replay ends with: its violations and counters.
using ReplayResult = std::tuple<std::vector<ViolationTuple>, std::uint64_t,
                                std::uint64_t, std::uint64_t>;

/// Replays `order` through the table and the model at pending cap `cap`,
/// with `degraded` toggling and finalize()/clear() in mid-stream as
/// `events` rolls, and returns what the table ended with.
ReplayResult replay_once(const std::vector<BranchReport>& order,
                         unsigned threads, std::size_t cap,
                         support::SplitMixRng events,
                         const std::string& where) {
  OracleTable oracle(threads, cap);
  runtime::BranchTable table(threads, cap);
  bool degraded = false;
  for (std::size_t i = 0; i < order.size(); ++i) {
    oracle.process(order[i], degraded);
    table.process(order[i], degraded);
    const std::uint64_t roll = events.next_below(1000);
    if (roll < 4) degraded = !degraded;
    if (roll == 4) {
      oracle.finalize(degraded);
      table.finalize(degraded);
    }
    if (roll == 5) {
      expect_same(oracle, table,
                  where + " before clear at " + std::to_string(i));
      oracle.clear();
      table.clear();
    }
  }
  oracle.finalize(degraded);
  table.finalize(degraded);
  expect_same(oracle, table, where);
  return {sorted_tuples(table.violations()), table.instances_checked(),
          table.instances_evicted(), table.instances_skipped()};
}

/// Replays seed `seed`'s synthetic streams of key shape `shape` at several
/// pending caps, each twice: the second table is built on the chunks and
/// cell index the first one left in the BlockCache, and must end with the
/// same violations and counters, so no observation of the first replay
/// leaks into it.
void replay_synthetic(std::uint64_t seed, Keys shape) {
  support::SplitMixRng rng(seed);
  const unsigned threads = 2 + static_cast<unsigned>(rng.next_below(7));
  const std::vector<BranchReport> order =
      shuffle_interleave(synthetic_streams(threads, rng, shape), rng);
  for (std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{4}, std::size_t{1} << 15}) {
    const std::string where = "seed=" + std::to_string(seed) +
                              " threads=" + std::to_string(threads) +
                              " cap=" + std::to_string(cap);
    const support::SplitMixRng events(seed * 31 + cap);
    const ReplayResult first = replay_once(order, threads, cap, events, where);
    const std::uint64_t hits = runtime::BlockCache::instance().stats().hits;
    const ReplayResult second =
        replay_once(order, threads, cap, events, where + " recycled");
    EXPECT_GT(runtime::BlockCache::instance().stats().hits, hits)
        << where << ": the second table got no recycled block";
    EXPECT_EQ(second, first) << where;
  }
}

class BranchTableOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BranchTableOracle, SyntheticStreamsMatchTheTwoLevelModel) {
  replay_synthetic(GetParam(), Keys::Few);
}

TEST_P(BranchTableOracle, MemoAliasingStreamsMatchTheTwoLevelModel) {
  replay_synthetic(GetParam(), Keys::MemoAlias);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchTableOracle,
                         ::testing::Range<std::uint64_t>(1, 41));

class BranchTableKernelOracle
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BranchTableKernelOracle, KernelStreamsMatchTheTwoLevelModel) {
  constexpr unsigned kThreads = 4;
  const std::uint64_t seed = GetParam();
  test::ProgramGenerator generator(seed);
  const std::string source = generator.generate();
  SCOPED_TRACE(source);
  pipeline::CompiledProgram program;
  ASSERT_NO_THROW(program = pipeline::protect_program(source));
  test::RecorderSink recorder(kThreads);
  vm::RunOptions options;
  options.num_threads = kThreads;
  options.monitor = &recorder;
  options.stop_on_detection = false;
  ASSERT_TRUE(vm::run_program(*program.module, options).ok);

  // Flip a sparse subset of one thread's outcomes so there is something
  // to disagree about.
  Streams faulted = recorder.streams();
  std::size_t index = 0;
  for (BranchReport& r : faulted[seed % kThreads]) {
    if (index++ % 31 == 7) {
      r.outcome = !r.outcome;
    }
  }
  support::SplitMixRng rng(seed);
  const Streams* inputs[] = {&recorder.streams(), &faulted};
  for (const Streams* streams : inputs) {
    const std::vector<BranchReport> order = shuffle_interleave(*streams, rng);
    for (std::size_t cap : {std::size_t{1}, std::size_t{4},
                            std::size_t{1} << 15}) {
      OracleTable oracle(kThreads, cap);
      runtime::BranchTable table(kThreads, cap);
      for (const BranchReport& r : order) {
        oracle.process(r, false);
        table.process(r, false);
      }
      oracle.finalize(false);
      table.finalize(false);
      expect_same(oracle, table,
                  "seed=" + std::to_string(seed) +
                      " cap=" + std::to_string(cap) +
                      (streams == &faulted ? " faulted" : " clean"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchTableKernelOracle,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
