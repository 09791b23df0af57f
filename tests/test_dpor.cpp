// The DPOR model checker (src/sim/explore.hpp) on the unmutated tree:
// the litmus configs shared with the seeded-bug corpus must explore to
// completion (no budget hit, no bound pruning) with zero oracle
// violations; exploration must be deterministic run-to-run; a seeded
// AB-BA deadlock must be caught; and the stress harness's exhaustive
// policy must round-trip replay specs without disturbing pre-existing
// lines.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "dpor_litmus.hpp"
#include "pq/pq.hpp"
#include "verify/stress.hpp"

namespace fpq {
namespace {

using dpor_litmus::explore_bounded_counter;
using dpor_litmus::explore_funnel_counter;
using dpor_litmus::explore_funnel_stack;
using dpor_litmus::explore_hazard;
using dpor_litmus::explore_mcs;
using dpor_litmus::explore_reactive;
using verify::spec_from_line;
using verify::StressSpec;
using verify::to_line;

void expect_clean_and_complete(const sim::ExploreOutcome& out) {
  EXPECT_FALSE(out.violation) << "execution " << out.violating_exec << ": "
                              << out.diagnostic;
  EXPECT_TRUE(out.stats.complete()) << sim::to_string(out.stats);
  EXPECT_GT(out.stats.executions, 1u)
      << "a one-execution exploration means the litmus has no concurrency";
}

// Pinned funnel oracles: the exact size of each funnel litmus's explored
// space. Every shared access and P::rnd() draw of the funnel code is a
// potential choice point, so these counts change whenever a processor's
// access sequence does. A behaviour-preserving refactor must leave them
// identical; any change to these numbers must be explained in the DPOR
// table of EXPERIMENTS.md.
void expect_explored(const sim::ExploreOutcome& out, u64 executions, u64 steps) {
  expect_clean_and_complete(out);
  EXPECT_EQ(out.stats.executions, executions) << sim::to_string(out.stats);
  EXPECT_EQ(out.stats.steps, steps) << sim::to_string(out.stats);
}

// ---- Acceptance configs: these exact scenarios are re-run, mutated, by
// test_dpor_corpus.cpp. Completion here is what makes corpus detection
// meaningful.

TEST(DporLitmus, FunnelCounterExchangeCompletesClean) {
  expect_explored(explore_funnel_counter(FunnelProtocol::kExchange, 2, 1), 33, 889);
}

TEST(DporLitmus, FunnelCounterAggregateCompletesClean) {
  expect_explored(explore_funnel_counter(FunnelProtocol::kAggregate, 2, 2), 63938, 3101680);
}

TEST(DporLitmus, FunnelStackCompletesClean) {
  expect_explored(explore_funnel_stack(2), 14528, 1757594);
}

// Bounded mode (fai against bfad): the only rows that model-check the
// counter's full and partial elimination, which FunnelTree's BFaD runs.
TEST(DporLitmus, BoundedFunnelCounterExchangeCompletesClean) {
  expect_explored(explore_bounded_counter(FunnelProtocol::kExchange), 33, 758);
}

TEST(DporLitmus, BoundedFunnelCounterAggregateCompletesClean) {
  expect_explored(explore_bounded_counter(FunnelProtocol::kAggregate), 304, 7604);
}

// The stack's aggregate path: representative close inside the MCS
// section, positional verdicts after the unlock.
TEST(DporLitmus, FunnelStackAggregateCompletesClean) {
  expect_explored(dpor_litmus::explore_funnel_stack_aggregate(), 5801, 738794);
}

TEST(DporLitmus, McsHandoffThreeProcsCompletesClean) {
  expect_clean_and_complete(explore_mcs(3));
}

// The reactive and hazard litmuses are the corpus baselines for the other
// two mutations. Reactive's mode-switch drain contains a pause-spin, so
// its schedule space is the largest here; it must still be clean within
// the default budgets (and is expected to complete — see EXPERIMENTS.md).
TEST(DporLitmus, ReactiveCounterUnmutatedClean) {
  expect_clean_and_complete(explore_reactive(2, 1));
}

// A preemption bound must prune honestly: fewer executions than the full
// exploration, the skipped candidates counted, and the qualification flag
// raised so a clean result is never mistaken for a proof.
TEST(DporLitmus, PreemptionBoundPrunesHonestly) {
  const auto full = explore_reactive(2, 1);
  sim::ExploreParams ep;
  ep.preempt_bound = 3;
  const auto bounded = explore_reactive(2, 1, ep);
  EXPECT_FALSE(bounded.violation) << bounded.diagnostic;
  EXPECT_TRUE(bounded.stats.preempt_bound_hit) << sim::to_string(bounded.stats);
  EXPECT_FALSE(bounded.stats.complete());
  EXPECT_GT(bounded.stats.bound_skipped, 0u);
  EXPECT_LT(bounded.stats.executions, full.stats.executions)
      << "bounded: " << sim::to_string(bounded.stats)
      << " full: " << sim::to_string(full.stats);
}

TEST(DporLitmus, HazardHandshakeUnmutatedClean) {
  expect_clean_and_complete(explore_hazard());
}

// ---- Determinism: two back-to-back explorations of the same scenario
// must make identical scheduling decisions (same execution count, same
// pruning, same depth). This is what makes a replay spec's trace index
// meaningful.
TEST(DporLitmus, ExplorationIsDeterministic) {
  for (auto proto : {FunnelProtocol::kExchange, FunnelProtocol::kAggregate}) {
    const auto a = explore_funnel_counter(proto, 2, 2);
    const auto b = explore_funnel_counter(proto, 2, 2);
    EXPECT_EQ(sim::to_string(a.stats), sim::to_string(b.stats));
    EXPECT_EQ(a.violation, b.violation);
    EXPECT_EQ(a.violating_exec, b.violating_exec);
  }
}

// ---- Positive controls on a textbook AB-BA lock cycle. With the full
// oracle stack, the lock-order checker convicts the *first* execution —
// the inversion is visible in every schedule, deadlocking or not. With
// the detector oracle muted, the explorer must keep searching until it
// builds an actually-deadlocking schedule and report that instead of
// aborting the engine.

sim::ExploreOutcome explore_abba(bool consult_detector) {
  return sim::explore_all(
      2, dpor_litmus::litmus_machine(), /*seed=*/1, {},
      [&](sim::Engine& eng, std::string& diag) {
        McsLock<SimPlatform> a(2);
        McsLock<SimPlatform> b(2);
        eng.run([&](ProcId id) {
          if (id == 0) {
            McsGuard<SimPlatform> ga(a);
            McsGuard<SimPlatform> gb(b);
          } else {
            McsGuard<SimPlatform> gb(b);
            McsGuard<SimPlatform> ga(a);
          }
        });
        if (eng.explorer()->deadlocked()) return false;
        if (consult_detector) {
          diag = dpor_litmus::detector_findings(eng);
          return diag.empty();
        }
        return true;
      });
}

TEST(DporLitmus, LockOrderOracleConvictsAbbaFirst) {
  const auto out = explore_abba(/*consult_detector=*/true);
  ASSERT_TRUE(out.violation) << sim::to_string(out.stats);
  EXPECT_NE(out.diagnostic.find("lock-order"), std::string::npos) << out.diagnostic;
}

TEST(DporLitmus, CatchesAbbaDeadlock) {
  const auto out = explore_abba(/*consult_detector=*/false);
  ASSERT_TRUE(out.violation) << sim::to_string(out.stats);
  EXPECT_TRUE(out.stats.deadlock) << out.diagnostic;
  EXPECT_NE(out.diagnostic.find("deadlock"), std::string::npos) << out.diagnostic;
}

// ---- Harness integration: a full stress scenario (mixed phase, drain,
// conservation + linearizability oracles) explored exhaustively.

StressSpec tiny_exhaustive_spec() {
  StressSpec s;
  s.algo = Algorithm::kSingleLock;
  s.policy = sim::SchedulePolicy::kExhaustive;
  s.seed = 1;
  s.nprocs = 2;
  s.ops_per_proc = 1;
  s.npriorities = 2;
  s.check_lin = true;
  return s;
}

// The explored space's exact size pins the harness's mixed phase: every
// shared access and P::rnd() draw of run_one_execution's loops is a
// choice point, so a change to the point or batched loop that moves one
// access changes these counts.
void expect_scenario_explored(const StressSpec& s, u64 executions, u64 steps) {
  const auto r = verify::run_exhaustive(s);
  EXPECT_FALSE(r.failure.has_value()) << verify::format_failure(*r.failure);
  EXPECT_TRUE(r.stats.complete()) << sim::to_string(r.stats);
  EXPECT_EQ(r.stats.executions, executions) << sim::to_string(r.stats);
  EXPECT_EQ(r.stats.steps, steps) << sim::to_string(r.stats);
}

TEST(DporHarness, SingleLockScenarioExploresClean) {
  expect_scenario_explored(tiny_exhaustive_spec(), 21, 703);
}

TEST(DporHarness, BatchedSingleLockScenarioExploresClean) {
  // The insert_batch / delete_min_batch branch: at seed 1 processor 0
  // issues one delete_min_batch of two and processor 1 one insert_batch
  // of two.
  StressSpec s = tiny_exhaustive_spec();
  s.batch = 2;
  s.ops_per_proc = 2;
  expect_scenario_explored(s, 413, 23173);
}

// ---- Replay-spec grammar: the exhaustive keys round-trip, `schedule=`
// is accepted as an alias for `policy=`, and non-exhaustive lines are
// byte-identical to the pre-existing grammar (no new keys leak in).

TEST(DporHarness, ExhaustiveSpecRoundTrips) {
  StressSpec s = tiny_exhaustive_spec();
  s.preempt_bound = 3;
  s.max_execs = 4096;
  s.trace = 17;
  const std::string line = to_line(s);
  EXPECT_NE(line.find("policy=exhaustive"), std::string::npos) << line;
  EXPECT_NE(line.find("preempt_bound=3"), std::string::npos) << line;
  EXPECT_NE(line.find("max_execs=4096"), std::string::npos) << line;
  EXPECT_NE(line.find("trace=17"), std::string::npos) << line;

  const StressSpec r = spec_from_line(line);
  EXPECT_EQ(to_line(r), line);
  EXPECT_EQ(r.preempt_bound, 3u);
  EXPECT_EQ(r.max_execs, 4096u);
  EXPECT_EQ(r.trace, 17u);

  // trace= is informational and omitted while zero.
  s.trace = 0;
  EXPECT_EQ(to_line(s).find("trace="), std::string::npos) << to_line(s);

  // `schedule=` parses as an alias for `policy=`.
  std::string aliased = line;
  aliased.replace(aliased.find("policy="), 7, "schedule=");
  EXPECT_EQ(to_line(spec_from_line(aliased)), line);
}

TEST(DporHarness, PreexistingReplayLinesStayByteIdentical) {
  StressSpec s; // default policy: kSmallestClock
  const std::string line = to_line(s);
  EXPECT_EQ(line.find("preempt_bound"), std::string::npos) << line;
  EXPECT_EQ(line.find("max_execs"), std::string::npos) << line;
  EXPECT_EQ(line.find("trace"), std::string::npos) << line;
  EXPECT_EQ(to_line(spec_from_line(line)), line);
}

// ---- The injected bug the exhaustive harness must catch: one bin of
// SimpleLinear with the lock dropped (the same seeded fault the random
// policies hunt in test_stress.cpp, here shrunk to a 2x1-op scenario so
// only systematic exploration is doing the finding). Minimization under
// kExhaustive re-explores per shrink probe and must be deterministic.

class UnlockedBinQueue final : public IPriorityQueue<SimPlatform> {
 public:
  explicit UnlockedBinQueue(const PqParams& params)
      : npriorities_(params.npriorities), bins_(params.npriorities) {
    for (auto& b : bins_) b = std::make_unique<Bin>(params.bin_capacity);
  }

  bool insert(Prio prio, Item item) override {
    Bin& b = *bins_[prio];
    const u64 n = b.size.load(); // racy: no lock around load..store
    if (n >= b.elems.size()) return false;
    b.elems[n].store(item);
    b.size.store(n + 1);
    return true;
  }

  std::optional<Entry> delete_min() override {
    for (Prio p = 0; p < npriorities_; ++p) {
      Bin& b = *bins_[p];
      const u64 n = b.size.load();
      if (n == 0) continue;
      const Item e = b.elems[n - 1].load();
      b.size.store(n - 1);
      return Entry{p, e};
    }
    return std::nullopt;
  }

  u32 insert_batch(std::span<const Entry> entries) override {
    u32 accepted = 0;
    for (const Entry& e : entries)
      if (insert(e.prio, e.item)) ++accepted;
    return accepted;
  }

  u32 delete_min_batch(std::span<Entry> out) override {
    u32 got = 0;
    for (Entry& slot : out) {
      auto e = delete_min();
      if (!e) break;
      slot = *e;
      ++got;
    }
    return got;
  }

  PqStatus try_insert(Prio prio, Item item, const TryBudget&) override {
    return insert(prio, item) ? PqStatus::kOk : PqStatus::kTimeout;
  }
  PqStatus try_delete_min(Entry& out, const TryBudget&) override {
    auto e = delete_min();
    if (!e) return PqStatus::kEmpty;
    out = *e;
    return PqStatus::kOk;
  }
  u32 npriorities() const override { return npriorities_; }

 private:
  struct Bin {
    explicit Bin(u32 capacity) : elems(capacity) {}
    SimShared<u64> size{0};
    std::vector<SimShared<u64>> elems;
  };
  u32 npriorities_;
  std::vector<std::unique_ptr<Bin>> bins_;
};

verify::QueueFactory unlocked_factory() {
  return [](const PqParams& p) { return std::make_unique<UnlockedBinQueue>(p); };
}

verify::ExhaustiveResult hunt_unlocked_bin_exhaustively() {
  StressSpec s;
  s.algo = Algorithm::kSimpleLinear; // label for the dump; factory overrides
  s.policy = sim::SchedulePolicy::kExhaustive;
  s.nprocs = 2;
  s.ops_per_proc = 1;
  s.npriorities = 1;
  s.insert_percent = 100; // both ops insert into the one racy bin
  for (u64 seed = 1; seed <= 4; ++seed) {
    s.seed = seed;
    auto r = verify::run_exhaustive_with(unlocked_factory(), s,
                                         verify::ScenarioChecks{});
    if (r.failure.has_value()) return r;
  }
  return {};
}

TEST(DporHarness, CatchesDroppedBinLockSystematically) {
  const auto r = hunt_unlocked_bin_exhaustively();
  ASSERT_TRUE(r.failure.has_value())
      << "two racing 1-op inserts survived exhaustive exploration: "
      << sim::to_string(r.stats);
  EXPECT_EQ(r.failure->kind, "conservation");
  EXPECT_EQ(r.failure->spec.trace, r.failing_exec);
  const std::string line = to_line(r.failure->spec);
  EXPECT_NE(line.find("trace="), std::string::npos) << line;
}

TEST(DporHarness, MinimizerIsDeterministicUnderExhaustive) {
  const auto found = hunt_unlocked_bin_exhaustively();
  ASSERT_TRUE(found.failure.has_value());
  const verify::StressFailure a =
      verify::minimize_with(unlocked_factory(), *found.failure, verify::ScenarioChecks{});
  const verify::StressFailure b =
      verify::minimize_with(unlocked_factory(), *found.failure, verify::ScenarioChecks{});
  EXPECT_EQ(to_line(a.spec), to_line(b.spec));
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.trace.size(), b.trace.size());

  // The minimized line replays to the same failure from scratch.
  const auto again = verify::run_exhaustive_with(
      unlocked_factory(), spec_from_line(to_line(a.spec)), verify::ScenarioChecks{});
  ASSERT_TRUE(again.failure.has_value()) << "minimized counterexample did not replay";
  EXPECT_EQ(again.failure->kind, a.kind);
}

} // namespace
} // namespace fpq
