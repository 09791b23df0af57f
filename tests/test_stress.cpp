// Tier-1 smoke tests of the stress harness (src/verify/stress.hpp): spec
// serialization round-trips, clean algorithms pass every policy, and —
// the reason the harness exists — a queue with a deliberately dropped bin
// lock is caught with a minimized, replayable counterexample.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platform/sim.hpp"
#include "verify/stress.hpp"

namespace fpq {
namespace {

using verify::run_scenario;
using verify::run_scenario_with;
using verify::ScenarioChecks;
using verify::spec_from_line;
using verify::StressFailure;
using verify::StressSpec;
using verify::to_line;

TEST(StressSpec, LineRoundTripsEveryField) {
  // Sharded + exhaustive so every conditional key is written; faults are
  // set too (the two are only exclusive when a scenario runs, not here).
  StressSpec s;
  s.algo = Algorithm::kSharded;
  s.policy = sim::SchedulePolicy::kExhaustive;
  s.seed = 9876543210ull;
  s.nprocs = 7;
  s.ops_per_proc = 19;
  s.npriorities = 5;
  s.insert_percent = 73;
  s.perturb_permille = 401;
  s.max_delay = 999;
  s.access_jitter = 17;
  s.batch = 6;
  s.funnel = FunnelProtocol::kAggregate;
  s.shards = 5;
  s.sample_c = 2;
  s.shard_mode = ShardPolicyKind::kDelegate;
  s.check_lin = true;
  s.race_detect = true;
  s.faults = sim::fault_plan_from_string("stall@p0a200n1000,casfail@p2a50n8");
  s.watchdog = 30000;
  s.preempt_bound = 4;
  s.max_execs = 777;
  s.trace = 12;
  const StressSpec r = spec_from_line(to_line(s));
  EXPECT_EQ(r.algo, s.algo);
  EXPECT_EQ(r.policy, s.policy);
  EXPECT_EQ(r.seed, s.seed);
  EXPECT_EQ(r.nprocs, s.nprocs);
  EXPECT_EQ(r.ops_per_proc, s.ops_per_proc);
  EXPECT_EQ(r.npriorities, s.npriorities);
  EXPECT_EQ(r.insert_percent, s.insert_percent);
  EXPECT_EQ(r.perturb_permille, s.perturb_permille);
  EXPECT_EQ(r.max_delay, s.max_delay);
  EXPECT_EQ(r.access_jitter, s.access_jitter);
  EXPECT_EQ(r.batch, s.batch);
  EXPECT_EQ(r.funnel, s.funnel);
  EXPECT_EQ(r.shards, s.shards);
  EXPECT_EQ(r.sample_c, s.sample_c);
  EXPECT_EQ(r.shard_mode, s.shard_mode);
  EXPECT_EQ(r.check_lin, s.check_lin);
  EXPECT_EQ(r.race_detect, s.race_detect);
  EXPECT_EQ(sim::to_string(r.faults), sim::to_string(s.faults));
  EXPECT_EQ(r.watchdog, s.watchdog);
  EXPECT_EQ(r.preempt_bound, s.preempt_bound);
  EXPECT_EQ(r.max_execs, s.max_execs);
  EXPECT_EQ(r.trace, s.trace);
}

// Replay lines are the compatibility contract: counterexamples pasted
// into bug reports must keep replaying. These literals pin the exact text.
TEST(StressSpec, ReplayLinesMatchGoldenText) {
  const std::string default_line =
      "algo=SingleLock policy=smallest-clock seed=1 procs=4 ops=12 nprio=8 ins=60 "
      "permille=250 maxdelay=256 jitter=0 batch=1 funnel=exchange lin=0 race=0";
  EXPECT_EQ(to_line(StressSpec{}), default_line);

  StressSpec x;
  x.algo = Algorithm::kSharded;
  x.policy = sim::SchedulePolicy::kExhaustive;
  x.seed = 42;
  x.nprocs = 3;
  x.ops_per_proc = 2;
  x.npriorities = 4;
  x.insert_percent = 75;
  x.perturb_permille = 100;
  x.max_delay = 64;
  x.access_jitter = 8;
  x.batch = 2;
  x.funnel = FunnelProtocol::kAggregate;
  x.shards = 4;
  x.sample_c = 2;
  x.shard_mode = ShardPolicyKind::kDirect;
  x.check_lin = true;
  x.race_detect = true;
  x.preempt_bound = 2;
  x.max_execs = 5000;
  x.trace = 9;
  const std::string exhaustive_line =
      "algo=Sharded policy=exhaustive seed=42 procs=3 ops=2 nprio=4 ins=75 permille=100 "
      "maxdelay=64 jitter=8 batch=2 funnel=aggregate shards=4 c=2 mode=direct "
      "lin=1 race=1 preempt_bound=2 max_execs=5000 trace=9";
  EXPECT_EQ(to_line(x), exhaustive_line);

  StressSpec f;
  f.algo = Algorithm::kFunnelTree;
  f.policy = sim::SchedulePolicy::kRandomPreempt;
  f.seed = 3;
  f.access_jitter = 64;
  f.faults = sim::fault_plan_from_string("crash@p1a300");
  f.watchdog = 30000;
  const std::string fault_line =
      "algo=FunnelTree policy=random-preempt seed=3 procs=4 ops=12 nprio=8 ins=60 "
      "permille=250 maxdelay=256 jitter=64 batch=1 funnel=exchange lin=0 race=0 "
      "faults=crash@p1a300 watchdog=30000";
  EXPECT_EQ(to_line(f), fault_line);

  // The example counterexample line in DESIGN.md §7 and README; the
  // `cli_StressReplayDesignExample` ctest entry replays it.
  StressSpec d;
  d.algo = Algorithm::kFunnelTree;
  d.policy = sim::SchedulePolicy::kDelayLeader;
  d.seed = 17;
  d.access_jitter = 64;
  const std::string doc_line =
      "algo=FunnelTree policy=delay-leader seed=17 procs=4 ops=12 nprio=8 ins=60 "
      "permille=250 maxdelay=256 jitter=64 batch=1 funnel=exchange lin=0 race=0";
  EXPECT_EQ(to_line(d), doc_line);

  for (const std::string& line : {default_line, exhaustive_line, fault_line, doc_line})
    EXPECT_EQ(to_line(spec_from_line(line)), line);
}

TEST(StressSpec, RejectsMalformedLines) {
  EXPECT_THROW(spec_from_line("algo=NoSuchQueue"), std::invalid_argument);
  EXPECT_THROW(spec_from_line("policy=clock-of-doom"), std::invalid_argument);
  EXPECT_THROW(spec_from_line("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW(spec_from_line("algo"), std::invalid_argument);
  EXPECT_THROW(spec_from_line("procs=0"), std::invalid_argument);
  EXPECT_THROW(spec_from_line("batch=0"), std::invalid_argument);
  // The limits fpq_stress enforces on --insert-pct and --ops.
  EXPECT_THROW(spec_from_line("ins=101"), std::invalid_argument);
  EXPECT_THROW(spec_from_line("ops=0"), std::invalid_argument);
  EXPECT_THROW(spec_from_line("funnel=pairwise"), std::invalid_argument);
  // Numbers are whole decimals: no trailing text, no sign, nothing that
  // wraps around.
  EXPECT_THROW(spec_from_line("procs=3junk"), std::invalid_argument);
  EXPECT_THROW(spec_from_line("nprio=-1"), std::invalid_argument);
  // Retired keys: their scenarios no longer exist, so they must not replay
  // as different ones.
  EXPECT_THROW(spec_from_line("elim=2"), std::invalid_argument);
  EXPECT_THROW(spec_from_line("reclaim=ebr"), std::invalid_argument);
}

TEST(StressSpec, PolicyNamesParse) {
  EXPECT_EQ(verify::policy_from_string("smallest-clock"),
            sim::SchedulePolicy::kSmallestClock);
  EXPECT_EQ(verify::policy_from_string("random-preempt"),
            sim::SchedulePolicy::kRandomPreempt);
  EXPECT_EQ(verify::policy_from_string("delay-leader"),
            sim::SchedulePolicy::kDelayLeader);
  EXPECT_THROW(verify::policy_from_string("fifo"), std::invalid_argument);
}

TEST(StressScenario, CleanAlgorithmsPassEveryPolicy) {
  // A slice of the full `ctest -L stress` sweep, small enough for tier 1:
  // one lock-based and one funnel-based queue under all three policies.
  for (Algorithm algo : {Algorithm::kHuntEtAl, Algorithm::kFunnelTree}) {
    for (auto policy :
         {sim::SchedulePolicy::kSmallestClock, sim::SchedulePolicy::kRandomPreempt,
          sim::SchedulePolicy::kDelayLeader}) {
      for (u64 seed = 1; seed <= 2; ++seed) {
        StressSpec s;
        s.algo = algo;
        s.policy = policy;
        s.seed = seed;
        s.access_jitter = policy == sim::SchedulePolicy::kSmallestClock ? 0 : 64;
        const auto f = run_scenario(s);
        EXPECT_FALSE(f.has_value()) << verify::format_failure(*f);
      }
    }
  }
}

TEST(StressScenario, BatchedFunnelQueuesPassQuiescentChecks) {
  // Tier-1 slice of the `ctest -L batch` sweep: batch-sum merging and
  // partial elimination inside the funnels, under adversarial schedules,
  // against conservation + quiescent-rank + drain-order.
  for (Algorithm algo : {Algorithm::kLinearFunnels, Algorithm::kFunnelTree}) {
    for (auto policy :
         {sim::SchedulePolicy::kRandomPreempt, sim::SchedulePolicy::kDelayLeader}) {
      for (u32 batch : {3u, 5u}) {
        StressSpec s;
        s.algo = algo;
        s.policy = policy;
        s.seed = 2 + batch;
        s.batch = batch;
        s.access_jitter = 64;
        const auto f = run_scenario(s);
        EXPECT_FALSE(f.has_value()) << verify::format_failure(*f);
      }
    }
  }
}

TEST(StressScenario, BatchedSingleLockLinearizabilityGatePasses) {
  // Batched histories through the loop fallback must stay linearizable:
  // batch elements are recorded as mutually concurrent ops, so the
  // Wing-Gong checker also validates that widened-window bookkeeping.
  StressSpec s;
  s.algo = Algorithm::kSingleLock;
  s.policy = sim::SchedulePolicy::kDelayLeader;
  s.nprocs = 3;
  s.ops_per_proc = 4;
  s.batch = 2;
  s.access_jitter = 64;
  s.check_lin = true;
  for (u64 seed = 1; seed <= 4; ++seed) {
    s.seed = seed;
    const auto f = run_scenario(s);
    EXPECT_FALSE(f.has_value()) << verify::format_failure(*f);
  }
}

TEST(StressScenario, SingleLockLinearizabilityGatePasses) {
  StressSpec s;
  s.algo = Algorithm::kSingleLock;
  s.policy = sim::SchedulePolicy::kDelayLeader;
  s.nprocs = 3;
  s.ops_per_proc = 4;
  s.access_jitter = 64;
  s.check_lin = true;
  for (u64 seed = 1; seed <= 4; ++seed) {
    s.seed = seed;
    const auto f = run_scenario(s);
    EXPECT_FALSE(f.has_value()) << verify::format_failure(*f);
  }
}

// ---- The injected bug the harness must catch (acceptance criterion):
// SimpleLinear's per-priority bin with the MCS lock dropped. The
// load-then-store of the size word is no longer atomic, so overlapping
// inserts can claim the same slot and lose an item.
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

std::optional<StressFailure> hunt_unlocked_bin_bug() {
  for (auto policy :
       {sim::SchedulePolicy::kRandomPreempt, sim::SchedulePolicy::kDelayLeader}) {
    for (u64 seed = 1; seed <= 32; ++seed) {
      StressSpec s;
      s.algo = Algorithm::kSimpleLinear; // label for the dump; factory overrides
      s.policy = policy;
      s.seed = seed;
      s.access_jitter = 64;
      if (auto f = run_scenario_with(unlocked_factory(), s, ScenarioChecks{})) return f;
    }
  }
  return std::nullopt;
}

TEST(StressHarness, CatchesDroppedBinLock) {
  const auto found = hunt_unlocked_bin_bug();
  ASSERT_TRUE(found.has_value())
      << "an unlocked bin survived 2 policies x 32 seeds — the harness lost "
         "its teeth";
  EXPECT_EQ(found->kind, "conservation");
  EXPECT_FALSE(found->trace.empty());
}

TEST(StressHarness, CounterexampleMinimizesAndReplays) {
  auto found = hunt_unlocked_bin_bug();
  ASSERT_TRUE(found.has_value());
  const StressFailure small =
      verify::minimize_with(unlocked_factory(), *found, ScenarioChecks{});
  EXPECT_LE(small.spec.nprocs, found->spec.nprocs);
  EXPECT_LE(small.spec.ops_per_proc, found->spec.ops_per_proc);

  // The dump's replay line must reproduce the failure from scratch.
  const StressSpec replayed = spec_from_line(to_line(small.spec));
  const auto again = run_scenario_with(unlocked_factory(), replayed, ScenarioChecks{});
  ASSERT_TRUE(again.has_value()) << "minimized counterexample did not replay";
  EXPECT_EQ(again->kind, small.kind);
  EXPECT_EQ(again->trace.size(), small.trace.size()); // deterministic replay

  const std::string dump = verify::format_failure(small);
  EXPECT_NE(dump.find("replay:"), std::string::npos);
  EXPECT_NE(dump.find("conservation"), std::string::npos);
}

} // namespace
} // namespace fpq
