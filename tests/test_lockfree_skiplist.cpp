// Targeted tests for LockfreeSkipListPq (pq/lockfree_skiplist_pq.hpp):
// the delete-min-racing-insert-at-the-same-key regression, reclamation
// accounting, and restructure-heavy schedules driven through the verify
// harness's exhaustive linearizability checker on small histories.
//
// The same-key race is the spot where a marked-prefix design can go wrong:
// a delete_min claims the first live node with key k while an insert
// splices a *new* node with the same key k just in front of or behind it.
// If the claim CAS's expected word or the insert's search boundary is off
// by a tag bit, the pair either loses an entry (conservation) or returns
// the two k-entries in an order no sequential queue could produce
// (linearizability). Both checkers run here on purpose-built collision
// workloads: tiny priority ranges force every operation onto the same key.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "platform/sim.hpp"
#include "pq/lockfree_skiplist_pq.hpp"
#include "sim/faults.hpp"
#include "verify/stress.hpp"

namespace fpq {
namespace {

using reclaim::Policy;

// The parameterized suites below run under hazard pointers, the one
// reclamation scheme; their instance names carry its `Hp` prefix so they
// stay stable for result tracking.
struct SkiplistCase {
  u64 seed;
};

void PrintTo(const SkiplistCase& c, std::ostream* os) { *os << "Hp_s" << c.seed; }

class LockfreeSkipListSameKey : public ::testing::TestWithParam<SkiplistCase> {};

// The regression proper: single-key workload, exhaustive Wing-Gong check.
// Every insert and every delete_min collides on key 0, so each scenario is
// saturated with claim-vs-splice races at one skiplist position; any
// linearizability or conservation break is minimized and printed as a
// replayable spec.
TEST_P(LockfreeSkipListSameKey, DeleteMinRacingInsertLinearizes) {
  const u64 seed = GetParam().seed;
  verify::StressSpec spec;
  spec.algo = Algorithm::kLockfreeSkipList;
  spec.policy = sim::SchedulePolicy::kRandomPreempt;
  spec.seed = seed;
  spec.nprocs = 3;
  spec.ops_per_proc = 4; // history (12 + drain) stays inside the checker
  spec.npriorities = 1;  // every operation targets the same key
  spec.insert_percent = 50;
  spec.access_jitter = 64;
  spec.check_lin = true;
  if (auto f = verify::run_scenario(spec))
    FAIL() << verify::format_failure(verify::minimize(*f));
}

// Two keys, restructure-heavy (the sim bound is 4): the claimed-prefix
// boundary and tower unlinking run constantly while same-key pairs race.
TEST_P(LockfreeSkipListSameKey, TwoKeyRestructureChurnConserves) {
  const u64 seed = GetParam().seed;
  verify::StressSpec spec;
  spec.algo = Algorithm::kLockfreeSkipList;
  spec.policy = sim::SchedulePolicy::kDelayLeader;
  spec.seed = seed;
  spec.nprocs = 6;
  spec.ops_per_proc = 24;
  spec.npriorities = 2;
  spec.insert_percent = 55;
  spec.access_jitter = 64;
  if (auto f = verify::run_scenario(spec))
    FAIL() << verify::format_failure(verify::minimize(*f));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LockfreeSkipListSameKey,
                         ::testing::Values(SkiplistCase{1}, SkiplistCase{2}, SkiplistCase{3}),
                         ::testing::PrintToStringParamName());

// Reclamation accounting: a mixed load past the restructure bound must
// actually retire and (after quiescent flush at destruction) reclaim;
// nothing may sit in limbo once the queue is gone. The DomainStats
// snapshot is taken at quiescence, before teardown.
class LockfreeSkipListReclaim : public ::testing::TestWithParam<SkiplistCase> {};

TEST_P(LockfreeSkipListReclaim, RetiresAndReclaimsUnderMixedLoad) {
  const u64 seed = GetParam().seed;
  constexpr u32 kProcs = 8;
  constexpr u32 kPrios = 8;
  PqParams params{.npriorities = kPrios, .maxprocs = kProcs};
  params.seed = seed;
  LockfreeSkipListPq<SimPlatform> pq(params);
  u64 inserted = 0, removed = 0;
  sim::Engine eng(kProcs, {}, seed);
  eng.run([&](ProcId id) {
    for (u32 i = 0; i < 48; ++i) {
      SimPlatform::delay(SimPlatform::rnd(64));
      if (SimPlatform::rnd(100) < 60) {
        ASSERT_TRUE(pq.insert(static_cast<Prio>(SimPlatform::rnd(kPrios)),
                              (static_cast<u64>(id) << 24) | i));
        ++inserted;
      } else if (pq.delete_min()) {
        ++removed;
      }
    }
  });
  eng.run([&](ProcId id) {
    if (id != 0) return;
    while (pq.delete_min()) ++removed;
  });
  EXPECT_EQ(inserted, removed);
  const reclaim::DomainStats s = pq.reclaim_stats();
  EXPECT_GT(s.retired, 0u) << "restructure never retired a node";
  EXPECT_EQ(s.retired, s.reclaimed + s.in_limbo);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LockfreeSkipListReclaim,
                         ::testing::Values(SkiplistCase{9}),
                         ::testing::PrintToStringParamName());

// Stalled operations under hazard pointers: p0 runs inserts and
// delete_mins while a fault plan parks it, again and again, right after
// one of its shared accesses for long enough that p1..p3 claim,
// restructure, retire and scan past it. When p0 resumes, every node it
// still touches must have stayed protected. Without a sanitizer the test
// checks conservation and that nodes were really freed mid-run; under
// ASan (the CI asan job runs this reclaim battery) a node freed under a
// stalled traversal is a heap-use-after-free report.
TEST(LockfreeSkipListReclaimStall, StalledOperationsKeepTheirNodesUnderHp) {
  constexpr u32 kProcs = 4;
  constexpr u32 kPrios = 4;
  constexpr u32 kP0Ops = 24;
  // p0 stalls for kStallCycles after every kStallEvery-th access of its
  // first kStallSpan; each phase shifts the stall points by one access.
  constexpr u64 kStallEvery = 29;
  constexpr u64 kStallSpan = 2000;
  constexpr u64 kStallCycles = 50000;
  constexpr u64 kPhases = 4;
  for (u64 phase = 0; phase < kPhases; ++phase) {
    PqParams params{.npriorities = kPrios, .maxprocs = kProcs};
    params.reclaim_policy = Policy::kHazardPointer;
    LockfreeSkipListPq<SimPlatform> pq(params);
    sim::Engine eng(kProcs, {}, /*seed=*/phase + 1);
    sim::FaultPlan plan;
    for (u64 at = phase; at < kStallSpan; at += kStallEvery)
      plan.events.push_back({sim::FaultKind::kStall, 0, at, kStallCycles});
    eng.set_fault_plan(std::move(plan));
    u64 inserted = 0, removed = 0;
    bool p0_done = false;
    eng.run([&](ProcId id) {
      for (u32 i = 0; id == 0 ? i < kP0Ops : !p0_done; ++i) {
        if (SimPlatform::rnd(100) < 50) {
          ASSERT_TRUE(pq.insert(static_cast<Prio>(SimPlatform::rnd(kPrios)),
                                (static_cast<u64>(id) << 32) | i));
          ++inserted;
        } else if (pq.delete_min()) {
          ++removed;
        }
      }
      if (id == 0) p0_done = true;
    });
    eng.run([&](ProcId id) {
      if (id != 0) return;
      while (pq.delete_min()) ++removed;
    });
    EXPECT_EQ(inserted, removed) << "phase " << phase;
    const reclaim::DomainStats s = pq.reclaim_stats();
    EXPECT_GT(s.reclaimed, 0u) << "phase " << phase;
  }
}

// An insert stalled between its search and its tower splices: p0's
// search for key 1 through a run of key-0 nodes picks its preds, then a
// stall parks it while p1..p3 churn (delete_min, insert key 0) long
// enough to delete every one of those key-0 nodes, restructure them out
// and scan, freeing whatever no hazard protects. The stall moves one
// access at a time across p0's whole insert, because the window between
// the search and the top splice is only a few accesses wide. Each pred
// p0 still splices at must have stayed protected; under ASan a freed one
// is a heap-use-after-free report, without it the test checks
// conservation.
TEST(LockfreeSkipListReclaimStall, StalledInsertKeepsItsSplicePredsUnderHp) {
  constexpr u32 kProcs = 4;
  constexpr u32 kPrefill = 60;
  constexpr u64 kStallCycles = 100000;
  for (u64 at = 0;; ++at) {
    PqParams params{.npriorities = 2, .maxprocs = kProcs};
    params.reclaim_policy = Policy::kHazardPointer;
    LockfreeSkipListPq<SimPlatform> pq(params);
    sim::Engine eng(kProcs, {}, /*seed=*/1);
    eng.run([&](ProcId id) {
      if (id != 1) return; // p0's access ordinals start at 0 below
      for (u32 i = 0; i < kPrefill; ++i) ASSERT_TRUE(pq.insert(0, i));
    });
    sim::FaultPlan plan;
    plan.events.push_back({sim::FaultKind::kStall, 0, at, kStallCycles});
    eng.set_fault_plan(std::move(plan));
    u64 inserted = kPrefill + 1, removed = 0;
    bool p0_done = false;
    eng.run([&](ProcId id) {
      if (id == 0) {
        ASSERT_TRUE(pq.insert(1, kPrefill));
        p0_done = true;
        return;
      }
      for (u32 i = 0; !p0_done; ++i) {
        if (pq.delete_min()) ++removed;
        ASSERT_TRUE(pq.insert(0, (u64{id} << 32) | i));
        ++inserted;
      }
    });
    const u64 p0_accesses = eng.proc_stats()[0].accesses;
    eng.run([&](ProcId id) {
      if (id != 0) return;
      while (pq.delete_min()) ++removed;
    });
    EXPECT_EQ(inserted, removed) << "stall at " << at;
    if (at + 1 >= p0_accesses) break; // the stall has swept the whole insert
  }
}

// Node memory: a churn on three processors that restructures (so nodes
// leave through retire and the domain's frees) is destroyed with items
// still linked (so the rest leave through the destructor's teardown).
// Every allocation must come back exactly once and with the size it was
// allocated with. NativePlatform::dealloc ignores the size, so the
// simulator's counting allocator is the only place a mismatch shows.
class LockfreeSkipListMemory : public ::testing::TestWithParam<Policy> {};

TEST_P(LockfreeSkipListMemory, EveryNodeIsFreedWithItsSize) {
  const SimPlatform::AllocCounters& c = SimPlatform::alloc_counters();
  const SimPlatform::AllocCounters before = c;
  {
    constexpr u32 kProcs = 3;
    constexpr u32 kPrios = 8;
    PqParams params{.npriorities = kPrios, .maxprocs = kProcs};
    LockfreeSkipListPq<SimPlatform> pq(params);
    sim::Engine eng(kProcs, {}, /*seed=*/5);
    eng.run([&](ProcId id) {
      for (u32 i = 0; i < 64; ++i) {
        if (SimPlatform::rnd(100) < 60)
          ASSERT_TRUE(pq.insert(static_cast<Prio>(SimPlatform::rnd(kPrios)),
                                (static_cast<u64>(id) << 24) | i));
        else
          pq.delete_min();
      }
    });
    EXPECT_GT(pq.reclaim_stats().retired, 0u) << "the churn must restructure";
  }
  EXPECT_GT(c.allocs, before.allocs);
  EXPECT_EQ(c.allocs - before.allocs, c.frees - before.frees);
  EXPECT_EQ(c.bytes_allocated - before.bytes_allocated, c.bytes_freed - before.bytes_freed);
  EXPECT_EQ(c.double_frees, before.double_frees);
}

INSTANTIATE_TEST_SUITE_P(Both, LockfreeSkipListMemory,
                         ::testing::Values(Policy::kHazardPointer),
                         [](const ::testing::TestParamInfo<Policy>&) { return "Hp"; });

// Node size: one processor with a fixed seed draws the same 1,000 tower
// heights every run, so the bytes its inserts allocate are exact. Each
// node is a 24-byte header plus one 8-byte word per level; a node carrying
// all kMaxHeight levels would make this 1,000 x 120 = 120,000.
TEST(LockfreeSkipListMemory, NodeBytesFollowTowerHeight) {
  constexpr u32 kItems = 1000;
  const SimPlatform::AllocCounters& c = SimPlatform::alloc_counters();
  PqParams params{.npriorities = 64, .maxprocs = 1};
  LockfreeSkipListPq<SimPlatform> pq(params);
  const SimPlatform::AllocCounters before = c;
  sim::Engine eng(1, {}, /*seed=*/1);
  eng.run([&](ProcId) {
    for (u32 i = 0; i < kItems; ++i) ASSERT_TRUE(pq.insert(i % 64, i));
  });
  EXPECT_EQ(c.allocs - before.allocs, kItems);
  // 1,000 headers of 24 bytes plus 1,997 tower words of 8 (mean height 2).
  EXPECT_EQ(c.bytes_allocated - before.bytes_allocated, 39976u);
}

// Fence budget: one simulated processor runs a fixed insert/delete-min
// sequence (a prefill, a hold phase that restructures every few deletes,
// a drain) and the engine's access total is pinned. With one
// processor nothing is scheduled, tower heights come from the engine's
// seeded RNG and no access depends on a node's address, so the totals
// repeat exactly: any extra hazard publish, validate or walk shows up
// here as a diff.
struct FenceBudgetCase {
  u64 accesses;
};

void PrintTo(const FenceBudgetCase&, std::ostream* os) { *os << "Hp"; }

class LockfreeSkipListFenceBudget : public ::testing::TestWithParam<FenceBudgetCase> {};

TEST_P(LockfreeSkipListFenceBudget, OneProcessorAccessTotalIsPinned) {
  constexpr u32 kPrios = 32;
  PqParams params{.npriorities = kPrios, .maxprocs = 1};
  LockfreeSkipListPq<SimPlatform> pq(params);
  sim::Engine eng(1, {}, /*seed=*/1);
  u64 removed = 0;
  eng.run([&](ProcId) {
    for (u32 i = 0; i < 96; ++i) ASSERT_TRUE(pq.insert((i * 7) % kPrios, i));
    for (u32 i = 0; i < 64; ++i) {
      if (pq.delete_min()) ++removed;
      ASSERT_TRUE(pq.insert((i * 11) % kPrios, 96 + i));
    }
    while (pq.delete_min()) ++removed;
  });
  EXPECT_EQ(removed, 160u);
  EXPECT_GT(pq.reclaim_stats().retired, 64u) << "the sequence must restructure";
  EXPECT_EQ(eng.proc_stats()[0].accesses, GetParam().accesses);
}

INSTANTIATE_TEST_SUITE_P(Pinned, LockfreeSkipListFenceBudget,
                         ::testing::Values(FenceBudgetCase{13877}),
                         ::testing::PrintToStringParamName());

} // namespace
} // namespace fpq
