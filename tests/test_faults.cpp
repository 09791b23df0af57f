// Fault-injection battery (`ctest -L fault`, DESIGN.md §12): the sim fault
// engine driven through the public surfaces that depend on it —
//
//   * plan / spec serialization round-trips (fault counterexamples must
//     replay through the same one-line specs as everything else);
//   * empirical progress classification: the lock-free skiplist keeps
//     completing operations with a processor fail-stopped mid-operation
//     (both reclamation policies), while every lock-based queue is
//     *detected* — parked or watchdog-wedged — rather than hanging ctest;
//   * the bounded-wait API: try_delete_min returns kTimeout behind a
//     stalled-forever lock holder instead of blocking past its budget;
//   * allocation-failure injection: refused inserts are clean no-ops, no
//     leak and no double-free across the queue's whole lifetime (counting
//     allocator), try_insert reports kNoMemory;
//   * spurious CAS failure and finite stalls: transient faults that every
//     queue must absorb with no checker-visible effect.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "platform/sim.hpp"
#include "pq/lockfree_skiplist_pq.hpp"
#include "pq/linear_funnels_pq.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "verify/liveness.hpp"
#include "verify/stress.hpp"

namespace fpq {
namespace {

using sim::FaultKind;
using sim::FaultPlan;
using sim::ProcOutcome;

// ---------------------------------------------------------------- replay --

TEST(FaultPlan, RoundTripsThroughString) {
  const char* lines[] = {
      "none",
      "crash@p1a120",
      "stall@p2a50n400",
      "stall@p0a7",
      "casfail@p3a40n8",
      "allocfail@p0a2n6",
      "crash@p1a120,stall@p2a50n400,casfail@p0a9n2,allocfail@p2a1n3",
  };
  for (const char* line : lines) {
    const FaultPlan plan = sim::fault_plan_from_string(line);
    EXPECT_EQ(sim::to_string(plan), line);
    // And the parse of the print parses identically.
    const FaultPlan again = sim::fault_plan_from_string(sim::to_string(plan));
    EXPECT_EQ(sim::to_string(again), line);
  }
  EXPECT_TRUE(sim::fault_plan_from_string("none").empty());
  EXPECT_TRUE(sim::fault_plan_from_string("").empty()); // "" == none
  for (const char* bad : {"crash", "crash@x1a2", "crash@p1", "frob@p1a2",
                          "crash@p1a2,", "crash@p1a2n"}) {
    EXPECT_THROW((void)sim::fault_plan_from_string(bad), std::invalid_argument)
        << "accepted malformed plan: '" << bad << "'";
  }
}

TEST(FaultPlan, StressSpecCarriesFaultKeys) {
  verify::StressSpec s;
  s.algo = Algorithm::kLockfreeSkipList;
  s.faults = sim::fault_plan_from_string("crash@p1a120,allocfail@p0a2n6");
  s.watchdog = 20000;
  const verify::StressSpec r = verify::spec_from_line(verify::to_line(s));
  EXPECT_EQ(verify::to_line(r), verify::to_line(s));
  EXPECT_EQ(sim::to_string(r.faults), "crash@p1a120,allocfail@p0a2n6");
  EXPECT_EQ(r.watchdog, 20000u);
  EXPECT_TRUE(r.faulted());

  // Fault-free specs serialize with no fault keys at all: the lines stay
  // byte-identical to what pre-fault-engine builds emitted and replay there.
  verify::StressSpec plain;
  const std::string line = verify::to_line(plain);
  EXPECT_EQ(line.find("faults="), std::string::npos);
  EXPECT_EQ(line.find("watchdog="), std::string::npos);
  EXPECT_FALSE(verify::spec_from_line(line).faulted());
}

// --------------------------------------------- progress classification --

// Parameterized with one value, hazard pointers, so the instance names
// (`/Hp`) stay stable for result tracking.
struct FaultPolicyCase {};
void PrintTo(const FaultPolicyCase&, std::ostream* os) { *os << "Hp"; }

class LockfreeSurvivesCrash : public ::testing::TestWithParam<FaultPolicyCase> {};

// The acceptance centerpiece: fail-stop one processor at several depths —
// including mid-insert and mid-restructure — and every survivor still
// completes its full quota of operations. The post-run orphan adoption
// inside run_liveness also exercises teardown: the crashed processor's
// stale hazard slots and limbo are adopted by a survivor, and the domain
// destructor's empty-limbo assert holds.
TEST_P(LockfreeSurvivesCrash, SurvivorsCompleteUnderEveryPlan) {
  for (const char* plan : {"crash@p1a100", "crash@p1a121", "crash@p1a200",
                           "crash@p1a350", "crash@p1a500", "crash@p1a1500",
                           "stall@p1a250", "stall@p1a900"}) {
    verify::LivenessSpec spec;
    spec.algo = Algorithm::kLockfreeSkipList;
    spec.faults = sim::fault_plan_from_string(plan);
    const verify::LivenessResult r = verify::run_liveness(spec);
    EXPECT_EQ(r.survivors, spec.nprocs - 1) << plan;
    EXPECT_EQ(r.survivors_completed, r.survivors)
        << "survivor failed to complete under " << plan;
    EXPECT_EQ(r.survivors_blocked, 0u) << plan;
    EXPECT_EQ(r.observed, ProgressGuarantee::kLockFree) << plan;
    for (ProcId p = 0; p < spec.nprocs; ++p) {
      if (p == 1) continue;
      EXPECT_EQ(r.completed[p], spec.ops_per_proc)
          << "p" << p << " quota under " << plan;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LockfreeSurvivesCrash,
                         ::testing::Values(FaultPolicyCase{}),
                         ::testing::PrintToStringParamName());

// The whole registry through the battery: every declared-lock-free queue
// survives every plan; every declared-blocking (lock-based) queue is
// *observed* blocking under at least one plan — a survivor parked on the
// victim's dead lock or wedged by the watchdog — and the battery itself
// terminating is the no-hang guarantee (the watchdog parks wedged
// spinners, so the run queue always drains).
TEST(LivenessBattery, DeclaredMatchesObservedForAllQueues) {
  const std::vector<verify::LivenessRow> rows =
      verify::run_liveness_battery(verify::LivenessBatteryOptions{});
  ASSERT_EQ(rows.size(), all_algorithms().size());
  for (const verify::LivenessRow& row : rows) {
    EXPECT_TRUE(row.ok) << verify::format_liveness_table(rows);
    if (row.declared == ProgressGuarantee::kLockFree) {
      EXPECT_TRUE(row.all_survivors_completed)
          << to_string(row.algo) << " is declared lock-free but a survivor "
          << "of a crash plan failed to complete";
      EXPECT_FALSE(row.observed_blocking) << to_string(row.algo);
    } else {
      // The fixed plans, backed by a deterministic crash-ordinal sweep
      // for a queue they all miss (liveness.cpp), hit every lock-based
      // queue's critical section; detection — not survival — is their
      // contract.
      EXPECT_TRUE(row.observed_blocking)
          << to_string(row.algo) << " is lock-based but no plan in the "
          << "battery caught a survivor blocked on the victim's lock";
    }
  }
}

// ------------------------------------------------------- bounded waiting --

// try_delete_min behind a stalled-forever lock holder: the victim stalls
// mid-operation somewhere in the funnel-stack critical section; the
// survivor's bounded deletes must all return within budget — kTimeout when
// the dead lock is in the way — and the survivor must finish its loop (no
// watchdog wedge, no park). The stall ordinal sweep guarantees at least
// one plan lands inside the lock window without hand-tuning.
TEST(BoundedWait, TryDeleteMinTimesOutBehindDeadLockHolder) {
  u32 timeouts_somewhere = 0;
  for (u64 at : {100, 121, 200, 212, 303, 350, 436, 520}) {
    constexpr u32 kProcs = 2;
    PqParams params{.npriorities = 2, .maxprocs = kProcs};
    LinearFunnelsPq<SimPlatform> pq(params, FunnelOptions{});

    sim::Engine eng(kProcs, {}, /*seed=*/1);
    FaultPlan plan;
    plan.events.push_back({FaultKind::kStall, 1, at, 0}); // forever
    plan.watchdog_budget = 200000; // backstop only: must never fire for p0
    eng.set_fault_plan(std::move(plan));

    u32 timeouts = 0, oks = 0, done = 0;
    eng.run([&](ProcId id) {
      if (id == 1) {
        // The victim: blocking inserts until the stall takes it down
        // holding whatever lock access `at` was under.
        for (u32 i = 0; i < 64; ++i) {
          SimPlatform::heartbeat();
          pq.insert(static_cast<Prio>(i % 2), i);
        }
        return;
      }
      // The survivor: wait out the victim's stall point, then issue
      // bounded deletes. Every call must come back; kTimeout is the
      // expected answer whenever the dead lock blocks the scan.
      SimPlatform::delay(1u << 20);
      for (u32 i = 0; i < 16; ++i) {
        SimPlatform::heartbeat();
        Entry out;
        const PqStatus st = pq.try_delete_min(out, TryBudget{.attempts = 64});
        if (st == PqStatus::kTimeout) ++timeouts;
        if (st == PqStatus::kOk) ++oks;
      }
      ++done;
    });
    EXPECT_EQ(done, 1u) << "survivor did not finish under stall@p1a" << at;
    EXPECT_EQ(eng.fault_report().outcomes[0], ProcOutcome::kCompleted)
        << "survivor wedged/blocked under stall@p1a" << at;
    timeouts_somewhere += timeouts;
    (void)oks;
  }
  // The sweep must include at least one plan that actually pinned the lock.
  EXPECT_GT(timeouts_somewhere, 0u)
      << "no stall ordinal produced a bounded timeout: the sweep never "
      << "caught the victim inside a lock";
}

// ------------------------------------------------- allocation failures --

class AllocFaults : public ::testing::TestWithParam<FaultPolicyCase> {};

// Allocation-failure injection across a full queue lifetime: refused
// inserts are recorded no-ops, try_insert reports kNoMemory, and the
// counting allocator balances exactly — no leak, no double-free — once
// the queue is destroyed.
TEST_P(AllocFaults, SkiplistUnwindsCleanlyWithZeroLeaks) {
  auto& counters = SimPlatform::alloc_counters();
  const u64 outstanding0 = counters.outstanding();
  const u64 double_frees0 = counters.double_frees;
  const u64 failed0 = counters.failed;
  u64 refused = 0, inserted = 0, removed = 0;
  {
    constexpr u32 kProcs = 4;
    PqParams params{.npriorities = 4, .maxprocs = kProcs};
    LockfreeSkipListPq<SimPlatform> pq(params);

    sim::Engine eng(kProcs, {}, /*seed=*/3);
    FaultPlan plan;
    // Scattered windows on every processor, hitting first allocations and
    // mid-run ones (node allocation is one try_alloc per insert attempt).
    plan.events.push_back({FaultKind::kAllocFail, 0, 0, 3});
    plan.events.push_back({FaultKind::kAllocFail, 1, 2, 4});
    plan.events.push_back({FaultKind::kAllocFail, 2, 5, 2});
    plan.events.push_back({FaultKind::kAllocFail, 3, 1, 6});
    eng.set_fault_plan(std::move(plan));

    eng.run([&](ProcId id) {
      for (u32 i = 0; i < 40; ++i) {
        SimPlatform::heartbeat();
        SimPlatform::delay(SimPlatform::rnd(64));
        if (SimPlatform::rnd(100) < 60) {
          if (pq.insert(static_cast<Prio>(SimPlatform::rnd(4)),
                        (static_cast<u64>(id) << 24) | i))
            ++inserted;
          else
            ++refused; // injected failure: clean no-op by contract
        } else if (pq.delete_min()) {
          ++removed;
        }
      }
    });
    eng.run([&](ProcId id) {
      if (id != 0) return;
      while (pq.delete_min()) ++removed;
    });
    EXPECT_EQ(inserted, removed) << "conservation across refused inserts";
    const reclaim::DomainStats s = pq.reclaim_stats();
    EXPECT_EQ(s.retired, s.reclaimed + s.in_limbo);
  }
  EXPECT_GT(refused, 0u) << "no injected allocation failure ever fired";
  EXPECT_GT(counters.failed, failed0);
  EXPECT_EQ(counters.outstanding(), outstanding0)
      << "allocation-failure unwind leaked nodes";
  EXPECT_EQ(counters.double_frees, double_frees0);
}

TEST_P(AllocFaults, TryInsertReportsNoMemory) {
  PqParams params{.npriorities = 2, .maxprocs = 1};
  LockfreeSkipListPq<SimPlatform> pq(params);
  sim::Engine eng(1, {}, /*seed=*/1);
  FaultPlan plan;
  plan.events.push_back({FaultKind::kAllocFail, 0, 0, 1}); // first node alloc
  eng.set_fault_plan(std::move(plan));
  eng.run([&](ProcId) {
    EXPECT_EQ(pq.try_insert(0, 7, TryBudget{}), PqStatus::kNoMemory);
    EXPECT_EQ(pq.try_insert(0, 7, TryBudget{}), PqStatus::kOk); // window past
    Entry out;
    EXPECT_EQ(pq.try_delete_min(out, TryBudget{}), PqStatus::kOk);
    EXPECT_EQ(out.item, 7u);
    EXPECT_EQ(pq.try_delete_min(out, TryBudget{}), PqStatus::kEmpty);
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllocFaults,
                         ::testing::Values(FaultPolicyCase{}),
                         ::testing::PrintToStringParamName());

// -------------------------------------------------- transient injection --

// Spurious CAS failures and finite stalls are transient: every queue must
// absorb them with no checker-visible effect. Driven through the stress
// harness so the full faulted-run checks (no-fabrication, drain order)
// apply; the specs replay through fpq_stress --replay like any other.
TEST(TransientFaults, CasFailAndFiniteStallsPassStressChecks) {
  for (Algorithm algo : {Algorithm::kLockfreeSkipList, Algorithm::kLinearFunnels,
                         Algorithm::kSingleLock}) {
    for (const char* faults : {"casfail@p1a40n8", "stall@p1a200n5000",
                               "casfail@p0a25n4,stall@p2a300n2000"}) {
      verify::StressSpec spec;
      spec.algo = algo;
      spec.seed = 5;
      spec.nprocs = 4;
      spec.ops_per_proc = 16;
      spec.faults = sim::fault_plan_from_string(faults);
      spec.watchdog = 50000;
      const auto failure = verify::run_scenario(spec);
      EXPECT_FALSE(failure.has_value())
          << verify::format_failure(*failure) << "\nunder " << faults;
    }
  }
}

} // namespace
} // namespace fpq
