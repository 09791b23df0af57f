// Tests of the discrete-event engine: scheduling order, determinism,
// fiber lifecycle, waiting/waking, exception propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "platform/sim.hpp"
#include "sim/engine.hpp"

namespace fpq {
namespace {

TEST(SimEngine, RunsEveryProcessor) {
  sim::Engine eng(16);
  std::vector<int> ran(16, 0);
  eng.run([&](ProcId id) { ran[id] = 1; });
  for (int r : ran) EXPECT_EQ(r, 1);
}

TEST(SimEngine, DelayAdvancesOnlyTheCallersClock) {
  sim::Engine eng(2);
  Cycles t0 = 0, t1 = 0;
  eng.run([&](ProcId id) {
    if (id == 0) SimPlatform::delay(1000);
    (id == 0 ? t0 : t1) = SimPlatform::now();
  });
  EXPECT_GE(t0, 1000u);
  EXPECT_LT(t1, 1000u);
}

TEST(SimEngine, ProcessorsInterleaveInTimeOrder) {
  // Two processors appending to a log with distinct delays: entries must be
  // ordered by simulated time.
  sim::Engine eng(2);
  std::vector<std::pair<Cycles, ProcId>> log;
  eng.run([&](ProcId id) {
    for (int i = 0; i < 10; ++i) {
      SimPlatform::delay(id == 0 ? 10 : 17);
      log.emplace_back(SimPlatform::now(), id);
    }
  });
  for (std::size_t i = 1; i < log.size(); ++i) EXPECT_LE(log[i - 1].first, log[i].first);
}

TEST(SimEngine, DeterministicGivenSeedAndLayout) {
  // Identical engines over the same shared word produce identical traces.
  // (The word must be the *same allocation*: timing depends on the
  // address-hashed home module.)
  auto word = std::make_unique<SimShared<u64>>(0);
  auto trace = [&word](u64 seed) {
    word->store(0);
    sim::Engine eng(8, {}, seed);
    std::vector<u64> order;
    eng.run([&](ProcId id) {
      for (int i = 0; i < 20; ++i) {
        SimPlatform::delay(SimPlatform::rnd(100));
        word->fetch_add(id + 1);
        order.push_back(SimPlatform::now());
      }
    });
    return order;
  };
  EXPECT_EQ(trace(5), trace(5));
  EXPECT_NE(trace(5), trace(6));
}

TEST(SimEngine, PerProcessorRngStreamsDiffer) {
  sim::Engine eng(4);
  std::vector<u64> first(4);
  eng.run([&](ProcId id) { first[id] = SimPlatform::rnd(1u << 30); });
  EXPECT_FALSE(first[0] == first[1] && first[1] == first[2] && first[2] == first[3]);
}

TEST(SimEngine, SharedOpsOutsideFibersAreNoCostNoCrash) {
  SimShared<u64> w(5);
  EXPECT_EQ(w.load(), 5u);
  w.store(7);
  EXPECT_EQ(w.exchange(9), 7u);
  u64 e = 9;
  EXPECT_TRUE(w.compare_exchange(e, 11));
  EXPECT_EQ(w.fetch_add(1), 11u);
}

TEST(SimEngine, CompareExchangeFailureReloadsExpected) {
  SimShared<u64> w(42);
  u64 expected = 5;
  EXPECT_FALSE(w.compare_exchange(expected, 6));
  EXPECT_EQ(expected, 42u);
}

TEST(SimEngine, SpinUntilSeesValueWrittenLater) {
  auto flag = std::make_unique<SimShared<u64>>(0);
  Cycles waiter_done = 0;
  sim::Engine eng(2);
  eng.run([&](ProcId id) {
    if (id == 0) {
      SimPlatform::delay(5000);
      flag->store(1);
    } else {
      SimPlatform::spin_until(*flag, [](u64 v) { return v == 1; });
      waiter_done = SimPlatform::now();
    }
  });
  EXPECT_GE(waiter_done, 5000u);
}

TEST(SimEngine, SpinUntilImmediateWhenAlreadySatisfied) {
  auto flag = std::make_unique<SimShared<u64>>(3);
  sim::Engine eng(1);
  eng.run([&](ProcId) {
    const u64 v = SimPlatform::spin_until(*flag, [](u64 x) { return x == 3; });
    EXPECT_EQ(v, 3u);
  });
}

TEST(SimEngine, ManyWaitersAllWake) {
  auto flag = std::make_unique<SimShared<u64>>(0);
  auto woken = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(32);
  eng.run([&](ProcId id) {
    if (id == 0) {
      SimPlatform::delay(3000);
      flag->store(1);
    } else {
      SimPlatform::spin_until(*flag, [](u64 v) { return v == 1; });
      woken->fetch_add(1);
    }
  });
  EXPECT_EQ(woken->load(), 31u);
}

TEST(SimEngine, WaitRaceClosedByVersionCheck) {
  // The writer may fire between a waiter's read and its park; the version
  // protocol must not lose the wakeup. Stress with tight timing.
  for (u64 seed = 0; seed < 20; ++seed) {
    auto flag = std::make_unique<SimShared<u64>>(0);
    sim::Engine eng(4, {}, seed);
    eng.run([&](ProcId id) {
      if (id == 0) {
        SimPlatform::delay(1 + SimPlatform::rnd(50));
        flag->store(1);
      } else {
        SimPlatform::spin_until(*flag, [](u64 v) { return v == 1; });
      }
    });
  }
}

TEST(SimEngine, ExceptionInFiberPropagates) {
  sim::Engine eng(4);
  EXPECT_THROW(eng.run([&](ProcId id) {
    if (id == 2) throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

TEST(SimEngine, ExceptionAfterHandOffsPropagates) {
  // Misses and delays hand control from fiber to fiber without the run
  // loop; a throw deep into that chain must still leave Engine::run.
  auto word = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(8);
  EXPECT_THROW(eng.run([&](ProcId id) {
    for (int i = 0; i < 20; ++i) {
      word->fetch_add(1);
      SimPlatform::delay(10);
      if (id == 5 && i == 13) throw std::runtime_error("boom");
    }
  }),
               std::runtime_error);
  EXPECT_GE(word->load(), 8u * 13u);
}

TEST(SimEngine, SecondRunContinuesClocks) {
  sim::Engine eng(2);
  eng.run([&](ProcId) { SimPlatform::delay(100); });
  Cycles t = 0;
  eng.run([&](ProcId) { t = SimPlatform::now(); });
  EXPECT_GE(t, 100u);
}

TEST(SimEngine, FetchAddIsAtomicAcrossProcessors) {
  auto word = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(64);
  eng.run([&](ProcId) {
    for (int i = 0; i < 50; ++i) word->fetch_add(1);
  });
  EXPECT_EQ(word->load(), 64u * 50u);
}

TEST(SimEngine, ExchangeChainsAreLossless) {
  // Each processor exchanges its id into the word; values form a chain in
  // which every id appears exactly once as a predecessor.
  auto word = std::make_unique<SimShared<u64>>(~0ull);
  sim::Engine eng(16);
  std::vector<std::vector<u64>> seen(16);
  eng.run([&](ProcId id) {
    for (int i = 0; i < 10; ++i) {
      SimPlatform::delay(SimPlatform::rnd(40));
      seen[id].push_back(word->exchange(id));
    }
  });
  std::vector<int> count(16, 0);
  for (const auto& v : seen)
    for (u64 x : v)
      if (x != ~0ull) ++count[x];
  // Every exchanged-in id is read back out at most once more than it was
  // written (the final occupant is never read).
  int total = 0;
  for (int c : count) total += c;
  EXPECT_EQ(total, 16 * 10 - 1); // all but the initial sentinel... chain length
}

TEST(SimEngine, StatsCountAccesses) {
  auto word = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(4);
  eng.run([&](ProcId) {
    for (int i = 0; i < 25; ++i) word->fetch_add(1);
  });
  EXPECT_EQ(eng.mem_stats().rmws, 100u);
}

TEST(SimEngine, NowOutsideFibersIsZero) {
  sim::Engine eng(1);
  EXPECT_EQ(eng.now(), 0u);
}

// ---- Fiber stacks (sim/fiber.hpp).

// Recurses until its frames reach `bytes` below `top`. Each frame writes
// every 256th byte of a 1 KiB volatile array, so no page of the range is
// skipped, and the use of the array after the call keeps the recursion.
[[gnu::noinline]] u64 recurse_below(std::uintptr_t top, std::size_t bytes) {
  volatile unsigned char frame[1024];
  for (std::size_t i = 0; i < sizeof(frame); i += 256) frame[i] = 1;
  const auto here = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  if (top - here >= bytes) return frame[0];
  return recurse_below(top, bytes) + frame[0];
}

TEST(SimEngine, FiberStackOverflowFaultsAtGuardPage) {
  // Overruns a 64 KiB stack's low end by about 2 KiB, less than a page. A
  // guard page turns the first write there into SIGSEGV. Without one, an
  // overrun this short can land in writable memory and go unnoticed.
  sim::MachineParams m;
  m.fiber_stack_bytes = 64 * 1024;
  auto overflow = [&m] {
    sim::Engine eng(2, m);
    eng.run([](ProcId) {
      recurse_below(reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)), 66 * 1024);
    });
  };
#if defined(__SANITIZE_ADDRESS__)
  // AddressSanitizer catches the fault, reports it and exits.
  EXPECT_DEATH(overflow(), "AddressSanitizer");
#else
  EXPECT_EXIT(overflow(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

TEST(SimEngine, FiberStacksAreRecycledAcrossRunsAndEngines) {
  // Each host thread keeps its own free list, so each part runs on a fresh
  // thread, whose count of mapped stacks starts at zero.
  auto word = std::make_unique<SimShared<u64>>(0);
  auto body = [&word](ProcId) {
    for (int i = 0; i < 20; ++i) {
      SimPlatform::delay(SimPlatform::rnd(40));
      word->fetch_add(1);
    }
  };
  auto clocks = [](const sim::Engine& eng) {
    std::vector<Cycles> c(eng.proc_stats().size());
    std::transform(eng.proc_stats().begin(), eng.proc_stats().end(), c.begin(),
                   [](const sim::ProcStats& s) { return s.clock; });
    return c;
  };

  std::size_t mapped = 0;
  std::thread([&] {
    for (int e = 0; e < 100; ++e) {
      sim::Engine eng(8);
      eng.run(body);
      eng.run(body);
    }
    mapped = sim::fiber_stacks_mapped();
  }).join();
  EXPECT_EQ(mapped, 8u);

  // A crashed fiber leaves its stack with live frames and never unwinds.
  // The next Engine's run on that stack must match one on fresh stacks.
  sim::ProcOutcome crashed_outcome = sim::ProcOutcome::kCompleted;
  std::size_t mapped_after_crash = 0;
  std::vector<Cycles> on_recycled;
  std::thread([&] {
    {
      sim::Engine eng(8, {}, 3);
      sim::FaultPlan plan;
      plan.events.push_back({sim::FaultKind::kCrash, 5, 7, 0});
      eng.set_fault_plan(std::move(plan));
      eng.run(body);
      crashed_outcome = eng.fault_report().outcomes[5];
    }
    mapped_after_crash = sim::fiber_stacks_mapped();
    sim::Engine eng(8, {}, 11);
    eng.run(body);
    on_recycled = clocks(eng);
    mapped = sim::fiber_stacks_mapped();
  }).join();
  EXPECT_EQ(crashed_outcome, sim::ProcOutcome::kCrashed);
  EXPECT_EQ(mapped_after_crash, 8u);
  EXPECT_EQ(mapped, 8u) << "the run after the crash mapped new stacks";

  std::vector<Cycles> on_fresh;
  std::thread([&] {
    sim::Engine eng(8, {}, 11);
    eng.run(body);
    on_fresh = clocks(eng);
  }).join();
  EXPECT_EQ(on_recycled, on_fresh);
}

// ---- Schedule-exploration policies (MachineParams::sched).

sim::MachineParams sched_params(sim::SchedulePolicy policy, Cycles jitter = 0) {
  sim::MachineParams m;
  m.sched.policy = policy;
  m.sched.access_jitter = jitter;
  return m;
}

// Ticket order over one contended word: a compact fingerprint of the
// interleaving. Entry i of the result is the ticket processor (i / ops)
// drew on its (i % ops)-th fetch_add. Callers comparing traces must pass
// the *same* word allocation: timing depends on the address-hashed home
// module (see DeterministicGivenSeedAndLayout).
std::vector<u64> ticket_trace(SimShared<u64>& word, const sim::MachineParams& m,
                              u64 seed) {
  word.store(0);
  const u32 nprocs = 8, ops = 20;
  std::vector<u64> tickets(nprocs * ops);
  sim::Engine eng(nprocs, m, seed);
  eng.run([&](ProcId id) {
    for (u32 i = 0; i < ops; ++i) {
      SimPlatform::delay(SimPlatform::rnd(40));
      tickets[id * ops + i] = word.fetch_add(1);
    }
  });
  return tickets;
}

TEST(SimSchedule, PerturbingPoliciesReachNewInterleavings) {
  auto word = std::make_unique<SimShared<u64>>(0);
  const auto baseline =
      ticket_trace(*word, sched_params(sim::SchedulePolicy::kSmallestClock), 7);
  EXPECT_NE(baseline,
            ticket_trace(*word, sched_params(sim::SchedulePolicy::kRandomPreempt), 7));
  EXPECT_NE(baseline,
            ticket_trace(*word, sched_params(sim::SchedulePolicy::kDelayLeader), 7));
  EXPECT_NE(ticket_trace(*word, sched_params(sim::SchedulePolicy::kRandomPreempt), 7),
            ticket_trace(*word, sched_params(sim::SchedulePolicy::kDelayLeader), 7));
}

TEST(SimSchedule, AccessJitterAloneReachesNewInterleavings) {
  // The jitter must exceed the convoy's inter-arrival gap (one module
  // service round, a couple hundred cycles at 8 procs) to reorder anything;
  // small jitter leaves a saturated RMW convoy in arrival order.
  auto word = std::make_unique<SimShared<u64>>(0);
  const auto baseline =
      ticket_trace(*word, sched_params(sim::SchedulePolicy::kSmallestClock), 7);
  const auto jittered =
      ticket_trace(*word, sched_params(sim::SchedulePolicy::kSmallestClock, 512), 7);
  EXPECT_NE(baseline, jittered);
}

TEST(SimSchedule, PerturbedRunsStayDeterministicPerSeed) {
  auto word = std::make_unique<SimShared<u64>>(0);
  for (auto policy : {sim::SchedulePolicy::kRandomPreempt, sim::SchedulePolicy::kDelayLeader}) {
    const sim::MachineParams m = sched_params(policy, 32);
    EXPECT_EQ(ticket_trace(*word, m, 11), ticket_trace(*word, m, 11));
    EXPECT_NE(ticket_trace(*word, m, 11), ticket_trace(*word, m, 12));
  }
}

TEST(SimSchedule, PerturbationPreservesRmwAtomicity) {
  // Whatever the schedule does, every ticket is drawn exactly once.
  auto word = std::make_unique<SimShared<u64>>(0);
  for (auto policy : {sim::SchedulePolicy::kRandomPreempt, sim::SchedulePolicy::kDelayLeader}) {
    auto tickets = ticket_trace(*word, sched_params(policy, 64), 3);
    std::sort(tickets.begin(), tickets.end());
    for (u64 i = 0; i < tickets.size(); ++i) EXPECT_EQ(tickets[i], i);
  }
}

TEST(SimSchedule, PerturbedPoliciesDontLoseWakeups) {
  // The ManyWaitersAllWake scenario under every perturbing configuration:
  // delayed leaders and jittered accesses must not defeat the wait/wake
  // version protocol (a lost wakeup shows up as a simulated deadlock).
  for (auto policy : {sim::SchedulePolicy::kRandomPreempt, sim::SchedulePolicy::kDelayLeader}) {
    for (u64 seed = 1; seed <= 3; ++seed) {
      auto flag = std::make_unique<SimShared<u64>>(0);
      auto woken = std::make_unique<SimShared<u64>>(0);
      sim::Engine eng(16, sched_params(policy, 48), seed);
      eng.run([&](ProcId id) {
        if (id == 0) {
          SimPlatform::delay(3000);
          flag->store(1);
        } else {
          SimPlatform::spin_until(*flag, [](u64 v) { return v == 1; });
          woken->fetch_add(1);
        }
      });
      EXPECT_EQ(woken->load(), 15u) << to_string(policy) << " seed " << seed;
    }
  }
}

TEST(SimSchedule, SaturatedPerturbProbabilityStillMakesProgress) {
  // perturb_permille >= 1000 is clamped below certainty; the run must
  // terminate rather than requeue forever.
  sim::MachineParams m = sched_params(sim::SchedulePolicy::kRandomPreempt);
  m.sched.perturb_permille = 1000000;
  auto word = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(4, m, 1);
  eng.run([&](ProcId) {
    for (u32 i = 0; i < 10; ++i) word->fetch_add(1);
  });
  EXPECT_EQ(word->load(), 40u);
}

} // namespace
} // namespace fpq
