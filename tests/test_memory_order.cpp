// Litmus-style regression tests for the Platform::Shared memory-ordering
// contract (DESIGN.md §8) on the native backend. Each test encodes one
// ordering shape the codebase relies on and asserts the outcome the
// contract forbids never shows up. They run under the native-tier1 label,
// so the TSan gate (-DFPQ_SANITIZE=thread) checks the same shapes with
// real race detection: a release/acquire pair that is wrong here is a
// reported race there, not a silent flake.
//
// The machine running CI may have a single core, so these tests cannot
// *prove* weak-memory reorderings are handled — they are regression tests
// that the annotated API keeps its semantics (values, RMW atomicity,
// publication) plus TSan fodder, not hardware litmus campaigns.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "container/reactive_counter.hpp"
#include "funnel/counter.hpp"
#include "platform/native.hpp"
#include "pq/skiplist_pq.hpp"

namespace fpq {
namespace {

using NP = NativePlatform;

// Message passing: data written relaxed, published by a release store of a
// flag, consumed after an acquire load observes the flag. This is the shape
// behind every funnel verdict (result_value relaxed / result_state release)
// and the MCS handoff (CS writes / locked store_release).
TEST(MemoryOrderLitmus, MessagePassing) {
  constexpr int kRounds = 2000;
  for (int r = 0; r < kRounds; ++r) {
    NP::Shared<u64> data{0};
    NP::Shared<u32> flag{0};
    u64 seen = 0;
    NP::run(2, [&](ProcId id) {
      if (id == 0) {
        data.store_relaxed(42);
        flag.store_release(1);
      } else {
        while (flag.load_acquire() == 0) NP::relax();
        seen = data.load_relaxed();
      }
    });
    ASSERT_EQ(seen, 42u) << "acquire observed the flag but not the payload";
  }
}

// Store buffering: with seq_cst (the unsuffixed default) both threads
// cannot read 0 — there is a total order over the four accesses. This is
// the shape that *requires* the default to stay seq_cst: release/acquire
// alone would allow r0 == r1 == 0.
TEST(MemoryOrderLitmus, StoreBufferSeqCst) {
  constexpr int kRounds = 2000;
  for (int r = 0; r < kRounds; ++r) {
    NP::Shared<u32> x{0};
    NP::Shared<u32> y{0};
    u32 r0 = 99, r1 = 99;
    NP::run(2, [&](ProcId id) {
      if (id == 0) {
        x.store(1);       // seq_cst
        r0 = y.load();    // seq_cst
      } else {
        y.store(1);       // seq_cst
        r1 = x.load();    // seq_cst
      }
    });
    ASSERT_FALSE(r0 == 0 && r1 == 0) << "seq_cst store-buffer outcome violated";
  }
}

// fetch_add / fetch_sub atomicity and return-value semantics under
// contention, including the acq_rel order used by every counter ticket.
TEST(MemoryOrderLitmus, FetchAddFetchSubTickets) {
  constexpr u32 kThreads = 4;
  constexpr u32 kPerThread = 5000;
  NP::Shared<u64> up{0};
  NP::Shared<u64> down{kThreads * kPerThread};
  std::vector<std::vector<u64>> tickets(kThreads);
  NP::run(kThreads, [&](ProcId id) {
    for (u32 i = 0; i < kPerThread; ++i) {
      tickets[id].push_back(up.fetch_add(1, MemOrder::kAcqRel));
      down.fetch_sub(1, MemOrder::kAcqRel);
    }
  });
  EXPECT_EQ(up.load(), kThreads * kPerThread);
  EXPECT_EQ(down.load(), 0u);
  std::set<u64> uniq;
  for (const auto& v : tickets) uniq.insert(v.begin(), v.end());
  EXPECT_EQ(uniq.size(), kThreads * kPerThread) << "fetch_add handed out a duplicate";
}

// CAS with split success/failure orders: exactly one thread wins each
// round, and the winner's prior relaxed write is visible to readers that
// acquire the published word — the funnel's location-capture shape.
TEST(MemoryOrderLitmus, CasCaptureHandshake) {
  constexpr int kRounds = 500;
  constexpr u32 kThreads = 4;
  for (int r = 0; r < kRounds; ++r) {
    NP::Shared<u64> payload{0};
    NP::Shared<u32> owner{0}; // 0 = free; else winner id+1
    std::atomic<u32> wins{0};
    NP::run(kThreads, [&](ProcId id) {
      payload.load_acquire(); // touch before racing (mirrors funnel setup)
      u32 expected = 0;
      if (owner.compare_exchange(expected, id + 1, MemOrder::kAcqRel,
                                 MemOrder::kRelaxed)) {
        wins.fetch_add(1);
        payload.store_relaxed(100 + id);
      }
    });
    ASSERT_EQ(wins.load(), 1u) << "CAS let two winners through";
    const u32 who = owner.load_acquire();
    ASSERT_NE(who, 0u);
    ASSERT_EQ(payload.load_relaxed(), 100u + (who - 1))
        << "winner's post-capture write went missing";
  }
}

// exchange(kAcqRel) as lock-acquire: the TtasLock shape. The exchanged
// word's acquire side must order the critical-section reads, its release
// side (on store_release(0)) the writes.
TEST(MemoryOrderLitmus, ExchangeLockHandoff) {
  constexpr u32 kThreads = 4;
  constexpr u32 kPerThread = 2000;
  NP::Shared<u32> lock{0};
  u64 counter = 0; // plain word: torn under a broken lock, caught by TSan too
  NP::run(kThreads, [&](ProcId) {
    for (u32 i = 0; i < kPerThread; ++i) {
      while (lock.exchange(1, MemOrder::kAcqRel) != 0) NP::pause();
      ++counter;
      lock.store_release(0);
    }
  });
  EXPECT_EQ(counter, u64{kThreads} * kPerThread);
}

// spin_until: the acquire-spin helper must observe a release publication
// and return the published value, escalating politely in between.
TEST(MemoryOrderLitmus, SpinUntilObservesRelease) {
  NP::Shared<u64> word{0};
  u64 got = 0;
  NP::run(2, [&](ProcId id) {
    if (id == 0) {
      NP::delay(10000); // let the waiter spin
      word.store_release(7);
    } else {
      got = NP::spin_until(word, [](u64 v) { return v != 0; });
    }
  });
  EXPECT_EQ(got, 7u);
}

// The relaxed-annotated funnel counter hammered natively: every fai ticket
// unique, bfad never below the floor, final value exact. This is the
// end-to-end check that the funnel's release/acquire protocol (location
// capture, verdict distribution) lost nothing to the relaxations.
TEST(MemoryOrderLitmus, RelaxedFunnelCounterHammer) {
  constexpr u32 kThreads = 4;
  constexpr u32 kPerThread = 1500;
  FunnelCounter<NP> c(kThreads, FunnelParams::for_procs(kThreads),
                      {true, true, 0}, 0);
  std::atomic<u64> incs{0}, effective{0};
  NP::run(kThreads, [&](ProcId id) {
    for (u32 i = 0; i < kPerThread; ++i) {
      if ((i + id) % 3 != 0) {
        c.fai();
        incs.fetch_add(1);
      } else {
        const i64 before = c.bfad(0);
        ASSERT_GE(before, 0);
        if (before > 0) effective.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(c.read(),
            static_cast<i64>(incs.load()) - static_cast<i64>(effective.load()));
  EXPECT_GE(c.read(), 0);
}

// Regression for the reactive counter's announce/recheck vs. CAS/drain
// handshake — a store-buffering shape whose deciding accesses must be
// seq_cst (see the contract comment in reactive_counter.hpp). If either
// side were weakened back to acq_rel, an op could mutate the outgoing
// representation concurrently with the switcher's unlocked value transfer
// and the final value would drift; under TSan that shows as a data race
// on value_. Two tunings: one forces a deterministic MCS->funnel switch
// on the first contended op, one sits at a borderline threshold so mode
// ping-pongs while the hammer runs.
TEST(MemoryOrderLitmus, ReactiveCounterSwitchStormConserves) {
  constexpr u32 kThreads = 4;
  constexpr u32 kPerThread = 1500;
  const typename ReactiveCounter<NP>::Tuning tunings[] = {
      {0, 1, 1u << 30},  // every MCS op "contended": forced up-switch
      {3000, 1, 1},      // borderline 3us: switches both ways under load
  };
  for (const auto& tuning : tunings) {
    ReactiveCounter<NP> c(kThreads, FunnelParams::for_procs(kThreads), 0, 0,
                          tuning);
    std::atomic<u64> incs{0}, effective{0};
    NP::run(kThreads, [&](ProcId id) {
      for (u32 i = 0; i < kPerThread; ++i) {
        if ((i + id) % 3 != 0) {
          c.fai();
          incs.fetch_add(1);
        } else {
          const i64 before = c.bfad(0);
          ASSERT_GE(before, 0);
          if (before > 0) effective.fetch_add(1);
        }
      }
    });
    EXPECT_EQ(c.read(),
              static_cast<i64>(incs.load()) - static_cast<i64>(effective.load()))
        << "a mode switch raced an op and lost/duplicated updates";
    EXPECT_GE(c.read(), 0);
  }
}

// Regression for the skip-list insert-vs-rescue race: insert writes the
// bin then reads `threaded`, while delete_min's rescue writes `threaded`
// then probes the bin — store-buffering that is arbitrated by the bin's
// lock (empty_locked), not by fence strength. Two priorities keep the
// first link constantly unthreaded/re-threaded, so inserts land in bins
// that are mid-unthread; a lost arbitration permanently strands an item
// and the deleted count comes up short.
TEST(MemoryOrderLitmus, SkipListRescueNeverStrandsItems) {
  constexpr u32 kThreads = 4;
  constexpr u32 kProducers = kThreads / 2;
  constexpr u32 kPerProducer = 3000;
  PqParams params{.npriorities = 2, .maxprocs = kThreads};
  params.bin_capacity = kProducers * kPerProducer;
  SkipListPq<NP> pq(params);
  std::atomic<u32> producers_left{kProducers};
  std::vector<std::vector<u64>> got(kThreads);
  NP::run(kThreads, [&](ProcId id) {
    if (id < kProducers) {
      for (u32 i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(pq.insert(i % 2, u64{id} * kPerProducer + i + 1));
      producers_left.fetch_sub(1, std::memory_order_release);
    } else {
      for (;;) {
        if (auto e = pq.delete_min()) {
          got[id].push_back(e->item);
        } else if (producers_left.load(std::memory_order_acquire) == 0) {
          // Quiescent nullopt: producers are done and (modulo a peer's
          // in-flight rescue, which that peer will drain itself) the
          // queue is empty.
          break;
        } else {
          NP::pause();
        }
      }
    }
  });
  std::set<u64> uniq;
  u64 total = 0;
  for (const auto& v : got) {
    total += v.size();
    uniq.insert(v.begin(), v.end());
  }
  EXPECT_EQ(total, u64{kProducers} * kPerProducer)
      << "an item was stranded in an unthreaded bin (or delivered twice)";
  EXPECT_EQ(uniq.size(), u64{kProducers} * kPerProducer);
}

// Turn-taking through spin_until: every waiter must make progress under
// oversubscription (more waiters than cores is the common CI case), which
// needs the yield after the relax spins.
TEST(MemoryOrderLitmus, SpinUntilTurnTakingMakesProgress) {
  NP::Shared<u32> turn{0};
  constexpr u32 kThreads = 4;
  NP::run(kThreads, [&](ProcId id) {
    for (u32 round = 0; round < 50; ++round) {
      NP::spin_until(turn, [&](u32 v) { return v == round * kThreads + id; });
      turn.store_release(round * kThreads + id + 1);
    }
  });
  EXPECT_EQ(turn.load(), 50u * kThreads);
}

} // namespace
} // namespace fpq
