// Tests of the combining-funnel (elimination) stack — the funnel "bin" of
// §3.2. Conservation, LIFO order at quiescence, emptiness cost, capacity
// refusal, elimination on/off sweeps, and the adaptive fast path's cost
// and contention signal.
#include <gtest/gtest.h>
#include <array>

#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "funnel/stack.hpp"
#include "platform/sim.hpp"
#include "sim/faults.hpp"
#include "sync/try_budget.hpp"

namespace fpq {
namespace {

FunnelParams tight_params(u32 levels) {
  FunnelParams p;
  p.levels = levels;
  for (u32 d = 0; d < kMaxFunnelLevels; ++d) {
    p.width[d] = 2;
    p.spin[d] = 8;
  }
  p.attempts = 3;
  return p;
}

TEST(FunnelStack, SequentialLifo) {
  FunnelStack<SimPlatform> st(1, tight_params(1), 64);
  sim::Engine eng(1);
  eng.run([&](ProcId) {
    EXPECT_TRUE(st.empty());
    for (u64 i = 0; i < 8; ++i) EXPECT_TRUE(st.push(i));
    EXPECT_EQ(st.size(), 8u);
    for (u64 i = 8; i-- > 0;) {
      auto v = st.pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
    EXPECT_TRUE(st.empty());
    EXPECT_FALSE(st.pop().has_value());
  });
}

TEST(FunnelStack, PopOnEmptyReturnsNullopt) {
  FunnelStack<SimPlatform> st(4, tight_params(1), 16);
  auto empties = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(4);
  eng.run([&](ProcId) {
    for (int i = 0; i < 10; ++i)
      if (!st.pop()) empties->fetch_add(1);
  });
  EXPECT_EQ(empties->load(), 40u);
}

TEST(FunnelStack, CapacityRefusalReportsFalse) {
  FunnelStack<SimPlatform> st(1, tight_params(1), 3);
  sim::Engine eng(1);
  eng.run([&](ProcId) {
    EXPECT_TRUE(st.push(1));
    EXPECT_TRUE(st.push(2));
    EXPECT_TRUE(st.push(3));
    EXPECT_FALSE(st.push(4));
    EXPECT_EQ(st.size(), 3u);
    st.pop();
    EXPECT_TRUE(st.push(5));
  });
}

TEST(FunnelStack, SentinelItemRejected) {
  FunnelStack<SimPlatform> st(1, tight_params(1), 4);
  sim::Engine eng(1);
  EXPECT_DEATH(eng.run([&](ProcId) { st.push(kNoEntry); }), "sentinel");
}

// gtest names a parameterised case after the raw bytes of its parameter,
// so implicit padding would leak uninitialised, address-dependent bytes into
// the case name and rename the case on every run. The `pad` fields make those
// bytes explicit; their non-zero values keep each case under the name it was
// first recorded with.
struct StackCase {
  u32 nprocs;
  u32 levels;
  bool eliminate;
  std::array<u8, 7> pad;
  u64 seed;
};
static_assert(std::has_unique_object_representations_v<StackCase>);

class FunnelStackSweep : public ::testing::TestWithParam<StackCase> {};

TEST_P(FunnelStackSweep, ConcurrentConservation) {
  [[maybe_unused]] const auto [nprocs, levels, eliminate, pad, seed] = GetParam();
  FunnelStack<SimPlatform> st(nprocs, tight_params(levels), 1u << 14, eliminate);
  std::vector<std::vector<u64>> popped(nprocs);
  std::vector<u64> pushed_count(nprocs, 0);
  sim::Engine eng(nprocs, {}, seed);
  eng.run([&](ProcId id) {
    for (u32 i = 0; i < 30; ++i) {
      SimPlatform::delay(SimPlatform::rnd(64));
      if (SimPlatform::flip()) {
        ASSERT_TRUE(st.push((static_cast<u64>(id) << 32) | i));
        ++pushed_count[id];
      } else if (auto v = st.pop()) {
        popped[id].push_back(*v);
      }
    }
  });
  // Drain at quiescence.
  eng.run([&](ProcId id) {
    if (id != 0) return;
    while (auto v = st.pop()) popped[0].push_back(*v);
  });
  u64 pushed_total = 0;
  for (u64 c : pushed_count) pushed_total += c;
  std::multiset<u64> all;
  for (const auto& v : popped) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), pushed_total) << "items lost or duplicated";
  std::set<u64> uniq(all.begin(), all.end());
  EXPECT_EQ(uniq.size(), all.size());
  EXPECT_TRUE(st.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunnelStackSweep,
    ::testing::Values(StackCase{2, 1, true, {0xBD, 0x96, 0x76, 0x6A}, 1},
                      StackCase{4, 2, true, {}, 2},
                      StackCase{8, 2, true, {0xFF, 0xFF, 0xFF, 0xFF}, 3},
                      StackCase{16, 2, true, {0x23, 0xEA, 0x83, 0xFF}, 4},
                      StackCase{32, 3, true, {0x84, 0x3C, 0xA0, 0xCD}, 5},
                      StackCase{64, 3, true, {}, 6},
                      StackCase{128, 3, true, {0xFF, 0xFF, 0xFF, 0xFF}, 7},
                      StackCase{8, 2, false, {}, 8},
                      StackCase{32, 3, false, {0x84, 0x3C, 0xA0, 0xCD}, 9},
                      StackCase{64, 4, false, {}, 10},
                      StackCase{256, 3, true, {0x31, 0x97, 0x76, 0x6A}, 11}));

// ---- Batched operations (push_batch / pop_batch): a record carries a
// whole batch; same-direction trees combine at any sizes, opposite trees
// eliminate whole batches or slices of the capturer's own batch.

FunnelParams batch_params(u32 levels, u32 batch_limit) {
  FunnelParams p = tight_params(levels);
  p.batch_limit = batch_limit;
  return p;
}

TEST(FunnelStack, SequentialPushPopBatch) {
  FunnelStack<SimPlatform> st(1, batch_params(1, 8), 64);
  sim::Engine eng(1);
  eng.run([&](ProcId) {
    const Item in[5] = {10, 11, 12, 13, 14};
    EXPECT_EQ(st.push_batch(in, 5), 5u);
    EXPECT_EQ(st.size(), 5u);
    Item out[8];
    // LIFO central store: a batched pop drains from the top.
    EXPECT_EQ(st.pop_batch(out, 3), 3u);
    EXPECT_EQ(out[0], 14u);
    EXPECT_EQ(out[1], 13u);
    EXPECT_EQ(out[2], 12u);
    // Short pop: only 2 remain of the 4 requested.
    EXPECT_EQ(st.pop_batch(out, 4), 2u);
    EXPECT_EQ(out[0], 11u);
    EXPECT_EQ(out[1], 10u);
    EXPECT_TRUE(st.empty());
    EXPECT_EQ(st.pop_batch(out, 2), 0u);
  });
}

TEST(FunnelStack, PushBatchRefusedWholeWhenStoreLacksRoom) {
  // The central store refuses a batch's whole remainder (all-or-nothing per
  // tree), so a too-large batch leaves the store untouched.
  FunnelStack<SimPlatform> st(1, batch_params(1, 8), 4);
  sim::Engine eng(1);
  eng.run([&](ProcId) {
    const Item in[6] = {1, 2, 3, 4, 5, 6};
    EXPECT_EQ(st.push_batch(in, 6), 0u);
    EXPECT_TRUE(st.empty());
    EXPECT_EQ(st.push_batch(in, 4), 4u);
    EXPECT_EQ(st.size(), 4u);
    EXPECT_EQ(st.push_batch(in + 4, 2), 0u); // full again
    EXPECT_EQ(st.size(), 4u);
  });
}

// Explicit padding as for StackCase above.
struct BatchStackCase {
  u32 nprocs;
  u32 levels;
  bool eliminate;
  std::array<u8, 7> pad;
  u64 seed;
};
static_assert(std::has_unique_object_representations_v<BatchStackCase>);

class FunnelStackBatchSweep : public ::testing::TestWithParam<BatchStackCase> {};

TEST_P(FunnelStackBatchSweep, MixedBatchSizesConserveItems) {
  [[maybe_unused]] const auto [nprocs, levels, eliminate, pad, seed] = GetParam();
  FunnelStack<SimPlatform> st(nprocs, batch_params(levels, 4), 1u << 14, eliminate);
  std::vector<std::vector<u64>> popped(nprocs);
  std::vector<u64> pushed_count(nprocs, 0);
  sim::Engine eng(nprocs, {}, seed);
  eng.run([&](ProcId id) {
    Item buf[4];
    for (u32 i = 0; i < 20; ++i) {
      SimPlatform::delay(SimPlatform::rnd(64));
      const u32 k = 1 + static_cast<u32>(SimPlatform::rnd(4));
      if (SimPlatform::flip()) {
        for (u32 j = 0; j < k; ++j)
          buf[j] = (static_cast<u64>(id) << 32) | (i * 8 + j);
        ASSERT_EQ(st.push_batch(buf, k), k) << "capacity sized to never refuse";
        pushed_count[id] += k;
      } else {
        const u32 m = st.pop_batch(buf, k);
        ASSERT_LE(m, k);
        for (u32 j = 0; j < m; ++j) popped[id].push_back(buf[j]);
      }
    }
  });
  eng.run([&](ProcId id) {
    if (id != 0) return;
    Item buf[4];
    for (;;) {
      const u32 m = st.pop_batch(buf, 4);
      for (u32 j = 0; j < m; ++j) popped[0].push_back(buf[j]);
      if (m < 4) break;
    }
  });
  u64 pushed_total = 0;
  for (u64 c : pushed_count) pushed_total += c;
  std::multiset<u64> all;
  for (const auto& v : popped) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), pushed_total) << "items lost or duplicated";
  std::set<u64> uniq(all.begin(), all.end());
  EXPECT_EQ(uniq.size(), all.size());
  EXPECT_TRUE(st.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunnelStackBatchSweep,
    ::testing::Values(BatchStackCase{2, 1, true, {}, 1}, BatchStackCase{4, 2, true, {}, 2},
                      BatchStackCase{8, 2, true, {}, 3}, BatchStackCase{16, 2, true, {}, 4},
                      BatchStackCase{32, 3, true, {}, 5}, BatchStackCase{64, 3, true, {}, 6},
                      BatchStackCase{8, 2, false, {}, 7}, BatchStackCase{32, 3, false, {}, 8},
                      BatchStackCase{128, 3, true, {}, 9}));

TEST(FunnelStack, BatchAndPointOpsInterleaveSafely) {
  // Point ops are 1-batches; mixing them with wide batches exercises the
  // unequal-size combine and partial elimination paths.
  const u32 nprocs = 24;
  FunnelStack<SimPlatform> st(nprocs, batch_params(2, 4), 1u << 14);
  auto pushed_n = std::make_unique<SimShared<u64>>(0);
  auto popped_n = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(nprocs, {}, 31);
  eng.run([&](ProcId id) {
    Item buf[4];
    for (u32 i = 0; i < 24; ++i) {
      SimPlatform::delay(SimPlatform::rnd(32));
      switch (SimPlatform::rnd(4)) {
        case 0:
          ASSERT_TRUE(st.push((static_cast<u64>(id) << 32) | (i * 8)));
          pushed_n->fetch_add(1);
          break;
        case 1:
          if (st.pop()) popped_n->fetch_add(1);
          break;
        case 2: {
          for (u32 j = 0; j < 3; ++j)
            buf[j] = (static_cast<u64>(id) << 32) | (i * 8 + 1 + j);
          ASSERT_EQ(st.push_batch(buf, 3), 3u);
          pushed_n->fetch_add(3);
          break;
        }
        default:
          popped_n->fetch_add(st.pop_batch(buf, 3));
      }
    }
  });
  eng.run([&](ProcId id) {
    if (id != 0) return;
    while (st.pop()) popped_n->fetch_add(1);
  });
  EXPECT_EQ(pushed_n->load(), popped_n->load());
  EXPECT_TRUE(st.empty());
}

TEST(FunnelStack, EmptyIsSingleRead) {
  FunnelStack<SimPlatform> st(2, tight_params(1), 16);
  sim::Engine eng(2);
  eng.run([&](ProcId id) {
    if (id != 0) return;
    st.push(1);
    const u64 reads_before = SimPlatform::engine().mem_stats().reads;
    (void)st.empty();
    EXPECT_EQ(SimPlatform::engine().mem_stats().reads, reads_before + 1);
  });
}

TEST(FunnelStack, PopsSeeLatestPushAtQuiescence) {
  FunnelStack<SimPlatform> st(4, tight_params(2), 256);
  sim::Engine eng(4, {}, 21);
  eng.run([&](ProcId id) {
    st.push(100 + id);
  });
  eng.run([&](ProcId id) {
    if (id != 0) return;
    // All four pushed items must be there, values from the pushed set.
    std::set<u64> got;
    for (int i = 0; i < 4; ++i) {
      auto v = st.pop();
      ASSERT_TRUE(v.has_value());
      got.insert(*v);
    }
    EXPECT_EQ(got, (std::set<u64>{100, 101, 102, 103}));
  });
}

TEST(FunnelStack, HeavyPopPressureNeverFabricatesItems) {
  // Far more pops than pushes: every popped value must be a pushed value.
  const u32 nprocs = 32;
  FunnelStack<SimPlatform> st(nprocs, tight_params(3), 4096);
  auto bad = std::make_unique<SimShared<u64>>(0);
  auto popped_n = std::make_unique<SimShared<u64>>(0);
  auto pushed_n = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(nprocs, {}, 43);
  eng.run([&](ProcId id) {
    for (u32 i = 0; i < 40; ++i) {
      if (SimPlatform::rnd(100) < 20) {
        st.push(7777);
        pushed_n->fetch_add(1);
      } else if (auto v = st.pop()) {
        popped_n->fetch_add(1);
        if (*v != 7777) bad->fetch_add(1);
      }
      (void)id;
    }
  });
  EXPECT_EQ(bad->load(), 0u);
  EXPECT_LE(popped_n->load(), pushed_n->load());
}

// Uncontended cost of the bin's fast path: one simulated processor runs a
// fixed push / push_batch / pop / pop_batch sequence, and the engine's
// read, write and RMW totals and the final clock are pinned per protocol.
// Adaption starts at its minimum and never rises without a partner, so
// every call takes the fast path; nothing is scheduled, so the totals
// repeat exactly and any extra access on that path shows up as a diff.
struct FastPathCase {
  FunnelProtocol protocol;
  u64 reads, writes, rmws;
  Cycles clock;
};

void PrintTo(const FastPathCase& c, std::ostream* os) {
  *os << (c.protocol == FunnelProtocol::kExchange ? "Exchange" : "Aggregate");
}

class FunnelStackFastPath : public ::testing::TestWithParam<FastPathCase> {};

TEST_P(FunnelStackFastPath, OneProcessorAccessTotalIsPinned) {
  const FastPathCase& c = GetParam();
  FunnelParams p = tight_params(1);
  p.batch_limit = 2; // max_batch() = 4
  p.protocol = c.protocol;
  FunnelStack<SimPlatform> st(1, p, 64);
  sim::Engine eng(1, {}, /*seed=*/1);
  u64 popped = 0;
  eng.run([&](ProcId) {
    for (u64 r = 0; r < 50; ++r) {
      const std::array<Item, 4> in{r, r + 1, r + 2, r + 3};
      std::array<Item, 4> out{};
      ASSERT_TRUE(st.push(r));
      ASSERT_EQ(st.push_batch(in.data(), 4), 4u);
      if (st.pop()) ++popped;
      popped += st.pop_batch(out.data(), 4);
    }
  });
  EXPECT_EQ(popped, 250u);
  EXPECT_TRUE(st.empty());
  const sim::MemStats& m = eng.mem_stats();
  EXPECT_EQ(m.reads, c.reads);
  EXPECT_EQ(m.writes, c.writes);
  EXPECT_EQ(m.rmws, c.rmws);
  EXPECT_EQ(eng.proc_stats()[0].clock, c.clock);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, FunnelStackFastPath,
    ::testing::Values(FastPathCase{FunnelProtocol::kExchange, 1550, 1550, 400, 7576},
                      FastPathCase{FunnelProtocol::kAggregate, 1550, 1550, 400, 7576}),
    ::testing::PrintToStringParamName());

// A held bin lock sends the fast path into the funnel instead of queueing
// behind the holder. p1 pushes and is parked at each of its shared
// accesses in turn; while it is parked, p0 probes the lock with a bounded
// try_push, then pushes, and p2 pops once the probe is done. Whenever the
// probe times out (p1 is parked holding the lock), both operations must
// complete before p1 does, and the pop must return p0's item: they can
// only have met in the funnel, since the central store is behind p1's
// lock. Every plan must conserve items once p1 resumes.
TEST(FunnelStackFastPath, HeldLockSendsOperationsIntoTheFunnel) {
  constexpr u32 kProcs = 3;
  constexpr u64 kStallCycles = 1000000;
  constexpr Item kProbe = 7, kVictim = 8, kPushed = 9;
  FunnelParams p = tight_params(1);
  p.spin[0] = 1000; // the first to arrive waits out the other's probe
  u32 in_window = 0;
  for (u64 at = 0;; ++at) {
    FunnelStack<SimPlatform> st(kProcs, p, 64);
    sim::Engine eng(kProcs, {}, /*seed=*/1);
    sim::FaultPlan plan;
    plan.events.push_back({sim::FaultKind::kStall, 1, at, kStallCycles});
    eng.set_fault_plan(std::move(plan));
    bool p1_done = false, probed = false, lock_held = false, p0_early = false, p2_early = false;
    u64 pushed = 0;
    std::optional<Item> got;
    eng.run([&](ProcId id) {
      if (id == 1) {
        ASSERT_TRUE(st.push(kVictim));
        p1_done = true;
        return;
      }
      SimPlatform::delay(10000); // p1 has reached its stall by now
      if (id == 0) {
        TryClock<SimPlatform> clock(TryBudget{.attempts = 1});
        const auto r = st.try_push(kProbe, clock);
        lock_held = r == FunnelStack<SimPlatform>::TryOutcome::kTimeout;
        if (r == FunnelStack<SimPlatform>::TryOutcome::kOk) ++pushed;
        probed = true;
        ASSERT_TRUE(st.push(kPushed));
        p0_early = !p1_done;
      } else {
        while (!probed) SimPlatform::delay(1); // p2 must not be the holder p0 sees
        got = st.pop();
        p2_early = !p1_done;
      }
    });
    const u64 p1_accesses = eng.proc_stats()[1].accesses;
    pushed += 2;
    u64 popped = got ? 1 : 0;
    eng.run([&](ProcId id) {
      if (id != 0) return;
      while (st.pop()) ++popped;
    });
    EXPECT_EQ(pushed, popped) << "stall at " << at;
    if (lock_held) {
      ++in_window;
      EXPECT_TRUE(p0_early) << "push queued behind the parked holder, stall at " << at;
      EXPECT_TRUE(p2_early) << "pop queued behind the parked holder, stall at " << at;
      EXPECT_EQ(got, std::optional<Item>{kPushed}) << "stall at " << at;
    }
    if (at + 1 >= p1_accesses) break; // the stall has swept the whole push
  }
  EXPECT_GT(in_window, 0u) << "no stall ordinal parked p1 holding the lock";
}

} // namespace
} // namespace fpq
