// Tests of the extension components: the Lim-Agarwal-style reactive
// counter (mode switching, drain protocol, invariants under load shifts)
// and the latency histogram used by the tail benches.
#include <gtest/gtest.h>

#include <memory>

#include "bench_support/histogram.hpp"
#include "bench_support/workload.hpp"
#include "container/reactive_counter.hpp"
#include "core/registry.hpp"
#include "platform/sim.hpp"

namespace fpq {
namespace {

FunnelParams small_funnel() {
  FunnelParams p;
  p.levels = 2;
  for (u32 d = 0; d < kMaxFunnelLevels; ++d) {
    p.width[d] = 2;
    p.spin[d] = 8;
  }
  return p;
}

TEST(ReactiveCounter, SequentialSemanticsInMcsMode) {
  ReactiveCounter<SimPlatform> c(1, small_funnel(), 0, 2);
  sim::Engine eng(1);
  eng.run([&](ProcId) {
    EXPECT_EQ(c.fai(), 2);
    EXPECT_EQ(c.bfad(0), 3);
    EXPECT_EQ(c.bfad(0), 2);
    EXPECT_EQ(c.bfad(0), 1);
    EXPECT_EQ(c.bfad(0), 0); // floor
    EXPECT_EQ(c.bfad(0), 0);
  });
  EXPECT_EQ(c.read(), 0);
  EXPECT_FALSE(c.using_funnel()); // no contention, never switched
  EXPECT_EQ(c.switches(), 0u);
}

TEST(ReactiveCounter, SwitchesUpUnderLoad) {
  const u32 nprocs = 64;
  ReactiveCounter<SimPlatform> c(nprocs, FunnelParams::for_procs(nprocs), 0, 0);
  sim::Engine eng(nprocs, {}, 21);
  eng.run([&](ProcId) {
    for (u32 i = 0; i < 40; ++i) {
      if (SimPlatform::flip())
        c.fai();
      else
        c.bfad(0);
    }
  });
  EXPECT_GE(c.switches(), 1u) << "64 hammering processors never triggered a switch";
}

struct ReactiveCase {
  u32 nprocs;
  u64 seed;
};

class ReactiveSweep : public ::testing::TestWithParam<ReactiveCase> {};

TEST_P(ReactiveSweep, InvariantsSurviveModeSwitches) {
  const auto [nprocs, seed] = GetParam();
  ReactiveCounter<SimPlatform> c(nprocs, FunnelParams::for_procs(nprocs), 0, 0);
  auto incs = std::make_unique<SimShared<u64>>(0);
  auto effective = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(nprocs, {}, seed);
  eng.run([&](ProcId) {
    for (u32 i = 0; i < 30; ++i) {
      SimPlatform::delay(SimPlatform::rnd(64));
      if (SimPlatform::flip()) {
        c.fai();
        incs->fetch_add(1);
      } else {
        const i64 before = c.bfad(0);
        ASSERT_GE(before, 0);
        if (before > 0) effective->fetch_add(1);
      }
    }
  });
  EXPECT_GE(c.read(), 0);
  EXPECT_EQ(c.read(),
            static_cast<i64>(incs->load()) - static_cast<i64>(effective->load()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReactiveSweep,
                         ::testing::Values(ReactiveCase{2, 1}, ReactiveCase{8, 2},
                                           ReactiveCase{32, 3}, ReactiveCase{64, 4},
                                           ReactiveCase{128, 5}));

TEST(ReactiveCounter, AlternatingLoadPhasesSwitchBothWays) {
  const u32 nprocs = 64;
  ReactiveCounter<SimPlatform>::Tuning t;
  t.down_streak = 4; // switch back quickly for the test
  ReactiveCounter<SimPlatform> c(nprocs, FunnelParams::for_procs(nprocs), 0, 0, t);
  sim::Engine eng(nprocs, {}, 31);
  // Phase 1: stampede — should end in funnel mode.
  eng.run([&](ProcId) {
    for (u32 i = 0; i < 30; ++i) c.fai();
  });
  const u64 after_burst = c.switches();
  EXPECT_GE(after_burst, 1u);
  // Phase 2: one quiet processor — should come back down to MCS.
  eng.run([&](ProcId id) {
    if (id != 0) return;
    for (u32 i = 0; i < 30; ++i) {
      SimPlatform::delay(500);
      c.bfad(0);
    }
  });
  EXPECT_FALSE(c.using_funnel());
  EXPECT_GT(c.switches(), after_burst);
  EXPECT_GE(c.read(), 0);
}

// ---- LatencyHistogram.

TEST(LatencyHistogram, BucketEdges) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 4u);
  EXPECT_EQ(LatencyHistogram::bucket_of(5), 4u);
  EXPECT_EQ(LatencyHistogram::bucket_of(6), 5u);
  EXPECT_EQ(LatencyHistogram::bucket_of(7), 5u);
  EXPECT_EQ(LatencyHistogram::bucket_of(8), 6u);
  EXPECT_EQ(LatencyHistogram::lower_edge(2), 2u);
  EXPECT_EQ(LatencyHistogram::lower_edge(3), 3u);
  EXPECT_EQ(LatencyHistogram::lower_edge(6), 8u);
  EXPECT_EQ(LatencyHistogram::lower_edge(7), 12u);
}

TEST(LatencyHistogram, BucketsAreMonotone) {
  u32 prev = 0;
  for (Cycles v = 1; v < 100000; v = v * 9 / 8 + 1) {
    const u32 b = LatencyHistogram::bucket_of(v);
    EXPECT_GE(b, prev);
    EXPECT_LE(LatencyHistogram::lower_edge(b), v);
    prev = b;
  }
}

TEST(LatencyHistogram, MeanCountMax) {
  LatencyHistogram h;
  for (Cycles v : {10ull, 20ull, 30ull, 40ull}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0);
}

TEST(LatencyHistogram, PercentilesOrderedAndBracketed) {
  LatencyHistogram h;
  Xorshift rng(5);
  for (int i = 0; i < 10000; ++i) h.record(1 + rng.below(10000));
  const Cycles p50 = h.percentile(0.5);
  const Cycles p95 = h.percentile(0.95);
  const Cycles p99 = h.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
  // Uniform[1,10000]: p50 between 3.3k and 5k (lower-edge bias up to 33%).
  EXPECT_GE(p50, 3300u);
  EXPECT_LE(p50, 5100u);
}

TEST(LatencyHistogram, MergeIsSum) {
  LatencyHistogram a, b;
  a.record(10);
  a.record(1000);
  b.record(100000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 100000u);
  EXPECT_GE(a.percentile(0.99), 65536u);
}

TEST(LatencyHistogram, EmptyIsSane) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, SummaryFormats) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1500);
  const std::string s = h.summary();
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
  EXPECT_NE(s.find("max=1500"), std::string::npos);
}

TEST(DetailedWorkload, HistogramsMatchOpCounts) {
  PqParams params{.npriorities = 8, .maxprocs = 8};
  auto pq = make_priority_queue<SimPlatform>(Algorithm::kFunnelTree, params);
  WorkloadParams w;
  w.nprocs = 8;
  w.ops_per_proc = 50;
  const DetailedStats s = run_pq_workload<SimPlatform>(*pq, w);
  EXPECT_EQ(s.all.count(), 8u * 50u);
  EXPECT_EQ(s.insert.count(), s.ops.inserts);
  EXPECT_EQ(s.del.count(), s.ops.deletes);
  EXPECT_GT(s.all.percentile(0.5), 0u);
  EXPECT_NEAR(s.all.mean(), s.ops.mean_all(), s.ops.mean_all() * 0.01 + 1);
}

} // namespace
} // namespace fpq
