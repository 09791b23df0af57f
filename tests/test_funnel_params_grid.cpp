// Property grid over funnel geometries: the funnel invariants must hold
// for every combination of layer count, width, attempts, adaption setting
// and elimination — not just the tuned defaults. This is the sweep that
// catches protocol bugs that only appear at degenerate geometries (single
// slot, zero spin budget, depth > log2(procs), ...).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "funnel/counter.hpp"
#include "funnel/stack.hpp"
#include "platform/sim.hpp"
#include "pq/funnel_tree_pq.hpp"

namespace fpq {
namespace {

struct GridCase {
  u32 nprocs;
  u32 levels;
  u32 width;
  u32 attempts;
  u32 spin;
  bool adaptive;
  bool eliminate;
  u64 seed;
};

void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "P" << c.nprocs << "_L" << c.levels << "_W" << c.width << "_A"
      << c.attempts << "_S" << c.spin << (c.adaptive ? "_ad" : "_fix")
      << (c.eliminate ? "_elim" : "_noelim") << "_s" << c.seed;
}

FunnelParams params_of(const GridCase& c) {
  FunnelParams p;
  p.levels = c.levels;
  p.attempts = c.attempts;
  p.adaptive = c.adaptive;
  for (u32 d = 0; d < kMaxFunnelLevels; ++d) {
    p.width[d] = c.width;
    p.spin[d] = c.spin;
  }
  return p;
}

std::vector<GridCase> grid() {
  std::vector<GridCase> cases;
  u64 seed = 100;
  for (u32 nprocs : {3u, 16u, 48u}) {
    for (u32 levels : {1u, 3u, 6u}) {
      for (u32 width : {1u, 8u}) {
        for (bool adaptive : {true, false}) {
          for (bool eliminate : {true, false}) {
            cases.push_back({nprocs, levels, width, /*attempts=*/2, /*spin=*/4,
                             adaptive, eliminate, ++seed});
          }
        }
      }
    }
  }
  // Degenerate spins/attempts.
  cases.push_back({16, 2, 2, 1, 0, true, true, ++seed});
  cases.push_back({16, 2, 2, 8, 64, false, true, ++seed});
  return cases;
}

class CounterGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(CounterGrid, BoundedInvariants) {
  const GridCase& c = GetParam();
  FunnelCounter<SimPlatform> ctr(
      c.nprocs, params_of(c),
      {/*bounded=*/true, c.eliminate, /*floor=*/0, FunnelCounter<SimPlatform>::kNoCeiling},
      0);
  auto incs = std::make_unique<SimShared<u64>>(0);
  auto effective = std::make_unique<SimShared<u64>>(0);
  sim::Engine eng(c.nprocs, {}, c.seed);
  eng.run([&](ProcId) {
    for (u32 i = 0; i < 20; ++i) {
      if (SimPlatform::flip()) {
        ctr.fai();
        incs->fetch_add(1);
      } else {
        const i64 before = ctr.bfad(0);
        ASSERT_GE(before, 0);
        if (before > 0) effective->fetch_add(1);
      }
    }
  });
  EXPECT_EQ(ctr.read(),
            static_cast<i64>(incs->load()) - static_cast<i64>(effective->load()));
  EXPECT_GE(ctr.read(), 0);
}

INSTANTIATE_TEST_SUITE_P(Grid, CounterGrid, ::testing::ValuesIn(grid()),
                         ::testing::PrintToStringParamName());

class StackGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(StackGrid, Conservation) {
  const GridCase& c = GetParam();
  FunnelStack<SimPlatform> st(c.nprocs, params_of(c), 1u << 12, c.eliminate);
  std::vector<std::vector<u64>> popped(c.nprocs);
  std::vector<u64> pushed(c.nprocs, 0);
  sim::Engine eng(c.nprocs, {}, c.seed);
  eng.run([&](ProcId id) {
    for (u32 i = 0; i < 20; ++i) {
      if (SimPlatform::flip()) {
        ASSERT_TRUE(st.push((static_cast<u64>(id) << 32) | i));
        ++pushed[id];
      } else if (auto v = st.pop()) {
        popped[id].push_back(*v);
      }
    }
  });
  eng.run([&](ProcId id) {
    if (id != 0) return;
    while (auto v = st.pop()) popped[0].push_back(*v);
  });
  u64 total_pushed = 0, total_popped = 0;
  std::set<u64> uniq;
  for (u64 n : pushed) total_pushed += n;
  for (const auto& v : popped) {
    total_popped += v.size();
    uniq.insert(v.begin(), v.end());
  }
  EXPECT_EQ(total_popped, total_pushed);
  EXPECT_EQ(uniq.size(), total_popped);
}

INSTANTIATE_TEST_SUITE_P(Grid, StackGrid, ::testing::ValuesIn(grid()),
                         ::testing::PrintToStringParamName());

// The per-depth geometry rule: a funnel d levels below the root gets the
// root's layer widths shifted right by d, floored at one slot; nothing else
// about the geometry changes.
TEST(FunnelParamsForDepth, WidthsHalvePerDepthAndFloorAtOne) {
  const FunnelParams root = FunnelParams::for_procs(256);
  const FunnelParams d2 = root.for_depth(2);
  EXPECT_EQ(d2.width, (std::array<u32, kMaxFunnelLevels>{16, 8, 4, 2, 1, 1}));
  EXPECT_EQ(root.for_depth(0).width, root.width);
  EXPECT_EQ(root.for_depth(9).width, (std::array<u32, kMaxFunnelLevels>{1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(root.for_depth(40).width, (std::array<u32, kMaxFunnelLevels>{1, 1, 1, 1, 1, 1}));

  FunnelParams other = FunnelParams::for_procs(256, FunnelProtocol::kAggregate);
  other.batch_limit = 16;
  other.adaptive = false;
  other.adapt_min = 0.5;
  for (const FunnelParams& p : {root, other}) {
    const FunnelParams q = p.for_depth(3);
    EXPECT_EQ(q.levels, p.levels);
    EXPECT_EQ(q.attempts, p.attempts);
    EXPECT_EQ(q.spin, p.spin);
    EXPECT_EQ(q.adaptive, p.adaptive);
    EXPECT_EQ(q.adapt_min, p.adapt_min);
    EXPECT_EQ(q.batch_limit, p.batch_limit);
    EXPECT_EQ(q.protocol, p.protocol);
    EXPECT_EQ(q.agg_wait, p.agg_wait);
  }
}

// FunnelTree applies the rule by heap depth: at 256 processors and 16
// priorities the root counter keeps for_procs(256)'s first width (64), a
// depth-3 counter gets 8, and the bins, at depth log2(16) = 4, get 4.
TEST(FunnelParamsForDepth, FunnelTreeNarrowsFunnelsByDepth) {
  const PqParams params{.npriorities = 16, .maxprocs = 256};
  FunnelTreePq<SimPlatform> pq(params);
  EXPECT_EQ(pq.counter_params(1).width[0], 64u);
  EXPECT_EQ(pq.counter_params(8).width[0], 8u);
  EXPECT_EQ(pq.counter_params(15).width[0], 8u);
  EXPECT_EQ(pq.bin_params(0).width[0], 4u);
  EXPECT_EQ(pq.bin_params(15).width[0], 4u);
  EXPECT_EQ(pq.counter_params(8).levels, pq.counter_params(1).levels);
}

} // namespace
} // namespace fpq
