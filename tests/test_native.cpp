// Native-backend tests: the same algorithms under real std::atomic and
// std::thread. Thread counts stay small (the build machine may have one
// core); these validate that nothing in the algorithms depends on the
// simulator's cooperative scheduling.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "container/bin.hpp"
#include "core/registry.hpp"
#include "funnel/counter.hpp"
#include "funnel/stack.hpp"
#include "platform/native.hpp"
#include "sync/mcs_lock.hpp"
#include "verify/quiescent.hpp"

namespace fpq {
namespace {

constexpr u32 kThreads = 4;

TEST(NativePlatform, RunExecutesAllAndPropagatesException) {
  std::atomic<u32> ran{0};
  NativePlatform::run(kThreads, [&](ProcId) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), kThreads);
  EXPECT_THROW(NativePlatform::run(2,
                                   [&](ProcId id) {
                                     if (id == 1) throw std::logic_error("x");
                                   }),
               std::logic_error);
}

TEST(NativePlatform, SelfAndNprocsVisible) {
  std::atomic<u32> sum{0};
  NativePlatform::run(kThreads, [&](ProcId id) {
    EXPECT_EQ(NativePlatform::self(), id);
    EXPECT_EQ(NativePlatform::nprocs(), kThreads);
    sum.fetch_add(id);
  });
  EXPECT_EQ(sum.load(), 0u + 1 + 2 + 3);
}

TEST(NativePlatform, AdoptRelease) {
  NativePlatform::adopt(5, 8, 99);
  EXPECT_EQ(NativePlatform::self(), 5u);
  EXPECT_EQ(NativePlatform::nprocs(), 8u);
  EXPECT_LT(NativePlatform::rnd(10), 10u);
  NativePlatform::release();
}

TEST(NativeMcsLock, MutualExclusion) {
  McsLock<NativePlatform> lock(kThreads);
  u64 a = 0, b = 0; // plain: any violation shows as a desync under TSAN-less
  NativePlatform::run(kThreads, [&](ProcId) {
    for (int i = 0; i < 500; ++i) {
      McsGuard<NativePlatform> g(lock);
      ++a;
      ++b;
    }
  });
  EXPECT_EQ(a, kThreads * 500u);
  EXPECT_EQ(b, a);
}

TEST(NativeLockedBin, Conservation) {
  LockedBin<NativePlatform> bin(kThreads, 1 << 14);
  std::atomic<u64> removed{0};
  NativePlatform::run(kThreads, [&](ProcId id) {
    for (u32 i = 0; i < 300; ++i) {
      ASSERT_TRUE(bin.insert((static_cast<u64>(id) << 32) | i));
      if (NativePlatform::flip() && bin.remove()) removed.fetch_add(1);
    }
  });
  u64 drained = 0;
  NativePlatform::run(1, [&](ProcId) {
    while (bin.remove()) ++drained;
  });
  EXPECT_EQ(removed.load() + drained, kThreads * 300u);
}

TEST(NativeFunnelCounter, FaiPermutation) {
  FunnelCounter<NativePlatform> c(kThreads, FunnelParams::for_procs(kThreads),
                                  {true, true, 0}, 0);
  std::vector<std::vector<i64>> got(kThreads);
  NativePlatform::run(kThreads, [&](ProcId id) {
    for (u32 i = 0; i < 400; ++i) got[id].push_back(c.fai());
  });
  std::set<i64> uniq;
  for (const auto& v : got) uniq.insert(v.begin(), v.end());
  EXPECT_EQ(uniq.size(), kThreads * 400u);
  EXPECT_EQ(c.read(), static_cast<i64>(kThreads * 400u));
}

TEST(NativeFunnelCounter, BfadInvariant) {
  FunnelCounter<NativePlatform> c(kThreads, FunnelParams::for_procs(kThreads),
                                  {true, true, 0}, 0);
  std::atomic<u64> incs{0}, effective{0};
  NativePlatform::run(kThreads, [&](ProcId) {
    for (u32 i = 0; i < 400; ++i) {
      if (NativePlatform::flip()) {
        c.fai();
        incs.fetch_add(1);
      } else {
        const i64 before = c.bfad(0);
        ASSERT_GE(before, 0);
        if (before > 0) effective.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(c.read(), static_cast<i64>(incs.load()) - static_cast<i64>(effective.load()));
  EXPECT_GE(c.read(), 0);
}

TEST(NativeFunnelStack, Conservation) {
  FunnelStack<NativePlatform> st(kThreads, FunnelParams::for_procs(kThreads), 1 << 14);
  std::atomic<u64> pushed{0}, popped{0};
  NativePlatform::run(kThreads, [&](ProcId id) {
    for (u32 i = 0; i < 300; ++i) {
      if (NativePlatform::flip()) {
        ASSERT_TRUE(st.push((static_cast<u64>(id) << 32) | i));
        pushed.fetch_add(1);
      } else if (st.pop()) {
        popped.fetch_add(1);
      }
    }
  });
  u64 drained = 0;
  NativePlatform::run(1, [&](ProcId) {
    while (st.pop()) ++drained;
  });
  EXPECT_EQ(popped.load() + drained, pushed.load());
}

// ---- Aggregation collision protocol (DESIGN.md §13) under real threads:
// the join CAS / close exchange / verdict release handshake is exactly
// what TSan must see as ordered here.

TEST(NativeAggregateCounter, FaiPermutation) {
  FunnelCounter<NativePlatform> c(
      kThreads, FunnelParams::for_procs(kThreads, FunnelProtocol::kAggregate),
      {true, true, 0}, 0);
  std::vector<std::vector<i64>> got(kThreads);
  NativePlatform::run(kThreads, [&](ProcId id) {
    for (u32 i = 0; i < 400; ++i) got[id].push_back(c.fai());
  });
  std::set<i64> uniq;
  for (const auto& v : got) uniq.insert(v.begin(), v.end());
  EXPECT_EQ(uniq.size(), kThreads * 400u);
  EXPECT_EQ(c.read(), static_cast<i64>(kThreads * 400u));
}

TEST(NativeAggregateStack, BatchedConservation) {
  FunnelParams fp = FunnelParams::for_procs(kThreads, FunnelProtocol::kAggregate);
  fp.batch_limit = 4;
  FunnelStack<NativePlatform> st(kThreads, fp, 1 << 14);
  std::atomic<u64> pushed{0}, popped{0};
  NativePlatform::run(kThreads, [&](ProcId id) {
    Item buf[4];
    for (u32 i = 0; i < 300; ++i) {
      const u32 k = 1 + static_cast<u32>(NativePlatform::rnd(4));
      if (NativePlatform::flip()) {
        for (u32 j = 0; j < k; ++j)
          buf[j] = (static_cast<u64>(id) << 32) | (i * 8 + j + 1);
        pushed.fetch_add(st.push_batch(buf, k));
      } else {
        popped.fetch_add(st.pop_batch(buf, k));
      }
    }
  });
  u64 drained = 0;
  NativePlatform::run(1, [&](ProcId) {
    while (st.pop()) ++drained;
  });
  EXPECT_EQ(popped.load() + drained, pushed.load());
}

TEST(NativeAggregateQueues, ConcurrentConservation) {
  for (Algorithm algo : {Algorithm::kLinearFunnels, Algorithm::kFunnelTree}) {
    PqParams params{.npriorities = 16, .maxprocs = kThreads, .bin_capacity = 1u << 13};
    FunnelOptions opts;
    opts.protocol = FunnelProtocol::kAggregate;
    auto pq = make_priority_queue<NativePlatform>(algo, params, opts);
    std::atomic<u64> inserted{0}, deleted{0};
    NativePlatform::run(kThreads, [&](ProcId id) {
      for (u32 i = 0; i < 250; ++i) {
        if (NativePlatform::flip()) {
          ASSERT_TRUE(pq->insert(static_cast<Prio>(NativePlatform::rnd(16)),
                                 (static_cast<u64>(id) << 24) | i));
          inserted.fetch_add(1);
        } else if (pq->delete_min()) {
          deleted.fetch_add(1);
        }
      }
    });
    u64 drained = 0;
    NativePlatform::run(1, [&](ProcId) {
      while (pq->delete_min()) ++drained;
    });
    EXPECT_EQ(deleted.load() + drained, inserted.load()) << to_string(algo);
  }
}

class NativeQueues : public ::testing::TestWithParam<Algorithm> {};

TEST_P(NativeQueues, ConcurrentConservation) {
  PqParams params{.npriorities = 16, .maxprocs = kThreads, .bin_capacity = 1u << 13};
  auto pq = make_priority_queue<NativePlatform>(GetParam(), params);
  std::atomic<u64> inserted{0}, deleted{0};
  NativePlatform::run(kThreads, [&](ProcId id) {
    for (u32 i = 0; i < 250; ++i) {
      if (NativePlatform::flip()) {
        ASSERT_TRUE(pq->insert(static_cast<Prio>(NativePlatform::rnd(16)),
                               (static_cast<u64>(id) << 24) | i));
        inserted.fetch_add(1);
      } else if (pq->delete_min()) {
        deleted.fetch_add(1);
      }
    }
  });
  u64 drained = 0;
  NativePlatform::run(1, [&](ProcId) {
    while (pq->delete_min()) ++drained;
  });
  EXPECT_EQ(deleted.load() + drained, inserted.load());
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, NativeQueues, ::testing::ValuesIn(all_algorithms()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- Batched entry points under real threads (the TSan gate for the
// DESIGN.md §9 batch pipeline): conservation per element, item
// uniqueness, and a sorted quiescent drain.
void batch_conservation(Algorithm algo, u32 nprio, FunnelProtocol protocol) {
  constexpr u32 kBatch = 8;
  PqParams params{.npriorities = nprio, .maxprocs = kThreads, .bin_capacity = 1u << 13};
  params.max_batch = kBatch;
  FunnelOptions opts;
  opts.protocol = protocol;
  auto pq = make_priority_queue<NativePlatform>(algo, params, opts);
  std::atomic<u64> inserted{0}, deleted{0};
  NativePlatform::run(kThreads, [&](ProcId id) {
    for (u32 round = 0; round < 40; ++round) {
      if (NativePlatform::flip()) {
        std::vector<Entry> in(kBatch);
        for (u32 i = 0; i < kBatch; ++i)
          in[i] = Entry{static_cast<Prio>(NativePlatform::rnd(nprio)),
                        (static_cast<u64>(id) << 24) | (round * kBatch + i)};
        ASSERT_EQ(pq->insert_batch(in), kBatch);
        inserted.fetch_add(kBatch);
      } else {
        std::vector<Entry> out(kBatch);
        deleted.fetch_add(pq->delete_min_batch(out));
      }
    }
  });
  // Quiescent drain: batched deletes must come back sorted and account
  // for every remaining item exactly once.
  std::vector<Entry> drained;
  NativePlatform::run(1, [&](ProcId) {
    std::vector<Entry> out(kBatch);
    for (u32 got; (got = pq->delete_min_batch(out)) > 0;)
      drained.insert(drained.end(), out.begin(), out.begin() + got);
  });
  EXPECT_EQ(deleted.load() + drained.size(), inserted.load());
  const auto r = check_drain_sorted(drained);
  EXPECT_TRUE(r.ok) << r.diagnostic;
  std::set<u64> unique;
  for (const Entry& e : drained) EXPECT_TRUE(unique.insert(e.item).second);
}

class NativeBatchedQueues : public ::testing::TestWithParam<Algorithm> {};

TEST_P(NativeBatchedQueues, ConcurrentBatchConservation) {
  batch_conservation(GetParam(), 16, FunnelProtocol::kExchange);
}

// 64 priorities put FunnelTree's heap nodes at depths 4 and 5 below the
// funnel cut-off, so batches reach the MCS counters' fai_batch and
// bfad_batch, and the bins, at depth 6, are single-slot funnels.
TEST(NativeBatchedFunnelTree, DeepTreeConservation) {
  for (FunnelProtocol protocol : {FunnelProtocol::kExchange, FunnelProtocol::kAggregate}) {
    SCOPED_TRACE(to_string(protocol));
    batch_conservation(Algorithm::kFunnelTree, 64, protocol);
  }
}

INSTANTIATE_TEST_SUITE_P(FunnelsAndFallback, NativeBatchedQueues,
                         ::testing::Values(Algorithm::kLinearFunnels,
                                           Algorithm::kFunnelTree,
                                           Algorithm::kSingleLock),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(NativeQueues, SequentialSanityFunnelTree) {
  PqParams params{.npriorities = 32, .maxprocs = 1};
  auto pq = make_priority_queue<NativePlatform>(Algorithm::kFunnelTree, params);
  NativePlatform::run(1, [&](ProcId) {
    pq->insert(9, 1);
    pq->insert(4, 2);
    pq->insert(31, 3);
    EXPECT_EQ(pq->delete_min()->prio, 4u);
    EXPECT_EQ(pq->delete_min()->prio, 9u);
    EXPECT_EQ(pq->delete_min()->prio, 31u);
    EXPECT_FALSE(pq->delete_min().has_value());
  });
}

} // namespace
} // namespace fpq
