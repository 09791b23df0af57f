// Sequential conformance: each queue, driven by one processor, must match
// the reference ModelPq operation-for-operation (except SkipList, whose
// delete-bin scheme deliberately relaxes per-operation minimality — for it
// we check conservation and priority agreement at drain).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/registry.hpp"
#include "platform/sim.hpp"
#include "verify/model_pq.hpp"
#include "verify/quiescent.hpp"

namespace fpq {
namespace {

struct SeqCase {
  Algorithm algo;
  u32 npriorities;
  u64 seed;
};

void PrintTo(const SeqCase& c, std::ostream* os) {
  *os << to_string(c.algo) << "_N" << c.npriorities << "_s" << c.seed;
}

class SequentialConformance : public ::testing::TestWithParam<SeqCase> {};

TEST_P(SequentialConformance, MatchesModelExactly) {
  const auto [algo, npriorities, seed] = GetParam();
  PqParams params{.npriorities = npriorities, .maxprocs = 1, .bin_capacity = 4096};
  params.seed = seed;
  auto pq = make_priority_queue<SimPlatform>(algo, params);
  ModelPq model;
  Xorshift rng(seed);
  const bool exact = algo != Algorithm::kSkipList;

  sim::Engine eng(1, {}, seed);
  eng.run([&](ProcId) {
    u64 inserted = 0, deleted_q = 0, deleted_m = 0;
    for (u32 step = 0; step < 400; ++step) {
      if (rng.below(100) < 55) {
        const Prio p = static_cast<Prio>(rng.below(npriorities));
        const Item v = 1000 + step;
        ASSERT_TRUE(pq->insert(p, v));
        model.insert(p, v);
        ++inserted;
      } else {
        const auto got = pq->delete_min();
        if (exact) {
          // Exact minimality: the returned priority must be the model's
          // minimum; the tie order among equal priorities is unspecified
          // (Appendix B footnote), so items are checked by membership.
          ASSERT_EQ(got.has_value(), model.min_priority().has_value())
              << "at step " << step;
          if (got) {
            EXPECT_EQ(got->prio, *model.min_priority()) << "at step " << step;
            ASSERT_TRUE(model.remove(got->prio, got->item)) << "at step " << step;
          }
        } else if (got) {
          // SkipList: whatever it returns must exist in the model.
          ASSERT_TRUE(model.remove(got->prio, got->item))
              << "SkipList returned an item that was never inserted/was "
                 "already deleted";
        }
        if (got) ++deleted_q;
      }
    }
    // Drain both and compare remaining content as multisets.
    std::vector<Entry> left_q, left_m;
    while (auto e = pq->delete_min()) left_q.push_back(*e);
    while (auto e = model.delete_min()) left_m.push_back(*e);
    EXPECT_TRUE(same_entries(left_q, left_m));
    (void)inserted;
    (void)deleted_m;
  });
}

std::vector<SeqCase> sequential_cases() {
  std::vector<SeqCase> cases;
  for (Algorithm a : all_algorithms()) {
    for (u32 n : {1u, 2u, 16u, 100u}) {
      cases.push_back({a, n, 7});
    }
    cases.push_back({a, 16, 99});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, SequentialConformance,
                         ::testing::ValuesIn(sequential_cases()),
                         ::testing::PrintToStringParamName());

class DrainOrder : public ::testing::TestWithParam<Algorithm> {};

TEST_P(DrainOrder, FreshQueueDrainsSorted) {
  const Algorithm algo = GetParam();
  PqParams params{.npriorities = 64, .maxprocs = 1, .bin_capacity = 4096};
  auto pq = make_priority_queue<SimPlatform>(algo, params);
  sim::Engine eng(1, {}, 3);
  eng.run([&](ProcId) {
    Xorshift rng(5);
    for (u32 i = 0; i < 200; ++i)
      ASSERT_TRUE(pq->insert(static_cast<Prio>(rng.below(64)), i));
    std::vector<Entry> drained;
    while (auto e = pq->delete_min()) drained.push_back(*e);
    ASSERT_EQ(drained.size(), 200u);
    const auto r = check_drain_sorted(drained);
    EXPECT_TRUE(r.ok) << r.diagnostic;
  });
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, DrainOrder, ::testing::ValuesIn(all_algorithms()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

class EmptyBehavior : public ::testing::TestWithParam<Algorithm> {};

TEST_P(EmptyBehavior, DeleteMinOnEmptyIsNullopt) {
  PqParams params{.npriorities = 8, .maxprocs = 1};
  auto pq = make_priority_queue<SimPlatform>(GetParam(), params);
  sim::Engine eng(1);
  eng.run([&](ProcId) {
    EXPECT_FALSE(pq->delete_min().has_value());
    pq->insert(3, 42);
    auto e = pq->delete_min();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->prio, 3u);
    EXPECT_EQ(e->item, 42u);
    EXPECT_FALSE(pq->delete_min().has_value());
    // And again after cycling (regression: state left by a delete must not
    // wedge the next insert).
    pq->insert(7, 1);
    pq->insert(0, 2);
    EXPECT_EQ(pq->delete_min()->prio, 0u);
    EXPECT_EQ(pq->delete_min()->prio, 7u);
    EXPECT_FALSE(pq->delete_min().has_value());
  });
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, EmptyBehavior, ::testing::ValuesIn(all_algorithms()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

class SinglePriority : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SinglePriority, DegeneratesToAPool) {
  PqParams params{.npriorities = 1, .maxprocs = 1, .bin_capacity = 64};
  auto pq = make_priority_queue<SimPlatform>(GetParam(), params);
  sim::Engine eng(1);
  eng.run([&](ProcId) {
    for (u64 i = 0; i < 10; ++i) ASSERT_TRUE(pq->insert(0, i));
    std::set<u64> got;
    for (u64 i = 0; i < 10; ++i) {
      auto e = pq->delete_min();
      ASSERT_TRUE(e.has_value());
      EXPECT_EQ(e->prio, 0u);
      got.insert(e->item);
    }
    EXPECT_EQ(got.size(), 10u);
    EXPECT_FALSE(pq->delete_min().has_value());
  });
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, SinglePriority, ::testing::ValuesIn(all_algorithms()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- Batched entry points: one processor, so every queue (native
// aggregation or loop fallback) must show exact sequential semantics.
class BatchSequential : public ::testing::TestWithParam<Algorithm> {};

TEST_P(BatchSequential, InsertBatchThenDeleteMinBatchDrainsInOrder) {
  const Algorithm algo = GetParam();
  PqParams params{.npriorities = 16, .maxprocs = 1, .bin_capacity = 4096};
  params.max_batch = 8;
  auto pq = make_priority_queue<SimPlatform>(algo, params);
  sim::Engine eng(1, {}, 11);
  eng.run([&](ProcId) {
    Xorshift rng(11);
    std::vector<Entry> all;
    for (u32 round = 0; round < 6; ++round) {
      std::vector<Entry> batch;
      for (u32 i = 0; i < 8; ++i)
        batch.push_back(Entry{static_cast<Prio>(rng.below(16)), round * 100 + i});
      ASSERT_EQ(pq->insert_batch(batch), batch.size());
      all.insert(all.end(), batch.begin(), batch.end());
    }
    // Drain with batched deletes of varying width: each chunk must be
    // internally nondecreasing AND continue the global nondecreasing order.
    std::vector<Entry> drained;
    for (u32 want : {5u, 1u, 8u, 8u, 8u, 8u, 8u, 8u}) {
      std::vector<Entry> out(want);
      const u32 got = pq->delete_min_batch(out);
      for (u32 i = 0; i < got; ++i) drained.push_back(out[i]);
      if (got < want) break;
    }
    ASSERT_EQ(drained.size(), all.size());
    const auto r = check_drain_sorted(drained);
    EXPECT_TRUE(r.ok) << r.diagnostic;
    EXPECT_TRUE(same_entries(all, drained));
    // Empty queue: a batched delete comes back empty, not wedged.
    std::vector<Entry> out(4);
    EXPECT_EQ(pq->delete_min_batch(out), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, BatchSequential,
                         ::testing::ValuesIn(all_algorithms()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(BatchSequential, MixedPrioritiesSplitAcrossFunnelTreeSubtrees) {
  // The FunnelTree descent splits one size-k root BFaD across subtrees by
  // the counter values it reads; a batch spanning both halves of the tree
  // must come back complete and sorted.
  PqParams params{.npriorities = 8, .maxprocs = 1, .bin_capacity = 256};
  params.max_batch = 6;
  auto pq = make_priority_queue<SimPlatform>(Algorithm::kFunnelTree, params);
  sim::Engine eng(1, {}, 5);
  eng.run([&](ProcId) {
    const std::vector<Entry> batch{{7, 1}, {0, 2}, {3, 3}, {0, 4}, {5, 5}, {2, 6}};
    ASSERT_EQ(pq->insert_batch(batch), batch.size());
    std::vector<Entry> out(6);
    ASSERT_EQ(pq->delete_min_batch(out), 6u);
    const Prio expect[] = {0, 0, 2, 3, 5, 7};
    for (u32 i = 0; i < 6; ++i) EXPECT_EQ(out[i].prio, expect[i]) << "at " << i;
    EXPECT_TRUE(same_entries(batch, out));
  });
}

// ---- Bounded-wait delete-min on the queues with a native try path: run
// alone, it must find an item at any priority, not only in the half of the
// priority range a FunnelTree root counter covers.
class NativeTryDelete : public ::testing::TestWithParam<Algorithm> {};

TEST_P(NativeTryDelete, FindsOneItemAtEveryPriority) {
  for (const u32 npriorities : {1u, 13u, 16u}) {
    PqParams params{.npriorities = npriorities, .maxprocs = 1, .bin_capacity = 64};
    auto pq = make_priority_queue<SimPlatform>(GetParam(), params);
    sim::Engine eng(1);
    eng.run([&](ProcId) {
      for (Prio p = 0; p < npriorities; ++p) {
        ASSERT_TRUE(pq->insert(p, 100 + p));
        Entry e{};
        ASSERT_EQ(pq->try_delete_min(e, TryBudget{}), PqStatus::kOk)
            << "priority " << p << " of " << npriorities;
        EXPECT_EQ(e.prio, p);
        EXPECT_EQ(e.item, 100u + p);
        EXPECT_EQ(pq->try_delete_min(e, TryBudget{}), PqStatus::kEmpty)
            << "priority " << p << " of " << npriorities;
      }
    });
  }
}

std::vector<Algorithm> native_try_algorithms() {
  std::vector<Algorithm> out;
  for (Algorithm a : all_algorithms())
    if (has_native_try(a)) out.push_back(a);
  return out;
}

INSTANTIATE_TEST_SUITE_P(NativeTry, NativeTryDelete, ::testing::ValuesIn(native_try_algorithms()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(PqParamsValidation, RejectsNonsense) {
  PqParams p;
  p.npriorities = 0;
  EXPECT_DEATH(p.validate(), "npriorities");
  p = PqParams{};
  p.maxprocs = 0;
  EXPECT_DEATH(p.validate(), "maxprocs");
  p = PqParams{};
  p.bin_capacity = 0;
  EXPECT_DEATH(p.validate(), "bin_capacity");
}

TEST(Registry, NamesRoundTrip) {
  for (Algorithm a : all_algorithms()) {
    EXPECT_EQ(algorithm_from_string(to_string(a)), a);
  }
  EXPECT_THROW(algorithm_from_string("NoSuchQueue"), std::invalid_argument);
  EXPECT_EQ(all_algorithms().size(), 9u);
  EXPECT_EQ(scalable_algorithms().size(), 4u);
}

TEST(Registry, OutOfRangePriorityAborts) {
  PqParams params{.npriorities = 4, .maxprocs = 1};
  auto pq = make_priority_queue<SimPlatform>(Algorithm::kSimpleLinear, params);
  sim::Engine eng(1);
  EXPECT_DEATH(eng.run([&](ProcId) { pq->insert(4, 1); }), "bounded range");
}

} // namespace
} // namespace fpq
