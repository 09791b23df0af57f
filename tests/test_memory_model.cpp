// Tests of the ccNUMA memory model: mesh geometry, MSI transitions, cost
// composition, module occupancy queueing (the hot-spot mechanism),
// invalidation accounting and the line version counters.
#include <gtest/gtest.h>

#include <vector>

#include "sim/memory.hpp"

namespace fpq::sim {
namespace {

MachineParams flat_params() {
  MachineParams p;
  p.t_hit = 2;
  p.t_mem = 30;
  p.t_occ = 25;
  p.t_net_base = 4;
  p.t_hop = 1;
  p.t_dirty_fetch = 30;
  p.t_inv_base = 8;
  p.t_inv_per_sharer = 2;
  return p;
}

TEST(Mesh, SideCoversNodes) {
  EXPECT_EQ(Mesh(1).side, 1u);
  EXPECT_EQ(Mesh(2).side, 2u);
  EXPECT_EQ(Mesh(4).side, 2u);
  EXPECT_EQ(Mesh(5).side, 3u);
  EXPECT_EQ(Mesh(256).side, 16u);
  EXPECT_EQ(Mesh(257).side, 17u);
}

TEST(Mesh, ManhattanDistance) {
  Mesh m(16); // 4x4
  EXPECT_EQ(m.hops(0, 0), 0u);
  EXPECT_EQ(m.hops(0, 3), 3u);
  EXPECT_EQ(m.hops(0, 15), 6u); // (0,0) -> (3,3)
  EXPECT_EQ(m.hops(5, 6), 1u);
  EXPECT_EQ(m.hops(3, 12), 6u); // (3,0) -> (0,3)
  EXPECT_EQ(m.hops(9, 9), 0u);
}

TEST(Mesh, Symmetric) {
  Mesh m(64);
  for (u32 a = 0; a < 64; a += 7)
    for (u32 b = 0; b < 64; b += 5) EXPECT_EQ(m.hops(a, b), m.hops(b, a));
}

TEST(MemoryModel, FirstReadMissesThenHits) {
  MemoryModel mm(4, flat_params());
  u64 word = 0;
  auto r1 = mm.access(0, &word, AccessKind::Read, 0);
  EXPECT_FALSE(r1.hit);
  auto r2 = mm.access(0, &word, AccessKind::Read, r1.completion);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(r2.completion, r1.completion + flat_params().t_hit);
}

TEST(MemoryModel, ReadMissEntersSharedState) {
  MemoryModel mm(4, flat_params());
  u64 word = 0;
  mm.access(1, &word, AccessKind::Read, 0);
  EXPECT_EQ(mm.state_of(&word), Line::State::SharedClean);
  EXPECT_EQ(mm.sharer_count(&word), 1u);
  mm.access(2, &word, AccessKind::Read, 0);
  EXPECT_EQ(mm.sharer_count(&word), 2u);
}

TEST(MemoryModel, WriteTakesModifiedOwnership) {
  MemoryModel mm(4, flat_params());
  u64 word = 0;
  mm.access(1, &word, AccessKind::Write, 0);
  EXPECT_EQ(mm.state_of(&word), Line::State::Modified);
  EXPECT_EQ(mm.owner_of(&word), 1u);
}

TEST(MemoryModel, WriteHitInOwnModifiedLineIsCheap) {
  MemoryModel mm(4, flat_params());
  u64 word = 0;
  auto w1 = mm.access(1, &word, AccessKind::Write, 0);
  auto w2 = mm.access(1, &word, AccessKind::Write, w1.completion);
  EXPECT_TRUE(w2.hit);
  EXPECT_EQ(w2.completion, w1.completion + flat_params().t_hit);
}

TEST(MemoryModel, WriteInvalidatesSharers) {
  MemoryModel mm(8, flat_params());
  u64 word = 0;
  for (ProcId p = 0; p < 5; ++p) mm.access(p, &word, AccessKind::Read, 0);
  const u64 inv_before = mm.stats().invalidations;
  mm.access(6, &word, AccessKind::Write, 0);
  EXPECT_EQ(mm.stats().invalidations - inv_before, 5u);
  EXPECT_EQ(mm.state_of(&word), Line::State::Modified);
  EXPECT_EQ(mm.sharer_count(&word), 1u); // only the writer
}

TEST(MemoryModel, MoreSharersCostMoreToInvalidate) {
  auto cost_with_sharers = [](u32 nsharers) {
    MemoryModel mm(32, flat_params());
    u64 word = 0;
    for (ProcId p = 0; p < nsharers; ++p) mm.access(p, &word, AccessKind::Read, 0);
    // Use a write from a non-sharer at a late time (no queueing interference).
    return mm.access(31, &word, AccessKind::Write, 100000).completion - 100000;
  };
  EXPECT_GT(cost_with_sharers(10), cost_with_sharers(2));
}

TEST(MemoryModel, DirtyRemoteFetchCostsMore) {
  MachineParams p = flat_params();
  MemoryModel mm(4, p);
  u64 a = 0, b = 0;
  mm.access(0, &a, AccessKind::Write, 0); // a dirty at proc 0
  const Cycles clean = mm.access(1, &b, AccessKind::Read, 100000).completion - 100000;
  const Cycles dirty = mm.access(1, &a, AccessKind::Read, 200000).completion - 200000;
  // Same topology distances are not guaranteed for different words, so
  // compare against the maximum possible network delta instead.
  Mesh mesh(4);
  const Cycles max_net_delta = 2 * p.t_hop * (2 * (mesh.side - 1)) + 1;
  EXPECT_GE(dirty + max_net_delta, clean + p.t_dirty_fetch);
}

TEST(MemoryModel, ReadOfDirtyLineDowngradesOwner) {
  MemoryModel mm(4, flat_params());
  u64 word = 0;
  mm.access(0, &word, AccessKind::Write, 0);
  mm.access(1, &word, AccessKind::Read, 1000);
  EXPECT_EQ(mm.state_of(&word), Line::State::SharedClean);
  EXPECT_EQ(mm.sharer_count(&word), 2u); // old owner + reader
}

TEST(MemoryModel, ModuleOccupancyQueuesConcurrentRequests) {
  // Two processors missing on the same word at the same instant: the second
  // request waits for the module.
  MachineParams p = flat_params();
  MemoryModel mm(4, p);
  u64 word = 0;
  const u64 wait0 = mm.stats().module_wait_cycles;
  mm.access(0, &word, AccessKind::Read, 0);
  mm.access(1, &word, AccessKind::Read, 0);
  mm.access(2, &word, AccessKind::Read, 0);
  EXPECT_GT(mm.stats().module_wait_cycles, wait0);
}

TEST(MemoryModel, HotWordQueueingGrowsLinearly) {
  // N simultaneous misses on one word: the last completion grows ~ N * t_occ.
  MachineParams p = flat_params();
  auto last_completion = [&](u32 n) {
    MemoryModel mm(64, p);
    u64 word = 0;
    Cycles last = 0;
    for (ProcId i = 0; i < n; ++i)
      last = std::max(last, mm.access(i, &word, AccessKind::Read, 0).completion);
    return last;
  };
  const Cycles c8 = last_completion(8);
  const Cycles c32 = last_completion(32);
  EXPECT_GE(c32 - c8, 20 * p.t_occ); // 24 extra requests, within slack
}

TEST(MemoryModel, IndependentWordsDoNotQueueBehindEachOther) {
  // Different words nearly always map to different modules; aggregate wait
  // should be much smaller than for one hot word.
  MachineParams p = flat_params();
  MemoryModel hot(64, p), spread(64, p);
  u64 word = 0;
  std::vector<u64> words(64, 0);
  for (ProcId i = 0; i < 64; ++i) hot.access(i, &word, AccessKind::Read, 0);
  for (ProcId i = 0; i < 64; ++i) spread.access(i, &words[i], AccessKind::Read, 0);
  EXPECT_GT(hot.stats().module_wait_cycles, 4 * spread.stats().module_wait_cycles);
}

TEST(MemoryModel, VersionBumpsOnWritesOnly) {
  MemoryModel mm(4, flat_params());
  u64 word = 0;
  const u64 v0 = mm.line_version(&word);
  mm.access(0, &word, AccessKind::Read, 0);
  EXPECT_EQ(mm.line_version(&word), v0);
  mm.access(0, &word, AccessKind::Write, 0);
  EXPECT_EQ(mm.line_version(&word), v0 + 1);
  mm.access(1, &word, AccessKind::Rmw, 0);
  EXPECT_EQ(mm.line_version(&word), v0 + 2);
}

TEST(MemoryModel, WakesWaitersOnWrite) {
  MemoryModel mm(4, flat_params());
  u64 word = 0;
  mm.add_waiter(&word, 2);
  mm.add_waiter(&word, 3);
  auto r = mm.access(0, &word, AccessKind::Write, 0);
  ASSERT_EQ(r.woken.size(), 2u);
  EXPECT_EQ(r.woken[0], 2u);
  EXPECT_EQ(r.woken[1], 3u);
  // Waiter list is consumed.
  auto r2 = mm.access(1, &word, AccessKind::Write, 100);
  EXPECT_TRUE(r2.woken.empty());
}

TEST(MemoryModel, ReadsDoNotWakeWaiters) {
  MemoryModel mm(4, flat_params());
  u64 word = 0;
  mm.add_waiter(&word, 2);
  auto r = mm.access(0, &word, AccessKind::Read, 0);
  EXPECT_TRUE(r.woken.empty());
}

TEST(MemoryModel, HomeModuleIsStablePerWord) {
  MemoryModel mm(16, flat_params());
  u64 words[8] = {};
  for (auto& w : words) {
    EXPECT_EQ(mm.home_of(&w), mm.home_of(&w));
    EXPECT_LT(mm.home_of(&w), 16u);
  }
}

TEST(MemoryModel, StatsTallyKinds) {
  MemoryModel mm(2, flat_params());
  u64 word = 0;
  mm.access(0, &word, AccessKind::Read, 0);
  mm.access(0, &word, AccessKind::Write, 0);
  mm.access(0, &word, AccessKind::Rmw, 0);
  EXPECT_EQ(mm.stats().reads, 1u);
  EXPECT_EQ(mm.stats().writes, 1u);
  EXPECT_EQ(mm.stats().rmws, 1u);
}

TEST(SharerSet, CountAndExclusion) {
  u64 words[kMaxSimProcs / 64] = {};
  SharerSet s(words, kMaxSimProcs / 64);
  EXPECT_EQ(s.count(), 0u);
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(1000);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.test(63));
  EXPECT_FALSE(s.test(62));
  EXPECT_EQ(s.count_excluding(64), 3u);
  EXPECT_EQ(s.count_excluding(5), 4u);
  s.reset(63);
  EXPECT_EQ(s.count(), 3u);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
}

// Sharer bits are sized to the machine: one word per 64 processors. The
// counts, state and owner must be exact at and around the word boundaries.
class SharerWidth : public ::testing::TestWithParam<u32> {};

TEST_P(SharerWidth, CountsStateAndOwnerAreExact) {
  const u32 n = GetParam();
  MemoryModel mm(n, flat_params());
  u64 word = 0, other = 0;
  for (ProcId p = 0; p < n; ++p) mm.access(p, &word, AccessKind::Read, 0);
  EXPECT_EQ(mm.state_of(&word), Line::State::SharedClean);
  EXPECT_EQ(mm.sharer_count(&word), n);
  EXPECT_EQ(mm.owner_of(&word), kNoProc);
  // A neighbouring word's sharer bits are its own.
  mm.access(n - 1, &other, AccessKind::Read, 0);
  EXPECT_EQ(mm.sharer_count(&other), 1u);
  EXPECT_EQ(mm.sharer_count(&word), n);

  const u64 inv_before = mm.stats().invalidations;
  mm.access(n - 1, &word, AccessKind::Write, 0);
  EXPECT_EQ(mm.stats().invalidations - inv_before, n - 1);
  EXPECT_EQ(mm.state_of(&word), Line::State::Modified);
  EXPECT_EQ(mm.owner_of(&word), n - 1);
  EXPECT_EQ(mm.sharer_count(&word), 1u);

  if (n > 1) { // a read by another processor downgrades the owner
    mm.access(0, &word, AccessKind::Read, 0);
    EXPECT_EQ(mm.state_of(&word), Line::State::SharedClean);
    EXPECT_EQ(mm.owner_of(&word), kNoProc);
    EXPECT_EQ(mm.sharer_count(&word), 2u);
  }

  // Ownership passes along every processor in turn.
  for (ProcId p = 0; p < n; ++p) {
    mm.access(p, &word, AccessKind::Rmw, 0);
    ASSERT_EQ(mm.owner_of(&word), p);
    ASSERT_EQ(mm.sharer_count(&word), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Procs, SharerWidth, ::testing::Values(1u, 63u, 64u, 65u, 256u, 1024u));

TEST(MemoryModel, WordKeysAreFirstTouchOrdinals) {
  MemoryModel mm(4, flat_params());
  std::vector<u64> words(3000);
  // Touch in a scattered order, with repeats: keys follow first touches.
  std::vector<u64> expect(words.size(), ~0ull);
  u64 next = 0;
  for (std::size_t i = 0; i < 3 * words.size(); ++i) {
    const std::size_t w = (i * 7919) % words.size();
    if (expect[w] == ~0ull) expect[w] = next++;
    mm.access(static_cast<ProcId>(i % 4), &words[w], AccessKind::Read, 0);
    ASSERT_EQ(mm.word_key(&words[w]), expect[w]);
  }
}

TEST(WordTable, EraseKeepsEveryOtherWordFindable) {
  WordTable t;
  const u64 n = 5000;
  for (u64 raw = 0; raw < n; ++raw) {
    const auto [k, fresh] = t.find_or_insert(raw * 3, raw);
    ASSERT_TRUE(fresh);
    ASSERT_EQ(k, raw);
  }
  // Erase every third word; the rest keep their values through the
  // backward shifts, and erased words read as absent.
  for (u64 raw = 0; raw < n; raw += 3) ASSERT_TRUE(t.erase(raw * 3));
  EXPECT_FALSE(t.erase(0)); // already erased
  EXPECT_FALSE(t.erase(1)); // never inserted
  EXPECT_EQ(t.size(), n - (n + 2) / 3);
  for (u64 raw = 0; raw < n; ++raw) {
    const auto [k, fresh] = t.find_or_insert(raw * 3, n + raw);
    if (raw % 3 == 0) {
      EXPECT_TRUE(fresh) << raw;
      EXPECT_EQ(k, n + raw);
    } else {
      EXPECT_FALSE(fresh) << raw;
      EXPECT_EQ(k, raw);
    }
  }
  EXPECT_EQ(t.size(), n);
}

} // namespace
} // namespace fpq::sim
