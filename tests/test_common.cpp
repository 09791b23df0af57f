// Unit tests for src/common (PRNG, entry packing, bit helpers, padding).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bits.hpp"
#include "common/entry.hpp"
#include "common/padded.hpp"
#include "common/rng.hpp"

namespace fpq {
namespace {

TEST(Xorshift, DeterministicForEqualSeeds) {
  Xorshift a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xorshift, DifferentSeedsDiverge) {
  Xorshift a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Xorshift, ConsecutiveSeedsAreUncorrelated) {
  // splitmix mixing: seeds 0..7 should not produce near-identical streams.
  std::set<u64> firsts;
  for (u64 s = 0; s < 8; ++s) firsts.insert(Xorshift(s).next());
  EXPECT_EQ(firsts.size(), 8u);
}

TEST(Xorshift, BelowStaysInRange) {
  Xorshift r(7);
  for (u64 bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Xorshift, BelowOneIsAlwaysZero) {
  Xorshift r(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Xorshift, BelowCoversSmallRange) {
  Xorshift r(11);
  std::set<u64> seen;
  for (int i = 0; i < 400; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xorshift, FlipIsRoughlyBalanced) {
  Xorshift r(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.flip() ? 1 : 0;
  EXPECT_GT(heads, 4600);
  EXPECT_LT(heads, 5400);
}

TEST(Entry, PackUnpackRoundTrip) {
  for (Prio p : {0u, 1u, 7u, 511u, 65534u}) {
    for (Item v : {0ull, 1ull, 42ull, (1ull << 48) - 1}) {
      const Entry e{p, v};
      EXPECT_EQ(unpack_entry(pack_entry(e)), e);
    }
  }
}

TEST(Entry, PackedComparisonOrdersByPriorityFirst) {
  EXPECT_LT(pack_entry({1, 999}), pack_entry({2, 0}));
  EXPECT_LT(pack_entry({3, 5}), pack_entry({3, 6}));
  EXPECT_GT(pack_entry({100, 0}), pack_entry({99, kMaxPackableItem}));
}

TEST(Entry, NoLegalEntryPacksToSentinel) {
  EXPECT_NE(pack_entry({kMaxPackablePrio - 1, kMaxPackableItem}), kNoEntry);
  EXPECT_NE(pack_entry({0, 0}), kNoEntry);
}

TEST(Entry, PackRejectsOutOfRange) {
  EXPECT_DEATH(pack_entry({kMaxPackablePrio, 0}), "priority");
  EXPECT_DEATH(pack_entry({0, kMaxPackableItem + 1}), "item");
}

TEST(Bits, RoundUpPow2) {
  EXPECT_EQ(round_up_pow2(0), 1u);
  EXPECT_EQ(round_up_pow2(1), 1u);
  EXPECT_EQ(round_up_pow2(2), 2u);
  EXPECT_EQ(round_up_pow2(3), 4u);
  EXPECT_EQ(round_up_pow2(4), 4u);
  EXPECT_EQ(round_up_pow2(5), 8u);
  EXPECT_EQ(round_up_pow2(513), 1024u);
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(255), 7u);
  EXPECT_EQ(floor_log2(256), 8u);
}

TEST(Padded, OccupiesFullCacheLines) {
  EXPECT_EQ(sizeof(Padded<u32>) % kCacheLineBytes, 0u);
  EXPECT_EQ(alignof(Padded<u32>), kCacheLineBytes);
  std::vector<Padded<u64>> v(4);
  const auto a = reinterpret_cast<std::uintptr_t>(&v[0]);
  const auto b = reinterpret_cast<std::uintptr_t>(&v[1]);
  EXPECT_GE(b - a, static_cast<std::uintptr_t>(kCacheLineBytes));
}

} // namespace
} // namespace fpq
