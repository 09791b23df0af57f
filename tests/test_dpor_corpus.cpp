// Seeded-bug corpus for the DPOR model checker: this file is compiled
// three times (tests/CMakeLists.txt), each with exactly one
// FPQ_SEEDED_BUG_* definition re-introducing a historical ordering bug
// behind an #ifdef:
//
//   FPQ_SEEDED_BUG_REACTIVE_SB — the reactive counter's announce/recheck
//     downgraded to relaxed (the PR 3 store-buffering race).
//   FPQ_SEEDED_BUG_AGG_VERDICT — the aggregate representative's child-sum
//     read moved after its verdict release (the PR 8 read-after-release).
//   FPQ_SEEDED_BUG_HP_RELAXED  — the hazard-pointer publish/validate
//     downgraded to relaxed (the PR 6 under-annotated handshake).
//
// Each mutation must be found, as a happens-before race, within the
// default exploration budget — on the *same* litmus configs that
// tests/test_dpor.cpp proves clean and completely explored when the
// mutation is compiled out. That pairing is the acceptance criterion:
// detection on a config that was never clean proves nothing.
#include <gtest/gtest.h>

#include "dpor_litmus.hpp"

namespace fpq {
namespace {

void expect_race_found(const sim::ExploreOutcome& out) {
  ASSERT_TRUE(out.violation) << "mutation survived exhaustive exploration: "
                             << sim::to_string(out.stats);
  EXPECT_NE(out.diagnostic.find("race"), std::string::npos)
      << "expected a detector race, got: " << out.diagnostic;
}

#if defined(FPQ_SEEDED_BUG_REACTIVE_SB)

TEST(DporCorpus, FindsReactiveStoreBufferingRace) {
  // Detection needs an op's relaxed announce unordered against the
  // switcher's deciding drain probe — i.e. an op in flight while the other
  // processor's first completed op (up_streak=1, high_wait=0) runs the
  // mode switch. Schedules where the op retires first are ordered through
  // the release retire / probe read edge, so only exploration finds it.
  expect_race_found(dpor_litmus::explore_reactive(2, 1));
}

#elif defined(FPQ_SEEDED_BUG_AGG_VERDICT)

TEST(DporCorpus, FindsAggregateVerdictReadAfterRelease) {
  // Once the representative's csum read trails its kStCount release, the
  // released child may start its second operation and write its sum word
  // concurrently with that read — the width-1 litmus funnel makes the two
  // processors collide, and the child's next-op relaxed sum store is
  // unordered against the late read.
  // Pinned: found at execution 54. The index depends on the funnel's
  // exact access sequence, so any change to it must be explained in the
  // corpus table of EXPERIMENTS.md.
  const auto out = dpor_litmus::explore_funnel_counter(FunnelProtocol::kAggregate, 2, 2);
  expect_race_found(out);
  EXPECT_EQ(out.violating_exec, 54u) << sim::to_string(out.stats);
}

#elif defined(FPQ_SEEDED_BUG_HP_RELAXED)

TEST(DporCorpus, FindsHazardPublishRace) {
  // A relaxed hazard publish is unordered against the reclaimer's scan
  // read in exactly the schedules where the scan overlaps the window
  // between publish and the release clear; the clear's release edge hides
  // the bug in every sequential schedule, so again only exploration
  // reaches it.
  expect_race_found(dpor_litmus::explore_hazard());
}

#else
#error "test_dpor_corpus.cpp must be compiled with exactly one FPQ_SEEDED_BUG_* mutation"
#endif

} // namespace
} // namespace fpq
