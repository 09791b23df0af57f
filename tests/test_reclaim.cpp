// Reclamation torture battery for reclaim::Domain (DESIGN.md §11).
//
// Every node type here carries a canary that the retire deleter scribbles
// (0xDEAD...) before counting the free, so a use-after-reclaim shows up as
// a canary mismatch at the reader — not as silent memory reuse — and a
// double free trips the scribble check inside the deleter itself. A
// counting allocator balance (allocated == reclaimed, limbo empty) closes
// the leak side. ReclaimHazard pins down the hazard-pointer guarantee
// itself: a published hazard defers the free across any number of scans.
//
// The final suite is the race-detector negative control (ISSUE satellite):
// an under-annotated hazard handshake — relaxed publish/scan instead of the
// seq_cst contract argued in hazard.hpp — which the declared-ordering
// detector (DESIGN.md §10) must flag, while the correctly annotated
// handshake stays clean.
#include <gtest/gtest.h>

#include <vector>

#include "platform/sim.hpp"
#include "reclaim/policy.hpp"
#include "reclaim/reclaim.hpp"
#include "sim/race_detector.hpp"

namespace fpq {
namespace {

using reclaim::Domain;
using reclaim::DomainOptions;
using reclaim::DomainStats;
using reclaim::Guard;
using reclaim::Policy;

constexpr u64 kCanaryLive = 0xC0FFEE5A11ADull;
constexpr u64 kCanaryDead = 0xDEADDEADDEADDEADull;

struct CanaryNode {
  u64 canary = kCanaryLive;
  u64 payload = 0;
};

// Plain-memory accounting (no yields): mutated only by sim fibers, which
// the engine serializes onto one host thread.
struct Counting {
  u64 allocated = 0;
  u64 freed = 0;
  u64 double_frees = 0;
};
Counting* g_counting = nullptr;

CanaryNode* make_node(u64 payload) {
  ++g_counting->allocated;
  CanaryNode* n = new CanaryNode; // contract-lint tracked via scribble_free
  n->payload = payload;
  return n;
}

// The torture deleter: scribble first, then free, so any reader still
// holding the node sees kCanaryDead instead of stale-but-plausible data.
void scribble_free(void* p) {
  auto* n = static_cast<CanaryNode*>(p);
  if (n->canary == kCanaryDead) {
    ++g_counting->double_frees; // count, don't crash: the assert reads better
    return;
  }
  n->canary = kCanaryDead;
  n->payload = kCanaryDead;
  ++g_counting->freed;
  delete n;
}

DomainOptions options_for(u32 scan_threshold = 4) {
  return {.slots_per_proc = 4, .scan_threshold = scan_threshold};
}

// Parameterized with one value, hazard pointers, so the instance names
// (`/Hp`) stay stable for result tracking.
class ReclaimPolicy : public ::testing::TestWithParam<Policy> {
 protected:
  void SetUp() override { g_counting = &counting_; }
  void TearDown() override { g_counting = nullptr; }
  Counting counting_;
};

// ---- Basic lifecycle: everything retired is freed exactly once.

TEST_P(ReclaimPolicy, RetireFlushFreesEverythingOnce) {
  constexpr u32 kNodes = 37; // not a multiple of the scan threshold
  sim::Engine eng(2, {}, 11);
  Domain<SimPlatform> dom(2, options_for());
  eng.run([&](ProcId id) {
    for (u32 i = 0; i < kNodes; ++i) {
      Guard<SimPlatform> g(dom);
      g.retire(make_node(i), scribble_free);
    }
    (void)id;
  });
  dom.flush();
  const DomainStats s = dom.stats();
  EXPECT_EQ(s.retired, 2u * kNodes);
  EXPECT_EQ(s.reclaimed, 2u * kNodes);
  EXPECT_EQ(s.in_limbo, 0u);
  EXPECT_EQ(counting_.allocated, counting_.freed);
  EXPECT_EQ(counting_.double_frees, 0u);
}

// ---- Torture: readers chase pointers through shared cells while writers
// swap nodes out and retire them. Any premature free surfaces as a dead
// canary under a live guard; any leak as an allocation imbalance.

TEST_P(ReclaimPolicy, SwapAndChaseTortureKeepsCanariesLive) {
  constexpr u32 kProcs = 8;
  constexpr u32 kCells = 4;
  constexpr u32 kOps = 120;
  sim::Engine eng(kProcs, {}, 23);
  Domain<SimPlatform> dom(kProcs, options_for());
  std::vector<Padded<SimShared<u64>>> cells(kCells);
  eng.run([&](ProcId id) {
    if (id != 0) return;
    for (u32 c = 0; c < kCells; ++c)
      cells[c].value.store(reinterpret_cast<u64>(make_node(c)));
  });
  u64 canary_violations = 0;
  eng.run([&](ProcId id) {
    for (u32 i = 0; i < kOps; ++i) {
      const u32 c = static_cast<u32>(SimPlatform::rnd(kCells));
      Guard<SimPlatform> g(dom);
      const u64 w = g.protect(0, cells[c].value);
      auto* n = reinterpret_cast<CanaryNode*>(w);
      if (n->canary != kCanaryLive) ++canary_violations; // use-after-reclaim
      if (SimPlatform::flip()) {
        // Replace the cell's node and retire the one we displaced. The CAS
        // makes the displaced node unreachable-before-retire (the domain's
        // protocol contract); on failure someone else displaced it first
        // and its winner owns the retirement.
        CanaryNode* fresh = make_node((static_cast<u64>(id) << 32) | i);
        u64 expect = w;
        if (cells[c].value.compare_exchange(expect, reinterpret_cast<u64>(fresh))) {
          g.retire(n, scribble_free);
        } else {
          scribble_free(fresh); // never published: plain ownership free
        }
      }
    }
  });
  // Quiescent teardown: free the cells' final occupants, then drain limbo.
  eng.run([&](ProcId id) {
    if (id != 0) return;
    for (u32 c = 0; c < kCells; ++c)
      scribble_free(reinterpret_cast<CanaryNode*>(cells[c].value.load()));
  });
  dom.flush();
  EXPECT_EQ(canary_violations, 0u);
  EXPECT_EQ(dom.stats().in_limbo, 0u);
  EXPECT_EQ(counting_.allocated, counting_.freed);
  EXPECT_EQ(counting_.double_frees, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, ReclaimPolicy,
                         ::testing::Values(Policy::kHazardPointer),
                         [](const ::testing::TestParamInfo<Policy>&) { return "Hp"; });

// ---- HP-specific: a published hazard defers the free across any number
// of scans, and releasing it makes the very next flush reclaim.

TEST(ReclaimHazard, ProtectedNodeSurvivesScansUntilCleared) {
  Counting counting;
  g_counting = &counting;
  sim::Engine eng(2, {}, 31);
  Domain<SimPlatform> dom(2, options_for(/*scan_threshold=*/1));
  Padded<SimShared<u64>> cell;
  Padded<SimShared<u32>> protected_flag;
  CanaryNode* victim = nullptr;
  eng.run([&](ProcId id) {
    if (id != 0) return;
    victim = make_node(7);
    cell.value.store(reinterpret_cast<u64>(victim));
  });
  eng.run([&](ProcId id) {
    if (id == 0) {
      Guard<SimPlatform> g(dom);
      const u64 w = g.protect(0, cell.value);
      auto* n = reinterpret_cast<CanaryNode*>(w);
      ASSERT_EQ(n, victim); // the writer waits on the flag, so no race here
      protected_flag.value.store(1);
      // The retirer runs scans while we hold the hazard.
      for (u32 i = 0; i < 32; ++i) {
        SimPlatform::delay(64);
        EXPECT_EQ(n->canary, kCanaryLive) << "freed under a published hazard";
      }
    } else {
      SimPlatform::spin_until(protected_flag.value, [](u32 v) { return v == 1; });
      cell.value.store(0); // unlink, then retire: every scan must skip it
      Guard<SimPlatform> g(dom);
      g.retire(victim, scribble_free);
      for (u32 i = 0; i < 8; ++i) {
        g.retire(make_node(100 + i), scribble_free); // threshold=1: scans run
        SimPlatform::delay(32);
      }
    }
  });
  EXPECT_EQ(victim->canary, kCanaryLive) << "reclaimed before quiescence";
  dom.flush(); // guards are gone: the hazard is clear, the free lands now
  EXPECT_EQ(dom.stats().in_limbo, 0u);
  EXPECT_EQ(counting.allocated, counting.freed);
  EXPECT_EQ(counting.double_frees, 0u);
  g_counting = nullptr;
}

// ---- Race-detector negative control (ISSUE satellite 3). The hazard
// handshake needs seq_cst on all four accesses (hazard.hpp); this fixture
// publishes and scans the hazard word with relaxed accesses. The detector
// rebuilds happens-before from the declarations alone, so the concurrent
// relaxed store (reader) and load (scanner) of the hazard word are
// unordered and must be reported.

sim::MachineParams race_params() {
  sim::MachineParams m;
  m.race_detect = true;
  return m;
}

TEST(ReclaimRaceDetection, UnderAnnotatedHazardHandshakeIsFlagged) {
  sim::Engine eng(2, race_params(), 53);
  Padded<SimShared<u64>> hazard_slot;
  Padded<SimShared<u64>> cell;
  cell.value.store_relaxed(0x1000); // pre-run: no readers yet
  eng.run([&](ProcId id) {
    if (id == 0) {
      for (u32 i = 0; i < 8; ++i) {
        // BROKEN protect: relaxed publish + relaxed validate.
        const u64 w = cell.value.load_relaxed();
        hazard_slot.value.store_relaxed(w);
        (void)cell.value.load_relaxed();
        SimPlatform::delay(8);
        hazard_slot.value.store_relaxed(0);
      }
    } else {
      for (u32 i = 0; i < 8; ++i) {
        // BROKEN scan: relaxed read of the hazard word.
        (void)hazard_slot.value.load_relaxed();
        SimPlatform::delay(8);
      }
    }
  });
  ASSERT_NE(eng.race_detector(), nullptr);
  EXPECT_GT(eng.race_detector()->race_count(), 0u)
      << "the under-annotated handshake must be reported";
}

TEST(ReclaimRaceDetection, SeqCstHazardHandshakeIsClean) {
  // The real protocol, end to end through Domain/Guard, under the detector:
  // the seq_cst contract declared in hazard.hpp must satisfy it.
  Counting counting;
  g_counting = &counting;
  sim::Engine eng(4, race_params(), 59);
  Domain<SimPlatform> dom(4, options_for(/*scan_threshold=*/2));
  std::vector<Padded<SimShared<u64>>> cells(2);
  eng.run([&](ProcId id) {
    if (id != 0) return;
    for (auto& c : cells) c.value.store(reinterpret_cast<u64>(make_node(1)));
  });
  eng.run([&](ProcId id) {
    for (u32 i = 0; i < 24; ++i) {
      const u32 c = static_cast<u32>(SimPlatform::rnd(cells.size()));
      Guard<SimPlatform> g(dom);
      const u64 w = g.protect(0, cells[c].value);
      auto* n = reinterpret_cast<CanaryNode*>(w);
      ASSERT_EQ(n->canary, kCanaryLive);
      if (SimPlatform::flip()) {
        CanaryNode* fresh = make_node((static_cast<u64>(id) << 32) | i);
        u64 expect = w;
        if (cells[c].value.compare_exchange(expect, reinterpret_cast<u64>(fresh)))
          g.retire(n, scribble_free);
        else
          scribble_free(fresh);
      }
    }
  });
  eng.run([&](ProcId id) {
    if (id != 0) return;
    for (auto& c : cells) scribble_free(reinterpret_cast<CanaryNode*>(c.value.load()));
  });
  dom.flush();
  ASSERT_NE(eng.race_detector(), nullptr);
  EXPECT_EQ(eng.race_detector()->race_count(), 0u)
      << to_string(eng.race_detector()->races()[0]);
  EXPECT_EQ(counting.allocated, counting.freed);
  g_counting = nullptr;
}

} // namespace
} // namespace fpq
