// Hazard-pointer reclamation (Michael 2004), the one reclamation scheme
// behind reclaim::Guard (DESIGN.md §11). Shaped after the peek /
// promote idiom of jonatanlinden/prioq (SNIPPETS.md Snippet 3): a reader
// *peeks* a candidate pointer, publishes it to one of its hazard slots,
// then re-validates the source word; a validated candidate may later be
// *promoted* (copied) into another slot without re-validation, which is
// what makes hand-over-hand traversals cheap.
//
// ## Why the handshake is seq_cst (DESIGN.md §8.2)
//
// Protect and retire race in a store-buffering shape that release/acquire
// cannot close: the reader stores its hazard slot then re-loads the source
// word, while the reclaimer unlinks/poisons the node (a store) then scans
// the hazard slots (loads). With all four accesses seq_cst, either the
// reader's validating load observes the unlink (it restarts and never
// touches the node) or the reclaimer's scan observes the hazard (it defers
// the free). With anything weaker both can miss, and the reader holds a
// pointer the scan is about to free — exactly the use-after-reclaim the
// torture tests inject (tests/test_reclaim.cpp) and the deliberately
// under-annotated fixture demonstrates to the race detector.
#pragma once

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "common/padded.hpp"
#include "common/types.hpp"
#include "platform/platform.hpp"

namespace fpq::reclaim {

struct DomainOptions {
  /// Hazard slots per processor. Structures size this to their deepest
  /// hand-over-hand chain; unused slots cost one cache line each.
  u32 slots_per_proc = 8;
  /// Retirements per processor between reclamation scans.
  u32 scan_threshold = 64;
  /// Low pointer bits used as tags by the client structure; protect()
  /// strips them before publishing a hazard.
  u64 tag_mask = 0;
};

struct DomainStats {
  u64 retired = 0;
  u64 reclaimed = 0;
  u64 in_limbo = 0;
};

/// Owns the reclamation state of one structure: the hazard slots, the
/// per-processor limbo lists, and the retire/scan machinery.
template <Platform P>
class Domain {
  template <class T>
  using Shared = typename P::template Shared<T>;

 public:
  explicit Domain(u32 maxprocs, DomainOptions opt = {})
      : maxprocs_(maxprocs),
        slots_per_proc_(opt.slots_per_proc),
        scan_threshold_(std::max(1u, opt.scan_threshold)),
        tag_mask_(opt.tag_mask),
        slots_(static_cast<std::size_t>(maxprocs) * opt.slots_per_proc),
        procs_(maxprocs) {
    FPQ_ASSERT_MSG(maxprocs >= 1 && slots_per_proc_ >= 1 && slots_per_proc_ <= 64,
                   "hazard domain sizing (Guard tracks slots in a 64-bit mask)");
  }

  /// Flushes, then asserts limbo emptied: owners must quiesce before
  /// destroying the domain, so a leak fails loudly in every test.
  ~Domain() {
    flush();
    FPQ_ASSERT_MSG(stats().in_limbo == 0,
                   "hazard domain destroyed with protected nodes still in limbo "
                   "(a Guard outlived its Domain?)");
  }

  /// Peek: read `src`, announce the (tag-stripped) pointer, and re-read
  /// until the announcement provably preceded any retirement scan. Returns
  /// the validated word, tag bits included.
  u64 protect(ProcId self, u32 slot, const Shared<u64>& src) {
    Shared<u64>& h = slot_ref(self, slot);
#ifdef FPQ_SEEDED_BUG_HP_RELAXED
    // Seeded-bug corpus (negative control, tests/test_dpor_corpus.cpp):
    // the PR 6 under-annotation reintroduced. A relaxed publish can stay
    // invisible to a concurrent scan() while the relaxed validate still
    // sees the pre-retirement pointer — the scan misses the hazard and
    // frees a node this processor believes is protected.
    u64 w = src.load_relaxed();
    // contract-lint: allow(naked-spin) lock-free retry: a failed validate
    // means the source word changed (a writer progressed).
    for (;;) {
      h.store_relaxed(w & ~tag_mask_);
      const u64 w2 = src.load_relaxed();
      if (w2 == w) return w;
      w = w2;
    }
#else
    u64 w = src.load(); // seq_cst: store-buffering handshake with scan()
    // contract-lint: allow(naked-spin) lock-free retry: a failed validate
    // means the source word changed (a writer progressed).
    for (;;) {
      h.store(w & ~tag_mask_); // seq_cst publish
      const u64 w2 = src.load(); // seq_cst validate
      if (w2 == w) return w;
      w = w2;
    }
#endif
  }

  /// Promote: publish a word whose pointer is already protected (by
  /// another slot, or by ownership). No validation needed — the pointer
  /// cannot be freed while the existing protection overlaps this store.
  void protect_value(ProcId self, u32 slot, u64 w) {
    slot_ref(self, slot).store(w & ~tag_mask_); // seq_cst publish
  }

  void clear(ProcId self, u32 slot) { slot_ref(self, slot).store_release(0); }

  void retire(ProcId self, void* p, void (*deleter)(void*)) {
    Proc& pr = procs_[self].value;
    pr.limbo.push_back({p, deleter});
    ++pr.retired;
    if (pr.limbo.size() >= scan_threshold_) scan(pr);
  }

  /// Quiescent-only: scan every processor's limbo list once, freeing
  /// everything once no Guard is live. Anything still protected stays
  /// (the destructor asserts nothing is).
  void flush() {
    for (auto& pp : procs_) scan(pp.value);
  }

  /// Fault path (DESIGN.md §12): processor `dead` fail-stopped. Its hazard
  /// slots are cleared — the dead fiber can never again dereference what
  /// they protect — and its limbo list moves to `adopter`, whose next scan
  /// frees whatever no *live* processor protects. Without this, a crashed
  /// reader's stale hazards pin its own and every other processor's limbo
  /// entries forever, and the destructor's empty-limbo assert (kept — it
  /// still guards the no-fault protocol) would fire. The caller guarantees
  /// `dead` is permanently stopped and serializes adoptions, and calls
  /// this before the domain is destroyed.
  void adopt_orphans(ProcId dead, ProcId adopter) {
    FPQ_ASSERT_MSG(dead < maxprocs_ && adopter < maxprocs_ && dead != adopter,
                   "orphan adoption needs a distinct in-range survivor");
    for (u32 s = 0; s < slots_per_proc_; ++s) slot_ref(dead, s).store(0); // seq_cst vs scans
    Proc& from = procs_[dead].value;
    Proc& to = procs_[adopter].value;
    to.limbo.insert(to.limbo.end(), from.limbo.begin(), from.limbo.end());
    from.limbo.clear();
    scan(to);
  }

  DomainStats stats() const {
    DomainStats s;
    for (const auto& pp : procs_) {
      s.retired += pp.value.retired;
      s.reclaimed += pp.value.reclaimed;
      s.in_limbo += pp.value.limbo.size();
    }
    return s;
  }

 private:
  struct Retired {
    void* p;
    void (*deleter)(void*);
  };
  struct Proc {
    std::vector<Retired> limbo;
    u64 retired = 0;
    u64 reclaimed = 0;
  };

  Shared<u64>& slot_ref(ProcId self, u32 slot) {
    FPQ_ASSERT_MSG(self < maxprocs_ && slot < slots_per_proc_,
                   "hazard slot outside the domain");
    return slots_[static_cast<std::size_t>(self) * slots_per_proc_ + slot].value;
  }

  void scan(Proc& pr) {
    if (pr.limbo.empty()) return;
    std::vector<u64> hazards;
    hazards.reserve(slots_.size());
    for (auto& s : slots_) {
      const u64 v = s.value.load(); // seq_cst: the scan side of the handshake
      if (v != 0) hazards.push_back(v);
    }
    std::vector<Retired> keep;
    for (const Retired& r : pr.limbo) {
      const u64 addr = reinterpret_cast<u64>(r.p);
      if (std::find(hazards.begin(), hazards.end(), addr) != hazards.end()) {
        keep.push_back(r);
      } else {
        r.deleter(r.p);
        ++pr.reclaimed;
      }
    }
    pr.limbo.swap(keep);
  }

  u32 maxprocs_;
  u32 slots_per_proc_;
  u32 scan_threshold_;
  u64 tag_mask_;
  std::vector<Padded<Shared<u64>>> slots_;
  std::vector<Padded<Proc>> procs_;
};

} // namespace fpq::reclaim
