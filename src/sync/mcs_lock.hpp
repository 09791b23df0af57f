// The MCS list-based queue lock (Mellor-Crummey & Scott, TOCS '91) — the
// lock the paper uses for all its lock-based structures. Each acquiring
// processor appends its queue node with one register-to-memory-swap and then
// spins on a flag in its *own* node, so waiting generates no interconnect
// traffic until the predecessor hands the lock over. Handoff is FIFO.
//
// Each lock owns one queue node per processor: a processor never waits on
// the same lock twice concurrently, so the slot can be reused (this is the
// standard qnode allocation of the original paper).
//
// Liveness audit (fault battery, DESIGN.md §12): every wait in this file —
// the acquire spin on the local locked flag and release()'s wait for a
// half-enqueued successor's link — goes through P::spin_until, which parks
// the fiber on the simulator and relax-then-escalates natively. There are
// no naked spins here: under a stall/crash plan a blocked acquirer shows
// up as a parked (kBlocked) or watchdog-wedged processor, never as a
// scheduler-monopolizing hot loop. The lock itself is, of course,
// blocking — a dead holder strands the queue; that is the property the
// liveness battery classifies, and McsLock::try_acquire is the primitive
// the bounded-wait (try_*) degraded paths and the funnel bin's fast path
// build on.
#pragma once

#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/padded.hpp"
#include "common/types.hpp"
#include "platform/platform.hpp"

namespace fpq {

template <Platform P>
class McsLock {
 public:
  /// `maxprocs` is the highest processor count this lock may see.
  explicit McsLock(u32 maxprocs) : nodes_(maxprocs) {}

  // Ordering contract: the tail exchange is the lock-acquisition edge
  // (acquire pairs with a releaser's release on tail or on the locked
  // flag); the locked-flag handoff is release -> acquire-spin; everything
  // inside a critical section may then be relaxed.
  void acquire() {
    QNode& me = node(P::self());
    me.next.store_relaxed(nullptr);
    QNode* pred = tail_.exchange(&me, MemOrder::kAcqRel);
    if (pred != nullptr) {
      // locked=1 is published by the release store of our link; the
      // releaser's acquire load of next therefore sees it before storing 0.
      me.locked.store_relaxed(1);
      pred->next.store_release(&me);
      P::spin_until(me.locked, [](u32 v) { return v == 0; }); // acquire spin
    }
    P::note_lock_acquire(this, /*trylock=*/false);
  }

  void release() {
    P::note_lock_release(this);
    QNode& me = node(P::self());
    QNode* succ = me.next.load_acquire();
    if (succ == nullptr) {
      QNode* expected = &me;
      // Release so the next tail exchanger acquires our critical section.
      if (tail_.compare_exchange(expected, nullptr, MemOrder::kRelease, MemOrder::kRelaxed))
        return; // no one waiting
      // A successor is in the middle of enqueueing; wait for its link.
      succ = P::spin_until(me.next, [](QNode* n) { return n != nullptr; });
    }
    succ->locked.store_release(0); // hand off: publishes the critical section
  }

  /// Single attempt: succeeds only when the lock is free. Used by the
  /// SkipList delete path (paper Fig. 12's `acquired`), by the funnel
  /// bin's fast path (a held lock sends the batch into the funnel) and
  /// by the bounded-wait try_* paths.
  bool try_acquire() {
    QNode& me = node(P::self());
    me.next.store_relaxed(nullptr);
    QNode* expected = nullptr;
    if (!tail_.compare_exchange(expected, &me, MemOrder::kAcqRel, MemOrder::kRelaxed))
      return false;
    P::note_lock_acquire(this, /*trylock=*/true);
    return true;
  }

 private:
  struct QNode {
    typename P::template Shared<QNode*> next{nullptr};
    typename P::template Shared<u32> locked{0};
  };

  QNode& node(ProcId p) {
    FPQ_ASSERT_MSG(p < nodes_.size(), "processor id exceeds lock's maxprocs");
    return *nodes_[p];
  }

  typename P::template Shared<QNode*> tail_{nullptr};
  std::vector<Padded<QNode>> nodes_;
};

/// RAII guard (Core Guidelines CP.20).
template <Platform P>
class McsGuard {
 public:
  explicit McsGuard(McsLock<P>& l) : lock_(l) { lock_.acquire(); }
  ~McsGuard() { lock_.release(); }
  McsGuard(const McsGuard&) = delete;
  McsGuard& operator=(const McsGuard&) = delete;

 private:
  McsLock<P>& lock_;
};

} // namespace fpq
