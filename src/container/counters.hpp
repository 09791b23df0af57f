// Shared counters supporting fetch-and-increment / fetch-and-decrement and
// their *bounded* variants (paper §2.1, Fig. 1). Two non-funnel
// implementations:
//
//   CasCounter — the "hardware" counter: FaI is a fetch-and-add; the bounded
//                operations are single-word CAS retry loops, i.e. the
//                atomically{...} blocks of Fig. 1 executed by the machine's
//                RMW primitive.
//   McsCounter — the counter guarded by an MCS lock; the paper uses these
//                for the deep (low-traffic) tree levels of FunnelTree.
//
// The funnel-based counter lives in src/funnel/counter.hpp. All
// three expose the same interface so tree algorithms can mix them per node.
#pragma once

#include <optional>

#include "common/types.hpp"
#include "platform/platform.hpp"
#include "sync/mcs_lock.hpp"
#include "sync/try_budget.hpp"

namespace fpq {

// Ordering contract for both counters: every successful mutation is an
// acq_rel RMW (or happens inside the MCS critical section), so the ticket
// a counter hands out carries a happens-before edge from every earlier
// ticket holder — what SimpleTree/FunnelTree rely on when a delete-min
// descends toward items whose inserts published counts on the way up.
// Loads that only feed a CAS retry are relaxed.
template <Platform P>
class CasCounter {
 public:
  explicit CasCounter(i64 initial = 0) : v_(initial) {}

  i64 fai() { return v_.fetch_add(1, MemOrder::kAcqRel); }
  i64 fad() { return v_.fetch_sub(1, MemOrder::kAcqRel); }

  /// Bounded fetch-and-decrement: decrements only if the current value is
  /// greater than `bound`; always returns the pre-operation value
  /// (paper Fig. 1, BFaD).
  i64 bfad(i64 bound) {
    i64 old = v_.load_relaxed();
    // contract-lint: allow(naked-spin) lock-free retry: a CAS failure means
    // another processor's counter op committed.
    for (;;) {
      if (old <= bound) return old;
      if (v_.compare_exchange(old, old - 1, MemOrder::kAcqRel, MemOrder::kRelaxed)) return old;
      // compare_exchange reloaded `old` on failure.
    }
  }

  /// Bounded fetch-and-increment: increments only while below `bound`.
  i64 bfai(i64 bound) {
    i64 old = v_.load_relaxed();
    // contract-lint: allow(naked-spin) lock-free retry (as bfad above)
    for (;;) {
      if (old >= bound) return old;
      if (v_.compare_exchange(old, old + 1, MemOrder::kAcqRel, MemOrder::kRelaxed)) return old;
    }
  }

  /// Batched FaI: k increments in one RMW. Returns k for interface parity
  /// with the funnel counter's batch API.
  u64 fai_batch(u64 k) {
    v_.fetch_add(static_cast<i64>(k), MemOrder::kAcqRel);
    return k;
  }

  /// Batched BFaD: applies k decrements clamped at `bound` in one CAS.
  /// Returns how many of them observed a value above the bound.
  u64 bfad_batch(i64 bound, u64 k) {
    i64 old = v_.load_relaxed();
    // contract-lint: allow(naked-spin) lock-free retry (as bfad above)
    for (;;) {
      const i64 room = old - bound;
      const u64 eff = room > 0 ? (static_cast<u64>(room) < k ? static_cast<u64>(room) : k) : 0;
      if (eff == 0) return 0;
      if (v_.compare_exchange(old, old - static_cast<i64>(eff), MemOrder::kAcqRel,
                              MemOrder::kRelaxed))
        return eff;
    }
  }

  i64 read() const { return v_.load_acquire(); }

 private:
  typename P::template Shared<i64> v_;
};

template <Platform P>
class McsCounter {
 public:
  McsCounter(u32 maxprocs, i64 initial = 0) : lock_(maxprocs), v_(initial) {}

  // v_ is only *mutated* inside the critical section, so the loads feeding
  // each mutation are relaxed (the lock's edges order them). The stores are
  // release because read() is lock-free: its acquire load pairs with the
  // last mutation's release, ordering the reader after the count it saw.
  i64 fai() {
    McsGuard<P> g(lock_);
    i64 old = v_.load_relaxed();
    v_.store_release(old + 1);
    return old;
  }

  i64 fad() {
    McsGuard<P> g(lock_);
    i64 old = v_.load_relaxed();
    v_.store_release(old - 1);
    return old;
  }

  i64 bfad(i64 bound) {
    McsGuard<P> g(lock_);
    i64 old = v_.load_relaxed();
    if (old > bound) v_.store_release(old - 1);
    return old;
  }

  i64 bfai(i64 bound) {
    McsGuard<P> g(lock_);
    i64 old = v_.load_relaxed();
    if (old < bound) v_.store_release(old + 1);
    return old;
  }

  /// Batched FaI: k increments in one critical section.
  u64 fai_batch(u64 k) {
    McsGuard<P> g(lock_);
    v_.store_release(v_.load_relaxed() + static_cast<i64>(k));
    return k;
  }

  /// Batched BFaD: k decrements clamped at `bound` in one critical
  /// section; returns how many observed a value above the bound.
  u64 bfad_batch(i64 bound, u64 k) {
    McsGuard<P> g(lock_);
    const i64 old = v_.load_relaxed();
    const i64 room = old - bound;
    const u64 eff = room > 0 ? (static_cast<u64>(room) < k ? static_cast<u64>(room) : k) : 0;
    if (eff != 0) v_.store_release(old - static_cast<i64>(eff));
    return eff;
  }

  i64 read() const { return v_.load_acquire(); }

  /// Bounded-wait variants (DESIGN.md §12): the mutation happens only if the
  /// MCS lock can be try-acquired within the budget. nullopt = budget
  /// exhausted with the counter untouched — a dead or stalled lock holder
  /// costs the caller a timeout, never a hang. NB: v_ is mutated with plain
  /// release stores under the lock, so a CAS-based bounded path (as in
  /// CasCounter) would race; try_acquire is the only legal primitive here.
  std::optional<i64> try_fai(TryClock<P>& clock) {
    for (;;) {
      if (lock_.try_acquire()) {
        const i64 old = v_.load_relaxed();
        v_.store_release(old + 1);
        lock_.release();
        return old;
      }
      if (!clock.tick_backoff()) return std::nullopt;
    }
  }

  std::optional<i64> try_bfad(i64 bound, TryClock<P>& clock) {
    for (;;) {
      if (lock_.try_acquire()) {
        const i64 old = v_.load_relaxed();
        if (old > bound) v_.store_release(old - 1);
        lock_.release();
        return old;
      }
      if (!clock.tick_backoff()) return std::nullopt;
    }
  }

 private:
  McsLock<P> lock_;
  typename P::template Shared<i64> v_;
};

} // namespace fpq
