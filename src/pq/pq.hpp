// Common surface of every bounded-range priority queue in the library.
//
// Semantics (paper Appendix B): priorities are the integers
// [0, npriorities); insert(p, item) adds an item with priority p;
// delete_min removes and returns an item of (quiescently) minimal priority,
// or nullopt when the queue is (quiescently) empty. Under concurrency a
// delete_min may return nullopt even though overlapping inserts have placed
// items (this is inherent to SimpleTree/FunnelTree and allowed by quiescent
// consistency); callers that need an item retry.
//
// insert returns false only on resource exhaustion — bin/heap capacity (a
// sizing error by the caller, reported rather than silently dropped), or
// an allocation failure in the dynamically-allocated queues (only ever
// seen under the fault engine's alloc-failure injection). Either way the
// structure is untouched.
//
// Batched operations: insert_batch/delete_min_batch carry several
// operations through one structure traversal where the algorithm supports
// aggregation (the funnel queues); every other queue gets a loop fallback
// with identical semantics. Each batched element individually obeys the
// single-op contract above — a batch is a sequence of concurrent point
// operations issued by one processor, not an atomic unit.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/assert.hpp"
#include "common/entry.hpp"
#include "common/types.hpp"
#include "platform/platform.hpp"
#include "pq/shard_policy.hpp"
#include "reclaim/policy.hpp"
#include "sync/backoff.hpp"
#include "sync/try_budget.hpp"

namespace fpq {

/// Result of a bounded-wait operation (try_insert / try_delete_min).
enum class PqStatus : u8 {
  kOk,       // operation completed
  kEmpty,    // delete_min observed a (quiescently) empty queue
  kTimeout,  // budget exhausted before the operation could commit
  kNoMemory, // allocation failed; the structure is untorn, nothing leaked
};

constexpr std::string_view to_string(PqStatus s) {
  switch (s) {
    case PqStatus::kOk: return "ok";
    case PqStatus::kEmpty: return "empty";
    case PqStatus::kTimeout: return "timeout";
    case PqStatus::kNoMemory: return "nomem";
  }
  return "?";
}

// TryBudget / TryClock (the budget type of the try_* API) live in
// sync/try_budget.hpp so the funnel and container layers can consume them
// below this header.

struct PqParams {
  /// Size of the fixed priority range [0, npriorities).
  u32 npriorities = 16;
  /// Upper bound on the processor ids that will touch the queue.
  u32 maxprocs = 1;
  /// Capacity of each per-priority bin / stack (bin-based queues) or of the
  /// whole heap (heap-based queues, where it is multiplied by npriorities).
  u32 bin_capacity = 4096;
  /// Total item capacity of the heap-based queues (SingleLock, HuntEtAl),
  /// which share one array rather than per-priority bins.
  u32 heap_capacity = 1u << 16;
  /// Seed for structure-construction randomness (skip-list levels).
  u64 seed = 1;
  /// Memory-reclamation policy of LockfreeSkiplist. Hazard pointers are
  /// the only scheme, so nothing reads this; it stays while the benchmark
  /// driver still sets it (reclaim/policy.hpp).
  reclaim::Policy reclaim_policy = reclaim::Policy::kHazardPointer;
  /// Largest batch the funnel queues aggregate in one traversal; larger
  /// insert_batch/delete_min_batch requests are chunked. Sizes the
  /// per-record funnel buffers, so the default keeps the point-operation
  /// memory footprint — raise it when using the batch API in earnest.
  u32 max_batch = 1;
  /// Sharding configuration of the composite queue (pq/sharded_pq.hpp);
  /// every other algorithm ignores it.
  ShardConfig shard = {};

  void validate() const {
    FPQ_ASSERT_MSG(npriorities >= 1 && npriorities < kMaxPackablePrio,
                   "npriorities out of range");
    FPQ_ASSERT_MSG(maxprocs >= 1, "maxprocs must be positive");
    FPQ_ASSERT_MSG(bin_capacity >= 1, "bin_capacity must be positive");
    FPQ_ASSERT_MSG(heap_capacity >= 1, "heap_capacity must be positive");
    FPQ_ASSERT_MSG(max_batch >= 1, "max_batch must be positive");
    shard.validate();
  }
};

/// Type-erased view used by benchmarks, examples and generic tests. The
/// concrete algorithm templates are the primary API; this wrapper adds one
/// virtual dispatch per operation (free in simulated time).
template <Platform P>
class IPriorityQueue {
 public:
  virtual ~IPriorityQueue() = default;
  virtual bool insert(Prio prio, Item item) = 0;
  virtual std::optional<Entry> delete_min() = 0;
  /// Inserts every entry, aggregating where the structure supports it.
  /// Returns the number accepted; refusals are capacity exhaustion only
  /// (which entries were refused is algorithm-dependent).
  virtual u32 insert_batch(std::span<const Entry> entries) = 0;
  /// Removes up to out.size() quiescently-minimal entries into out, in
  /// nondecreasing priority order; returns the count obtained. Like
  /// delete_min, may come up short under overlapping inserts.
  virtual u32 delete_min_batch(std::span<Entry> out) = 0;
  /// Bounded-wait variants (DESIGN.md §12). Contract: kOk committed the
  /// operation (try_delete_min filled `out`); kEmpty / kTimeout / kNoMemory
  /// consumed and inserted *nothing* — a timed-out caller may shed load or
  /// retry with a fresh budget and no cleanup. Queues with native
  /// implementations (registry::has_native_try) honor the budget *inside*
  /// an operation, so a stalled or dead lock holder yields kTimeout rather
  /// than a hang; the generic fallback only checks the budget between full
  /// blocking attempts and can block for as long as one attempt does.
  virtual PqStatus try_insert(Prio prio, Item item, const TryBudget& budget) = 0;
  virtual PqStatus try_delete_min(Entry& out, const TryBudget& budget) = 0;
  /// Fault-battery hook (default no-op): take over the reclamation state of
  /// the fail-stopped processor `dead` — stale hazard slots and limbo — on
  /// behalf of the surviving `adopter`. Queues without dynamic
  /// reclamation have nothing to adopt. See reclaim::Domain::adopt_orphans.
  virtual void adopt_orphans(ProcId dead, ProcId adopter) {
    (void)dead;
    (void)adopter;
  }
  virtual u32 npriorities() const = 0;
};

/// Adapts any concrete queue type to IPriorityQueue. Queues that implement
/// the native batch entry points (insert_batch(const Entry*, u32) /
/// delete_min_batch(Entry*, u32)) are dispatched to them; the rest get the
/// loop fallback.
template <Platform P, class Q>
class PqAdapter final : public IPriorityQueue<P> {
 public:
  template <class... Args>
  explicit PqAdapter(Args&&... args) : q_(std::forward<Args>(args)...) {}

  bool insert(Prio prio, Item item) override { return q_.insert(prio, item); }
  std::optional<Entry> delete_min() override { return q_.delete_min(); }

  u32 insert_batch(std::span<const Entry> entries) override {
    const u32 n = static_cast<u32>(entries.size());
    if (n == 0) return 0;
    if constexpr (requires(Q& q) { q.insert_batch(entries.data(), n); }) {
      return q_.insert_batch(entries.data(), n);
    } else {
      u32 accepted = 0;
      for (const Entry& e : entries)
        if (q_.insert(e.prio, e.item)) ++accepted;
      return accepted;
    }
  }

  u32 delete_min_batch(std::span<Entry> out) override {
    const u32 k = static_cast<u32>(out.size());
    if (k == 0) return 0;
    if constexpr (requires(Q& q) { q.delete_min_batch(out.data(), k); }) {
      return q_.delete_min_batch(out.data(), k);
    } else {
      u32 got = 0;
      for (u32 i = 0; i < k; ++i) {
        auto e = q_.delete_min();
        if (!e) break;
        out[got++] = *e;
      }
      return got;
    }
  }

  PqStatus try_insert(Prio prio, Item item, const TryBudget& budget) override {
    if constexpr (requires(Q& q) { q.try_insert(prio, item, budget); }) {
      return q_.try_insert(prio, item, budget);
    } else {
      // Fallback: full blocking inserts with backoff between attempts. A
      // refusal here is capacity exhaustion, transient under concurrent
      // deletes, so it is retried until the budget runs out.
      TryClock<P> clock(budget);
      do {
        if (q_.insert(prio, item)) return PqStatus::kOk;
      } while (clock.tick_backoff());
      return PqStatus::kTimeout;
    }
  }

  PqStatus try_delete_min(Entry& out, const TryBudget& budget) override {
    if constexpr (requires(Q& q) { q.try_delete_min(out, budget); }) {
      return q_.try_delete_min(out, budget);
    } else {
      // Fallback: one blocking attempt — nullopt already means
      // (quiescently) empty, which a bounded retry loop cannot improve on.
      auto e = q_.delete_min();
      if (!e) return PqStatus::kEmpty;
      out = *e;
      return PqStatus::kOk;
    }
  }

  void adopt_orphans(ProcId dead, ProcId adopter) override {
    if constexpr (requires(Q& q) { q.adopt_orphans(dead, adopter); })
      q_.adopt_orphans(dead, adopter);
  }

  u32 npriorities() const override { return q_.npriorities(); }

  Q& impl() { return q_; }

 private:
  Q q_;
};

} // namespace fpq
