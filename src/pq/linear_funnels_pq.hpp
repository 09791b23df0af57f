// LinearFunnels (paper §3.2): SimpleLinear with every MCS-locked bin
// replaced by a combining-funnel stack. insert pushes into the priority's
// stack; delete-min scans stacks in priority order, testing emptiness with
// a single read (crucial — a read is far cheaper than a funnel traversal)
// and popping from the first non-empty one. Quiescently consistent.
//
// Batch entry points (insert_batch/delete_min_batch) aggregate: inserts
// are grouped by priority and each group rides one funnel traversal
// (FunnelStack::push_batch); deletes drain each non-empty bin with one
// pop_batch per visit.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "funnel/params.hpp"
#include "funnel/stack.hpp"
#include "pq/pq.hpp"

namespace fpq {

/// Knobs shared by the funnel-based queues.
struct FunnelOptions {
  /// Funnel layer geometry; defaults to FunnelParams::for_procs(maxprocs),
  /// the paper's single pre-tuned set. LinearFunnels uses it for every
  /// bin; for FunnelTree it is the root's geometry, and deeper funnels get
  /// it narrowed by FunnelParams::for_depth.
  std::optional<FunnelParams> params;
  /// Elimination toggle (ablation of §3.3's "up to 250%" claim).
  bool eliminate = true;
  /// FunnelTree only: tree depth down to which nodes use funnel counters;
  /// deeper nodes use MCS-locked counters (§3.2 uses 4).
  u32 tree_cutoff = 4;
  /// Bin order: LIFO stacks (the paper's default) or the §3.2 fairness
  /// hybrid — elimination in the funnel, FIFO order in the central store.
  BinOrder bin_order = BinOrder::kLifo;
  /// Collision protocol of every funnel in the queue: the paper's pairwise
  /// exchange, or the Roh et al. '24 aggregation (DESIGN.md §13).
  /// Authoritative — overrides the protocol field of an explicit `params`.
  FunnelProtocol protocol = FunnelProtocol::kExchange;
};

/// Upper bound on one aggregated chunk; PqParams::max_batch beyond this is
/// chunked (keeps the grouping scratch on the stack).
inline constexpr u32 kMaxBatchChunk = 256;

/// The funnel geometry for a queue: the user's (or for_procs) layer set,
/// with the record buffers widened to carry the queue's batch size.
inline FunnelParams funnel_params_for(const PqParams& params, const FunnelOptions& opts) {
  FunnelParams fp = opts.params
                        ? *opts.params
                        : FunnelParams::for_procs(params.maxprocs, opts.protocol);
  fp.protocol = opts.protocol;
  fp.batch_limit = std::max(fp.batch_limit, std::min(params.max_batch, kMaxBatchChunk));
  return fp;
}

template <Platform P>
class LinearFunnelsPq {
 public:
  explicit LinearFunnelsPq(const PqParams& params, const FunnelOptions& opts = {})
      : npriorities_(params.npriorities),
        chunk_(std::min(params.max_batch, kMaxBatchChunk)) {
    params.validate();
    const FunnelParams fp = funnel_params_for(params, opts);
    stacks_.reserve(npriorities_);
    for (u32 i = 0; i < npriorities_; ++i)
      stacks_.push_back(std::make_unique<FunnelStack<P>>(
          params.maxprocs, fp, params.bin_capacity, opts.eliminate, opts.bin_order));
  }

  bool insert(Prio prio, Item item) {
    FPQ_ASSERT_MSG(prio < npriorities_, "priority outside the bounded range");
    return stacks_[prio]->push(item);
  }

  std::optional<Entry> delete_min() {
    for (u32 i = 0; i < npriorities_; ++i) {
      if (!stacks_[i]->empty()) {
        if (auto e = stacks_[i]->pop()) return Entry{i, *e};
      }
    }
    return std::nullopt;
  }

  // Bounded-wait variants (DESIGN.md §12). Both bypass the funnel layer
  // entirely — a funnel capture waits on a *partner's* progress, which a
  // budget cannot bound — and go straight for the central lock with
  // try_acquire + backoff. Fully pre-commit: kTimeout / kEmpty consumed and
  // inserted nothing.
  PqStatus try_insert(Prio prio, Item item, const TryBudget& budget) {
    FPQ_ASSERT_MSG(prio < npriorities_, "priority outside the bounded range");
    TryClock<P> clock(budget);
    for (;;) {
      switch (stacks_[prio]->try_push(item, clock)) {
        case FunnelStack<P>::TryOutcome::kOk: return PqStatus::kOk;
        case FunnelStack<P>::TryOutcome::kTimeout: return PqStatus::kTimeout;
        case FunnelStack<P>::TryOutcome::kRefused:
          // Capacity exhaustion, transient under concurrent deletes.
          if (!clock.tick_backoff()) return PqStatus::kTimeout;
      }
    }
  }

  PqStatus try_delete_min(Entry& out, const TryBudget& budget) {
    TryClock<P> clock(budget);
    for (u32 i = 0; i < npriorities_; ++i) {
      if (stacks_[i]->empty()) continue;
      Item v;
      switch (stacks_[i]->try_pop(v, clock)) {
        case FunnelStack<P>::TryOutcome::kOk: out = Entry{i, v}; return PqStatus::kOk;
        case FunnelStack<P>::TryOutcome::kTimeout: return PqStatus::kTimeout;
        case FunnelStack<P>::TryOutcome::kRefused:
          break; // bin drained between the probe and the lock; keep scanning
      }
    }
    return PqStatus::kEmpty;
  }

  /// Aggregated insert: entries grouped by priority, one funnel traversal
  /// per (chunk, priority) group. Returns the number accepted.
  u32 insert_batch(const Entry* entries, u32 n) {
    u32 accepted = 0;
    Item tmp[kMaxBatchChunk];
    for (u32 base = 0; base < n; base += chunk_) {
      const u32 c = std::min(chunk_, n - base);
      const Entry* es = entries + base;
      for (u32 i = 0; i < c; ++i) {
        const Prio p = es[i].prio;
        FPQ_ASSERT_MSG(p < npriorities_, "priority outside the bounded range");
        bool grouped = false;
        for (u32 j = 0; j < i; ++j)
          if (es[j].prio == p) {
            grouped = true;
            break;
          }
        if (grouped) continue;
        u32 g = 0;
        for (u32 j = i; j < c; ++j)
          if (es[j].prio == p) tmp[g++] = es[j].item;
        accepted += stacks_[p]->push_batch(tmp, g);
      }
    }
    return accepted;
  }

  /// Aggregated delete-min: scans bins in priority order, draining each
  /// non-empty one with batched pops. Returns entries in nondecreasing
  /// priority order.
  u32 delete_min_batch(Entry* out, u32 k) {
    u32 got = 0;
    Item tmp[kMaxBatchChunk];
    for (u32 p = 0; p < npriorities_ && got < k; ++p) {
      while (got < k && !stacks_[p]->empty()) {
        const u32 want = std::min(k - got, chunk_);
        const u32 m = stacks_[p]->pop_batch(tmp, want);
        for (u32 i = 0; i < m; ++i) out[got++] = Entry{p, tmp[i]};
        if (m < want) break; // bin ran short; move to the next priority
      }
    }
    return got;
  }

  u32 npriorities() const { return npriorities_; }

 private:
  u32 npriorities_;
  u32 chunk_;
  std::vector<std::unique_ptr<FunnelStack<P>>> stacks_;
};

} // namespace fpq
