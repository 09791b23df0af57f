// FunnelTree (paper §3.2) — the paper's headline algorithm. SimpleTree's
// skeleton with the hot spots replaced:
//
//   * internal counters in the top `tree_cutoff` levels (where all the
//     traffic concentrates) are combining-funnel bounded counters, so
//     descending BFaDs combine/eliminate with climbing FaIs instead of
//     serializing;
//   * deeper counters see exponentially less traffic and use MCS-locked
//     counters (the paper measured ~5% cost for this cut-off vs letting
//     adaptive funnels shrink on their own — bench/ablation_funnel_cutoff
//     reproduces that comparison);
//   * leaf bins are combining-funnel stacks.
//
// Deeper funnels see fewer arrivals, so their layers are the root
// geometry narrowed by FunnelParams::for_depth: the counter at node n by
// depth floor_log2(n), every bin by log2(nleaves). Counted per funnel on
// the paper's 256-processor workload, a depth-d counter sees 1/2^d of the
// root's arrivals and a bin 1/12 at 16 priorities; when the queue holds a
// standing set, deletes crowd the leftmost path and its counters see about
// 1.5x their share (EXPERIMENTS.md). An explicit FunnelOptions::params is
// the root's geometry.
//
// Quiescently consistent: delete_min may return nullopt when overlapping
// inserts have not finished publishing counts (see simple_tree_pq.hpp).
//
// Batch entry points: insert_batch groups same-priority entries so each
// group rides one stack traversal and one size-k FaI per tree node on the
// climb (FunnelCounter::fai_batch). delete_min_batch descends once with a
// size-k BFaD at the root and splits the batch across the two subtrees by
// the count the counter actually surrendered — the left child receives the
// decrements the counter satisfied (items provably below it), the right
// child the remainder. Left subtrees are resolved first so the out array
// is filled in nondecreasing priority order.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/bits.hpp"
#include "container/counters.hpp"
#include "funnel/counter.hpp"
#include "funnel/params.hpp"
#include "funnel/stack.hpp"
#include "pq/linear_funnels_pq.hpp" // FunnelOptions, kMaxBatchChunk, funnel_params_for
#include "pq/pq.hpp"

namespace fpq {

template <Platform P>
class FunnelTreePq {
 public:
  explicit FunnelTreePq(const PqParams& params, const FunnelOptions& opts = {})
      : npriorities_(params.npriorities),
        nleaves_(round_up_pow2(params.npriorities)),
        chunk_(std::min(params.max_batch, kMaxBatchChunk)) {
    params.validate();
    const FunnelParams fp = funnel_params_for(params, opts);
    const typename FunnelCounter<P>::Config ctr_cfg{/*bounded=*/true,
                                                    opts.eliminate, /*floor=*/0};
    funnel_counters_.resize(nleaves_);
    mcs_counters_.resize(nleaves_);
    for (u32 n = 1; n < nleaves_; ++n) {
      if (floor_log2(n) < opts.tree_cutoff)
        funnel_counters_[n] = std::make_unique<FunnelCounter<P>>(
            params.maxprocs, fp.for_depth(floor_log2(n)), ctr_cfg, 0);
      else
        mcs_counters_[n] = std::make_unique<McsCounter<P>>(params.maxprocs, 0);
    }
    const FunnelParams bin_fp = fp.for_depth(floor_log2(nleaves_));
    stacks_.reserve(npriorities_);
    for (u32 i = 0; i < npriorities_; ++i)
      stacks_.push_back(std::make_unique<FunnelStack<P>>(
          params.maxprocs, bin_fp, params.bin_capacity, opts.eliminate, opts.bin_order));
  }

  bool insert(Prio prio, Item item) {
    FPQ_ASSERT_MSG(prio < npriorities_, "priority outside the bounded range");
    if (!stacks_[prio]->push(item)) return false;
    for (u32 n = nleaves_ + prio; n > 1; n >>= 1) {
      if ((n & 1) == 0) fai(n >> 1);
    }
    return true;
  }

  std::optional<Entry> delete_min() { return descend(1); }

  // Bounded-wait variants (DESIGN.md §12). The budget governs everything up
  // to the operation's point of no return — the leaf push for insert; for
  // delete_min the first BFaD that claims a count, or the rightmost leaf's
  // pop when none does; kTimeout / kEmpty consumed and inserted nothing.
  // Once committed, the remainder (count climb / descent + leaf pop) rolls
  // *forward* unbudgeted: abandoning a half-climbed count would strand the
  // pushed item and tear every ancestor's invariant. Forward work
  // is bounded at log2(nleaves) counter ops, but each may block on that
  // counter's lock — the documented residual blocking of this queue's try_*.
  // The funnel layer is bypassed (partner-dependent).
  PqStatus try_insert(Prio prio, Item item, const TryBudget& budget) {
    FPQ_ASSERT_MSG(prio < npriorities_, "priority outside the bounded range");
    TryClock<P> clock(budget);
    for (;;) {
      const auto r = stacks_[prio]->try_push(item, clock);
      if (r == FunnelStack<P>::TryOutcome::kOk) break;
      if (r == FunnelStack<P>::TryOutcome::kTimeout) return PqStatus::kTimeout;
      // Refused: capacity exhaustion, transient under concurrent deletes.
      if (!clock.tick_backoff()) return PqStatus::kTimeout;
    }
    for (u32 n = nleaves_ + prio; n > 1; n >>= 1) { // committed: roll forward
      if ((n & 1) == 0) fai(n >> 1);
    }
    return PqStatus::kOk;
  }

  PqStatus try_delete_min(Entry& out, const TryBudget& budget) {
    TryClock<P> clock(budget);
    // An insert counts only at the left edges of its climb, so a node's
    // count covers its left subtree alone: a zero means "go right", and
    // claims nothing. The descent stays pre-commit, and bounded, until a
    // BFaD claims a count.
    u32 n = 1;
    while (n < nleaves_) {
      const std::optional<i64> before = try_bfad(n, clock);
      if (!before) return PqStatus::kTimeout;
      if (*before > 0) { // committed: the rest rolls forward
        const auto e = descend(n << 1);
        if (!e) return PqStatus::kEmpty; // racing shortfall, as in delete_min
        out = *e;
        return PqStatus::kOk;
      }
      n = (n << 1) | 1u;
    }
    // No BFaD claimed a count (or the tree is one leaf): the rightmost
    // leaf's pop is the commit point.
    const u32 prio = n - nleaves_;
    if (prio >= npriorities_) return PqStatus::kEmpty; // padding leaf
    Item v;
    switch (stacks_[prio]->try_pop(v, clock)) {
      case FunnelStack<P>::TryOutcome::kOk: out = Entry{prio, v}; return PqStatus::kOk;
      case FunnelStack<P>::TryOutcome::kTimeout: return PqStatus::kTimeout;
      case FunnelStack<P>::TryOutcome::kRefused: break;
    }
    return PqStatus::kEmpty;
  }

  /// Aggregated insert: same-priority groups share one stack push_batch and
  /// one fai_batch per tree node on the climb. Returns the number accepted
  /// (refusals are stack-capacity exhaustion; refused items get no counts).
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
        const u32 a = stacks_[p]->push_batch(tmp, g);
        if (a > 0) {
          for (u32 node = nleaves_ + p; node > 1; node >>= 1)
            if ((node & 1) == 0) fai_batch(node >> 1, a);
        }
        accepted += a;
      }
    }
    return accepted;
  }

  /// Aggregated delete-min: one descent per chunk. The root BFaD claims up
  /// to `k` counts at once; at every internal node the batch splits — the
  /// counts the node surrendered continue left, the rest go right. Leaves
  /// drain their share with one pop_batch. Entries land in nondecreasing
  /// priority order because left subtrees are resolved first.
  u32 delete_min_batch(Entry* out, u32 k) {
    u32 got = 0;
    while (got < k) {
      const u32 want = std::min(k - got, chunk_);
      const u32 m = delete_chunk(out + got, want);
      got += m;
      if (m < want) break; // counts ran out: the queue is (quiescently) empty
    }
    return got;
  }

  u32 npriorities() const { return npriorities_; }
  u32 nleaves() const { return nleaves_; }

  /// Test hook: counter value at heap node `n` (quiescent use only).
  i64 counter_value(u32 n) const {
    return funnel_counters_[n] ? funnel_counters_[n]->read() : mcs_counters_[n]->read();
  }

  /// Test hooks: the funnel geometry of the counter at heap node `n` (a
  /// node above the tree cut-off) and of the bin for priority `prio`.
  const FunnelParams& counter_params(u32 n) const {
    FPQ_ASSERT_MSG(funnel_counters_[n], "node below the funnel cut-off");
    return funnel_counters_[n]->params();
  }
  const FunnelParams& bin_params(Prio prio) const { return stacks_[prio]->params(); }

 private:
  void fai(u32 n) {
    if (funnel_counters_[n])
      funnel_counters_[n]->fai();
    else
      mcs_counters_[n]->fai();
  }

  i64 bfad(u32 n) {
    return funnel_counters_[n] ? funnel_counters_[n]->bfad(0) : mcs_counters_[n]->bfad(0);
  }

  /// Budget-bounded BFaD at node `n`; nullopt = budget exhausted with the
  /// counter untouched. Direct CAS on funnel counters, try_acquire on MCS.
  std::optional<i64> try_bfad(u32 n, TryClock<P>& clock) {
    return funnel_counters_[n] ? funnel_counters_[n]->try_bfad(0, clock)
                               : mcs_counters_[n]->try_bfad(0, clock);
  }

  void fai_batch(u32 n, u32 k) {
    if (funnel_counters_[n])
      funnel_counters_[n]->fai_batch(k);
    else
      mcs_counters_[n]->fai_batch(k);
  }

  /// Size-k BFaD at node `n`: returns how many of the k decrements found
  /// the counter above its floor (= how many claimed items lie below n).
  u32 bfad_batch(u32 n, u32 k) {
    const u64 s = funnel_counters_[n] ? funnel_counters_[n]->bfad_batch(0, k)
                                      : mcs_counters_[n]->bfad_batch(0, k);
    return static_cast<u32>(s);
  }

  /// Descends from node `n` with blocking BFaDs, left where a count was
  /// claimed and right where none was, and pops the leaf it reaches.
  /// nullopt: a padding leaf or an empty bin (quiescently empty).
  std::optional<Entry> descend(u32 n) {
    while (n < nleaves_) {
      const i64 before = bfad(n);
      n = (n << 1) | (before > 0 ? 0u : 1u);
    }
    const u32 prio = n - nleaves_;
    if (prio < npriorities_) {
      if (auto e = stacks_[prio]->pop()) return Entry{prio, *e};
    }
    return std::nullopt;
  }

  /// One batched descent. Iterative DFS over (node, count) demands; the
  /// right child is pushed before the left so the left — smaller
  /// priorities — pops first and fills `out` in order.
  u32 delete_chunk(Entry* out, u32 want) {
    struct Pending {
      u32 node;
      u32 cnt;
    };
    // Depth ≤ log2(nleaves_) ≤ 31; each level adds at most one extra frame.
    Pending stack[40];
    u32 top = 0;
    stack[top++] = {1u, want};
    u32 got = 0;
    Item tmp[kMaxBatchChunk];
    while (top > 0) {
      const Pending cur = stack[--top];
      if (cur.cnt == 0) continue;
      if (cur.node >= nleaves_) {
        const u32 prio = cur.node - nleaves_;
        if (prio >= npriorities_) continue; // padding leaf: counts absorbed
        const u32 m = stacks_[prio]->pop_batch(tmp, cur.cnt);
        for (u32 i = 0; i < m; ++i) out[got++] = Entry{prio, tmp[i]};
        continue;
      }
      const u32 s = bfad_batch(cur.node, cur.cnt);
      stack[top++] = {(cur.node << 1) | 1u, cur.cnt - s}; // right: leftovers
      stack[top++] = {cur.node << 1, s};                  // left: popped first
    }
    return got;
  }

  u32 npriorities_;
  u32 nleaves_;
  u32 chunk_;
  std::vector<std::unique_ptr<FunnelCounter<P>>> funnel_counters_;
  std::vector<std::unique_ptr<McsCounter<P>>> mcs_counters_;
  std::vector<std::unique_ptr<FunnelStack<P>>> stacks_;
};

} // namespace fpq
