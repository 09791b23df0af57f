// Combining-funnel stack — the "bin" of the funnel-based priority queues
// (paper §3.2; elimination from Shavit & Touitou '95, funnels from Shavit &
// Zemach '98). The collision machinery is FunnelCore (funnel/core.hpp);
// this file is its central object, an item store behind an MCS lock:
//
//   * push trees carry their items up the combining tree (a parent copies a
//     captured child subtree's items into its own buffer);
//   * pop trees carry counts up and items back down (a parent serves each
//     child subtree its slice of the popped batch);
//   * a push tree colliding with a pop tree eliminates: the poppers consume
//     the pushers' items without touching the central store (this is what
//     makes funnel bins win at high load);
//   * surviving batches apply to the central store in one short MCS
//     critical section, which always completes.
//
// Adaption (§3.1): a processor that has seen no collisions lately skips
// the layers and tries the central lock once (fast_path). Finding it held
// is the contention signal: the batch goes through the funnel instead of
// queueing behind the holder, as a lost CAS sends the counter there.
//
// Batches (Roh et al. '24) of the same direction combine at *any* sizes,
// under a buffer-capacity guard instead of the paper's equal-size rule.
// Item/verdict routing is positional: a tree root's buffer holds its own
// batch first, then each captured child subtree's slice in capture order,
// and a per-record `mark` fill pointer (published with the record like
// `sum`) tracks how much of the owner's slice eliminations have already
// consumed/filled, so the remaining region is one contiguous range. A
// child subtree's slice is never split between an elimination and the
// central verdict, which keeps flat push verdicts (kStPushed/kStFull)
// truthful.
//
// Under the aggregate protocol (DESIGN.md §13) the representative's open
// window extends through its MCS acquisition wait; once inside, it closes
// the flat list and serves every participant's slice — its own first, then
// each joiner in close order — in ONE critical section, exactly as the
// same records would have run as consecutive point batches (per-record
// all-or-nothing push refusal included). Verdicts are published after the
// unlock.
//
// bin-empty is a single read of the central size word — the property
// LinearFunnels' delete-min scan depends on (§3.2). Equal-priority items
// come out LIFO by default, which "can cause unfairness (and even
// starvation)" (§3.2); BinOrder::kFifo is the paper's remedy, the hybrid
// that still eliminates in the funnel but keeps the central store FIFO.
//
// Pops that find the central store short return fewer items. Items must
// not equal kNoEntry (reserved as the "no item" sentinel). Pushing beyond
// `capacity` refuses the batch's non-eliminated remainder, which the queue
// surfaces as insert() == false / a short insert_batch count.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/entry.hpp"
#include "common/types.hpp"
#include "funnel/core.hpp"
#include "funnel/params.hpp"
#include "platform/platform.hpp"
#include "sync/mcs_lock.hpp"
#include "sync/try_budget.hpp"

namespace fpq {

/// Order of the central item store behind the funnel.
enum class BinOrder : u8 {
  kLifo, // array stack — the paper's default bins
  kFifo, // ring queue — the paper's fairness hybrid (§3.2)
};

namespace funnel_detail {

/// The stack's per-record payload. Its item buffer and mark ride the same
/// publication edges as the record's sum (funnel/core.hpp).
template <Platform P>
struct StackPayload {
  explicit StackPayload(u32 batch) {
    // The buffer is handed between owner and capturer wholesale (one party
    // at a time, ordered by the location/verdict edges); contiguity is
    // what makes the slice copies cheap.
    // contract-lint: allow(unpadded-shared)
    buf = std::make_unique<typename P::template Shared<u64>[]>(batch);
  }
  /// Elimination fill pointer into the owner's slice, published with the
  /// record (same location-release edge as sum). Push trees: own items
  /// below mark have been consumed by poppers, so the tree's remaining
  /// items are the contiguous range [mark, own_n + child_extra). Pop
  /// trees: own demand below mark has been filled, so the unfilled
  /// positions are [mark, own_n + child_extra).
  typename P::template Shared<u64> mark{0};
  /// Subtree item buffer, laid out positionally: the owner's batch at
  /// [0, own_n), then each captured child subtree's slice in capture
  /// order. Push trees accumulate items here on the way up; pop trees
  /// receive their slices here on the way down.
  // contract-lint: allow(unpadded-shared)
  std::unique_ptr<typename P::template Shared<u64>[]> buf;
  // Owner-local state.
  u64 own_n = 0;
  u64 child_extra = 0; // children's items (push) / demand (pop) absorbed
  /// Aggregation protocol only: per-participant verdict states computed
  /// inside the critical section, published after the unlock (owner-local
  /// scratch, parallel to `children`).
  std::vector<u32> verdicts;
};

} // namespace funnel_detail

template <Platform P>
class FunnelStack : private FunnelCore<P, FunnelStack<P>, funnel_detail::StackPayload<P>, u64> {
  using Core = FunnelCore<P, FunnelStack<P>, funnel_detail::StackPayload<P>, u64>;
  friend Core;

 public:
  FunnelStack(u32 maxprocs, const FunnelParams& params, u32 capacity,
              bool eliminate = true, BinOrder order = BinOrder::kLifo)
      : Core(maxprocs, params, batch_for(params)), eliminate_(eliminate), order_(order),
        lock_(maxprocs), cells_(capacity) {
    FPQ_ASSERT(capacity >= 1);
  }

  /// Pushes one item. Returns false when the central stack is full (the
  /// remaining combined batch is refused, so callers see a consistent
  /// signal).
  bool push(Item v) {
    FPQ_ASSERT_MSG(v != kNoEntry, "item value reserved as sentinel");
    Rec& my = this->record();
    my.buf[0].store_relaxed(v); // published with the record by the funnel
    return apply(my, /*delta=*/+1, 1) == 1;
  }

  /// Pops one item, or nullopt when the stack has none to give.
  std::optional<Item> pop() {
    Rec& my = this->record();
    apply(my, /*delta=*/-1, 1);
    const u64 r = my.buf[0].load_relaxed();
    if (r == kNoItem) return std::nullopt;
    return r;
  }

  /// Pushes items[0..n) as one aggregated batch (n <= max_batch()).
  /// Returns the number accepted: eliminations always accept, and a full
  /// central store refuses the batch's whole remainder.
  u32 push_batch(const Item* items, u32 n) {
    FPQ_ASSERT(n >= 1 && n <= max_batch());
    Rec& my = this->record();
    for (u32 i = 0; i < n; ++i) {
      FPQ_ASSERT_MSG(items[i] != kNoEntry, "item value reserved as sentinel");
      my.buf[i].store_relaxed(items[i]);
    }
    return static_cast<u32>(apply(my, static_cast<i64>(n), n));
  }

  /// Pops up to k items (k <= max_batch()) into out[0..). Returns the
  /// number obtained — short when the central store comes up short.
  u32 pop_batch(Item* out, u32 k) {
    FPQ_ASSERT(k >= 1 && k <= max_batch());
    Rec& my = this->record();
    apply(my, -static_cast<i64>(k), k);
    u32 got = 0;
    for (u32 i = 0; i < k; ++i) {
      const u64 v = my.buf[i].load_relaxed();
      if (v != kNoItem) out[got++] = v;
    }
    return got;
  }

  /// Outcome of the bounded-wait entry points below.
  enum class TryOutcome : u8 {
    kOk,      // operation committed
    kRefused, // push: central store full; pop: central store empty
    kTimeout, // budget exhausted before the lock was won; nothing consumed
  };

  /// Bounded-wait push: bypasses the funnel entirely — no capture, so no
  /// dependence on any partner's liveness — and takes the central lock
  /// with try_acquire under the budget. A stalled or dead lock holder
  /// therefore costs kTimeout, never a hang. Elimination is forgone; this
  /// is the degraded mode, not the fast path.
  TryOutcome try_push(Item v, TryClock<P>& clock) {
    FPQ_ASSERT_MSG(v != kNoEntry, "item value reserved as sentinel");
    for (;;) {
      if (lock_.try_acquire()) {
        const u64 cap = cells_.size();
        const u64 n = size_.load_relaxed();
        TryOutcome r = TryOutcome::kRefused;
        if (n < cap) {
          const u64 t = tail_.load_relaxed();
          cells_[t % cap].store_relaxed(v);
          tail_.store_relaxed(t + 1);
          size_.store_release(n + 1);
          r = TryOutcome::kOk;
        }
        lock_.release();
        return r;
      }
      if (!clock.tick_backoff()) return TryOutcome::kTimeout;
    }
  }

  /// Bounded-wait pop (same contract as try_push). kRefused = the central
  /// store held nothing, the same answer pop()'s sentinel gives.
  TryOutcome try_pop(Item& out, TryClock<P>& clock) {
    for (;;) {
      if (empty()) return TryOutcome::kRefused; // 1-read probe, as pop()'s users do
      if (lock_.try_acquire()) {
        const u64 cap = cells_.size();
        const u64 n = size_.load_relaxed();
        TryOutcome r = TryOutcome::kRefused;
        if (n > 0) {
          if (order_ == BinOrder::kLifo) {
            const u64 t = tail_.load_relaxed();
            out = cells_[(t - 1) % cap].load_relaxed();
            tail_.store_relaxed(t - 1);
          } else {
            const u64 h = head_.load_relaxed();
            out = cells_[h % cap].load_relaxed();
            head_.store_relaxed(h + 1);
          }
          size_.store_release(n - 1);
          r = TryOutcome::kOk;
        }
        lock_.release();
        return r;
      }
      if (!clock.tick_backoff()) return TryOutcome::kTimeout;
    }
  }

  /// One shared read (bin-empty of Fig. 1 / §3.2).
  bool empty() const { return size_.load_acquire() == 0; }
  u64 size() const { return size_.load_acquire(); }
  u32 capacity() const { return static_cast<u32>(cells_.size()); }
  /// Largest batch one record (and so one push_batch/pop_batch call) may
  /// carry; also bounds a combining tree's total batch.
  u32 max_batch() const { return batch_for(this->params_); }
  BinOrder order() const { return order_; }
  const FunnelParams& params() const { return this->params_; }

 private:
  using typename Core::Rec;
  using typename Core::Slot;

  static constexpr u32 kStPushed = 1; // push batch applied (or eliminated)
  static constexpr u32 kStPopped = 2; // items (or sentinels) are in my buf
  static constexpr u32 kStFull = 3;   // remainder refused: stack full
  static constexpr u64 kNoItem = kNoEntry;

  static u32 batch_for(const FunnelParams& p) { return p.batch_limit << p.levels; }

  /// Runs the funnel for one batch of k pushes (delta=+k) or k pops
  /// (delta=-k). Returns the number of own items accepted (pushes; pops
  /// return 0 and leave items/sentinels in my.buf[0..k)).
  u64 apply(Rec& my, i64 delta, u64 k) {
    my.own_n = k;
    my.child_extra = 0;
    my.mark.store_relaxed(0);
    return this->traverse(my, delta);
  }

  // ---- Central-object hooks (contract in funnel/core.hpp).

  /// Adaptive fast path: one try at the central lock. A held lock is the
  /// contention signal (§3.1): raise adaption and take the funnel, where
  /// the batch can eliminate or combine instead of queueing behind it.
  std::optional<u64> fast_path(Rec& my) {
    if (lock_.try_acquire()) return apply_and_release(my, my.mark.load_relaxed());
    my.adaption = std::min(1.0, my.adaption * 1.5);
    return std::nullopt;
  }

  bool eliminates() const { return eliminate_; }

  /// Own-batch operations not yet consumed/filled by eliminations.
  u64 own_remaining(const Rec& my) const { return my.own_n - my.mark.load_relaxed(); }

  /// Opposite trees of equal remaining size: the poppers consume the
  /// pushers' items; nobody touches the central stack. Serves both trees
  /// entirely.
  u64 eliminate(Rec& my, Rec& q, i64) {
    serve_opposite(my, q, Core::tree_size(my.local_sum));
    return child_verdict(my, my.local_sum > 0 ? kStPushed : kStPopped);
  }

  /// Opposite capture no bigger than my own remaining batch: q's whole
  /// tree is served against my own slice and my mark advances past the
  /// cancelled ops.
  void eliminate_partial(Rec& my, Rec& q, i64 qsum) {
    const u64 qrem = Core::tree_size(qsum);
    my.mark.store_relaxed(serve_opposite(my, q, qrem) + qrem);
  }

  /// Serves the captured opposite tree q whole from `count` of my own
  /// operations: items flow between the two contiguous mark-ranges, and
  /// q's verdict publishes its slice. Returns my mark before the transfer.
  u64 serve_opposite(Rec& my, Rec& q, u64 count) {
    const u64 mmark = my.mark.load_relaxed();
    const u64 qmark = q.mark.load_relaxed();
    if (my.local_sum > 0) {
      for (u64 i = 0; i < count; ++i)
        q.buf[qmark + i].store_relaxed(my.buf[mmark + i].load_relaxed());
      q.result_state.store_release(kStPopped); // publishes q's buf slice
    } else {
      for (u64 i = 0; i < count; ++i)
        my.buf[mmark + i].store_relaxed(q.buf[qmark + i].load_relaxed());
      q.result_state.store_release(kStPushed);
    }
    return mmark;
  }

  /// Merges a captured same-direction subtree into ours, provided the
  /// total batch fits our buffer. q is frozen (spinning on its
  /// result_state) and was acquired by the capture CAS, so its sum, mark
  /// and items are readable relaxed.
  bool combine(Rec& my, Rec& q, i64 qsum) {
    if (!Core::same_sign(qsum, my.local_sum)) return false;
    const u64 qrem = Core::tree_size(qsum);
    if (my.own_n + my.child_extra + qrem > max_batch()) return false;
    if (my.local_sum > 0) {
      // Push tree: pull q's remaining items (one contiguous range starting
      // at its mark) up into our children region.
      const u64 qmark = q.mark.load_relaxed();
      for (u64 i = 0; i < qrem; ++i)
        my.buf[my.own_n + my.child_extra + i].store_relaxed(q.buf[qmark + i].load_relaxed());
    }
    my.child_extra += qrem;
    my.local_sum += qsum;
    return true;
  }

  /// Representative path. The open window was up to agg_wait relax beats
  /// (closed early once joins stop arriving) and continues through the
  /// MCS acquisition wait — under contention the lock queueing delay is
  /// exactly when joiners pile on. Inside the critical section every
  /// participant's slice is applied in sequence (representative first,
  /// then joiners in close order), each with the same per-record
  /// all-or-nothing rules as a point batch; verdicts are published only
  /// after the unlock so no waiter ever spins on a value computed inside
  /// somebody's critical section.
  u64 serve_aggregate(Rec& my, Slot& slot) {
    my.verdicts.clear();
    u32 mine;
    {
      McsGuard<P> g(lock_);
      my.agg.close_into(my.children);
      Core::release_slot(my, slot);
      mine = apply_published(my);
      for (Rec* c : my.children) my.verdicts.push_back(apply_published(*c));
    }
    this->adapt(my, !my.children.empty());
    for (u64 i = 0; i < my.children.size(); ++i)
      my.children[i]->result_state.store_release(my.verdicts[i]); // publishes buf slices
    return accepted(my, mine);
  }

  /// A verdict from my capturer (exchange) or representative (aggregate):
  /// serve my own children, then report my own accepted count.
  u64 child_verdict(Rec& my, u32 st) {
    distribute(my, st);
    return accepted(my, st);
  }

  /// Own items accepted under verdict `st`: none for pops; for pushes
  /// everything, or only the eliminated slice below my mark when the
  /// remainder was refused.
  u64 accepted(Rec& my, u32 st) {
    if (st == kStPopped) return 0;
    return st == kStFull ? my.mark.load_relaxed() : my.own_n;
  }

  // ---- The central store.

  /// Applies the tree's remaining batch to the central store and
  /// distributes; the locked apply always completes.
  std::optional<u64> central_attempt(Rec& my) {
    const u64 mark = my.mark.load_relaxed();
    lock_.acquire();
    return apply_and_release(my, mark);
  }

  /// Lock held: applies the batch from my `mark`, releases, distributes,
  /// and returns the own items accepted.
  u64 apply_and_release(Rec& my, u64 mark) {
    const u32 st = apply_locked(my, my.local_sum, mark);
    lock_.release();
    distribute(my, st);
    if (st == kStPopped) return 0;
    return st == kStFull ? mark : my.own_n;
  }

  /// One aggregate participant's slice, lock held, from the record's
  /// published sum and mark (not owner-local fields) — for joiners those
  /// are ordered by the join-CAS/close-exchange edge, and the relaxed
  /// writes into a joiner's buffer are published afterwards by the
  /// result_state release in serve_aggregate.
  u32 apply_published(Rec& r) {
    const i64 rsum = r.sum.load_relaxed();
    const u64 rmark = r.mark.load_relaxed();
    return apply_locked(r, rsum, rmark);
  }

  /// One record's slice (signed size `rsum`, remaining range starting at
  /// `rmark` of its buffer) against the central store, lock held: an
  /// all-or-nothing push (kStFull refuses the whole slice) or a pop served
  /// short with kNoItem sentinels. The store is a ring addressed by
  /// monotone produce/consume counters; LIFO pops consume from the produce
  /// end, FIFO pops from the consume end. cells_/head_/tail_ are only
  /// touched inside the MCS critical section, so those accesses are
  /// relaxed. size_ is also *read lock-free* by empty()/size() (the
  /// single-read bin-empty probe), so its stores are release to pair with
  /// those acquire loads — a probe that observes n > 0 is then ordered
  /// after the push behind it.
  u32 apply_locked(Rec& r, i64 rsum, u64 rmark) {
    const u64 rrem = Core::tree_size(rsum);
    const u64 cap = cells_.size();
    const u64 n = size_.load_relaxed();
    if (rsum > 0) {
      if (n + rrem > cap) return kStFull;
      const u64 t = tail_.load_relaxed();
      for (u64 i = 0; i < rrem; ++i)
        cells_[(t + i) % cap].store_relaxed(r.buf[rmark + i].load_relaxed());
      tail_.store_relaxed(t + rrem);
      size_.store_release(n + rrem);
      return kStPushed;
    }
    const u64 m = n < rrem ? n : rrem;
    if (order_ == BinOrder::kLifo) {
      const u64 t = tail_.load_relaxed();
      for (u64 i = 0; i < m; ++i)
        r.buf[rmark + i].store_relaxed(cells_[(t - 1 - i) % cap].load_relaxed());
      tail_.store_relaxed(t - m);
    } else {
      const u64 h = head_.load_relaxed();
      for (u64 i = 0; i < m; ++i)
        r.buf[rmark + i].store_relaxed(cells_[(h + i) % cap].load_relaxed());
      head_.store_relaxed(h + m);
    }
    size_.store_release(n - m);
    for (u64 i = m; i < rrem; ++i) r.buf[rmark + i].store_relaxed(kNoItem);
    return kStPopped;
  }

  /// Passes my verdict `st` on to my child subtrees. Push verdicts are
  /// flat. For pops my.buf holds the tree's items/sentinels positionally:
  /// each child, in capture order, receives its remaining demand starting
  /// at its own mark; the verdict (and slice) is published by the release
  /// store of its result_state.
  void distribute(Rec& my, u32 st) {
    if (st != kStPopped) {
      for (Rec* c : my.children) c->result_state.store_release(st);
      return;
    }
    u64 off = my.own_n;
    for (Rec* c : my.children) {
      const u64 crem = Core::tree_size(c->sum.load_relaxed());
      const u64 cmark = c->mark.load_relaxed();
      for (u64 i = 0; i < crem; ++i)
        c->buf[cmark + i].store_relaxed(my.buf[off + i].load_relaxed());
      c->result_state.store_release(kStPopped);
      off += crem;
    }
  }


  bool eliminate_;
  BinOrder order_;
  McsLock<P> lock_;
  typename P::template Shared<u64> head_{0}; // consumed count (FIFO end)
  typename P::template Shared<u64> tail_{0}; // produced count
  /// tail - head, for 1-read empty. On its own line: the lock-free empty()
  /// probes must not be invalidated by unrelated head_/tail_ churn.
  alignas(kCacheLineBytes) typename P::template Shared<u64> size_{0};
  // Central store: only the lock holder touches cells, in bulk.
  std::vector<typename P::template Shared<u64>> cells_; // contract-lint: allow(unpadded-shared)
};

} // namespace fpq
