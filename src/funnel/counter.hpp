// Combining-funnel shared counter, including the paper's novel *bounded*
// fetch-and-decrement (Fig. 10 and Appendix A). The collision machinery is
// FunnelCore (funnel/core.hpp); this file is its central object, one word
// updated by CAS, clamped at `floor` (and optionally `ceiling`). Under low
// load the adaptive fast path skips the layers: it reads the word once and
// makes up to three CASes, each from the value the lost one handed back.
//
// Configurations:
//   plain   (bounded=false) — classic combining-funnel fetch-and-add;
//                             combines any trees; never eliminates or clamps.
//   bounded (bounded=true)  — unbounded increments + decrements clamped at
//                             the floor (what FunnelTree needs); trees of one
//                             direction combine, opposite trees eliminate
//                             (`eliminate` toggles that for the ablation).
//
// Elimination (Fig. 10 lines 12-18) completes a captured opposite tree
// with a single read of the central value, cancelling either the whole
// capturing tree or a slice of the capturer's own batch. A tree root that
// wins the central CAS at pre-value v hands out *positional* verdicts
// (lines 39-47): every participant gets the value the counter would have
// shown it under the sequential order <own batch, child 1's subtree, child
// 2's subtree, ...>, with the clamp folded in slice by slice
// (after_slice). Positional verdicts need no equal subtree sizes, so
// batches (Roh et al. '24) combine at any sizes, replacing the paper's
// homogeneity rule of Appendix A.
//
// Under the aggregate protocol (DESIGN.md §13) the representative folds
// every participant's slice into ONE central CAS and hands out the same
// positional verdicts under the order <representative, joiners in close
// order>; opposite slices cancel arithmetically inside that RMW, which
// subsumes pairwise elimination.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "funnel/core.hpp"
#include "funnel/params.hpp"
#include "platform/platform.hpp"
#include "sync/try_budget.hpp"

namespace fpq {

namespace funnel_detail {

/// The counter's per-record payload.
template <Platform P>
struct CounterPayload {
  /// Verdict value: the pre-value the capturer or representative hands
  /// this record (published by its result_state release).
  typename P::template Shared<i64> result_value{0};
  // Owner-local bookkeeping of the owner's own batch.
  /// Signed own slice still to apply: the positions the tree's verdict
  /// base applies to first (shrunk by partial eliminations).
  i64 own_delta = 0;
  /// Own-batch ops not yet cancelled by a partial elimination.
  u64 own_rem = 0;
  /// Own-batch ops already cancelled, and the central read their
  /// elimination event was pinned to (the k=1 return value).
  u64 own_elim = 0;
  i64 own_elim_value = 0;
};

/// What one traversal yields: the pre-op value of the owner's first
/// operation (the single-op API's return) and, in bounded mode, how many
/// of the owner's k ops moved the value (the batch API's return).
struct CounterDone {
  i64 ticket = 0;
  u64 successes = 0;
};

} // namespace funnel_detail

template <Platform P>
class FunnelCounter
    : private FunnelCore<P, FunnelCounter<P>, funnel_detail::CounterPayload<P>,
                         funnel_detail::CounterDone> {
  using Core = FunnelCore<P, FunnelCounter<P>, funnel_detail::CounterPayload<P>,
                          funnel_detail::CounterDone>;
  friend Core;

 public:
  struct Config {
    bool bounded = true;
    bool eliminate = true;
    i64 floor = 0;
    /// Optional upper bound for the analogous bounded-fetch-and-increment
    /// (§3.3 mentions BFaI as the symmetric primitive; the priority queues
    /// need only the floor).
    i64 ceiling = kNoCeiling;
  };

  static constexpr i64 kNoCeiling = std::numeric_limits<i64>::max();

  FunnelCounter(u32 maxprocs, const FunnelParams& params, Config cfg, i64 initial = 0)
      : Core(maxprocs, params), cfg_(cfg), central_(initial) {
    FPQ_ASSERT_MSG(in_bounds(initial), "initial value outside [floor, ceiling]");
  }

  /// Fetch-and-increment: returns the pre-operation value. Requires an
  /// unbounded ceiling (use bfai on ceiling-bounded counters).
  i64 fai() {
    FPQ_ASSERT_MSG(cfg_.ceiling == kNoCeiling, "use bfai on a ceiling-bounded counter");
    return run(+1, 1).ticket;
  }

  /// Bounded fetch-and-increment with the configured ceiling: increments
  /// only if the value is below the ceiling; returns the pre-op value.
  i64 bfai(i64 bound) {
    FPQ_ASSERT_MSG(cfg_.bounded && bound == cfg_.ceiling,
                   "funnel counter is bound-specialized at construction");
    return run(+1, 1).ticket;
  }

  /// Bounded fetch-and-decrement with the configured floor: decrements only
  /// if the value is above the floor; returns the pre-operation value.
  /// `bound` must equal the configured floor (kept as a parameter so the
  /// counter is interchangeable with Cas/McsCounter in tree code).
  i64 bfad(i64 bound) {
    FPQ_ASSERT_MSG(cfg_.bounded && bound == cfg_.floor,
                   "funnel counter is bound-specialized at construction");
    return run(-1, 1).ticket;
  }

  /// Plain fetch-and-add (plain configuration only; Fig. 5's baseline).
  i64 faa(i64 delta) {
    FPQ_ASSERT_MSG(!cfg_.bounded, "faa on a bounded funnel counter");
    return run(delta, 1).ticket;
  }

  /// Batched fetch-and-increment: k increments in one funnel traversal.
  /// Returns the number that moved the value (k unless ceiling-clamped).
  u64 fai_batch(u64 k) {
    FPQ_ASSERT_MSG(cfg_.ceiling == kNoCeiling, "use bfai on a ceiling-bounded counter");
    FPQ_ASSERT(k >= 1);
    return run(static_cast<i64>(k), k).successes;
  }

  /// Batched bounded fetch-and-decrement: k decrements in one traversal.
  /// Returns how many of them observed a value above the floor — the
  /// per-op successes a one-at-a-time bfad loop would have counted.
  u64 bfad_batch(i64 bound, u64 k) {
    FPQ_ASSERT_MSG(cfg_.bounded && bound == cfg_.floor,
                   "funnel counter is bound-specialized at construction");
    FPQ_ASSERT(k >= 1);
    return run(-static_cast<i64>(k), k).successes;
  }

  /// Bounded-wait fetch-and-increment: never enters the funnel (no capture,
  /// so no dependence on any partner's liveness) — it CASes the central
  /// value directly under the budget, as the adaptive fast path does.
  /// nullopt = budget exhausted, counter untouched.
  std::optional<i64> try_fai(TryClock<P>& clock) {
    FPQ_ASSERT_MSG(cfg_.ceiling == kNoCeiling, "use a ceiling-matched try on bfai counters");
    return try_apply(+1, clock);
  }

  /// Bounded-wait bounded fetch-and-decrement (same contract as try_fai).
  std::optional<i64> try_bfad(i64 bound, TryClock<P>& clock) {
    FPQ_ASSERT_MSG(cfg_.bounded && bound == cfg_.floor,
                   "funnel counter is bound-specialized at construction");
    return try_apply(-1, clock);
  }

  /// Unsynchronized read of the central value (quiescent use only).
  i64 read() const { return central_.load_acquire(); }

  /// Unsynchronized write of the central value. Only legal while no
  /// operation is in flight (used by reactive wrappers when switching
  /// representations).
  void set_value(i64 v) {
    FPQ_ASSERT_MSG(in_bounds(v), "value outside [floor, ceiling]");
    central_.store_release(v);
  }

  const Config& config() const { return cfg_; }
  const FunnelParams& params() const { return this->params_; }

  /// Total joiner slices folded by aggregate representatives (quiescent
  /// use; 0 unless the protocol is kAggregate). Lets tests assert that an
  /// adaptively-closed window still forms multi-party aggregates.
  u64 folded_joins() const { return folded_joins_.load_acquire(); }

 private:
  using Done = funnel_detail::CounterDone;
  using typename Core::Rec;
  using typename Core::Slot;

  static constexpr u32 kStCount = 1; // positional verdict
  static constexpr u32 kStElim = 2;  // flat elimination verdict

  Done run(i64 delta, u64 k) {
    Rec& my = this->record();
    my.own_delta = delta;
    my.own_rem = k;
    my.own_elim = 0;
    my.own_elim_value = 0;
    return this->traverse(my, delta);
  }

  // ---- Central-object hooks (contract in funnel/core.hpp).

  /// Adaptive fast path: one read of the central value, then up to three
  /// direct CASes, each retrying at once from the value the lost CAS
  /// handed back (no re-read, no backoff: every try is one trip to the hot
  /// word). A third lost race is the contention signal that re-opens the
  /// funnel.
  std::optional<Done> fast_path(Rec& my) {
    i64 val = central_.load_relaxed();
    for (u32 tries = 0; tries < 3; ++tries) {
      if (auto r = cas_from(my, val)) return r;
    }
    my.adaption = std::min(1.0, my.adaption * 2.0); // contention after all
    return std::nullopt;
  }

  bool eliminates() const { return cfg_.bounded && cfg_.eliminate; }
  u64 own_remaining(const Rec& my) const { return my.own_rem; }

  /// Elimination (Fig. 10 lines 12-18): both trees complete using one read
  /// of the central value. Every member of the decrementing tree returns v
  /// (adjusted up off the floor), every member of the incrementing tree
  /// v-1 — the interleaving "inc, dec, inc, dec, ..." made explicit.
  Done eliminate(Rec& my, Rec& q, i64 qsum) {
    const i64 v = elimination_read();
    const i64 my_base = my.local_sum < 0 ? v : v - 1;
    give(q, qsum < 0 ? v : v - 1, kStElim);
    return hand_out_flat(my, my_base);
  }

  /// Partial elimination: the captured opposite tree q (|q| <= my.own_rem)
  /// cancels |q| ops of *my own* batch under the same single-central-read
  /// argument as eliminate — q's side is served whole with a flat verdict,
  /// my cancelled slice is accounted in own_elim, and my tree (children
  /// untouched) rejoins the layer with the shrunk sum.
  void eliminate_partial(Rec& my, Rec& q, i64 qsum) {
    const i64 v = elimination_read();
    give(q, qsum < 0 ? v : v - 1, kStElim);
    const u64 served = Core::tree_size(qsum);
    my.own_delta += qsum;
    my.own_rem -= served;
    my.own_elim += served;
    my.own_elim_value = my.local_sum < 0 ? v : v - 1;
  }

  /// Combine: bounded trees must share a direction; plain mode adds any.
  bool combine(Rec& my, Rec&, i64 qsum) {
    if (cfg_.bounded && !Core::same_sign(qsum, my.local_sum)) return false;
    my.local_sum += qsum;
    return true;
  }

  /// One CAS of the tree's whole sum; the winner hands out positional
  /// verdicts from the pre-value it replaced.
  std::optional<Done> central_attempt(Rec& my) {
    i64 val = central_.load_relaxed();
    return cas_from(my, val);
  }

  /// The central step: CAS the tree's sum, clamped, onto `val`, and hand
  /// out positional verdicts on success. On failure `val` holds the value
  /// the lost CAS saw, which a caller may retry from.
  std::optional<Done> cas_from(Rec& my, i64& val) {
    if (!central_.compare_exchange(val, after_slice(val, my.local_sum), MemOrder::kAcqRel,
                                   MemOrder::kRelaxed))
      return std::nullopt;
    return hand_out(my, val);
  }

  /// Representative: close the list, release the slot, and fold every
  /// participant's slice into ONE central CAS. Sequential order of the
  /// aggregate: <my own batch, joiners in close order>, each slice applied
  /// whole with the clamp folded in (after_slice).
  Done serve_aggregate(Rec& my, Slot& slot) {
    my.agg.close_into(my.children);
    if (!my.children.empty())
      folded_joins_.fetch_add(my.children.size(), MemOrder::kAcqRel);
    Core::release_slot(my, slot);
    this->adapt(my, !my.children.empty());
    return Core::until_applied([&]() -> std::optional<Done> {
      i64 val = central_.load_relaxed();
      i64 nv = after_slice(val, my.local_sum);
      for (Rec* c : my.children) nv = after_slice(nv, c->sum.load_relaxed());
      if (!central_.compare_exchange(val, nv, MemOrder::kAcqRel, MemOrder::kRelaxed))
        return std::nullopt;
      return hand_out(my, val);
    });
  }

  /// A verdict from my capturer (exchange) or representative (aggregate,
  /// always kStCount): my base value, which I pass on to my own children.
  Done child_verdict(Rec& my, u32 st) {
    const i64 base = my.result_value.load_relaxed(); // ordered by the acquire spin
    return st == kStElim ? hand_out_flat(my, base) : hand_out(my, base);
  }

  // ---- Counter arithmetic.

  /// Publishes one verdict: the value, then the state that releases it.
  static void give(Rec& c, i64 value, u32 st) {
    c.result_value.store_relaxed(value);
    c.result_state.store_release(st);
  }

  /// Elimination verdicts: my whole tree shares the one pinned value.
  /// Every eliminated op is paired against an opposite one at a value off
  /// the floor, so all of my remaining own ops count as successes.
  Done hand_out_flat(Rec& my, i64 base) {
    for (Rec* c : my.children) give(*c, base, kStElim);
    return {ticket_for(my, base), my.own_elim + my.own_rem};
  }

  /// Positional verdicts (Fig. 10 lines 41-47, with the floor clamp folded
  /// into the sequence): from pre-value `base`, my own remaining slice
  /// comes first, then each child subtree in order, and every child is
  /// handed the value before its slice. Children are frozen (they spin on
  /// result_state), so their sums are stable and readable relaxed.
  Done hand_out(Rec& my, i64 base) {
    i64 v = after_slice(base, my.own_delta);
    for (Rec* c : my.children) {
#ifdef FPQ_SEEDED_BUG_AGG_VERDICT
      // Seeded-bug corpus (negative control, tests/test_dpor_corpus.cpp):
      // the PR 8 read-after-release bug reintroduced. Reading the slice
      // after publishing the verdict races with the freed child reusing
      // its record for the next operation and rewriting sum.
      give(*c, v, kStCount);
      const i64 csum = c->sum.load_relaxed();
#else
      // Read the slice BEFORE releasing the verdict: the release frees
      // the child to start its next operation and rewrite its sum.
      const i64 csum = c->sum.load_relaxed();
      give(*c, v, kStCount);
#endif
      v = after_slice(v, csum);
    }
    return {ticket_for(my, base), my.own_elim + own_successes(my, base)};
  }

  /// The single central read an elimination is pinned to (line 14: the
  /// leading op must be the inc, so a value at the floor is read one up).
  i64 elimination_read() {
    const i64 v = central_.load_acquire();
    return v == cfg_.floor ? v + 1 : v;
  }

  /// Direct-CAS core of the try_* entries. Lock-free: each failed CAS
  /// means some other operation committed.
  std::optional<i64> try_apply(i64 delta, TryClock<P>& clock) {
    for (;;) {
      i64 val = central_.load_relaxed();
      if (central_.compare_exchange(val, after_slice(val, delta), MemOrder::kAcqRel,
                                    MemOrder::kRelaxed))
        return val;
      if (!clock.tick_backoff()) return std::nullopt;
    }
  }

  /// Counter value after one whole slice (k same-direction ops) applied
  /// from `base`. Bounded slices are k ops of ±1, so |sum| is the op count
  /// and the clamp folds in positionally: decrements stop at the floor,
  /// increments at the ceiling. Plain mode is exact addition of an
  /// arbitrary delta.
  i64 after_slice(i64 base, i64 ssum) const {
    const i64 v = base + ssum;
    if (!cfg_.bounded) return v;
    if (ssum < 0) return v < cfg_.floor ? cfg_.floor : v;
    return v > cfg_.ceiling ? cfg_.ceiling : v;
  }

  /// How many of my own remaining ops move the value when they execute
  /// positionally first from pre-value `base`.
  u64 own_successes(const Rec& my, i64 base) const {
    const bool dec = my.own_delta < 0;
    if (!cfg_.bounded || (!dec && cfg_.ceiling == kNoCeiling)) return my.own_rem;
    const i64 room = dec ? base - cfg_.floor : cfg_.ceiling - base;
    return room > 0 ? std::min(static_cast<u64>(room), my.own_rem) : 0;
  }

  /// The single-op API's return: the first own op's pre-value — positional
  /// when any own op is still pending, else the pinned elimination read.
  i64 ticket_for(const Rec& my, i64 base) const {
    return my.own_rem > 0 ? base : my.own_elim_value;
  }

  /// Every update clamps, so a counter that starts inside its bounds stays
  /// there — which is what lets after_slice() serve as the one clamp.
  bool in_bounds(i64 v) const {
    return !cfg_.bounded || (v >= cfg_.floor && v <= cfg_.ceiling);
  }

  Config cfg_;
  /// The hot word every surviving tree CASes; keep it off its neighbors'
  /// cache lines.
  alignas(kCacheLineBytes) typename P::template Shared<i64> central_;
  /// Aggregation fold statistic (folded_joins); cold, written only by
  /// representatives that actually collected joiners.
  alignas(kCacheLineBytes) typename P::template Shared<u64> folded_joins_{0};
};

} // namespace fpq
