// The combining-funnel engine (Shavit & Zemach '98; paper §3.1; DESIGN.md
// §2) shared by the paper's two funnel objects: the bounded counter
// (FunnelCounter, Fig. 10) and the elimination stack used as a bin
// (FunnelStack, §3.2). Only the central object differs between them, so
// FunnelCore owns the mechanism and each central object plugs into it as a
// CRTP policy (no virtual dispatch on the hot path).
//
// Exchange protocol (the paper's). A processor publishes its record and
// walks the layers: it SWAPs the record into a random slot of the current
// layer, reads the previous occupant, and tries to collide by CAS-locking
// first itself and then the partner (both from <layer d> to EMPTY on their
// location words). A captured partner q is then, in this order:
//   * fully eliminated — opposite tree of exactly the opposite sum; both
//     trees complete without touching the central object;
//   * partially eliminated — opposite tree no bigger than the capturer's
//     own remaining batch; q is served whole against a slice of the
//     capturer's *own* ops (children's slices are never split) and the
//     capturer rejoins the layer with the shrunk sum;
//   * combined — the central object accepts q's tree as a child subtree;
//     the capturer ascends a layer;
//   * handed kStRetry — q rejoins the layer itself (silently restoring its
//     location would race with q noticing the capture and waiting forever).
// After its attempts a tree root applies the whole tree's batch to the
// central object, which may lose a race (the counter's CAS: rejoin the
// layer, back off, retry) or always completes (the stack's locked apply).
//
// Aggregate protocol (Roh et al. '24, funnel/aggregate.hpp, DESIGN.md
// §13): a layer-slot occupant keeps an open aggregation record that late
// arrivals join; the representative closes the flat list and the central
// object serves every participant at once. Location words are unused.
//
// A central object derives privately from FunnelCore<P, Central, Payload,
// Result>, befriends it, and supplies: its per-record Payload (Rec derives
// from it) and traversal Result, and the hooks fast_path, eliminates,
// own_remaining, eliminate, eliminate_partial, combine, central_attempt,
// serve_aggregate and child_verdict (each documented at its call site).
//
// Ordering contract: a record's payload is written relaxed and published
// by the release store of its location word (or its aggregate join CAS);
// the capturer's acq_rel capture CAS (or the representative's closing
// exchange) is the matching acquire. Verdict payloads are written relaxed
// and published by the release store of result_state; the waiter's
// acquire spin is the matching edge. Layer-slot exchanges are acq_rel so a
// record pointer read from a slot carries its owner's publication.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/padded.hpp"
#include "common/types.hpp"
#include "funnel/aggregate.hpp"
#include "funnel/params.hpp"
#include "platform/platform.hpp"
#include "sync/backoff.hpp"

namespace fpq {

template <Platform P, class Central, class Payload, class Result>
class FunnelCore {
 protected:
  static constexpr u64 kLocEmpty = 0;
  static constexpr u32 kStEmpty = 0;
  /// Handed to a captured partner the capturer cannot serve: "rejoin the
  /// layer". The partner rejoins by storing its own location, so it stays
  /// uncapturable in between. Central verdict states are small numbers.
  static constexpr u32 kStRetry = ~u32{0};

  /// The words every record shares; the first base of Rec, so they sit on
  /// the record's first cache line together with the payload's words.
  struct Words {
    typename P::template Shared<u64> location{kLocEmpty};
    typename P::template Shared<i64> sum{0};
    typename P::template Shared<u32> result_state{kStEmpty};
  };

  struct alignas(kCacheLineBytes) Rec : Words, Payload {
    using Payload::Payload;
    // Owner-local state (never touched by other processors). Adaption
    // starts at the minimum: assume low load until collisions prove
    // otherwise (the first contended op raises it immediately).
    i64 local_sum = 0;
    double adaption = 0.125;
    std::vector<Rec*> children;
    /// Aggregation-protocol endpoint (own aggregate's join point + link in
    /// a representative's list); idle under the exchange protocol.
    AggregateEndpoint<P> agg;
  };

  using Slot = typename P::template Shared<Rec*>;

  template <class... PayloadArgs>
  FunnelCore(u32 maxprocs, const FunnelParams& params, const PayloadArgs&... payload_args)
      : params_(params) {
    params_.validate();
    FPQ_ASSERT(maxprocs >= 1);
    records_.reserve(maxprocs);
    for (u32 i = 0; i < maxprocs; ++i)
      records_.push_back(std::make_unique<Rec>(payload_args...));
    layers_.resize(params_.levels);
    for (u32 d = 0; d < params_.levels; ++d)
      layers_[d] = std::make_unique<Padded<Slot>[]>(params_.width[d]);
  }

  static u64 tree_size(i64 sum) { return static_cast<u64>(std::llabs(sum)); }
  static bool same_sign(i64 a, i64 b) { return (a < 0) == (b < 0); }

  Rec& record() { return *records_[P::self()]; }

  /// One funnel traversal for the batch of signed size `delta` whose
  /// payload the caller has already written into `my`.
  Result traverse(Rec& my, i64 delta) {
    my.local_sum = delta;
    my.children.clear();
    // Adaption (§3.1): a processor that has seen no collisions lately
    // traverses zero layers — the central object's fast path applies its
    // batch directly (the layer-width half of adaption: effective_width).
    if (params_.adaptive && my.adaption <= params_.adapt_min * 1.01) {
      if (auto r = central().fast_path(my)) return *r; // nullopt: contended after all
    }
    my.result_state.store_relaxed(kStEmpty);
    my.sum.store_relaxed(delta);
    if (params_.protocol == FunnelProtocol::kAggregate) return run_aggregate(my);
    return run_exchange(my);
  }

  /// Releases the layer slot a representative holds (aggregate protocol;
  /// called by the central's serve_aggregate once the list is closed).
  static void release_slot(Rec& my, Slot& slot) {
    Rec* self = &my;
    slot.compare_exchange(self, nullptr, MemOrder::kAcqRel, MemOrder::kRelaxed);
  }

  /// Retries `attempt` (one central RMW, nullopt = lost the race) under a
  /// randomized backoff until it applies. Lock-free: each failed CAS means
  /// some other operation committed.
  template <class Attempt>
  static Result until_applied(Attempt attempt) {
    Backoff<P> central_backoff(16, 2048);
    for (;;) {
      if (auto r = attempt()) return *r;
      central_backoff.spin();
    }
  }

  void adapt(Rec& my, bool collided) {
    if (!params_.adaptive) return;
    if (collided)
      my.adaption = std::min(1.0, my.adaption * 1.5);
    else
      my.adaption = std::max(params_.adapt_min, my.adaption * 0.75);
  }

  FunnelParams params_;

 private:
  Central& central() { return static_cast<Central&>(*this); }

  static u64 loc(u32 depth) { return static_cast<u64>(depth) + 1; }

  /// The exchange protocol (Fig. 10 lines 5-37).
  Result run_exchange(Rec& my) {
    u32 d = 0;
    my.location.store_release(loc(0)); // publishes the payload
    bool collided = false;
    Backoff<P> central_backoff(16, 2048);

    for (;;) {
      // ---- Collision attempts at layer d (Fig. 10 lines 5-27).
      u32 n = 0;
      while (n < params_.attempts && d < params_.levels) {
        ++n;
        const u32 wid = effective_width(my, d);
        Rec* q = (*layers_[d][P::rnd(wid)]).exchange(&my, MemOrder::kAcqRel);
        if (q != nullptr && q != &my) {
          u64 mloc = loc(d);
          if (!my.location.compare_exchange(mloc, kLocEmpty, MemOrder::kAcqRel,
                                            MemOrder::kRelaxed)) {
            if (auto r = finish_as_child(my, d)) return *r; // captured first
            continue;                                       // told to retry
          }
          u64 qloc = loc(d);
          if (q->location.compare_exchange(qloc, kLocEmpty, MemOrder::kAcqRel,
                                           MemOrder::kRelaxed)) {
            const i64 qsum = q->sum.load_relaxed(); // ordered by the capture CAS
            if (central().eliminates() && qsum == -my.local_sum) {
              adapt(my, true);
              return central().eliminate(my, *q, qsum); // opposite equal trees
            }
            if (central().eliminates() && !same_sign(qsum, my.local_sum) &&
                tree_size(qsum) <= central().own_remaining(my)) {
              central().eliminate_partial(my, *q, qsum); // serves q from my own slice
              my.local_sum += qsum;
              my.sum.store_relaxed(my.local_sum);
              adapt(my, true);
              my.location.store_release(loc(d)); // publishes the shrunk sum
              continue;
            }
            if (central().combine(my, *q, qsum)) { // folded q's sum into local_sum
              // q's tree hangs under ours; ascend a layer.
              my.sum.store_relaxed(my.local_sum);
              my.children.push_back(q);
              collided = true;
              ++d;
              my.location.store_release(loc(d));
              n = 0; // fresh attempt budget at the new layer (line 22)
              continue;
            }
            // We hold q captured and cannot give it a whole-tree verdict:
            // tell it to rejoin the layer itself.
            q->result_state.store_release(kStRetry);
            my.location.store_release(loc(d));
            continue;
          }
          // Failed to lock the partner; rejoin the layer (line 24).
          my.location.store_release(loc(d));
        }
        // Wait to be captured for a while (lines 25-26). The relax between
        // probes matters on both backends: natively it is the polite spin
        // hint; on the simulator the probe is a cache hit, and hit-elision
        // never yields on hits — without the relax (which charges a cycle
        // and yields) a stall plan that freezes every other fiber would
        // leave this loop monopolizing the scheduler.
        for (u32 i = 0; i < params_.spin[d]; ++i) {
          if (my.location.load_relaxed() != loc(d)) {
            if (auto r = finish_as_child(my, d)) return *r;
            break; // retry: rejoin the attempts loop
          }
          P::relax();
        }
      }

      // ---- Central attempt (lines 28-37).
      u64 mloc = loc(d);
      if (!my.location.compare_exchange(mloc, kLocEmpty, MemOrder::kAcqRel,
                                        MemOrder::kRelaxed)) {
        if (auto r = finish_as_child(my, d)) return *r;
        continue;
      }
      if (auto r = central().central_attempt(my)) { // applied and distributed
        adapt(my, collided);
        return *r;
      }
      my.location.store_release(loc(d)); // lost the race; rejoin the funnel
      // Randomized backoff keeps failed central attempts from convoying
      // (while waiting in the layer they remain capturable).
      central_backoff.spin();
      if (my.location.load_relaxed() != loc(d)) {
        if (auto r = finish_as_child(my, d)) return *r;
      }
    }
  }

  /// Waits for the capturer's verdict. Returns the operation's result, or
  /// nullopt if the capturer could not serve us (kStRetry) — in that case
  /// this rejoins layer `d` before returning, so the caller just continues.
  std::optional<Result> finish_as_child(Rec& my, u32 d) {
    const u32 st = P::spin_until(my.result_state, [](u32 v) { return v != kStEmpty; });
    if (st == kStRetry) {
      my.result_state.store_relaxed(kStEmpty);
      my.location.store_release(loc(d)); // rejoin; we were uncapturable meanwhile
      return std::nullopt;
    }
    adapt(my, true); // being captured is a successful collision too
    return central().child_verdict(my, st); // also serves my own children
  }

  /// The aggregate protocol. Publication happens through the slot-claim
  /// CAS (representatives) or the join CAS on the occupant's agg.head
  /// (joiners).
  Result run_aggregate(Rec& my) {
    for (u32 n = 0; n < params_.attempts; ++n) {
      Slot& slot = *layers_[0][P::rnd(effective_width(my, 0))];
      Rec* cur = slot.load_acquire();
      if (cur == nullptr) {
        Rec* expected = nullptr;
        if (slot.compare_exchange(expected, &my, MemOrder::kAcqRel, MemOrder::kRelaxed)) {
          // Representative: keep the aggregate open for up to agg_wait
          // beats (closing early once joins stop arriving); the central
          // object then closes it into my.children, calls release_slot()
          // and serves every participant.
          my.agg.open();
          my.agg.wait_open_window(params_.agg_wait, params_.agg_idle_limit());
          return central().serve_aggregate(my, slot);
        }
        cur = expected;
      }
      if (cur == nullptr || cur == &my) continue; // lost the claim race / stale self
      if (cur->agg.try_join(&my)) {
        adapt(my, true); // joining is the aggregation analogue of colliding
        // The representative is committed to serving us, so the verdict
        // is never kStRetry.
        const u32 st = P::spin_until(my.result_state, [](u32 v) { return v != kStEmpty; });
        FPQ_ASSERT_MSG(st != kStRetry, "aggregate participants are always served");
        return central().child_verdict(my, st);
      }
      // The occupant's aggregate is closed: help-clear the stale slot so
      // the next arrival can claim it, then retry. Helping across tenures
      // is benign — the CAS only clears the exact pointer we saw.
      slot.compare_exchange(cur, nullptr, MemOrder::kAcqRel, MemOrder::kRelaxed);
    }
    // No slot claimed, no aggregate joined: apply the own batch directly.
    adapt(my, false);
    return until_applied([&] { return central().central_attempt(my); });
  }

  u32 effective_width(Rec& my, u32 d) const {
    const u32 full = params_.width[d];
    if (!params_.adaptive) return full;
    const u32 w = static_cast<u32>(my.adaption * full);
    return w >= 1 ? w : 1;
  }

  std::vector<std::unique_ptr<Rec>> records_;
  /// Layer slots are swapped by unrelated processors — one per cache line.
  std::vector<std::unique_ptr<Padded<Slot>[]>> layers_;
};

} // namespace fpq
