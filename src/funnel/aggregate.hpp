// Aggregation collision endpoint (Roh et al. '24, arXiv 2411.14420 —
// "Aggregating Funnels for Faster Fetch&Add and Queues"). Where the
// exchange protocol merges exactly two combining trees per collision, a
// layer slot's occupant ("representative") keeps an *open aggregation
// record* here: every late arrival CAS-appends its whole batched request
// onto the list, and the representative closes it and serves everyone
// with one central operation — a flat list instead of a binary tree.
//
// The endpoint is embedded in every funnel record as the member `agg`
// (FunnelCore::Rec, funnel/core.hpp): `head` is the join point of the
// record's *own* aggregate when it acts as representative; `next` is the
// record's link in *someone else's* aggregate when it joins. `head` holds
//     kAggClosed    — no aggregate open on this record (initial state);
//     kAggOpenEmpty — open, nobody has joined yet;
//     a Rec*        — open, encoded pointer to the most recent joiner
// (records are cache-line aligned, so real pointers never collide with the
// two small sentinels).
//
// ABA discipline (why no tags are needed): a representative opens `head`
// only AFTER privately winning its layer slot, and is committed from that
// point to close the list and serve everyone on it. A joiner that read a
// stale slot pointer and lands on the owner's *next* aggregate has made a
// perfectly valid join — requests are self-describing (the joined record
// carries its whole batch), so it never matters *which* tenure's aggregate
// serves them. Likewise the join CAS publishing `next = h` is consistent
// across tenures: the CAS succeeding means `head == h` at that instant.
//
// Memory-order contract (DESIGN.md §8 / §13): a joiner's payload is
// written relaxed and published by the release half of its join CAS on
// `head`; the representative's acq_rel closing exchange is the matching
// acquire, made transitive through the intermediate joiners' acq_rel CASes.
// `open()` is a release store so a joiner arriving through a stale slot
// read is still ordered after the representative's record reuse. Verdicts
// flow back on the records' result_state edges. No seq_cst anywhere: every
// decision is made through RMWs on the single `head` word, so there is no
// store-buffering shape.
#pragma once

#include <vector>

#include "common/padded.hpp"
#include "common/types.hpp"
#include "platform/platform.hpp"

namespace fpq {

/// One record's aggregation endpoint. Cache-line aligned so the `head`
/// word — CASed by every joiner of this record's aggregate — does not
/// false-share with the owning record's location/sum/result words, which
/// the exchange-protocol machinery and the verdict edges keep hot.
template <Platform P>
struct alignas(kCacheLineBytes) AggregateEndpoint {
  static constexpr u64 kAggClosed = 1;
  static constexpr u64 kAggOpenEmpty = 0;

  typename P::template Shared<u64> head{kAggClosed};
  typename P::template Shared<u64> next{kAggOpenEmpty};

  /// Representative only, after winning a layer slot: start accepting
  /// joiners. Release: publishes the owner's record reuse (result_state
  /// reset) to joiners that reach us through a stale slot pointer.
  void open() { head.store_release(kAggOpenEmpty); }

  /// Append `self` (whose payload is already written, relaxed) onto this
  /// record's open aggregate. False = the aggregate is closed (or closed
  /// mid-attempt); the caller should help-clear the slot and retry.
  /// The success order is acq_rel: release publishes self's payload and
  /// `next` link; acquire extends the word's sync clock so the closing
  /// exchange observes every joiner transitively.
  template <class Rec>
  bool try_join(Rec* self) {
    u64 h = head.load_relaxed();
    while (h != kAggClosed) {
      self->agg.next.store_relaxed(h);
      if (head.compare_exchange(h, reinterpret_cast<u64>(self), MemOrder::kAcqRel,
                                MemOrder::kRelaxed))
        return true;
    }
    return false;
  }

  /// Representative only, between open() and close_into(): burn up to
  /// `budget` relax beats, returning early once no new joiner has been
  /// observed for `idle_limit` consecutive beats (adaptive window close —
  /// a solo caller stops paying the whole window, a busy one keeps it open
  /// to the budget). The polls are relaxed reads of a word the join CASes
  /// write acq_rel — pure hints, racing nothing; the closing exchange in
  /// close_into still owns the synchronizing edge.
  void wait_open_window(u32 budget, u32 idle_limit) {
    u64 last = head.load_relaxed();
    u32 idle = 0;
    for (u32 i = 0; i < budget && idle < idle_limit; ++i) {
      P::relax();
      if ((i & 3u) != 3u) continue; // poll every 4th beat: mostly local work
      const u64 h = head.load_relaxed();
      if (h == last) {
        idle += 4;
      } else {
        last = h; // someone joined: restart the idle clock
        idle = 0;
      }
    }
  }

  /// Representative only: stop accepting joiners and collect them (most
  /// recent first) into `out`. The acquire half of the exchange is the
  /// edge that makes every joiner's relaxed payload readable; the `next`
  /// links are readable relaxed under the same edge.
  template <class Rec>
  void close_into(std::vector<Rec*>& out) {
    u64 p = head.exchange(kAggClosed, MemOrder::kAcqRel);
    while (p != kAggOpenEmpty) {
      Rec* r = reinterpret_cast<Rec*>(p);
      out.push_back(r);
      p = r->agg.next.load_relaxed();
    }
  }
};

} // namespace fpq
