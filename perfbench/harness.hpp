// Helpers shared by the benchmark program (pqbench.cpp) and its self-tests
// (selftest.cpp): the host cycle clock, exact latency percentiles, the
// item-conservation gate, and the timing decorator that turns a queue
// backend into a child span of its caller.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "common/padded.hpp"
#include "common/types.hpp"
#include "pq/pq.hpp"

namespace perfbench {

using fpq::u32;
using fpq::u64;

// ---------------------------------------------------------------- clocks

/// Host reference-cycle counter (the invariant TSC on x86; steady_clock
/// nanoseconds elsewhere). Native latencies are reported in these ticks:
/// reading them costs a few nanoseconds, so per-call timing stays cheap,
/// and no tick-to-ns calibration error enters the end-to-end figures.
inline u64 ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
#endif
}

inline double wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds per tick, measured against steady_clock over `window_s`.
/// Only the per-layer (traced) figures are converted with it.
inline double ns_per_tick(double window_s = 0.05) {
  const double w0 = wall_seconds();
  const u64 t0 = ticks();
  while (wall_seconds() - w0 < window_s) {
  }
  const double w1 = wall_seconds();
  const u64 t1 = ticks();
  return (w1 - w0) * 1e9 / static_cast<double>(t1 - t0);
}

// ----------------------------------------------------------- percentiles

/// Exact nearest-rank percentile: the smallest sample x such that at least
/// q of the samples are <= x (q in (0, 1]). No interpolation and no
/// bucketing, so p99 moves by exactly the samples that moved.
inline u64 exact_percentile(std::vector<u64> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double r = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = r < 1.0 ? 0 : static_cast<std::size_t>(r) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Per-thread latency recorder with the same exact nearest-rank answers as
/// exact_percentile over the raw samples, without storing every sample:
/// one counter per integer value below kDirect, the rare larger values kept
/// verbatim.
class ExactHistogram {
 public:
  static constexpr u64 kDirect = 1u << 16;

  ExactHistogram() : counts_(kDirect, 0) {}

  void record(u64 v) {
    ++n_;
    if (v < kDirect)
      ++counts_[v];
    else
      big_.push_back(v);
  }

  void merge(const ExactHistogram& o) {
    for (u64 i = 0; i < kDirect; ++i) counts_[i] += o.counts_[i];
    big_.insert(big_.end(), o.big_.begin(), o.big_.end());
    n_ += o.n_;
  }

  u64 count() const { return n_; }

  u64 percentile(double q) const {
    if (n_ == 0) return 0;
    const double r = std::ceil(q * static_cast<double>(n_));
    const u64 rank = r < 1.0 ? 1 : std::min(static_cast<u64>(r), n_); // 1-based
    u64 seen = 0;
    for (u64 i = 0; i < kDirect; ++i) {
      seen += counts_[i];
      if (seen >= rank) return i;
    }
    std::vector<u64> big = big_;
    std::sort(big.begin(), big.end());
    return big[rank - seen - 1];
  }

 private:
  std::vector<u32> counts_;
  std::vector<u64> big_;
  u64 n_ = 0;
};

// ------------------------------------------------------ conservation gate

/// Every item the benchmark inserts is a unique (producer, seq) tag:
/// producer 0 is the prefill, producer t+1 is worker t.
inline constexpr u32 kSeqBits = 32;
inline u64 make_item(u32 producer, u64 seq) { return (static_cast<u64>(producer) << kSeqBits) | seq; }
inline u32 item_producer(u64 item) { return static_cast<u32>(item >> kSeqBits); }
inline u64 item_seq(u64 item) { return item & ((1ull << kSeqBits) - 1); }

struct ConservationReport {
  u64 delivered = 0;  // items handed back by the queue (with repeats)
  u64 lost = 0;       // inserted, never handed back (count deficit)
  u64 duplicated = 0; // handed back more than once (count excess)
  u64 fabricated = 0; // from an unknown producer or past a producer's last seq
  u64 mismatched = 0; // producers whose count matches but whose items differ
  bool ok() const { return lost == 0 && duplicated == 0 && fabricated == 0 && mismatched == 0; }
};

/// One consumer's tally of the items it received: per producer a count,
/// two independent hash sums and the highest seq seen. Constant memory and
/// no shared writes, so neither the gate's footprint nor its cost grows
/// with the throughput being measured. Counts find every lost or extra
/// item; the hash sums find a loss masked by a duplicate.
class Ledger {
 public:
  explicit Ledger(u32 producers) : per_(producers) {}

  void mark(u64 item) {
    const u32 p = item_producer(item);
    if (p >= per_.size()) {
      ++unknown_;
      return;
    }
    Tally& t = per_[p];
    ++t.count;
    t.sum1 += mix(item, 1);
    t.sum2 += mix(item, 2);
    t.end_seq = std::max(t.end_seq, item_seq(item) + 1);
  }

  static u64 mix(u64 x, u64 k) {
    x += 0x9e3779b97f4a7c15ull * k;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

 private:
  friend ConservationReport check_conservation(const std::vector<u64>&, std::span<const Ledger>);
  struct Tally {
    u64 count = 0;
    u64 sum1 = 0;
    u64 sum2 = 0;
    u64 end_seq = 0;
  };
  std::vector<Tally> per_;
  u64 unknown_ = 0;
};

/// Compares what the consumers received against what each producer
/// inserted (`inserted[p]` = items with seq 0..n-1 of producer p).
inline ConservationReport check_conservation(const std::vector<u64>& inserted,
                                             std::span<const Ledger> ledgers) {
  ConservationReport r;
  for (const Ledger& l : ledgers) r.fabricated += l.unknown_;
  for (u32 p = 0; p < inserted.size(); ++p) {
    Ledger::Tally got;
    for (const Ledger& l : ledgers) {
      if (p >= l.per_.size()) continue;
      const Ledger::Tally& t = l.per_[p];
      got.count += t.count;
      got.sum1 += t.sum1;
      got.sum2 += t.sum2;
      got.end_seq = std::max(got.end_seq, t.end_seq);
    }
    const u64 n = inserted[p];
    u64 want1 = 0, want2 = 0;
    for (u64 s = 0; s < n; ++s) {
      want1 += Ledger::mix(make_item(p, s), 1);
      want2 += Ledger::mix(make_item(p, s), 2);
    }
    r.delivered += got.count;
    if (got.end_seq > n) ++r.fabricated;
    if (got.count < n)
      r.lost += n - got.count;
    else if (got.count > n)
      r.duplicated += got.count - n;
    else if (got.sum1 != want1 || got.sum2 != want2)
      ++r.mismatched;
  }
  return r;
}

// -------------------------------------------------- backend timing spans

/// Per-processor accumulators of one span kind (padded: no sharing).
struct SpanSink {
  struct Slot {
    u64 calls = 0;
    u64 ticks = 0;
  };
  explicit SpanSink(u32 nprocs) : slots(nprocs) {}
  u64 calls() const {
    u64 n = 0;
    for (const auto& s : slots) n += s->calls;
    return n;
  }
  u64 total_ticks() const {
    u64 n = 0;
    for (const auto& s : slots) n += s->ticks;
    return n;
  }
  std::vector<fpq::Padded<Slot>> slots;
};

/// Transparent decorator over a concrete backend queue: forwards every
/// call unchanged and charges its duration to `sink`. Handed to ShardedPq
/// through its BackendFactory, it makes backend time a child span of the
/// sharded call without touching the library.
template <fpq::Platform P, class Q>
class TimedBackend final : public fpq::IPriorityQueue<P> {
 public:
  TimedBackend(const fpq::PqParams& params, SpanSink& sink) : q_(params), sink_(sink) {}

  bool insert(fpq::Prio prio, fpq::Item item) override {
    const u64 t0 = ticks();
    const bool ok = q_.insert(prio, item);
    charge(t0);
    return ok;
  }
  std::optional<fpq::Entry> delete_min() override {
    const u64 t0 = ticks();
    auto e = q_.delete_min();
    charge(t0);
    return e;
  }
  u32 insert_batch(std::span<const fpq::Entry> entries) override {
    const u64 t0 = ticks();
    const u32 n = q_.insert_batch(entries);
    charge(t0);
    return n;
  }
  u32 delete_min_batch(std::span<fpq::Entry> out) override {
    const u64 t0 = ticks();
    const u32 n = q_.delete_min_batch(out);
    charge(t0);
    return n;
  }
  fpq::PqStatus try_insert(fpq::Prio prio, fpq::Item item, const fpq::TryBudget& b) override {
    const u64 t0 = ticks();
    const fpq::PqStatus s = q_.try_insert(prio, item, b);
    charge(t0);
    return s;
  }
  fpq::PqStatus try_delete_min(fpq::Entry& out, const fpq::TryBudget& b) override {
    const u64 t0 = ticks();
    const fpq::PqStatus s = q_.try_delete_min(out, b);
    charge(t0);
    return s;
  }
  void adopt_orphans(fpq::ProcId dead, fpq::ProcId adopter) override {
    q_.adopt_orphans(dead, adopter);
  }
  u32 npriorities() const override { return q_.npriorities(); }

  Q& impl() { return q_.impl(); }

 private:
  void charge(u64 t0) {
    SpanSink::Slot& s = *sink_.slots[P::self()];
    ++s.calls;
    s.ticks += ticks() - t0;
  }

  fpq::PqAdapter<P, Q> q_;
  SpanSink& sink_;
};

} // namespace perfbench
