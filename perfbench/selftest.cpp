// Self-tests of the benchmark's own machinery (run: python3 perfbench/run.py
// --self-test). They pin down the three things the benchmark's verdicts
// rest on: the percentile function is exact, the conservation gate catches
// a lost and a duplicated item, and the backend timing decorator changes no
// queue behaviour.
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "harness.hpp"
#include "platform/native.hpp"

using namespace fpq;
using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);          \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

void test_percentiles() {
  std::vector<u64> v;
  for (u64 i = 100; i >= 1; --i) v.push_back(i); // 1..100, reversed
  CHECK(exact_percentile(v, 0.50) == 50);
  CHECK(exact_percentile(v, 0.90) == 90);
  CHECK(exact_percentile(v, 0.99) == 99);
  CHECK(exact_percentile(v, 1.00) == 100);
  CHECK(exact_percentile(v, 0.001) == 1);
  CHECK(exact_percentile({7}, 0.5) == 7);
  CHECK(exact_percentile({3, 1, 2}, 0.5) == 2);
  CHECK(exact_percentile({10, 20, 30, 40}, 0.5) == 20); // nearest rank, no interpolation
  CHECK(exact_percentile({}, 0.5) == 0);

  // The counting histogram answers exactly what sorting the samples does,
  // including samples past its direct range.
  Xorshift rng(11);
  for (u32 trial = 0; trial < 20; ++trial) {
    std::vector<u64> xs;
    ExactHistogram h;
    const u32 n = 1 + static_cast<u32>(rng.below(5000));
    for (u32 i = 0; i < n; ++i) {
      const u64 x = rng.below(8) == 0 ? ExactHistogram::kDirect + rng.below(1u << 20)
                                      : rng.below(3000);
      xs.push_back(x);
      h.record(x);
    }
    for (double q : {0.01, 0.5, 0.9, 0.99, 0.999, 1.0})
      CHECK(h.percentile(q) == exact_percentile(xs, q));
    CHECK(h.count() == n);
  }
  ExactHistogram a, b;
  a.record(5);
  b.record(ExactHistogram::kDirect + 9);
  a.merge(b);
  CHECK(a.count() == 2 && a.percentile(0.5) == 5 && a.percentile(1.0) == ExactHistogram::kDirect + 9);
}

void test_conservation_gate() {
  // Producer 0 inserted 100 items, producer 1 inserted 50.
  const std::vector<u64> inserted = {100, 50};
  auto deliver_all = [&](std::vector<Ledger>& ls) {
    for (u64 s = 0; s < 100; ++s) ls[s % 2].mark(make_item(0, s));
    for (u64 s = 0; s < 50; ++s) ls[s % 2].mark(make_item(1, s));
  };
  {
    std::vector<Ledger> ls(2, Ledger(2));
    deliver_all(ls);
    const ConservationReport r = check_conservation(inserted, ls);
    CHECK(r.ok() && r.delivered == 150);
  }
  { // seeded lost item: producer 1's item 17 never comes back
    std::vector<Ledger> ls(2, Ledger(2));
    for (u64 s = 0; s < 100; ++s) ls[0].mark(make_item(0, s));
    for (u64 s = 0; s < 50; ++s)
      if (s != 17) ls[1].mark(make_item(1, s));
    const ConservationReport r = check_conservation(inserted, ls);
    CHECK(!r.ok() && r.lost == 1 && r.duplicated == 0 && r.fabricated == 0);
  }
  { // seeded duplicate delivered to two different consumers
    std::vector<Ledger> ls(2, Ledger(2));
    deliver_all(ls);
    ls[1].mark(make_item(0, 42)); // item 42 went to consumer 0 already
    const ConservationReport r = check_conservation(inserted, ls);
    CHECK(!r.ok() && r.duplicated == 1 && r.lost == 0);
  }
  { // seeded duplicate delivered twice to the same consumer
    std::vector<Ledger> ls(2, Ledger(2));
    deliver_all(ls);
    ls[0].mark(make_item(0, 0));
    CHECK(check_conservation(inserted, ls).duplicated == 1);
  }
  { // a lost item masked by a duplicate: counts agree, contents do not
    std::vector<Ledger> ls(2, Ledger(2));
    for (u64 s = 0; s < 100; ++s) ls[0].mark(make_item(0, s == 9 ? 10 : s));
    for (u64 s = 0; s < 50; ++s) ls[1].mark(make_item(1, s));
    const ConservationReport r = check_conservation(inserted, ls);
    CHECK(!r.ok() && r.mismatched == 1 && r.lost == 0 && r.duplicated == 0);
  }
  { // fabricated: a seq never inserted, and an unknown producer
    std::vector<Ledger> ls(2, Ledger(2));
    deliver_all(ls);
    ls[0].mark(make_item(1, 50));
    ls[1].mark(make_item(7, 0));
    const ConservationReport r = check_conservation(inserted, ls);
    CHECK(!r.ok() && r.fabricated == 2 && r.lost == 0 && r.delivered == 151);
  }
}

/// Runs a fixed single-threaded op sequence and returns what came out.
std::vector<u64> drive_sequence(IPriorityQueue<NativePlatform>& q, u64 seed) {
  std::vector<u64> out;
  Xorshift rng(seed);
  u64 seq = 0;
  for (u32 i = 0; i < 20000; ++i) {
    if (rng.below(100) < 55) {
      const Prio p = static_cast<Prio>(rng.below(q.npriorities()));
      out.push_back(q.insert(p, make_item(1, seq++)) ? 1 : 0);
    } else {
      const auto e = q.delete_min();
      out.push_back(e ? pack_entry(*e) : kNoEntry);
    }
  }
  while (auto e = q.delete_min()) out.push_back(pack_entry(*e));
  return out;
}

void test_timed_backend_transparent() {
  using NP = NativePlatform;
  PqParams p;
  p.npriorities = 128;
  p.maxprocs = 1;
  p.seed = 5;
  p.shard.shards = 8;
  p.shard.sample_c = 2;
  p.shard.policy = ShardPolicyKind::kAdaptive;

  NP::adopt(0, 1, 99);
  auto plain = make_priority_queue<NP>(Algorithm::kSharded, p);
  const std::vector<u64> want = drive_sequence(*plain, 3);
  NP::release();

  SpanSink sink(1);
  typename ShardedPq<NP>::BackendFactory factory = [&](const PqParams& bp) {
    return std::unique_ptr<IPriorityQueue<NP>>(
        std::make_unique<TimedBackend<NP, LockfreeSkipListPq<NP>>>(bp, sink));
  };
  NP::adopt(0, 1, 99); // same processor RNG stream as the plain run
  PqAdapter<NP, ShardedPq<NP>> timed(p, factory);
  const std::vector<u64> got = drive_sequence(timed, 3);
  NP::release();

  CHECK(timed.impl().shard_count() == 8);
  CHECK(got == want);
  CHECK(sink.calls() > 0 && sink.total_ticks() > 0);
}

} // namespace

int main() {
  test_percentiles();
  test_conservation_gate();
  test_timed_backend_transparent();
  if (g_failures != 0) {
    std::printf("%d self-test check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
