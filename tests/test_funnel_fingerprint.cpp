// Bit-exact simulator fingerprints of the two funnel-based queues.
//
// Each cell drives one queue configuration at 64 simulated processors for
// 12 rounds per processor from a fixed seed and compares the machine's
// totals — shared accesses, misses, invalidations, module-wait cycles, the
// sum of the final per-processor clocks — and the number of items the
// deletes delivered against values recorded once. The simulator is
// deterministic given (program, seed), so these totals move if and only if
// some processor's sequence of shared accesses or P::rnd() draws changes.
// That makes the table the regression oracle for behaviour-preserving
// refactors of the funnel layer: the counter's BFaD elimination, the
// stack's batched combining and partial elimination, the aggregate
// protocol of both central objects, and the FIFO central store. A change
// that is meant to move simulated cycles must re-record the table and say
// why in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "platform/sim.hpp"

namespace fpq {
namespace {

struct Fingerprint {
  u64 accesses = 0;
  u64 misses = 0;
  u64 invalidations = 0;
  u64 module_wait_cycles = 0;
  u64 clock_sum = 0;
  u64 delivered = 0;

  bool operator==(const Fingerprint&) const = default;
};

std::string to_string(const Fingerprint& f) {
  return "{" + std::to_string(f.accesses) + ", " + std::to_string(f.misses) + ", " +
         std::to_string(f.invalidations) + ", " + std::to_string(f.module_wait_cycles) +
         ", " + std::to_string(f.clock_sum) + ", " + std::to_string(f.delivered) + "}";
}

void PrintTo(const Fingerprint& f, std::ostream* os) { *os << to_string(f); }

struct Cell {
  const char* name;
  Algorithm algo;
  FunnelProtocol protocol;
  u32 batch; // 1 = point operations
  BinOrder order;
  Fingerprint want;
};

constexpr u32 kProcs = 64;
constexpr u32 kRounds = 12;
constexpr u32 kPrios = 16;
constexpr u64 kSeed = 7;

/// Runs the cell's workload and returns its fingerprint. Every round a
/// processor does some local work, then flips a coin between inserting a
/// batch of fresh uniquely-tagged items at random priorities and deleting
/// a batch. A quiescent drain afterwards checks conservation (outside the
/// fingerprinted totals).
Fingerprint run_cell(const Cell& c) {
  PqParams params{.npriorities = kPrios, .maxprocs = kProcs, .bin_capacity = 1u << 13};
  params.max_batch = c.batch;
  FunnelOptions opts;
  opts.protocol = c.protocol;
  opts.bin_order = c.order;
  auto pq = make_priority_queue<SimPlatform>(c.algo, params, opts);

  std::vector<u64> inserted(kProcs, 0), delivered(kProcs, 0);
  sim::Engine eng(kProcs, {}, kSeed);
  eng.run([&](ProcId id) {
    std::vector<Entry> buf(c.batch);
    u64 seq = 0;
    for (u32 r = 0; r < kRounds; ++r) {
      SimPlatform::delay(SimPlatform::rnd(128));
      if (SimPlatform::flip()) {
        for (Entry& e : buf)
          e = {static_cast<Prio>(SimPlatform::rnd(kPrios)), (u64{id} << 24) | seq++};
        if (c.batch == 1)
          inserted[id] += pq->insert(buf[0].prio, buf[0].item) ? 1 : 0;
        else
          inserted[id] += pq->insert_batch(buf);
      } else if (c.batch == 1) {
        delivered[id] += pq->delete_min() ? 1 : 0;
      } else {
        delivered[id] += pq->delete_min_batch(buf);
      }
    }
  });

  Fingerprint f;
  const sim::MemStats& m = eng.mem_stats();
  f.accesses = m.reads + m.writes + m.rmws;
  f.misses = m.misses;
  f.invalidations = m.invalidations;
  f.module_wait_cycles = m.module_wait_cycles;
  for (const sim::ProcStats& p : eng.proc_stats()) f.clock_sum += p.clock;
  for (u64 d : delivered) f.delivered += d;

  u64 drained = 0;
  eng.run([&](ProcId id) {
    if (id != 0) return;
    while (pq->delete_min()) ++drained;
  });
  u64 in = 0;
  for (u64 v : inserted) in += v;
  EXPECT_EQ(in, f.delivered + drained) << c.name << ": items lost or fabricated";
  return f;
}

using enum Algorithm;
using enum FunnelProtocol;

// Expected totals, columns as in Fingerprint: accesses, misses,
// invalidations, module-wait cycles, clock sum, items delivered.
const Cell kCells[] = {
    {"FunnelTree/exchange/point", kFunnelTree, kExchange, 1, BinOrder::kLifo,
     {92138, 22403, 14619, 558486, 3154407, 368}},
    {"FunnelTree/exchange/batch16", kFunnelTree, kExchange, 16, BinOrder::kLifo,
     {700635, 140938, 97381, 740309, 18672239, 5639}},
    {"FunnelTree/aggregate/point", kFunnelTree, kAggregate, 1, BinOrder::kLifo,
     {38069, 27616, 21072, 14347411, 20697773, 358}},
    {"FunnelTree/aggregate/batch16", kFunnelTree, kAggregate, 16, BinOrder::kLifo,
     {248291, 163552, 126066, 82787776, 125089379, 5595}},
    {"LinearFunnels/exchange/point", kLinearFunnels, kExchange, 1, BinOrder::kLifo,
     {99079, 25656, 15556, 114832, 3832593, 374}},
    {"LinearFunnels/exchange/batch16", kLinearFunnels, kExchange, 16, BinOrder::kLifo,
     {635454, 141568, 87758, 344728, 25339062, 6092}},
    {"LinearFunnels/aggregate/point", kLinearFunnels, kAggregate, 1, BinOrder::kLifo,
     {40621, 25919, 14360, 377355, 5852543, 372}},
    {"LinearFunnels/aggregate/batch16", kLinearFunnels, kAggregate, 16, BinOrder::kLifo,
     {223407, 127897, 67928, 300919, 27260205, 5915}},
    {"LinearFunnels/fifo/exchange/batch16", kLinearFunnels, kExchange, 16, BinOrder::kFifo,
     {641658, 143544, 80555, 377037, 23459782, 5872}},
    {"LinearFunnels/fifo/aggregate/batch16", kLinearFunnels, kAggregate, 16, BinOrder::kFifo,
     {223004, 126955, 59059, 288817, 29480257, 5814}},
};

TEST(FunnelFingerprint, SimTotalsAreBitIdentical) {
  for (const Cell& c : kCells) {
    const Fingerprint got = run_cell(c);
    EXPECT_EQ(got, c.want) << c.name << ": got " << to_string(got) << ", want "
                           << to_string(c.want);
  }
}

} // namespace
} // namespace fpq
