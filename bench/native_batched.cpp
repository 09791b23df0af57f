// Batched-operation sweep on the NATIVE backend: the two funnel queues
// (whose insert_batch/delete_min_batch aggregate natively — one structure
// traversal per batch) swept over batch sizes {1, 4, 16, 64} crossed with
// the thread-count list. Batch 1 goes through the same batch entry points,
// so the comparison isolates aggregation itself, not call overhead.
//
// Each repetition builds a fresh queue with PqParams::max_batch sized to
// the cell's batch, pre-fills it halfway, then has every thread run
// insert_batch(b) + delete_min_batch(b) rounds until it has issued
// ops_per_thread operations (each batched element counts as one
// operation). Each funnel queue appears twice: under its plain name with
// the exchange collision protocol and as `<name>/agg` with the aggregation
// protocol (one central RMW per aggregate), so the JSON carries the
// exchange-vs-aggregation ablation directly. The sharded relaxed composite
// rides the same sweep as `Sharded[K]` cells; it has no native batch
// aggregation (the adapter loops per entry), so its rows baseline what
// sharding alone buys a batched caller. Output: human table on stdout
// and the `fpq.native-bench.v3` JSON (BENCH_native_batched.json by
// default) with per-result "batch" fields — see
// bench_support/native_bench.hpp for the schema, including the
// config.oversubscribed flag that marks runs whose thread counts exceed
// the machine's cores.
//
//   native_batched --threads=1,2,4,8 --reps=5 --ops=100000
//                  [--algos=FunnelTree,LinearFunnels]
//                  [--out=BENCH_native_batched.json] [--pin] [--quick]
#include <span>
#include <vector>

#include "bench_support/native_bench.hpp"
#include "core/registry.hpp"
#include "platform/native.hpp"

using namespace fpq;

namespace {

constexpr u32 kPrios = 16;
constexpr u32 kBatches[] = {1, 4, 16, 64};

RepMeasurement run_rep(Algorithm algo, FunnelProtocol proto, u32 batch, u32 nthreads,
                       u64 ops_per_thread, const ShardConfig& shard = {}) {
  PqParams params;
  params.npriorities = kPrios;
  params.maxprocs = nthreads;
  params.bin_capacity = 1u << 16;
  params.max_batch = batch;
  params.shard = shard;
  FunnelOptions opts;
  opts.protocol = proto;
  auto pq = make_priority_queue<NativePlatform>(algo, params, opts);
  // Half-full steady state so delete_min rarely sees an empty queue.
  NativePlatform::run(1, [&](ProcId) {
    for (u32 i = 0; i < 256; ++i)
      pq->insert(static_cast<Prio>(NativePlatform::rnd(kPrios)), i);
  });
  const u64 rounds = std::max<u64>(ops_per_thread / (2 * batch), 1);
  const double secs = timed_parallel(nthreads, [&](ProcId) {
    std::vector<Entry> in(batch), out(batch);
    for (u64 r = 0; r < rounds; ++r) {
      for (u32 i = 0; i < batch; ++i)
        in[i] = Entry{static_cast<Prio>(NativePlatform::rnd(kPrios)), 7};
      pq->insert_batch(std::span<const Entry>(in));
      pq->delete_min_batch(std::span<Entry>(out));
    }
  });
  RepMeasurement m;
  m.seconds = secs;
  m.ops = u64{nthreads} * rounds * 2 * batch;
  if (algo == Algorithm::kSharded) m.shards = shard.effective_shards(nthreads);
  return m;
}

} // namespace

int main(int argc, char** argv) {
  NativeBenchOptions opt;
  opt.out = "BENCH_native_batched.json";
  if (!opt.parse(argc, argv)) return 2;
  NativeBenchSuite suite("native_batched", opt);
  for (Algorithm algo : {Algorithm::kLinearFunnels, Algorithm::kFunnelTree}) {
    const std::string name{to_string(algo)};
    if (!suite.selected(name)) continue;
    for (FunnelProtocol proto : {FunnelProtocol::kExchange, FunnelProtocol::kAggregate}) {
      const std::string row =
          proto == FunnelProtocol::kAggregate ? name + "/agg" : name;
      for (u32 batch : kBatches) {
        suite.run_case(
            "PqBatched", row,
            [algo, proto, batch](u32 nt, u64 ops) { return run_rep(algo, proto, batch, nt, ops); },
            batch);
      }
    }
  }
  // The sharded composite under the same batched caller: no native batch
  // aggregation (adapter-looped entries), so these rows isolate what the
  // shard fan-out alone contributes when the workload arrives in batches.
  {
    const ShardConfig cfg{8, 2, ShardPolicyKind::kAdaptive};
    const std::string name = "Sharded[8]";
    if (suite.selected(name)) {
      for (u32 batch : kBatches) {
        suite.run_case(
            "PqBatched", name,
            [cfg, batch](u32 nt, u64 ops) {
              return run_rep(Algorithm::kSharded, FunnelProtocol::kExchange, batch, nt, ops,
                             cfg);
            },
            batch);
      }
    }
  }
  return suite.finish();
}
