// Drive the paper's actual experiment on the simulated 256-processor
// Alewife-like machine: FunnelTree vs SimpleTree at full concurrency, with
// the machine's contention counters exposed. This is the example to start
// from for custom simulator studies (different machines, workloads,
// funnel geometries).
//
//   $ ./build/examples/alewife_repro
#include <cstdio>
#include <memory>

#include "bench_support/workload.hpp"
#include "core/fpq.hpp"
#include "sim/engine.hpp"

using namespace fpq;

namespace {

void run_one(Algorithm algo, u32 nprocs) {
  PqParams params;
  params.npriorities = 16;
  params.maxprocs = nprocs;
  params.bin_capacity = 1u << 14;
  auto pq = make_priority_queue<SimPlatform>(algo, params);

  // The machine: 2-D mesh ccNUMA, directory MSI, occupancy-queued memory
  // modules. Every knob is in sim::MachineParams.
  sim::MachineParams machine;
  sim::Engine engine(nprocs, machine, /*seed=*/2024);

  WorkloadParams w;
  w.nprocs = nprocs;
  w.ops_per_proc = 150;
  std::vector<Padded<DetailedStats>> per_proc(nprocs);
  engine.run(pq_workload_body<SimPlatform>(*pq, w, per_proc));

  const OpStats total = merged(per_proc).ops;
  const auto& mem = engine.mem_stats();
  std::printf(
      "%-14s P=%-3u  latency/op: %6.0f cycles (ins %6.0f, del %6.0f)\n"
      "               memory: %llu accesses, %.1f%% hits, %llu invalidations,\n"
      "               %llu cycles lost to hot-spot module queueing\n",
      std::string(to_string(algo)).c_str(), nprocs, total.mean_all(),
      total.mean_insert(), total.mean_delete(),
      static_cast<unsigned long long>(mem.reads + mem.writes + mem.rmws),
      100.0 * static_cast<double>(mem.hits) /
          static_cast<double>(mem.hits + mem.misses),
      static_cast<unsigned long long>(mem.invalidations),
      static_cast<unsigned long long>(mem.module_wait_cycles));
}

} // namespace

int main() {
  std::printf("Simulated %ux%u-mesh ccNUMA (MIT-Alewife-like), 16 priorities,\n"
              "the paper's coin-flip workload:\n\n",
              16u, 16u);
  for (Algorithm algo : {Algorithm::kSimpleTree, Algorithm::kFunnelTree}) {
    for (u32 nprocs : {16u, 256u}) run_one(algo, nprocs);
    std::printf("\n");
  }
  std::printf("SimpleTree's root counter melts down at 256 processors; the\n"
              "combining funnels absorb the same traffic (paper Fig. 7).\n");
  return 0;
}
