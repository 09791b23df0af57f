// Extension study (beyond the paper, which reports means only): latency
// *distributions* of the four scalable queues. The argument for combining
// funnels is really a tail argument — the hot-spot convoys that destroy
// SimpleTree show up as multi-hundred-k p99s long before they dominate the
// mean — so this table is the paper's Fig. 7 story told in percentiles.
#include <cstdio>

#include "bench_support/measure.hpp"

using namespace fpq;

namespace {

DetailedStats measure_detailed(Algorithm algo, u32 nprocs, u32 ops) {
  PqParams params;
  params.npriorities = 16;
  params.maxprocs = nprocs;
  params.bin_capacity = 1u << 14;
  auto pq = make_priority_queue<SimPlatform>(algo, params);
  WorkloadParams w;
  w.nprocs = nprocs;
  w.ops_per_proc = ops;
  // run_pq_workload goes through P::run, which builds a fresh
  // default-parameter engine — exactly the calibrated machine.
  return run_pq_workload<SimPlatform>(*pq, w);
}

} // namespace

int main(int argc, char** argv) {
  const u32 ops = bench_ops_per_proc(argc, argv, 150);
  std::printf("\n== Latency tails (cycles), 16 priorities — extension of Fig. 7 ==\n");
  for (u32 nprocs : {64u, 256u}) {
    std::printf("\nP=%u\n%-14s %10s  %s\n", nprocs, "algorithm", "mean",
                "distribution");
    for (Algorithm a : scalable_algorithms()) {
      const DetailedStats s = measure_detailed(a, nprocs, ops);
      std::printf("%-14s %10.0f  %s\n", std::string(to_string(a)).c_str(),
                  s.all.mean(), s.all.summary().c_str());
    }
  }
  std::fflush(stdout);
  return 0;
}
