// One-call measurement used by the figure benchmarks: build a fresh queue
// for `algo` on the simulated machine, run the paper's workload, return the
// merged stats.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string_view>

#include "bench_support/workload.hpp"
#include "common/parse.hpp"
#include "core/registry.hpp"
#include "platform/sim.hpp"
#include "sim/params.hpp"

namespace fpq {

struct MeasureConfig {
  Algorithm algo = Algorithm::kFunnelTree;
  u32 nprocs = 8;
  u32 npriorities = 16;
  u32 ops_per_proc = 200;
  Cycles local_work = 200;
  u32 insert_pct = 50;
  u32 bin_capacity = 1u << 14;
  u64 seed = 42;
  FunnelOptions funnel{};
  sim::MachineParams machine{};
};

inline OpStats measure_sim(const MeasureConfig& cfg) {
  PqParams params;
  params.npriorities = cfg.npriorities;
  params.maxprocs = cfg.nprocs;
  params.bin_capacity = cfg.bin_capacity;
  params.heap_capacity = 1u << 16;
  params.seed = cfg.seed;
  FunnelOptions fo = cfg.funnel;
  if (!fo.params) fo.params = FunnelParams::for_procs(cfg.nprocs);
  auto pq = make_priority_queue<SimPlatform>(cfg.algo, params, fo);
  WorkloadParams w;
  w.nprocs = cfg.nprocs;
  w.ops_per_proc = cfg.ops_per_proc;
  w.local_work = cfg.local_work;
  w.insert_pct = cfg.insert_pct;
  w.seed = cfg.seed;
  return run_pq_workload<SimPlatform>(*pq, w, cfg.machine).ops;
}

/// Benchmarks honor --quick (fewer ops; used in CI) and --ops=N. N must be
/// a whole decimal in [1, 2^32-1]; anything else is a usage error (exit 2).
inline u32 bench_ops_per_proc(int argc, char** argv, u32 dflt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--quick") return dflt / 4 > 10 ? dflt / 4 : 10;
    if (a.rfind("--ops=", 0) == 0) {
      const std::string_view v = a.substr(6);
      u64 n = 0;
      try {
        n = parse_whole(v, UINT32_MAX);
      } catch (const std::invalid_argument&) {
        // n stays 0, which is refused below with the same message.
      }
      if (n < 1) {
        std::cerr << argv[0] << ": --ops needs a whole number in [1, 4294967295], got '" << v
                  << "'\n";
        std::exit(2);
      }
      return static_cast<u32>(n);
    }
  }
  return dflt;
}

} // namespace fpq
