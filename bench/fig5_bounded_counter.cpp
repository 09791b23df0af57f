// Figure 5: combining-funnel counters — plain fetch-and-add vs the bounded
// fetch-and-decrement with elimination (§3.3), plus the elimination-off
// ablation.
//
// Left graph: equal mix of increments and decrements, 4..256 processors.
// Right graph: 256 processors, share of decrements swept 0..100%.
//
// Expected shape: with a balanced mix, elimination makes the bounded
// counter substantially faster than plain fetch-and-add despite the bounds
// checking (the paper quotes gains up to 250%); as the mix skews,
// eliminations become rare and plain fetch-and-add wins on overhead.
#include <iostream>
#include <memory>

#include "bench_support/measure.hpp"
#include "bench_support/table.hpp"
#include "funnel/counter.hpp"

using namespace fpq;

namespace {

struct CounterKind {
  const char* name;
  bool bounded;
  bool eliminate;
};

const CounterKind kKinds[] = {
    {"Fetch-and-add", false, false},
    {"BFaD+elim", true, true},
    {"BFaD no-elim", true, false},
};

double measure_counter(const CounterKind& kind, u32 nprocs, u32 inc_pct, u32 ops) {
  FunnelCounter<SimPlatform>::Config cfg{kind.bounded, kind.eliminate, /*floor=*/0};
  FunnelCounter<SimPlatform> counter(nprocs, FunnelParams::for_procs(nprocs), cfg, 0);
  WorkloadParams w;
  w.nprocs = nprocs;
  w.ops_per_proc = ops;
  w.insert_pct = inc_pct;
  w.seed = 7;
  const auto op = [&](bool inc) {
    if (!kind.bounded)
      counter.faa(inc ? 1 : -1);
    else if (inc)
      counter.fai();
    else
      counter.bfad(0);
  };
  return run_counter_workload<SimPlatform>(op, w).mean_all();
}

} // namespace

int main(int argc, char** argv) {
  const u32 ops = bench_ops_per_proc(argc, argv, 200);

  {
    const std::vector<u32> procs = {4, 8, 16, 32, 64, 128, 256};
    std::vector<std::string> xs;
    for (u32 p : procs) xs.push_back(std::to_string(p));
    std::vector<Series> series;
    for (const CounterKind& k : kKinds) {
      Series s{k.name, {}};
      for (u32 p : procs)
        s.values.push_back(fmt_cycles(measure_counter(k, p, /*inc_pct=*/50, ops)));
      series.push_back(std::move(s));
    }
    print_table(std::cout,
                "Figure 5 (left): counter latency (cycles/op), 50/50 inc/dec",
                "procs", xs, series);
  }
  {
    const std::vector<u32> dec_pcts = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
    std::vector<std::string> xs;
    for (u32 d : dec_pcts) xs.push_back(std::to_string(d));
    std::vector<Series> series;
    for (const CounterKind& k : kKinds) {
      Series s{k.name, {}};
      for (u32 d : dec_pcts)
        s.values.push_back(
            fmt_cycles(measure_counter(k, 256, /*inc_pct=*/100 - d, ops / 2)));
      series.push_back(std::move(s));
    }
    print_table(std::cout,
                "Figure 5 (right): counter latency at 256 procs vs %% decrements",
                "dec%", xs, series);
  }
  return 0;
}
