// Extension study: the paper's footnote-4 alternative. A Lim-Agarwal-style
// reactive counter (MCS under low load, funnel under high load, switched
// with centralized coordination) against the always-funnel bounded counter
// and the plain MCS counter, across the concurrency range.
//
// Expected: the reactive scheme tracks MCS at the bottom and the funnel at
// the top, but pays its announce/retire RMWs everywhere — the "strong
// coordination" cost the paper's design avoids by adapting locally inside
// the funnel.
#include <cstdio>
#include <iostream>

#include "bench_support/measure.hpp"
#include "bench_support/table.hpp"
#include "container/counters.hpp"
#include "container/reactive_counter.hpp"
#include "funnel/counter.hpp"
#include "platform/sim.hpp"
#include "sim/engine.hpp"

using namespace fpq;

namespace {

template <class Op>
double measure(u32 nprocs, u32 ops, Op&& op) {
  sim::Engine eng(nprocs, {}, 11);
  OpStats total;
  std::vector<Padded<OpStats>> per_proc(nprocs);
  eng.run([&](ProcId id) {
    OpStats& r = *per_proc[id];
    for (u32 i = 0; i < ops; ++i) {
      SimPlatform::delay(200);
      const bool inc = SimPlatform::flip();
      const Cycles t0 = SimPlatform::now();
      op(inc);
      r.insert_cycles += SimPlatform::now() - t0;
      ++r.inserts;
    }
  });
  for (const auto& s : per_proc) total += *s;
  return total.mean_insert();
}

} // namespace

int main(int argc, char** argv) {
  const u32 ops = bench_ops_per_proc(argc, argv, 200);
  const std::vector<u32> procs = {2, 8, 32, 64, 128, 256};
  std::vector<std::string> xs;
  for (u32 p : procs) xs.push_back(std::to_string(p));
  std::vector<Series> series;

  {
    Series s{"McsCounter", {}};
    for (u32 p : procs) {
      McsCounter<SimPlatform> c(p, 0);
      s.values.push_back(fmt_cycles(
          measure(p, ops, [&](bool inc) { inc ? c.fai() : c.bfad(0); })));
    }
    series.push_back(std::move(s));
  }
  {
    Series s{"FunnelCounter", {}};
    for (u32 p : procs) {
      FunnelCounter<SimPlatform> c(p, FunnelParams::for_procs(p), {true, true, 0}, 0);
      s.values.push_back(fmt_cycles(
          measure(p, ops, [&](bool inc) { inc ? c.fai() : c.bfad(0); })));
    }
    series.push_back(std::move(s));
  }
  {
    Series s{"Reactive", {}};
    for (u32 p : procs) {
      ReactiveCounter<SimPlatform> c(p, FunnelParams::for_procs(p), 0, 0);
      s.values.push_back(fmt_cycles(
          measure(p, ops, [&](bool inc) { inc ? c.fai() : c.bfad(0); })));
    }
    series.push_back(std::move(s));
  }
  print_table(std::cout,
              "Extension: reactive (Lim-Agarwal style) vs always-funnel counters",
              "procs", xs, series);
  return 0;
}
