// Tests of the benchmark support layer: the paper's §4 workload generator,
// stats accounting, formatting and the table printer.
#include <gtest/gtest.h>

#include <sstream>

#include "bench_support/measure.hpp"
#include "bench_support/stats.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workload.hpp"
#include "core/registry.hpp"
#include "platform/sim.hpp"

namespace fpq {
namespace {

TEST(OpStats, MergingAndMeans) {
  OpStats a{.inserts = 10, .deletes = 5, .empty_deletes = 1, .insert_cycles = 1000,
            .delete_cycles = 2500};
  OpStats b{.inserts = 0, .deletes = 5, .empty_deletes = 0, .insert_cycles = 0,
            .delete_cycles = 500};
  a += b;
  EXPECT_EQ(a.ops(), 20u);
  EXPECT_EQ(a.cycles(), 4000u);
  EXPECT_DOUBLE_EQ(a.mean_all(), 200.0);
  EXPECT_DOUBLE_EQ(a.mean_insert(), 100.0);
  EXPECT_DOUBLE_EQ(a.mean_delete(), 300.0);
}

TEST(OpStats, EmptyMeansAreZero) {
  OpStats s;
  EXPECT_DOUBLE_EQ(s.mean_all(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_insert(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_delete(), 0.0);
}

TEST(Formatting, KCyclesAndCycles) {
  EXPECT_EQ(fmt_kcycles(12700.0), "12.7");
  EXPECT_EQ(fmt_kcycles(400.0), "0.4");
  EXPECT_EQ(fmt_cycles(1234.56), "1235");
}

TEST(Workload, OpCountsAndMixRespected) {
  PqParams params{.npriorities = 8, .maxprocs = 4};
  auto pq = make_priority_queue<SimPlatform>(Algorithm::kSimpleLinear, params);
  WorkloadParams w;
  w.nprocs = 4;
  w.ops_per_proc = 100;
  w.insert_pct = 100; // all inserts
  const OpStats s = run_pq_workload<SimPlatform>(*pq, w).ops;
  EXPECT_EQ(s.inserts, 400u);
  EXPECT_EQ(s.deletes, 0u);
  EXPECT_GT(s.insert_cycles, 0u);
}

TEST(Workload, CoinFlipMixIsRoughlyBalanced) {
  PqParams params{.npriorities = 8, .maxprocs = 8, .bin_capacity = 1u << 12};
  auto pq = make_priority_queue<SimPlatform>(Algorithm::kSimpleLinear, params);
  WorkloadParams w;
  w.nprocs = 8;
  w.ops_per_proc = 200;
  w.insert_pct = 50;
  const OpStats s = run_pq_workload<SimPlatform>(*pq, w).ops;
  EXPECT_EQ(s.ops(), 1600u);
  EXPECT_GT(s.inserts, 650u);
  EXPECT_LT(s.inserts, 950u);
  // Queue starts empty, so some deletes hit nothing.
  EXPECT_GT(s.empty_deletes, 0u);
  EXPECT_LE(s.empty_deletes, s.deletes);
}

TEST(Workload, DeterministicForFixedSeedWithinProcess) {
  PqParams params{.npriorities = 8, .maxprocs = 4};
  auto pq1 = make_priority_queue<SimPlatform>(Algorithm::kSimpleTree, params);
  auto pq2 = make_priority_queue<SimPlatform>(Algorithm::kSimpleTree, params);
  WorkloadParams w;
  w.nprocs = 4;
  w.ops_per_proc = 50;
  const OpStats a = run_pq_workload<SimPlatform>(*pq1, w).ops;
  const OpStats b = run_pq_workload<SimPlatform>(*pq2, w).ops;
  // Same seed, same op mix — counts must agree exactly (latency depends on
  // host addresses, which differ between the two queue instances).
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.deletes, b.deletes);
}

TEST(MeasureSim, ProducesPlausibleLatencies) {
  MeasureConfig cfg;
  cfg.algo = Algorithm::kFunnelTree;
  cfg.nprocs = 8;
  cfg.ops_per_proc = 50;
  const OpStats s = measure_sim(cfg);
  EXPECT_EQ(s.ops(), 8u * 50u);
  EXPECT_GT(s.mean_all(), 10.0);    // more than a cache hit
  EXPECT_LT(s.mean_all(), 100000.0); // far below pathological
}

TEST(MeasureSim, MachineParamsMatter) {
  MeasureConfig slow;
  slow.algo = Algorithm::kSimpleTree;
  slow.nprocs = 16;
  slow.ops_per_proc = 50;
  MeasureConfig fast = slow;
  slow.machine.t_occ = 100;
  fast.machine.t_occ = 1;
  EXPECT_GT(measure_sim(slow).mean_all(), measure_sim(fast).mean_all());
}

TEST(BenchArgs, QuickAndOpsParsing) {
  const char* a1[] = {"prog"};
  EXPECT_EQ(bench_ops_per_proc(1, const_cast<char**>(a1), 200), 200u);
  const char* a2[] = {"prog", "--quick"};
  EXPECT_EQ(bench_ops_per_proc(2, const_cast<char**>(a2), 200), 50u);
  const char* a3[] = {"prog", "--ops=33"};
  EXPECT_EQ(bench_ops_per_proc(2, const_cast<char**>(a3), 200), 33u);
}

TEST(Table, AlignsColumnsAndPrintsAllRows) {
  std::ostringstream os;
  print_table(os, "T", "x", {"1", "20"},
              {{"alpha", {"10", "2000"}}, {"b", {"7", "8"}}});
  const std::string out = os.str();
  EXPECT_NE(out.find("== T =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2000"), std::string::npos);
  EXPECT_NE(out.find("20"), std::string::npos);
  // Two header lines + two rows at least.
  int lines = 0;
  for (char c : out)
    if (c == '\n') ++lines;
  EXPECT_GE(lines, 4);
}

} // namespace
} // namespace fpq
