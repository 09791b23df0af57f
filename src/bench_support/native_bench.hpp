// Shared harness for the native-backend benchmark binaries (bench/native_pq,
// bench/native_components). Replaces the earlier google-benchmark harness
// with one that
//   * sweeps an explicit thread-count list (CSV flag, oversubscription
//     allowed — the spin escalation paths are part of what is measured),
//   * re-creates the fixture for every repetition (no cross-rep warmth),
//   * reports ops/sec and ns/op with 95% confidence intervals over
//     repetitions (bench_support/stats.hpp), and
//   * writes the stable `fpq.native-bench.v3` JSON schema consumed by CI
//     and by perf-tracking diffs (see README "Native benchmarks").
//
// Schema (one document per binary invocation):
//   {
//     "schema": "fpq.native-bench.v3",
//     "suite": "native_pq" | "native_components" | "native_batched",
//     "build": { "force_seq_cst": bool, "compiler": str,
//                "hardware_concurrency": int, "sanitizer": str },
//     "config": { "ops_per_thread": int, "reps": int, "pin": bool,
//                 "quick": bool, "oversubscribed": bool },
//     "results": [ { "bench": str, "algo": str, "threads": int,
//                    "batch": int (present only for batched cells),
//                    "shards": int (present only for sharded-composite
//                                   cells),
//                    "reps": int, "total_ops": int,
//                    "ops_per_sec": { "mean": num, "sd": num,
//                                     "ci95_lo": num, "ci95_hi": num,
//                                     "n": int },
//                    "ns_per_op":   { same shape },
//                    "rank_error":  { "mean": num, "p99": num, "max": int }
//                                   (present only when the cell measured
//                                    delete-min quality — the relaxed
//                                    composite's rank-error probe) }, ... ]
//   }
// config.oversubscribed is true when the sweep's largest thread count
// exceeds the machine's hardware_concurrency — throughput numbers from
// such a run measure scheduler multiplexing, not parallel speedup.
// Both metrics are nonnegative, so both CI bounds of both summaries are
// clamped at 0 (summarize_nonnegative) — v1 clamped only ops_per_sec's
// lower bound, which let the latency columns of the table output print
// negative intervals. ns_per_op is aggregate per-operation wall latency
// (wall seconds * 1e9 / total ops), the native analogue of the sim
// benches' cycles/op.
// Additive changes bump the minor suffix (v3 -> v4); consumers must
// ignore unknown fields. v3 added the optional "shards" and "rank_error"
// fields for the sharded relaxed composite's quality-vs-throughput rows.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "bench_support/stats.hpp"
#include "common/types.hpp"
#include "platform/native.hpp"

namespace fpq {

struct NativeBenchOptions {
  std::vector<u32> threads{1, 2, 4, 8};
  u32 reps = 5;
  u64 ops = 100000; // per thread per repetition
  bool pin = false;
  bool quick = false;
  std::string out = "BENCH_native.json";
  std::vector<std::string> algos; // empty = everything the suite offers

  /// Parse --threads/--reps/--ops/--algos/--out/--pin/--quick. Returns
  /// false (after printing usage to stderr) on a malformed flag. --quick
  /// is applied last: ops is divided by 10 (floor 1000) and reps capped
  /// at 3, regardless of flag order.
  bool parse(int argc, char** argv);
};

/// Optional delete-min quality annotation of a cell (verify/rank_error):
/// measured by a separate untimed probe pass, carried alongside the
/// throughput summaries. Emitted as the "rank_error" JSON object.
struct RankErrorAnnotation {
  bool present = false;
  double mean = 0.0;
  double p99 = 0.0;
  u64 max = 0;
};

/// One (bench, algo, thread-count[, batch][, shards]) cell.
struct NativeBenchResult {
  std::string bench;
  std::string algo;
  u32 threads = 0;
  u32 batch = 0;         // 0 = point-op cell (no "batch" JSON field)
  u32 shards = 0;        // 0 = unsharded cell (no "shards" JSON field)
  u64 total_ops = 0;     // per repetition
  Summary ops_per_sec;   // over repetitions
  Summary ns_per_op;     // aggregate wall latency per op, over repetitions
  RankErrorAnnotation rank_error;
};

/// Time a NativePlatform::run section; returns wall seconds.
template <class Fn>
double timed_parallel(u32 nthreads, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  NativePlatform::run(nthreads, std::forward<Fn>(fn));
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// What one repetition measured: wall seconds for `ops` operations, plus
/// optional cell annotations (shard count, rank-error probe) that the
/// suite copies onto the result row — the last measured repetition wins.
struct RepMeasurement {
  double seconds = 0;
  u64 ops = 0;
  u32 shards = 0;
  RankErrorAnnotation rank_error;
};

class NativeBenchSuite {
 public:
  /// Applies opt.pin to the platform on construction.
  NativeBenchSuite(std::string suite, const NativeBenchOptions& opt);

  /// True if `name` is selected by --algos (or no filter was given).
  bool selected(const std::string& name) const;

  /// Run one cell across the thread sweep: for each thread count, one
  /// untimed warmup repetition then opt.reps measured ones. `rep` must
  /// build a fresh fixture, execute ops_per_thread operations per thread
  /// and report what it measured (construction time excluded by timing
  /// inside `rep` via timed_parallel). A nonzero `batch` marks a batched
  /// cell: it is recorded in the result (the "batch" JSON field), but
  /// interpreting it is up to `rep`.
  void run_case(const std::string& bench, const std::string& algo,
                const std::function<RepMeasurement(u32 nthreads, u64 ops_per_thread)>& rep,
                u32 batch = 0);

  /// Print the human table and write opt.out; returns a process exit code.
  int finish();

 private:
  std::string suite_;
  NativeBenchOptions opt_;
  std::vector<NativeBenchResult> results_;
};

} // namespace fpq
