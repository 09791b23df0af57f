#include "bench_support/native_bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_support/json.hpp"

namespace fpq {

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --threads=1,2,4,8   thread counts to sweep (oversubscription ok)\n"
      << "  --algos=A,B,...     restrict to these benches (default: all)\n"
      << "  --reps=N            measured repetitions per cell (default 5)\n"
      << "  --ops=N             operations per thread per repetition\n"
      << "  --out=PATH          JSON output (default BENCH_native.json; '' = none)\n"
      << "  --pin               pin worker threads round-robin to CPUs\n"
      << "  --quick             smoke mode: ops/10 (floor 1000), reps<=3\n";
  return 2;
}

} // namespace

bool NativeBenchOptions::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads.clear();
      for (const auto& t : split_csv(arg.substr(10)))
        threads.push_back(static_cast<u32>(std::stoul(t)));
      if (threads.empty()) return usage(argv[0]), false;
    } else if (arg.rfind("--algos=", 0) == 0) {
      algos = split_csv(arg.substr(8));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = static_cast<u32>(std::stoul(arg.substr(7)));
    } else if (arg.rfind("--ops=", 0) == 0) {
      ops = std::stoull(arg.substr(6));
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else if (arg == "--pin") {
      pin = true;
    } else if (arg == "--quick") {
      quick = true;
    } else {
      return usage(argv[0]), false;
    }
  }
  if (reps == 0 || ops == 0) return usage(argv[0]), false;
  if (quick) {
    ops = std::max<u64>(ops / 10, 1000);
    reps = std::min<u32>(reps, 3);
  }
  return true;
}

namespace {

bool sweep_oversubscribed(const std::vector<u32>& threads) {
  const u32 hc = std::thread::hardware_concurrency();
  if (hc == 0) return false; // unknown topology: don't guess
  return std::any_of(threads.begin(), threads.end(), [hc](u32 t) { return t > hc; });
}

} // namespace

NativeBenchSuite::NativeBenchSuite(std::string suite, const NativeBenchOptions& opt)
    : suite_(std::move(suite)), opt_(opt) {
  NativePlatform::set_pin_threads(opt_.pin);
  // Once per run, not per suite/sweep row: a binary that builds several
  // suites (or re-enters after a filter pass) must not repeat the banner.
  static bool warned_oversubscribed = false;
  if (sweep_oversubscribed(opt_.threads) && !warned_oversubscribed) {
    warned_oversubscribed = true;
    std::fprintf(stderr,
                 "warning: thread sweep exceeds hardware_concurrency=%u — "
                 "throughput will measure scheduler multiplexing, not parallel "
                 "speedup (results flagged \"oversubscribed\")\n",
                 std::thread::hardware_concurrency());
  }
}

bool NativeBenchSuite::selected(const std::string& name) const {
  if (opt_.algos.empty()) return true;
  return std::find(opt_.algos.begin(), opt_.algos.end(), name) != opt_.algos.end();
}

void NativeBenchSuite::run_case(const std::string& bench, const std::string& algo,
                                const std::function<RepMeasurement(u32, u64)>& rep,
                                u32 batch) {
  for (u32 nt : opt_.threads) {
    rep(nt, std::max<u64>(opt_.ops / 4, 1)); // warmup, discarded
    std::vector<double> ops_per_sec;
    std::vector<double> ns_per_op;
    u64 total_ops = 0;
    u32 shards = 0;
    RankErrorAnnotation rank_error;
    for (u32 r = 0; r < opt_.reps; ++r) {
      const RepMeasurement m = rep(nt, opt_.ops);
      total_ops = m.ops;
      shards = m.shards;
      if (m.rank_error.present) rank_error = m.rank_error;
      ops_per_sec.push_back(m.seconds > 0 ? double(m.ops) / m.seconds : 0.0);
      ns_per_op.push_back(m.ops > 0 ? m.seconds * 1e9 / double(m.ops) : 0.0);
    }
    NativeBenchResult res;
    res.bench = bench;
    res.algo = algo;
    res.threads = nt;
    res.batch = batch;
    res.shards = shards;
    res.rank_error = rank_error;
    res.total_ops = total_ops;
    res.ops_per_sec = summarize_nonnegative(ops_per_sec);
    res.ns_per_op = summarize_nonnegative(ns_per_op);
    results_.push_back(res);
    std::fprintf(stderr,
                 "  %-16s %-14s t=%-3u  %12.0f ops/s  [%0.f, %0.f]  %8.1f ns/op\n",
                 bench.c_str(), algo.c_str(), nt, res.ops_per_sec.mean,
                 res.ops_per_sec.ci95_lo, res.ops_per_sec.ci95_hi,
                 res.ns_per_op.mean);
  }
}

int NativeBenchSuite::finish() {
  // Human table on stdout.
  std::printf("%-16s %-14s %8s %14s %14s %14s %10s %10s %10s %5s\n", "bench",
              "algo", "threads", "ops/sec", "ci95_lo", "ci95_hi", "ns/op",
              "ns_lo", "ns_hi", "reps");
  for (const auto& r : results_)
    std::printf("%-16s %-14s %8u %14.0f %14.0f %14.0f %10.1f %10.1f %10.1f %5u\n",
                r.bench.c_str(), r.algo.c_str(), r.threads, r.ops_per_sec.mean,
                r.ops_per_sec.ci95_lo, r.ops_per_sec.ci95_hi, r.ns_per_op.mean,
                r.ns_per_op.ci95_lo, r.ns_per_op.ci95_hi, r.ops_per_sec.n);

  if (opt_.out.empty()) return 0;
  std::ofstream f(opt_.out);
  if (!f) {
    std::cerr << "cannot write " << opt_.out << "\n";
    return 1;
  }
  JsonWriter w(f);
  w.begin_object();
  w.field("schema", "fpq.native-bench.v3");
  w.field("suite", suite_);
  w.key("build").begin_object();
#ifdef FPQ_FORCE_SEQ_CST
  w.field("force_seq_cst", true);
#else
  w.field("force_seq_cst", false);
#endif
  w.field("compiler", __VERSION__);
  w.field("hardware_concurrency",
          static_cast<u64>(std::thread::hardware_concurrency()));
#if defined(__SANITIZE_THREAD__)
  w.field("sanitizer", "thread");
#elif defined(__SANITIZE_ADDRESS__)
  w.field("sanitizer", "address");
#else
  w.field("sanitizer", "none");
#endif
  w.end_object();
  w.key("config").begin_object();
  w.field("ops_per_thread", opt_.ops);
  w.field("reps", opt_.reps);
  w.field("pin", opt_.pin);
  w.field("quick", opt_.quick);
  w.field("oversubscribed", sweep_oversubscribed(opt_.threads));
  w.end_object();
  w.key("results").begin_array();
  for (const auto& r : results_) {
    w.begin_object();
    w.field("bench", r.bench);
    w.field("algo", r.algo);
    w.field("threads", r.threads);
    if (r.batch > 0) w.field("batch", r.batch);
    if (r.shards > 0) w.field("shards", r.shards);
    w.field("reps", r.ops_per_sec.n);
    w.field("total_ops", r.total_ops);
    w.key("ops_per_sec").begin_object();
    w.field("mean", r.ops_per_sec.mean);
    w.field("sd", r.ops_per_sec.sd);
    w.field("ci95_lo", r.ops_per_sec.ci95_lo);
    w.field("ci95_hi", r.ops_per_sec.ci95_hi);
    w.field("n", r.ops_per_sec.n);
    w.end_object();
    w.key("ns_per_op").begin_object();
    w.field("mean", r.ns_per_op.mean);
    w.field("sd", r.ns_per_op.sd);
    w.field("ci95_lo", r.ns_per_op.ci95_lo);
    w.field("ci95_hi", r.ns_per_op.ci95_hi);
    w.field("n", r.ns_per_op.n);
    w.end_object();
    if (r.rank_error.present) {
      w.key("rank_error").begin_object();
      w.field("mean", r.rank_error.mean);
      w.field("p99", r.rank_error.p99);
      w.field("max", r.rank_error.max);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::fprintf(stderr, "wrote %s (%zu results)\n", opt_.out.c_str(), results_.size());
  return 0;
}

} // namespace fpq
