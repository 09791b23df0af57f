// The repository benchmark: three closed-loop workloads (every simulated
// processor or worker thread issues its next queue call only after the
// previous one returned), each run in its own process.
//
//   paper-ft-sim256        FunnelTree (exchange funnels) on the simulated
//                          256-processor machine, the paper's §4 workload.
//   hold-sharded-native    Sharded[8] (c=2, adaptive) over LockfreeSkiplist
//                          backends with hazard pointers, 65,536-item hold
//                          model on 3 native threads.
//   batch16-ft-agg-native  FunnelTree with aggregating funnels, 16-element
//                          insert_batch + delete_min_batch rounds on 3
//                          native threads.
//
// Usage: pqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file>]
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. perfbench/README.md explains every metric.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "funnel/counter.hpp"
#include "funnel/stack.hpp"
#include "harness.hpp"
#include "platform/native.hpp"
#include "platform/sim.hpp"
#include "sim/engine.hpp"
#include "sync/mcs_lock.hpp"
#include "verify/history.hpp"
#include "verify/rank_error.hpp"

using namespace fpq;
using namespace perfbench;

namespace {

using NP = NativePlatform;

// ------------------------------------------------------------- reporting

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// Every end-to-end metric, reported on every workload (units in README).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"throughput_mops", "Mops/s"}, {"cycles_per_op", "cycles"},   {"op_p50_cycles", "cycles"},
    {"op_p90_cycles", "cycles"},   {"delete_rank_mean", "rank"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric; a workload that does not exercise a layer
/// reports 0 for it.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"sim.module_wait_cycles_per_op", "cycles"},
    {"sim.misses_per_op", "count"},
    {"sim.invalidations_per_op", "count"},
    {"sim.network_cycles_per_op", "cycles"},
    {"sim.accesses_per_op", "count"},
    {"sim.host_ns_per_access", "ns"},
    {"sim.host_kops_per_s", "kops/s"},
    {"pq.insert_cycles_mean", "cycles"},
    {"pq.delete_cycles_mean", "cycles"},
    {"pq.delete_cycles_p99", "cycles"},
    {"pq.empty_delete_frac", "fraction"},
    {"funnel.counter_cycles_mean", "cycles"},
    {"funnel.counter_cycles_p99", "cycles"},
    {"funnel.stack_cycles_mean", "cycles"},
    {"shard.self_ns_per_op", "ns"},
    {"shard.backend_calls_per_op", "count"},
    {"shard.delegate_frac", "fraction"},
    {"shard.ops_max_over_mean", "ratio"},
    {"lfskiplist.ns_per_call", "ns"},
    {"reclaim.retired_per_op", "count"},
    {"reclaim.reclaimed_frac", "fraction"},
    {"reclaim.limbo_end", "count"},
    {"pq.insert_ns_mean", "ns"},
    {"pq.delete_ns_mean", "ns"},
    {"pq.insert_batch_ns_mean", "ns"},
    {"pq.delete_batch_ns_mean", "ns"},
    {"pq.batch_short_frac", "fraction"},
    {"funnel.agg_counter_ns_per_elem", "ns"},
    {"funnel.agg_folded_joins_per_call", "count"},
    {"funnel.agg_stack_ns_per_elem", "ns"},
    {"sync.mcs_lock_ns_per_pair", "ns"},
    {"trace.overhead_frac", "fraction"},
};

struct Result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, double> metrics;

  void fail(const std::string& why) {
    correct = false;
    std::printf("# CHECK FAILED: %s\n", why.c_str());
  }
};

void print_result(const Result& r, bool trace) {
  const auto& names = trace ? kPerLayer : kEndToEnd;
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    auto it = r.metrics.find(name);
    double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/// Scores a recorded history: 1 + mean number of strictly better entries
/// present when each delete-min took its entry (1 = always a true minimum).
/// An unmatched delete is a conservation bug and fails the run.
double rank_mean(const HistoryRecorder& rec, Result& r, const char* what) {
  const RankErrorReport rep = compute_rank_error(rec.merged());
  std::printf("# rank pass (%s): %llu deletes scored, %llu empty, mean error %.4f, p99 %.1f, "
              "max %llu\n",
              what, static_cast<unsigned long long>(rep.deletes),
              static_cast<unsigned long long>(rep.empties), rep.mean, rep.p99,
              static_cast<unsigned long long>(rep.max));
  if (rep.unmatched != 0) r.fail(std::string(what) + ": delete returned an item never inserted");
  return 1.0 + rep.mean;
}

void report_conservation(const ConservationReport& c, Result& r, const char* what) {
  std::printf("# conservation (%s): %llu delivered, %llu lost, %llu duplicated, %llu fabricated, "
              "%llu mismatched\n",
              what, static_cast<unsigned long long>(c.delivered),
              static_cast<unsigned long long>(c.lost),
              static_cast<unsigned long long>(c.duplicated),
              static_cast<unsigned long long>(c.fabricated),
              static_cast<unsigned long long>(c.mismatched));
  if (!c.ok()) r.fail(std::string(what) + ": item conservation violated");
}

// ================================================ paper-ft-sim256 (sim)

constexpr u32 kSimProcs = 256;
constexpr u32 kSimPrio = 16;
constexpr u32 kSimOpsPerProc = 24;
constexpr u32 kSimReps = 24; // repetitions pooled per run: sub-seeded sequences and their mirrors
constexpr Cycles kSimLocalWork = 200;

/// One simulated queue call as observed by its processor.
struct SimOp {
  Cycles t0 = 0;
  Cycles t1 = 0;
  bool insert = false;
  bool got = false; // insert accepted / delete returned an entry
  Entry entry;
};

struct SimRep {
  double setup_s = 0;
  double run_s = 0;
  std::vector<std::vector<SimOp>> ops; // [proc][i]
  sim::MemStats mem;
  u64 accesses = 0;
  Cycles makespan = 0; // simulated cycles until the last processor finished
  u64 digest = 0;
  ConservationReport conservation;
};

u64 fnv(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One complete run of the paper workload: set-up (queue, inputs, engine,
/// fibers), the timed run, then an untimed single-processor drain.
/// `mirror` swaps every insert for a delete-min and back: each sequence is
/// a fair coin flip on its own, and pooling a sequence with its mirror
/// cancels most of the random walk of the queue's occupancy, which would
/// otherwise dominate how the figures vary from seed to seed.
SimRep sim_rep(u64 seed, bool mirror) {
  SimRep rep;
  const double w0 = wall_seconds();
  PqParams params;
  params.npriorities = kSimPrio;
  params.maxprocs = kSimProcs;
  params.bin_capacity = 1u << 14;
  params.seed = seed;
  FunnelOptions fo;
  fo.params = FunnelParams::for_procs(kSimProcs);
  auto pq = make_priority_queue<SimPlatform>(Algorithm::kFunnelTree, params, fo);
  // Inputs: per processor, the coin flip and priority of every call.
  std::vector<std::vector<std::pair<bool, Prio>>> inputs(kSimProcs);
  Xorshift rng(seed ^ 0x5eed5eedull);
  for (auto& v : inputs) {
    v.resize(kSimOpsPerProc);
    for (auto& [ins, prio] : v) {
      ins = rng.flip() != mirror;
      prio = static_cast<Prio>(rng.below(kSimPrio));
    }
  }
  rep.ops.assign(kSimProcs, std::vector<SimOp>(kSimOpsPerProc));
  sim::Engine engine(kSimProcs, {}, seed);
  double first_body = 0;
  const double run_call = wall_seconds();
  engine.run([&](ProcId id) {
    if (first_body == 0) first_body = wall_seconds(); // every fiber exists by now
    u64 seq = 0;
    for (u32 i = 0; i < kSimOpsPerProc; ++i) {
      SimPlatform::delay(kSimLocalWork);
      SimOp& op = rep.ops[id][i];
      op.insert = inputs[id][i].first;
      op.t0 = SimPlatform::now();
      if (op.insert) {
        op.entry = Entry{inputs[id][i].second, make_item(id + 1, seq++)};
        op.got = pq->insert(op.entry.prio, op.entry.item);
      } else if (auto e = pq->delete_min()) {
        op.got = true;
        op.entry = *e;
      }
      op.t1 = SimPlatform::now();
    }
  });
  const double w1 = wall_seconds();
  rep.setup_s = (run_call - w0) + (first_body - run_call);
  rep.run_s = w1 - first_body;
  rep.mem = engine.mem_stats();
  for (const sim::ProcStats& s : engine.proc_stats()) {
    rep.accesses += s.accesses;
    rep.makespan = std::max(rep.makespan, s.clock);
  }

  // Drain on one processor (sequential, so nullopt means empty), then
  // check that every inserted tag came back exactly once.
  Ledger ledger(kSimProcs + 1);
  std::vector<u64> inserted(kSimProcs + 1, 0);
  u64 h = 0xcbf29ce484222325ull;
  for (u32 p = 0; p < kSimProcs; ++p) {
    for (const SimOp& op : rep.ops[p]) {
      h = fnv(fnv(fnv(h, op.t0), op.t1), pack_entry(op.entry) ^ (op.got ? 1 : 0));
      if (op.insert) {
        ++inserted[p + 1];
        if (!op.got) ledger.mark(op.entry.item); // refused: never entered the queue
      } else if (op.got) {
        ledger.mark(op.entry.item);
      }
    }
  }
  engine.run([&](ProcId id) {
    if (id != 0) return;
    while (auto e = pq->delete_min()) ledger.mark(e->item);
  });
  rep.digest = h;
  rep.conservation = check_conservation(inserted, std::span<const Ledger>(&ledger, 1));
  return rep;
}

double mean_of(const std::vector<u64>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (u64 x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

/// Seed of the i-th pooled repetition of a run.
u64 sub_seed(u64 seed, u32 i) { return seed * 0x9E3779B97F4A7C15ull + i; }

/// Pools the calls of every repetition: counts, conservation, and the
/// recorded history's rank score (deletes weighted equally across reps).
void sim_account(const std::vector<SimRep>& reps, Result& r, double* rank) {
  double rank_sum = 0, scored = 0;
  for (const SimRep& rep : reps) {
    HistoryRecorder rec(kSimProcs);
    for (u32 p = 0; p < kSimProcs; ++p)
      for (const SimOp& op : rep.ops[p]) {
        ++r.attempted;
        if (op.insert && !op.got) ++r.failed; // refused insert
        if (op.insert && op.got)
          rec.record(OpRecord::insert_op(p, op.t0, op.t1, op.entry));
        else if (!op.insert)
          rec.record(OpRecord::delete_op(p, op.t0, op.t1,
                                         op.got ? std::optional<Entry>(op.entry) : std::nullopt));
      }
    report_conservation(rep.conservation, r, "paper-ft-sim256");
    if (rank) {
      const RankErrorReport rr = compute_rank_error(rec.merged());
      if (rr.unmatched != 0) r.fail("paper-ft-sim256: delete returned an item never inserted");
      rank_sum += rr.mean * static_cast<double>(rr.deletes);
      scored += static_cast<double>(rr.deletes);
    }
  }
  if (rank) {
    *rank = 1.0 + (scored > 0 ? rank_sum / scored : 0.0);
    std::printf("# rank (paper-ft-sim256): %.0f deletes scored, mean rank %.4f\n", scored, *rank);
  }
}

/// Funnel-layer drive: bounded fetch-and-decrement with elimination on the
/// paper's Fig. 5 mix (50/50 FaI/BFaD, 200 cycles of local work).
std::vector<u64> sim_counter_drive(u64 seed) {
  constexpr u32 kOps = 24;
  sim::Engine engine(kSimProcs, {}, seed);
  FunnelCounter<SimPlatform> ctr(kSimProcs, FunnelParams::for_procs(kSimProcs),
                                 {/*bounded=*/true, /*eliminate=*/true, /*floor=*/0}, 0);
  Xorshift rng(seed ^ 0xc0c0ull);
  std::vector<std::vector<bool>> inc(kSimProcs, std::vector<bool>(kOps));
  for (auto& v : inc)
    for (u32 i = 0; i < kOps; ++i) v[i] = rng.flip();
  std::vector<std::vector<u64>> lat(kSimProcs);
  engine.run([&](ProcId id) {
    for (u32 i = 0; i < kOps; ++i) {
      SimPlatform::delay(kSimLocalWork);
      const Cycles t0 = SimPlatform::now();
      if (inc[id][i])
        ctr.fai();
      else
        ctr.bfad(0);
      lat[id].push_back(SimPlatform::now() - t0);
    }
  });
  std::vector<u64> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// Funnel-stack drive at 16 processors — the per-bin concurrency of the
/// 256-processor, 16-priority queue.
std::vector<u64> sim_stack_drive(u64 seed) {
  constexpr u32 kProcs = 16;
  constexpr u32 kOps = 200;
  sim::Engine engine(kProcs, {}, seed);
  FunnelStack<SimPlatform> st(kProcs, FunnelParams::for_procs(kProcs), 1u << 14);
  Xorshift rng(seed ^ 0x57acull);
  std::vector<std::vector<bool>> push(kProcs, std::vector<bool>(kOps));
  for (auto& v : push)
    for (u32 i = 0; i < kOps; ++i) v[i] = rng.flip();
  std::vector<std::vector<u64>> lat(kProcs);
  engine.run([&](ProcId id) {
    for (u32 i = 0; i < kOps; ++i) {
      SimPlatform::delay(kSimLocalWork);
      const Cycles t0 = SimPlatform::now();
      if (push[id][i])
        st.push(make_item(id + 1, i));
      else
        st.pop();
      lat[id].push_back(SimPlatform::now() - t0);
    }
  });
  std::vector<u64> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void write_sim_spans(const std::vector<SimRep>& reps, const std::string& path) {
  if (path.empty()) return;
  std::ofstream f(path);
  f << "# rep,proc,op,kind,start_cycles,end_cycles,got\n";
  for (u32 r = 0; r < reps.size(); ++r)
    for (u32 p = 0; p < reps[r].ops.size(); ++p)
      for (u32 i = 0; i < reps[r].ops[p].size(); ++i) {
        const SimOp& op = reps[r].ops[p][i];
        f << r << ',' << p << ',' << i << ',' << (op.insert ? "pq.insert" : "pq.delete_min") << ','
          << op.t0 << ',' << op.t1 << ',' << (op.got ? 1 : 0) << '\n';
      }
}

/// Latency samples (cycles) of the selected calls, pooled over reps.
std::vector<u64> pooled(const std::vector<SimRep>& reps,
                        const std::function<bool(const SimOp&)>& pick) {
  std::vector<u64> all;
  for (const SimRep& rep : reps)
    for (const auto& ops : rep.ops)
      for (const SimOp& op : ops)
        if (pick(op)) all.push_back(op.t1 - op.t0);
  return all;
}

/// Simulated throughput: operations per simulated second, taking one
/// simulated cycle as one nanosecond (a nominal 1 GHz clock), pooled over
/// the repetitions. The simulator's own host speed drifts with the host,
/// so it is a per-layer figure (sim.host_kops_per_s), not this one.
double sim_mops(const std::vector<SimRep>& reps) {
  double ops = 0, cycles = 0;
  for (const SimRep& rep : reps) {
    ops += static_cast<double>(kSimProcs) * kSimOpsPerProc;
    cycles += static_cast<double>(rep.makespan);
  }
  return ops / cycles * 1e3;
}

Result run_sim(const Args& a) {
  Result r;
  const double t_start = wall_seconds();
  std::vector<SimRep> reps;
  std::vector<double> rate, setup;
  auto note = [&](const SimRep& rep) {
    rate.push_back(static_cast<double>(kSimProcs) * kSimOpsPerProc / rep.run_s / 1e3);
    setup.push_back(rep.setup_s);
  };
  // The cycle figures pool a fixed set of sub-seeded repetitions, so they
  // are a pure function of --seed.
  for (u32 i = 0; i < kSimReps; ++i) {
    reps.push_back(sim_rep(sub_seed(a.seed, i / 2), i % 2 == 1));
    note(reps.back());
  }

  if (!a.trace) {
    // Fill the rest of the measuring window, if any, by repeating the
    // repetitions (host speed only); each repeat, and at least one, must
    // reproduce its cycles bit for bit.
    for (u32 i = 0; i == 0 || wall_seconds() - t_start < a.seconds; ++i) {
      const u32 k = i % kSimReps;
      const SimRep again = sim_rep(sub_seed(a.seed, k / 2), k % 2 == 1);
      if (again.digest != reps[k].digest)
        r.fail("simulated cycles differ between repetitions of one seed");
      note(again);
    }
    std::printf("# host speed per run (simulated kops per host second):");
    for (double v : rate) std::printf(" %.3f", v);
    std::printf("\n# set-up per run (s):");
    for (double v : setup) std::printf(" %.5f", v);
    std::printf("\n");
    double rank = 0;
    sim_account(reps, r, &rank);
    const std::vector<u64> all = pooled(reps, [](const SimOp&) { return true; });
    r.metrics["throughput_mops"] = sim_mops(reps);
    r.metrics["cycles_per_op"] = mean_of(all);
    r.metrics["op_p50_cycles"] = static_cast<double>(exact_percentile(all, 0.50));
    r.metrics["op_p90_cycles"] = static_cast<double>(exact_percentile(all, 0.90));
    r.metrics["delete_rank_mean"] = rank;
    r.metrics["setup_s"] = median(setup);
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    std::printf("# %zu runs (%u pooled repetitions) x %u calls; latency samples %zu: p50 %llu "
                "p90 %llu p99 %llu cycles\n",
                rate.size(), kSimReps, kSimProcs * kSimOpsPerProc, all.size(),
                static_cast<unsigned long long>(exact_percentile(all, 0.50)),
                static_cast<unsigned long long>(exact_percentile(all, 0.90)),
                static_cast<unsigned long long>(exact_percentile(all, 0.99)));
    return r;
  }

  // Traced: the repetitions above kept every call as a span, written out
  // here. Tracing is host-side, so an untraced rerun of the first must
  // match it bit for bit, and its only cost is writing the spans.
  const SimRep plain = sim_rep(sub_seed(a.seed, 0), false);
  if (plain.digest != reps[0].digest) r.fail("tracing changed the simulated cycles");
  sim_account(reps, r, nullptr);
  const double w0 = wall_seconds();
  write_sim_spans(reps, a.trace_out);
  const double write_s = wall_seconds() - w0;
  const auto ins = pooled(reps, [](const SimOp& o) { return o.insert; });
  const auto del = pooled(reps, [](const SimOp& o) { return !o.insert; });
  const auto empty = pooled(reps, [](const SimOp& o) { return !o.insert && !o.got; });
  sim::MemStats m;
  u64 accesses = 0;
  double run_s = 0;
  for (const SimRep& rep : reps) {
    m.module_wait_cycles += rep.mem.module_wait_cycles;
    m.misses += rep.mem.misses;
    m.invalidations += rep.mem.invalidations;
    m.network_cycles += rep.mem.network_cycles;
    accesses += rep.accesses;
    run_s += rep.run_s;
  }
  const double n = static_cast<double>(ins.size() + del.size());
  auto& pm = r.metrics;
  pm["sim.module_wait_cycles_per_op"] = static_cast<double>(m.module_wait_cycles) / n;
  pm["sim.misses_per_op"] = static_cast<double>(m.misses) / n;
  pm["sim.invalidations_per_op"] = static_cast<double>(m.invalidations) / n;
  pm["sim.network_cycles_per_op"] = static_cast<double>(m.network_cycles) / n;
  pm["sim.accesses_per_op"] = static_cast<double>(accesses) / n;
  pm["sim.host_ns_per_access"] = run_s * 1e9 / static_cast<double>(accesses);
  pm["sim.host_kops_per_s"] = median(rate);
  pm["pq.insert_cycles_mean"] = mean_of(ins);
  pm["pq.delete_cycles_mean"] = mean_of(del);
  pm["pq.delete_cycles_p99"] = static_cast<double>(exact_percentile(del, 0.99));
  pm["pq.empty_delete_frac"] = static_cast<double>(empty.size()) / del.size();
  const auto ctr = sim_counter_drive(a.seed);
  pm["funnel.counter_cycles_mean"] = mean_of(ctr);
  pm["funnel.counter_cycles_p99"] = static_cast<double>(exact_percentile(ctr, 0.99));
  pm["funnel.stack_cycles_mean"] = mean_of(sim_stack_drive(a.seed));
  pm["trace.overhead_frac"] = write_s / run_s;
  std::printf("# traced: %zu insert and %zu delete spans; counter drive %zu samples\n", ins.size(),
              del.size(), ctr.size());
  return r;
}

// ===================================================== native workloads

constexpr u32 kThreads = 3;
constexpr u32 kSetupReps = 9;  // set-ups per run; setup_s is their median
constexpr u32 kRankPasses = 9; // recorded passes; the rank reported is their median
constexpr u32 kPrioRing = 1u << 16; // per-thread pre-generated priorities

/// The measuring window is split into this many equal intervals; every
/// native timing metric is the median of its per-interval values, so a
/// stall that hits one interval does not move the result.
constexpr u32 kIntervals = 10;

/// What one worker measured during one interval.
struct IntervalStats {
  ExactHistogram hist; // per-call latency (ticks)
  u64 elems = 0;       // queue elements completed
  u64 ticks = 0;       // ticks spent inside queue calls
  u64 ins_calls = 0, ins_ticks = 0;
  u64 del_calls = 0, del_ticks = 0;
};

/// Per-thread state of a native run; each worker touches only its own.
struct Worker {
  explicit Worker(u32 producers) : iv(kIntervals), ledger(producers) {}
  std::vector<Prio> prios;          // input ring
  u64 seq = 0;                      // next item seq (producer = id + 1)
  std::atomic<u64> measured_ops{0}; // elements completed while measuring
  u64 attempted = 0;
  u64 failed = 0;
  u64 short_batches = 0;
  u64 batch_deletes = 0;
  bool order_violation = false;
  std::vector<IntervalStats> iv;
  Ledger ledger;
};

/// Records one timed call into the current interval (`s` is null during
/// the warm-up).
void record_call(Worker& w, IntervalStats* s, bool insert, u64 dt, u64 elems) {
  if (!s) return;
  s->hist.record(dt);
  s->elems += elems;
  s->ticks += dt;
  if (insert) {
    ++s->ins_calls;
    s->ins_ticks += dt;
  } else {
    ++s->del_calls;
    s->del_ticks += dt;
  }
  w.measured_ops.store(w.measured_ops.load(std::memory_order_relaxed) + elems,
                       std::memory_order_relaxed);
}

/// A native workload: how to build the queue, prefill it, and run one
/// closed-loop step (which times its own calls).
struct NativeSpec {
  const char* name;
  u32 npriorities;
  u32 prefill;
  std::function<std::unique_ptr<IPriorityQueue<NP>>(u64 seed)> make;
  /// One closed-loop step of worker `w` (id `tid`), timing its calls into
  /// `iv` (null during the warm-up).
  std::function<void(IPriorityQueue<NP>&, Worker&, u32 tid, IntervalStats* iv)> step;
  /// Same step, appending an OpRecord per element to `rec`.
  std::function<void(IPriorityQueue<NP>&, Worker&, u32 tid, std::vector<OpRecord>& rec)>
      record_step;
  u32 rank_steps;       // steps per thread in the recorded rank pass
  u32 records_per_step; // upper bound, for reserving the pass's buffers
};

/// The next fresh item of worker `tid`: a unique tag and a priority from
/// the worker's pre-generated ring.
Entry next_entry(Worker& w, u32 tid) {
  const Entry e{w.prios[w.seq & (kPrioRing - 1)], make_item(tid + 1, w.seq)};
  ++w.seq;
  return e;
}

std::vector<Prio> prio_ring(u64 seed, u32 tid, u32 npri) {
  Xorshift rng(seed * 0x9E3779B97F4A7C15ull + tid + 1);
  std::vector<Prio> v(kPrioRing);
  for (Prio& p : v) p = static_cast<Prio>(rng.below(npri));
  return v;
}

/// Prefill with `n` uniform-priority items tagged (0, seq), spread over
/// the worker ids as they would be by the workers themselves.
void prefill(IPriorityQueue<NP>& q, u64 seed, u32 npri, u32 n, HistoryRecorder* rec) {
  Xorshift rng(seed ^ 0xF111ull);
  std::vector<Entry> items(n);
  for (u32 i = 0; i < n; ++i) items[i] = Entry{static_cast<Prio>(rng.below(npri)), make_item(0, i)};
  for (u32 t = 0; t < kThreads; ++t) {
    NP::adopt(t, kThreads, seed);
    for (u32 i = t; i < n; i += kThreads) {
      if (!q.insert(items[i].prio, items[i].item))
        throw std::runtime_error("prefill insert refused");
      if (rec) rec->record(OpRecord::insert_op(0, 0, 0, items[i]));
    }
    NP::release();
  }
}

struct Instance {
  std::unique_ptr<IPriorityQueue<NP>> q;
  std::vector<std::unique_ptr<Worker>> workers;
};

/// Set-up: construction, prefill and input generation — everything before
/// the first timed call.
Instance setup(const NativeSpec& s, u64 seed, double& setup_s,
               const std::function<std::unique_ptr<IPriorityQueue<NP>>(u64)>& make = {}) {
  Instance in;
  // The workers' latency records are harness state, not set-up work.
  for (u32 t = 0; t < kThreads; ++t) in.workers.push_back(std::make_unique<Worker>(kThreads + 1));
  const double t0 = wall_seconds();
  in.q = make ? make(seed) : s.make(seed);
  for (u32 t = 0; t < kThreads; ++t) in.workers[t]->prios = prio_ring(seed, t, s.npriorities);
  prefill(*in.q, seed, s.npriorities, s.prefill, nullptr);
  setup_s = wall_seconds() - t0;
  return in;
}

struct Segment {
  std::vector<double> interval_mops; // throughput of each measuring interval
  u64 total_steps = 0;
};

/// Runs the closed loop: untimed warm-up, then `seconds` of measurement
/// split into kIntervals. Threads are spawned and parked on a start
/// barrier before the clock starts and joined after it stops.
Segment measure(const NativeSpec& s, Instance& in, u64 seed, double warm_s, double seconds,
                const std::function<void()>& on_interval = {}) {
  // phase 0 = warm-up, 1..kIntervals = measuring interval phase-1.
  constexpr u32 kStop = kIntervals + 1;
  std::atomic<u32> phase{0};
  std::atomic<u32> ready{0};
  std::atomic<bool> go{false};
  std::atomic<u64> steps{0};
  std::vector<std::thread> threads;
  std::exception_ptr error;
  std::mutex error_mu;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      NP::adopt(t, kThreads, seed);
      Worker& w = *in.workers[t];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      u64 n = 0;
      try {
        for (u32 ph; (ph = phase.load(std::memory_order_relaxed)) != kStop; ++n)
          s.step(*in.q, w, t, ph == 0 ? nullptr : &w.iv[ph - 1]);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error) error = std::current_exception();
      }
      steps.fetch_add(n);
      NP::release();
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
  Segment seg;
  auto measured = [&] {
    u64 n = 0;
    for (auto& w : in.workers) n += w->measured_ops.load(std::memory_order_relaxed);
    return n;
  };
  const double m0 = wall_seconds();
  double prev_t = m0;
  u64 prev_n = measured();
  for (u32 i = 1; i <= kIntervals; ++i) {
    phase.store(i, std::memory_order_relaxed);
    const double until = m0 + seconds * i / kIntervals;
    while (wall_seconds() < until)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    const double now = wall_seconds();
    const u64 n = measured();
    seg.interval_mops.push_back(static_cast<double>(n - prev_n) / (now - prev_t) / 1e6);
    prev_t = now;
    prev_n = n;
    if (on_interval) on_interval();
  }
  phase.store(kStop, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  if (error) std::rethrow_exception(error);
  seg.total_steps = steps.load();
  return seg;
}

/// Drains the queue on one thread and checks item conservation.
void drain_and_check(const NativeSpec& s, Instance& in, u64 seed, Result& r) {
  NP::adopt(0, kThreads, seed);
  Ledger drained(kThreads + 1);
  while (auto e = in.q->delete_min()) drained.mark(e->item);
  NP::release();
  std::vector<u64> inserted(kThreads + 1, 0);
  inserted[0] = s.prefill;
  std::vector<Ledger> ledgers;
  for (u32 t = 0; t < kThreads; ++t) {
    Worker& w = *in.workers[t];
    inserted[t + 1] = w.seq;
    ledgers.push_back(w.ledger);
    r.attempted += w.attempted;
    r.failed += w.failed;
    if (w.order_violation) r.fail("delete_min_batch returned entries out of priority order");
  }
  ledgers.push_back(drained);
  report_conservation(check_conservation(inserted, ledgers), r, s.name);
}

/// Rank pass: a fresh instance run for a fixed number of steps per thread
/// with every element recorded (recording perturbs timing, so this never
/// shares a run with the timed measurement).
double rank_pass(const NativeSpec& s, u64 seed, Result& r) {
  auto q = s.make(seed);
  HistoryRecorder rec(kThreads);
  prefill(*q, seed, s.npriorities, s.prefill, &rec);
  std::vector<std::unique_ptr<Worker>> ws;
  for (u32 t = 0; t < kThreads; ++t) {
    ws.push_back(std::make_unique<Worker>(kThreads + 1));
    ws.back()->prios = prio_ring(seed, t, s.npriorities);
  }
  // Per-thread buffers sized up front: growing them mid-pass would stall
  // the recording thread and change the overlap being measured.
  std::vector<std::vector<OpRecord>> bufs(kThreads);
  for (auto& b : bufs) b.reserve(static_cast<std::size_t>(s.rank_steps) * s.records_per_step);
  std::atomic<u32> ready{0};
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      NP::adopt(t, kThreads, seed);
      ready.fetch_add(1);
      while (ready.load() != kThreads) std::this_thread::yield();
      for (u32 i = 0; i < s.rank_steps; ++i) s.record_step(*q, *ws[t], t, bufs[t]);
      NP::release();
    });
  for (auto& th : threads) th.join();
  for (const auto& b : bufs)
    for (const OpRecord& op : b) rec.record(op);
  return rank_mean(rec, r, s.name);
}

// ---- hold-sharded-native

PqParams hold_params(u64 seed) {
  PqParams p;
  p.npriorities = 128;
  p.maxprocs = kThreads;
  p.seed = seed;
  p.shard.shards = 8;
  p.shard.sample_c = 2;
  p.shard.policy = ShardPolicyKind::kAdaptive;
  p.reclaim_policy = reclaim::Policy::kHazardPointer;
  return p;
}

void hold_step(IPriorityQueue<NP>& q, Worker& w, u32 tid, IntervalStats* iv) {
  // delete_min, then insert a fresh uniform-priority item.
  u64 t0 = ticks();
  const auto e = q.delete_min();
  u64 t1 = ticks();
  ++w.attempted;
  if (e)
    w.ledger.mark(e->item);
  else
    ++w.failed; // the standing population far exceeds in-flight deletes
  record_call(w, iv, false, t1 - t0, e ? 1 : 0);
  const Entry in = next_entry(w, tid);
  t0 = ticks();
  const bool ok = q.insert(in.prio, in.item);
  t1 = ticks();
  ++w.attempted;
  if (!ok) {
    ++w.failed;
    w.ledger.mark(in.item); // never entered the queue: account it here
  }
  record_call(w, iv, true, t1 - t0, ok ? 1 : 0);
}

void hold_record_step(IPriorityQueue<NP>& q, Worker& w, u32 tid, std::vector<OpRecord>& rec) {
  u64 t0 = ticks();
  const auto e = q.delete_min();
  rec.push_back(OpRecord::delete_op(tid, t0, ticks(), e));
  const Entry in = next_entry(w, tid);
  t0 = ticks();
  if (q.insert(in.prio, in.item)) rec.push_back(OpRecord::insert_op(tid, t0, ticks(), in));
}

NativeSpec hold_spec() {
  NativeSpec s;
  s.name = "hold-sharded-native";
  s.npriorities = 128;
  s.prefill = 65536;
  s.make = [](u64 seed) {
    return make_priority_queue<NP>(Algorithm::kSharded, hold_params(seed));
  };
  s.step = hold_step;
  s.record_step = hold_record_step;
  s.rank_steps = 50000;
  s.records_per_step = 2;
  return s;
}

// ---- batch16-ft-agg-native

constexpr u32 kBatch = 16;

PqParams batch_params(u64 seed) {
  PqParams p;
  p.npriorities = 16;
  p.maxprocs = kThreads;
  p.seed = seed;
  p.max_batch = kBatch;
  // The hold drift piles the standing population onto the highest
  // priorities; every bin can hold all of it.
  p.bin_capacity = 8192;
  return p;
}

void fill_batch(Worker& w, u32 tid, Entry* b) {
  for (u32 i = 0; i < kBatch; ++i) b[i] = next_entry(w, tid);
}

void check_batch_order(Worker& w, const Entry* out, u32 got) {
  for (u32 i = 1; i < got; ++i)
    if (out[i].prio < out[i - 1].prio) w.order_violation = true;
}

void batch_step(IPriorityQueue<NP>& q, Worker& w, u32 tid, IntervalStats* iv) {
  Entry b[kBatch];
  fill_batch(w, tid, b);
  u64 t0 = ticks();
  const u32 acc = q.insert_batch(std::span<const Entry>(b, kBatch));
  u64 t1 = ticks();
  w.attempted += kBatch;
  w.failed += kBatch - acc; // refused: capacity (sized never to happen)
  record_call(w, iv, true, t1 - t0, acc);
  Entry out[kBatch];
  t0 = ticks();
  const u32 got = q.delete_min_batch(std::span<Entry>(out, kBatch));
  t1 = ticks();
  w.attempted += kBatch;
  w.failed += kBatch - got; // short batch: the prefill far exceeds demand
  ++w.batch_deletes;
  if (got < kBatch) ++w.short_batches;
  check_batch_order(w, out, got);
  for (u32 i = 0; i < got; ++i) w.ledger.mark(out[i].item);
  record_call(w, iv, false, t1 - t0, got);
}

void batch_record_step(IPriorityQueue<NP>& q, Worker& w, u32 tid, std::vector<OpRecord>& rec) {
  Entry b[kBatch];
  fill_batch(w, tid, b);
  u64 t0 = ticks();
  const u32 acc = q.insert_batch(std::span<const Entry>(b, kBatch));
  u64 t1 = ticks();
  if (acc == kBatch)
    for (const Entry& e : b) rec.push_back(OpRecord::insert_op(tid, t0, t1, e));
  Entry out[kBatch];
  t0 = ticks();
  const u32 got = q.delete_min_batch(std::span<Entry>(out, kBatch));
  t1 = ticks();
  for (u32 i = 0; i < got; ++i) rec.push_back(OpRecord::delete_op(tid, t0, t1, out[i]));
}

NativeSpec batch_spec() {
  NativeSpec s;
  s.name = "batch16-ft-agg-native";
  s.npriorities = 16;
  s.prefill = 4096;
  s.make = [](u64 seed) {
    FunnelOptions fo;
    fo.protocol = FunnelProtocol::kAggregate;
    fo.params = FunnelParams::for_procs(kThreads, FunnelProtocol::kAggregate);
    return make_priority_queue<NP>(Algorithm::kFunnelTree, batch_params(seed), fo);
  };
  s.step = batch_step;
  s.record_step = batch_record_step;
  s.rank_steps = 6000;
  s.records_per_step = 2 * kBatch;
  return s;
}

// ---- per-layer drives (native), each on kThreads threads for `secs`

/// Runs fn(tid) repeatedly on every thread for `secs`; returns the calls
/// and ticks each thread spent inside fn.
std::pair<u64, u64> drive(u64 seed, double secs, const std::function<void(u32)>& fn) {
  std::atomic<bool> stop{false};
  std::atomic<u32> ready{0};
  std::atomic<u64> calls{0}, spent{0};
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      NP::adopt(t, kThreads, seed);
      ready.fetch_add(1);
      while (ready.load() != kThreads) std::this_thread::yield();
      u64 n = 0, tk = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const u64 t0 = ticks();
        fn(t);
        tk += ticks() - t0;
        ++n;
      }
      calls.fetch_add(n);
      spent.fetch_add(tk);
      NP::release();
    });
  std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  stop.store(true);
  for (auto& th : threads) th.join();
  return {calls.load(), spent.load()};
}

void batch_layer_drives(u64 seed, double nspt, double secs, std::map<std::string, double>& pm) {
  FunnelParams fp = FunnelParams::for_procs(kThreads, FunnelProtocol::kAggregate);
  fp.batch_limit = kBatch;
  {
    FunnelCounter<NP> ctr(kThreads, fp, {/*bounded=*/true, /*eliminate=*/true, /*floor=*/0}, 0);
    std::vector<Padded<u64>> flip(kThreads);
    const auto [calls, tk] = drive(seed, secs, [&](u32 t) {
      if ((*flip[t])++ % 2 == 0)
        ctr.fai_batch(kBatch);
      else
        ctr.bfad_batch(0, kBatch);
    });
    pm["funnel.agg_counter_ns_per_elem"] = static_cast<double>(tk) * nspt / (calls * kBatch);
    pm["funnel.agg_folded_joins_per_call"] =
        static_cast<double>(ctr.folded_joins()) / static_cast<double>(calls);
  }
  {
    FunnelStack<NP> st(kThreads, fp, 1u << 14);
    std::vector<Padded<u64>> flip(kThreads);
    const auto [calls, tk] = drive(seed, secs, [&](u32 t) {
      Item buf[kBatch];
      if ((*flip[t])++ % 2 == 0) {
        for (u32 i = 0; i < kBatch; ++i) buf[i] = make_item(t + 1, i);
        st.push_batch(buf, kBatch);
      } else {
        st.pop_batch(buf, kBatch);
      }
    });
    pm["funnel.agg_stack_ns_per_elem"] = static_cast<double>(tk) * nspt / (calls * kBatch);
  }
  {
    McsLock<NP> lock(kThreads);
    u64 guarded = 0;
    const auto [calls, tk] = drive(seed, secs, [&](u32) {
      McsGuard<NP> g(lock);
      ++guarded;
    });
    if (guarded != calls) throw std::runtime_error("MCS lock lost an increment");
    pm["sync.mcs_lock_ns_per_pair"] = static_cast<double>(tk) * nspt / calls;
  }
}

// ---- the native runner

/// The workers' interval records merged: [kIntervals] plus the whole
/// measuring window.
struct Merged {
  std::vector<IntervalStats> iv = std::vector<IntervalStats>(kIntervals);
  IntervalStats all;
};

void add(IntervalStats& to, const IntervalStats& from) {
  to.hist.merge(from.hist);
  to.elems += from.elems;
  to.ticks += from.ticks;
  to.ins_calls += from.ins_calls;
  to.ins_ticks += from.ins_ticks;
  to.del_calls += from.del_calls;
  to.del_ticks += from.del_ticks;
}

Merged merge_intervals(const Instance& in) {
  Merged m;
  for (const auto& w : in.workers)
    for (u32 i = 0; i < kIntervals; ++i) {
      add(m.iv[i], w->iv[i]);
      add(m.all, w->iv[i]);
    }
  return m;
}

/// Median over the intervals of f(interval).
double interval_median(const Merged& m, const std::function<double(const IntervalStats&)>& f) {
  std::vector<double> v;
  for (const IntervalStats& s : m.iv) v.push_back(f(s));
  return median(v);
}

Result run_native(const NativeSpec& s, const Args& a) {
  Result r;
  const double nspt = ns_per_tick();
  const double warm = std::min(2.0, std::max(0.5, a.seconds * 0.2));
  std::vector<double> setups;
  Instance in;
  for (u32 i = 0; i < kSetupReps; ++i) {
    double t = 0;
    in = Instance{}; // one instance alive at a time
    in = setup(s, a.seed, t); // the last instance is the one measured
    setups.push_back(t);
  }
  const double main_s = a.trace ? a.seconds / 2 : a.seconds;
  const Segment seg = measure(s, in, a.seed, warm, main_s);
  const double rss = peak_rss_mb(); // before the checks allocate anything
  const Merged lat = merge_intervals(in);
  std::printf("# %s: %zu setups, median %.4f s; measured %.2f s after %.2f s warm-up, "
              "%llu steps\n",
              s.name, setups.size(), median(setups), main_s, warm,
              static_cast<unsigned long long>(seg.total_steps));
  std::printf("# throughput per interval (Mops/s):");
  for (double v : seg.interval_mops) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("# whole window, %llu latency samples: p50 %llu p90 %llu p99 %llu ticks "
              "(%.4f ns/tick)\n",
              static_cast<unsigned long long>(lat.all.hist.count()),
              static_cast<unsigned long long>(lat.all.hist.percentile(0.50)),
              static_cast<unsigned long long>(lat.all.hist.percentile(0.90)),
              static_cast<unsigned long long>(lat.all.hist.percentile(0.99)), nspt);
  for (u32 i = 0; i < kIntervals; ++i)
    std::printf("# interval %u: %llu samples, p50 %llu p90 %llu ticks, %.1f ticks/op\n", i,
                static_cast<unsigned long long>(lat.iv[i].hist.count()),
                static_cast<unsigned long long>(lat.iv[i].hist.percentile(0.50)),
                static_cast<unsigned long long>(lat.iv[i].hist.percentile(0.90)),
                static_cast<double>(lat.iv[i].ticks) / static_cast<double>(lat.iv[i].elems));
  drain_and_check(s, in, a.seed, r);

  if (!a.trace) {
    r.metrics["throughput_mops"] = median(seg.interval_mops);
    r.metrics["cycles_per_op"] = interval_median(lat, [](const IntervalStats& x) {
      return static_cast<double>(x.ticks) / static_cast<double>(x.elems);
    });
    r.metrics["op_p50_cycles"] = interval_median(
        lat, [](const IntervalStats& x) { return static_cast<double>(x.hist.percentile(0.50)); });
    r.metrics["op_p90_cycles"] = interval_median(
        lat, [](const IntervalStats& x) { return static_cast<double>(x.hist.percentile(0.90)); });
    std::vector<double> ranks;
    const double r0 = wall_seconds();
    for (u32 i = 0; i < kRankPasses; ++i) ranks.push_back(rank_pass(s, a.seed, r));
    std::printf("# %u rank passes in %.2f s\n", kRankPasses, wall_seconds() - r0);
    r.metrics["delete_rank_mean"] = median(ranks);
    r.metrics["setup_s"] = median(setups);
    r.metrics["peak_rss_mb"] = rss;
    return r;
  }

  // Traced segment on a fresh instance; for the sharded queue the backends
  // are wrapped in TimedBackend so backend time is a child span.
  auto& pm = r.metrics;
  SpanSink backend_sink(kThreads);
  std::vector<TimedBackend<NP, LockfreeSkipListPq<NP>>*> backends;
  PqAdapter<NP, ShardedPq<NP>>* sharded = nullptr;
  const bool hold = std::strcmp(s.name, "hold-sharded-native") == 0;
  std::function<std::unique_ptr<IPriorityQueue<NP>>(u64)> traced_make;
  if (hold) {
    traced_make = [&](u64 seed) {
      typename ShardedPq<NP>::BackendFactory factory = [&](const PqParams& bp) {
        auto b = std::make_unique<TimedBackend<NP, LockfreeSkipListPq<NP>>>(bp, backend_sink);
        backends.push_back(b.get());
        return std::unique_ptr<IPriorityQueue<NP>>(std::move(b));
      };
      auto q = std::make_unique<PqAdapter<NP, ShardedPq<NP>>>(hold_params(seed), factory);
      sharded = q.get();
      return std::unique_ptr<IPriorityQueue<NP>>(std::move(q));
    };
  }
  double traced_setup = 0;
  Instance tr = setup(s, a.seed, traced_setup, traced_make);
  const u64 prefill_calls = backend_sink.calls();
  const u64 prefill_ticks = backend_sink.total_ticks();
  std::vector<double> delegated;
  const Segment tseg = measure(s, tr, a.seed, warm, main_s, [&] {
    if (!sharded) return;
    u32 d = 0;
    const auto st = sharded->impl().stats();
    for (const ShardStats& x : st) d += x.delegated ? 1 : 0;
    delegated.push_back(static_cast<double>(d) / st.size());
  });
  const IntervalStats tall = merge_intervals(tr).all;
  const u64 ins_calls = tall.ins_calls, ins_ticks = tall.ins_ticks;
  const u64 del_calls = tall.del_calls, del_ticks = tall.del_ticks;
  u64 shorts = 0, bdel = 0, steps = 0;
  for (const auto& w : tr.workers) {
    shorts += w->short_batches;
    bdel += w->batch_deletes;
    steps += w->seq;
  }
  const double mean_ins = ins_calls ? ins_ticks * nspt / ins_calls : 0.0;
  const double mean_del = del_calls ? del_ticks * nspt / del_calls : 0.0;
  if (hold) {
    pm["pq.insert_ns_mean"] = mean_ins;
    pm["pq.delete_ns_mean"] = mean_del;
    // Backend spans cover the whole segment (warm-up too), so relate them
    // to every sharded call the workers made, not just the measured ones.
    const double all_calls = 2.0 * static_cast<double>(steps);
    const double b_calls = static_cast<double>(backend_sink.calls() - prefill_calls);
    const double b_ticks = static_cast<double>(backend_sink.total_ticks() - prefill_ticks);
    const double outer_ns_per_call = (mean_ins * ins_calls + mean_del * del_calls) /
                                     static_cast<double>(ins_calls + del_calls);
    pm["shard.backend_calls_per_op"] = b_calls / all_calls;
    pm["lfskiplist.ns_per_call"] = b_ticks * nspt / b_calls;
    pm["shard.self_ns_per_op"] = outer_ns_per_call - b_ticks * nspt / all_calls;
    pm["shard.delegate_frac"] = median(delegated);
    const auto st = sharded->impl().stats();
    double mx = 0, sum = 0;
    for (const ShardStats& x : st) {
      mx = std::max(mx, static_cast<double>(x.ops));
      sum += static_cast<double>(x.ops);
    }
    pm["shard.ops_max_over_mean"] = mx / (sum / st.size());
    reclaim::DomainStats rs;
    for (auto* b : backends) {
      const reclaim::DomainStats d = b->impl().reclaim_stats();
      rs.retired += d.retired;
      rs.reclaimed += d.reclaimed;
      rs.in_limbo += d.in_limbo;
    }
    pm["reclaim.retired_per_op"] = static_cast<double>(rs.retired) / all_calls;
    pm["reclaim.reclaimed_frac"] =
        rs.retired ? static_cast<double>(rs.reclaimed) / static_cast<double>(rs.retired) : 0.0;
    pm["reclaim.limbo_end"] = static_cast<double>(rs.in_limbo);
  } else {
    pm["pq.insert_batch_ns_mean"] = mean_ins;
    pm["pq.delete_batch_ns_mean"] = mean_del;
    pm["pq.batch_short_frac"] = bdel ? static_cast<double>(shorts) / bdel : 0.0;
  }
  drain_and_check(s, tr, a.seed, r);
  pm["trace.overhead_frac"] = median(seg.interval_mops) / median(tseg.interval_mops) - 1.0;
  if (!hold) batch_layer_drives(a.seed, nspt, 0.5, pm);
  if (!a.trace_out.empty()) {
    std::ofstream f(a.trace_out);
    f << "# layer,metric,value\n";
    for (const auto& [k, v] : pm) f << k << ',' << v << '\n';
  }
  return r;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::stoull(v);
    else if (k == "--seconds")
      a.seconds = std::stod(v);
    else if (k == "--trace")
      a.trace = v == "1";
    else if (k == "--trace-out")
      a.trace_out = v;
    else
      throw std::invalid_argument("unknown option " + k);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    Result r;
    if (a.workload == "paper-ft-sim256")
      r = run_sim(a);
    else if (a.workload == "hold-sharded-native")
      r = run_native(hold_spec(), a);
    else if (a.workload == "batch16-ft-agg-native")
      r = run_native(batch_spec(), a);
    else
      throw std::invalid_argument("unknown workload '" + a.workload + "'");
    print_result(r, a.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pqbench: %s\n", e.what());
    return 2;
  }
}
