// The paper's benchmark workload (§4): each processor alternates between a
// small constant amount of local work and an access to the priority queue;
// the access is an insert of a random value or a delete-min, chosen by an
// unbiased coin flip (the mix is parameterizable for Fig. 5's sweeps). The
// queue starts empty. Latency is the time of the access itself.
#pragma once

#include <functional>
#include <vector>

#include "common/assert.hpp"
#include "common/padded.hpp"
#include "common/types.hpp"
#include "bench_support/histogram.hpp"
#include "bench_support/stats.hpp"
#include "pq/pq.hpp"

namespace fpq {

struct WorkloadParams {
  u32 nprocs = 8;
  u32 ops_per_proc = 200;
  /// Local work between accesses ("kept at a small constant", §4).
  Cycles local_work = 200;
  /// Percentage of accesses that are inserts (50 = the paper's coin flip).
  u32 insert_pct = 50;
  u64 seed = 42;
};

/// Per-operation stats of one workload run: counts and cycle sums plus
/// latency distributions (means hide the convoys this paper is about, so
/// the tail benches report percentiles from these).
struct DetailedStats {
  OpStats ops;
  LatencyHistogram all;
  LatencyHistogram insert;
  LatencyHistogram del;

  /// One access of `dt` cycles; `found` is false for an empty delete.
  void record(bool is_insert, bool found, Cycles dt) {
    all.record(dt);
    if (is_insert) {
      ++ops.inserts;
      ops.insert_cycles += dt;
      insert.record(dt);
    } else {
      ++ops.deletes;
      ops.delete_cycles += dt;
      if (!found) ++ops.empty_deletes;
      del.record(dt);
    }
  }

  DetailedStats& operator+=(const DetailedStats& o) {
    ops += o.ops;
    all.merge(o.all);
    insert.merge(o.insert);
    del.merge(o.del);
    return *this;
  }
};

/// Sum of the per-processor stats one workload run wrote.
inline DetailedStats merged(const std::vector<Padded<DetailedStats>>& per_proc) {
  DetailedStats total;
  for (const auto& s : per_proc) total += *s;
  return total;
}

/// The per-processor loop of the paper's workload, writing into
/// `per_proc[id]`: local work, then one timed `access(id, i, is_insert)`,
/// which returns false for a delete that found nothing.
template <Platform P, class Access>
std::function<void(ProcId)> workload_body(const WorkloadParams& w,
                                          std::vector<Padded<DetailedStats>>& per_proc,
                                          Access access) {
  FPQ_ASSERT(w.insert_pct <= 100);
  FPQ_ASSERT(per_proc.size() >= w.nprocs);
  return [w, &per_proc, access](ProcId id) {
    DetailedStats& r = *per_proc[id];
    for (u32 i = 0; i < w.ops_per_proc; ++i) {
      P::delay(w.local_work);
      const bool is_insert = P::rnd(100) < w.insert_pct;
      const Cycles t0 = P::now();
      const bool found = access(id, i, is_insert);
      r.record(is_insert, found, P::now() - t0);
    }
  };
}

/// workload_body driving `pq`: an insert of a random priority or a
/// delete-min. Exposed so callers can run it on a custom simulator engine
/// (see examples/alewife_repro.cpp).
template <Platform P>
std::function<void(ProcId)> pq_workload_body(IPriorityQueue<P>& pq,
                                             const WorkloadParams& w,
                                             std::vector<Padded<DetailedStats>>& per_proc) {
  const u32 npri = pq.npriorities();
  return workload_body<P>(w, per_proc, [&pq, npri](ProcId id, u32 i, bool is_insert) {
    if (!is_insert) return pq.delete_min().has_value();
    const bool ok =
        pq.insert(static_cast<Prio>(P::rnd(npri)), (static_cast<u64>(id) << 24) | i);
    FPQ_ASSERT_MSG(ok, "queue capacity exhausted; enlarge bin_capacity");
    return true;
  });
}

/// Drives `pq` with the paper's workload on P and returns merged stats.
/// `run_args` follow the seed into P::run (SimPlatform: the machine).
template <Platform P, class... RunArgs>
DetailedStats run_pq_workload(IPriorityQueue<P>& pq, const WorkloadParams& w,
                              const RunArgs&... run_args) {
  std::vector<Padded<DetailedStats>> per_proc(w.nprocs);
  P::run(w.nprocs, pq_workload_body<P>(pq, w, per_proc), w.seed, run_args...);
  return merged(per_proc);
}

/// Counter workload for Fig. 5: `op(is_increment)` performs one counter
/// operation; the mix (insert_pct = increments) and cadence match the
/// queue workload.
template <Platform P>
OpStats run_counter_workload(const std::function<void(bool)>& op, const WorkloadParams& w) {
  std::vector<Padded<DetailedStats>> per_proc(w.nprocs);
  P::run(w.nprocs, workload_body<P>(w, per_proc, [&op](ProcId, u32, bool inc) {
           op(inc);
           return true;
         }),
         w.seed);
  return merged(per_proc).ops;
}

} // namespace fpq
