// Litmus scenarios for the DPOR model checker (ISSUE 10), shared between
// tests/test_dpor.cpp (unmutated builds must explore to completion with
// zero oracle violations) and tests/test_dpor_corpus.cpp (the same configs
// compiled with one FPQ_SEEDED_BUG_* mutation each must produce a
// counterexample). Keeping both sides on literally the same scenario
// functions is the point: a mutation is "found" only relative to a config
// that is provably clean without it.
//
// Every scenario runs with the race detector attached and folds the full
// component-level oracle stack into the explore_all callback: detector
// findings (races, lock-order cycles), conservation of the produced
// values, and mutual exclusion where a lock is involved. Deadlocks are
// reported by the driver itself.
#pragma once

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "container/reactive_counter.hpp"
#include "funnel/counter.hpp"
#include "funnel/stack.hpp"
#include "platform/sim.hpp"
#include "reclaim/hazard.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sync/mcs_lock.hpp"

namespace fpq::dpor_litmus {

/// Machine for every litmus: default timing, exhaustive policy, detector
/// attached (the detector is an oracle here, never a pruning relation).
inline sim::MachineParams litmus_machine() {
  sim::MachineParams m;
  m.sched.policy = sim::SchedulePolicy::kExhaustive;
  m.race_detect = true;
  return m;
}

/// Smallest funnel that still runs the full collision protocol: one
/// single-slot layer, no adaptive fast path (it would bypass the funnel),
/// short capture spins to keep slice counts litmus-sized.
inline FunnelParams litmus_funnel(FunnelProtocol proto) {
  FunnelParams p;
  p.protocol = proto;
  p.levels = 1;
  p.width[0] = 1;
  p.attempts = 1;
  p.spin[0] = 2;
  p.adaptive = false;
  p.agg_wait = 64; // adaptive close: idle limit clamps to 8 beats
  return p;
}

/// Detector oracle shared by all scenarios; empty string = clean.
inline std::string detector_findings(sim::Engine& eng) {
  sim::RaceDetector* det = eng.race_detector();
  if (det == nullptr) return {};
  std::ostringstream os;
  if (det->race_count() > 0) {
    os << det->race_count() << " undeclared-ordering race(s); first: "
       << to_string(det->races().front());
    return os.str();
  }
  if (det->inversion_count() > 0) {
    os << det->inversion_count() << " lock-order inversion(s); first: "
       << to_string(det->lock_inversions().front());
    return os.str();
  }
  return {};
}

/// FunnelCounter fetch-and-increment: `nprocs` processors, `ops` fai each.
/// Oracles: every ticket 0..nprocs*ops-1 handed out exactly once, final
/// value conserved, detector clean.
inline sim::ExploreOutcome explore_funnel_counter(FunnelProtocol proto, u32 nprocs, u32 ops,
                                                  const sim::ExploreParams& ep = {}) {
  using Cfg = FunnelCounter<SimPlatform>::Config;
  return sim::explore_all(
      nprocs, litmus_machine(), /*seed=*/1, ep,
      [&](sim::Engine& eng, std::string& diag) {
        FunnelCounter<SimPlatform> c(nprocs, litmus_funnel(proto), Cfg{false, false, 0}, 0);
        std::vector<std::vector<i64>> tickets(nprocs);
        eng.run([&](ProcId id) {
          for (u32 i = 0; i < ops; ++i) tickets[id].push_back(c.fai());
        });
        if (eng.explorer()->deadlocked()) return false;
        diag = detector_findings(eng);
        if (!diag.empty()) return false;
        std::set<i64> seen;
        for (const auto& v : tickets)
          for (i64 t : v) {
            if (t < 0 || t >= i64{nprocs} * ops || !seen.insert(t).second) {
              diag = "fai ticket " + std::to_string(t) + " out of range or duplicated";
              return false;
            }
          }
        if (c.read() != i64{nprocs} * ops) {
          diag = "final value " + std::to_string(c.read()) + " != " +
                 std::to_string(i64{nprocs} * ops);
          return false;
        }
        return true;
      });
}

/// Bounded FunnelCounter (floor 0, elimination on): processor 0 runs one
/// fai() against processor 1's one bfad(0) — the BFaD shape FunnelTree
/// runs, and the only litmus whose opposite-direction collisions reach
/// the counter's elimination paths. Oracles: the two results and the final
/// value are those of one sequential order — fai first (fai 0, bfad 1,
/// final 0) or bfad first at the floor (bfad 0, fai 0, final 1) — and the
/// detector is clean.
inline sim::ExploreOutcome explore_bounded_counter(FunnelProtocol proto,
                                                   const sim::ExploreParams& ep = {}) {
  using Cfg = FunnelCounter<SimPlatform>::Config;
  return sim::explore_all(
      2, litmus_machine(), /*seed=*/1, ep, [&](sim::Engine& eng, std::string& diag) {
        FunnelCounter<SimPlatform> c(2, litmus_funnel(proto), Cfg{true, true, 0}, 0);
        i64 inc = -1;
        i64 dec = -1;
        eng.run([&](ProcId id) {
          if (id == 0)
            inc = c.fai();
          else
            dec = c.bfad(0);
        });
        if (eng.explorer()->deadlocked()) return false;
        diag = detector_findings(eng);
        if (!diag.empty()) return false;
        const i64 fin = c.read();
        const bool fai_first = inc == 0 && dec == 1 && fin == 0;
        const bool bfad_first = inc == 0 && dec == 0 && fin == 1;
        if (!fai_first && !bfad_first) {
          diag = "no sequential order explains fai=" + std::to_string(inc) +
                 " bfad=" + std::to_string(dec) + " final=" + std::to_string(fin);
          return false;
        }
        return true;
      });
}

/// FunnelStack: each processor pushes one distinct value then pops once;
/// processor 0 drains in a second (quiescent) run. Oracles: conservation
/// as multisets, detector clean.
inline sim::ExploreOutcome explore_funnel_stack(u32 nprocs, const sim::ExploreParams& ep = {}) {
  return sim::explore_all(
      nprocs, litmus_machine(), /*seed=*/1, ep,
      [&](sim::Engine& eng, std::string& diag) {
        FunnelStack<SimPlatform> st(nprocs, litmus_funnel(FunnelProtocol::kExchange), 64);
        std::vector<std::vector<u64>> popped(nprocs);
        eng.run([&](ProcId id) {
          (void)st.push(id + 1);
          if (auto v = st.pop()) popped[id].push_back(*v);
        });
        if (eng.explorer()->deadlocked()) return false;
        std::vector<u64> drained;
        eng.run([&](ProcId id) {
          if (id != 0) return;
          while (auto v = st.pop()) drained.push_back(*v);
        });
        if (eng.explorer()->deadlocked()) return false;
        diag = detector_findings(eng);
        if (!diag.empty()) return false;
        std::vector<u64> out = drained;
        for (const auto& v : popped) out.insert(out.end(), v.begin(), v.end());
        std::vector<u64> want;
        for (u32 i = 0; i < nprocs; ++i) want.push_back(i + 1);
        std::sort(out.begin(), out.end());
        if (out != want) {
          diag = "conservation violated: " + std::to_string(out.size()) + " values came back";
          return false;
        }
        return true;
      });
}

/// FunnelStack under the aggregate protocol: processor 0 pushes two
/// distinct values, processor 1 pops once, and processor 0 drains in a
/// second (quiescent) run. Oracles: conservation as multisets, detector
/// clean. (The exchange litmus's push-then-pop-per-processor shape is
/// roughly 60x larger under aggregation.)
inline sim::ExploreOutcome explore_funnel_stack_aggregate(const sim::ExploreParams& ep = {}) {
  return sim::explore_all(
      2, litmus_machine(), /*seed=*/1, ep, [&](sim::Engine& eng, std::string& diag) {
        FunnelStack<SimPlatform> st(2, litmus_funnel(FunnelProtocol::kAggregate), 64);
        std::vector<u64> out;
        eng.run([&](ProcId id) {
          if (id == 0) {
            (void)st.push(1);
            (void)st.push(2);
          } else if (auto v = st.pop()) {
            out.push_back(*v);
          }
        });
        if (eng.explorer()->deadlocked()) return false;
        eng.run([&](ProcId id) {
          if (id != 0) return;
          while (auto v = st.pop()) out.push_back(*v);
        });
        if (eng.explorer()->deadlocked()) return false;
        diag = detector_findings(eng);
        if (!diag.empty()) return false;
        std::sort(out.begin(), out.end());
        if (out != std::vector<u64>{1, 2}) {
          diag = "conservation violated: " + std::to_string(out.size()) + " values came back";
          return false;
        }
        return true;
      });
}

/// MCS lock handoff: `nprocs` processors each take the lock once and
/// increment a relaxed counter under it. Oracles: mutual exclusion (an
/// overlap flag raised inside the critical section), lost updates, and the
/// detector (the relaxed counter is ordered only by the lock's handoff
/// edges, so any handoff under-annotation would surface here).
inline sim::ExploreOutcome explore_mcs(u32 nprocs, const sim::ExploreParams& ep = {}) {
  return sim::explore_all(
      nprocs, litmus_machine(), /*seed=*/1, ep,
      [&](sim::Engine& eng, std::string& diag) {
        McsLock<SimPlatform> lock(nprocs);
        SimShared<u64> counter{0};
        SimShared<u64> in_cs{0};
        bool overlap = false;
        eng.run([&](ProcId) {
          McsGuard<SimPlatform> g(lock);
          if (in_cs.fetch_add(1) != 0) overlap = true;
          counter.store_relaxed(counter.load_relaxed() + 1);
          in_cs.fetch_sub(1);
        });
        if (eng.explorer()->deadlocked()) return false;
        if (overlap) {
          diag = "mutual exclusion violated: two fibers inside the critical section";
          return false;
        }
        diag = detector_findings(eng);
        if (!diag.empty()) return false;
        if (counter.load_relaxed() != nprocs) {
          diag = "lost update: counter " + std::to_string(counter.load_relaxed()) +
                 " != " + std::to_string(nprocs);
          return false;
        }
        return true;
      });
}

/// ReactiveCounter mode-switch handshake: high_wait=0 and up_streak=1
/// force the first completed MCS op to switch representations, so a
/// 2-processor fai pair drives the announce/recheck vs CAS/probe protocol
/// concurrently with an op in flight — the exact shape of the PR 3
/// store-buffering race (FPQ_SEEDED_BUG_REACTIVE_SB). Oracles: detector
/// clean, value conserved.
inline sim::ExploreOutcome explore_reactive(u32 nprocs, u32 ops,
                                            const sim::ExploreParams& ep = {}) {
  using Tuning = ReactiveCounter<SimPlatform>::Tuning;
  return sim::explore_all(
      nprocs, litmus_machine(), /*seed=*/1, ep,
      [&](sim::Engine& eng, std::string& diag) {
        ReactiveCounter<SimPlatform> c(nprocs, litmus_funnel(FunnelProtocol::kExchange),
                                       /*floor=*/-1000, /*initial=*/0,
                                       Tuning{/*high_wait=*/0, /*up_streak=*/1,
                                              /*down_streak=*/1000});
        eng.run([&](ProcId) {
          for (u32 i = 0; i < ops; ++i) (void)c.fai();
        });
        if (eng.explorer()->deadlocked()) return false;
        diag = detector_findings(eng);
        if (!diag.empty()) return false;
        if (c.read() != i64{nprocs} * ops) {
          diag = "final value " + std::to_string(c.read()) + " != " +
                 std::to_string(i64{nprocs} * ops);
          return false;
        }
        return true;
      });
}

/// Hazard-pointer protect/scan handshake, on the domain directly: p0
/// protects a stable source word while p1 retires enough to force scans
/// (threshold 1). The protect publish/validate vs scan read is the
/// store-buffering pair FPQ_SEEDED_BUG_HP_RELAXED under-annotates.
/// Oracles: detector clean (nothing else is observable — the retired
/// pointer is synthetic and its deleter a no-op).
inline sim::ExploreOutcome explore_hazard(const sim::ExploreParams& ep = {}) {
  return sim::explore_all(
      2, litmus_machine(), /*seed=*/1, ep, [&](sim::Engine& eng, std::string& diag) {
        reclaim::Domain<SimPlatform> dom(/*maxprocs=*/2,
                                         {.slots_per_proc = 1, .scan_threshold = 1});
        SimShared<u64> src{0x1000};
        alignas(8) static char dummy[8]; // address payload only; never freed
        eng.run([&](ProcId id) {
          if (id == 0) {
            (void)dom.protect(0, 0, src);
            dom.clear(0, 0);
          } else {
            dom.retire(1, static_cast<void*>(dummy), [](void*) {});
          }
        });
        if (eng.explorer()->deadlocked()) return false;
        diag = detector_findings(eng);
        return diag.empty();
      });
}

} // namespace fpq::dpor_litmus
