#include "verify/liveness.hpp"

#include <ostream>
#include <sstream>
#include <string>

#include "pq/pq.hpp"

namespace fpq::verify {

namespace {

bool perm_down_event(const sim::FaultEvent& e) {
  return e.kind == sim::FaultKind::kCrash ||
         (e.kind == sim::FaultKind::kStall && e.count == 0);
}

bool targeted(const sim::FaultPlan& plan, ProcId p) {
  for (const sim::FaultEvent& e : plan.events)
    if (e.proc == p && perm_down_event(e)) return true;
  return false;
}

} // namespace

LivenessResult run_liveness(const LivenessSpec& spec) {
  PqParams params{.npriorities = spec.npriorities, .maxprocs = spec.nprocs,
                  .bin_capacity = 1u << 13};
  params.seed = spec.seed;
  if (spec.algo == Algorithm::kSharded) {
    // The composite's declared kBlocking guarantee comes from exactly one
    // window: a client spinning behind a crashed combiner that holds a
    // shard's server lock (pq/sharded_pq.hpp delegation protocol). The
    // default adaptive policy starts every shard in direct mode — lock-free
    // paths only — so classification must pin the delegation configuration;
    // one shard funnels every survivor onto the victim's lock.
    params.shard = ShardConfig{1, 0, ShardPolicyKind::kDelegate};
  }
  auto pq = make_priority_queue<SimPlatform>(spec.algo, params, FunnelOptions{});

  sim::Engine eng(spec.nprocs, sim::MachineParams{}, spec.seed);
  sim::FaultPlan plan = spec.faults;
  plan.watchdog_budget = spec.watchdog;
  eng.set_fault_plan(std::move(plan));

  std::vector<u64> completed(spec.nprocs, 0);
  eng.run([&](ProcId id) {
    for (u32 i = 0; i < spec.ops_per_proc; ++i) {
      SimPlatform::heartbeat(); // op boundary: resets the watchdog budget
      if (SimPlatform::rnd(100) < spec.insert_percent) {
        pq->insert(static_cast<Prio>(SimPlatform::rnd(spec.npriorities)),
                   (static_cast<u64>(id) << 20) | i);
      } else {
        Entry e;
        (void)pq->try_delete_min(e, TryBudget{}); // bounded: see note below
      }
      ++completed[id];
    }
  });
  // Why try_delete_min above: a *blocking* delete_min can wait inside a
  // funnel on a partner's progress; the classification must measure
  // blocking on the *dead processor's locks*, not on partner hand-offs.
  // The bounded variant returns kTimeout/kEmpty instead, while still
  // walking the same locked hot path (native try implementations) or full
  // blocking attempts (fallback), so a dead lock holder still manifests
  // as kBlocked/kWedged.

  LivenessResult r;
  r.spec = spec;
  r.report = eng.fault_report();
  r.completed = completed;
  for (ProcId p = 0; p < spec.nprocs; ++p) {
    if (targeted(spec.faults, p)) continue;
    ++r.survivors;
    if (r.report.outcomes[p] == sim::ProcOutcome::kCompleted)
      ++r.survivors_completed;
    else
      ++r.survivors_blocked; // kBlocked or kWedged: detected, not hung
  }
  r.observed = (r.survivors > 0 && r.survivors_blocked == 0)
                   ? ProgressGuarantee::kLockFree
                   : ProgressGuarantee::kBlocking;

  // Sweep reclamation state onto a live processor so the queue's domain
  // destructs cleanly (stale hazards of downed fibers).
  ProcId adopter = 0;
  while (adopter < spec.nprocs &&
         r.report.outcomes[adopter] != sim::ProcOutcome::kCompleted)
    ++adopter;
  if (adopter < spec.nprocs) {
    for (ProcId p = 0; p < spec.nprocs; ++p)
      if (p != adopter) pq->adopt_orphans(p, adopter);
  }
  return r;
}

std::vector<LivenessRow> run_liveness_battery(const LivenessBatteryOptions& opt,
                                              std::ostream* progress) {
  const std::vector<Algorithm>& algos =
      opt.algorithms.empty() ? all_algorithms() : opt.algorithms;
  // One victim, downed at several depths into the run, by both mechanisms.
  // Ordinals are access counts: tens of operations in, so the victim dies
  // mid-structure — holding whatever lock its op was in — rather than at a
  // quiescent boundary. Access patterns are deterministic (fixed seed), so
  // the ordinals are chosen to land inside a critical section for most
  // lock-based queues somewhere across the list: a queue's lock windows are
  // often narrow and periodic (a round-number sweep can miss them all), so
  // the list mixes depths and off-cycle ordinals. Every queue runs all of
  // them; lock-free queues must survive each one.
  const char* plans[] = {"crash@p1a100", "crash@p1a121", "crash@p1a200",
                         "crash@p1a212", "crash@p1a350", "crash@p1a500",
                         "crash@p1a1500", "stall@p1a250", "stall@p1a900"};

  // A declared-blocking queue none of the fixed plans caught gets a
  // deterministic crash-ordinal sweep that stops at the first plan that
  // blocks: whether a hand-picked ordinal lands inside a lock window
  // depends on the queue's exact access cadence, which any change to the
  // queue (or to a backend it composes) shifts.
  constexpr u64 kSweepFirst = 50, kSweepLast = 1997, kSweepStep = 3;

  std::vector<LivenessRow> rows;
  for (Algorithm algo : algos) {
    LivenessRow row;
    row.algo = algo;
    row.declared = progress_guarantee(algo);
    row.all_survivors_completed = true;
    row.observed_blocking = false;
    auto run_plan = [&](const std::string& plan) {
      LivenessSpec spec;
      spec.algo = algo;
      spec.seed = opt.seed;
      spec.nprocs = opt.nprocs;
      spec.ops_per_proc = opt.ops_per_proc;
      spec.faults = sim::fault_plan_from_string(plan);
      const LivenessResult r = run_liveness(spec);
      if (r.survivors_completed < r.survivors) row.all_survivors_completed = false;
      if (r.survivors_blocked > 0) row.observed_blocking = true;
      if (progress) {
        *progress << to_string(algo) << " under " << plan << ": "
                  << r.survivors_completed << "/" << r.survivors
                  << " survivors completed, " << r.survivors_blocked
                  << " detected blocked\n";
      }
    };
    for (const char* plan : plans) run_plan(plan);
    if (row.declared == ProgressGuarantee::kBlocking) {
      for (u64 a = kSweepFirst; a <= kSweepLast && !row.observed_blocking; a += kSweepStep)
        run_plan("crash@p1a" + std::to_string(a));
    }
    // A declared-lock-free queue must shrug off every plan. A declared-
    // blocking queue passes by terminating with detection (structural by
    // this point — a hang would have kept run_liveness from returning);
    // whether a given plan actually collided with its locks is workload
    // luck, so observed_blocking is reported but not required.
    row.ok = row.declared == ProgressGuarantee::kLockFree
                 ? row.all_survivors_completed
                 : true;
    rows.push_back(row);
  }
  return rows;
}

std::string format_liveness_table(const std::vector<LivenessRow>& rows) {
  std::ostringstream os;
  os << "progress-guarantee table (declared vs observed under crash/stall plans)\n";
  os << "  algorithm          declared   survivors-completed  observed-blocking  verdict\n";
  for (const LivenessRow& r : rows) {
    std::string name(to_string(r.algo));
    name.resize(19, ' ');
    std::string decl(to_string(r.declared));
    decl.resize(11, ' ');
    os << "  " << name << decl << (r.all_survivors_completed ? "yes" : "no ")
       << "                  " << (r.observed_blocking ? "yes" : "no ")
       << "                " << (r.ok ? "ok" : "MISMATCH") << "\n";
  }
  return os.str();
}

} // namespace fpq::verify
