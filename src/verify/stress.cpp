#include "verify/stress.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"
#include "verify/linearizability.hpp"
#include "verify/quiescent.hpp"
#include "verify/rank_error.hpp"

namespace fpq::verify {

namespace {

/// The Wing-Gong checker is exhaustive; histories beyond this are skipped
/// even when a spec asks for the linearizability gate (see checker header).
constexpr std::size_t kMaxLinOps = 24;

ShardConfig shard_config(const StressSpec& spec) {
  return ShardConfig{spec.shards, spec.sample_c, spec.shard_mode};
}

/// True when the sharded composite's delete-min samples every shard, so
/// its c-of-k relaxation has no room to act.
bool samples_every_shard(const StressSpec& spec) {
  const ShardConfig cfg = shard_config(spec);
  const u32 k = cfg.effective_shards(spec.nprocs);
  return cfg.effective_sample(k) == k;
}

ScenarioChecks checks_for(const StressSpec& spec) {
  ScenarioChecks c;
  // SkipList's stale delete-bin may legally exceed the Appendix-B rank
  // bound (see skiplist_pq.hpp); conservation still gates it. The sharded
  // composite relaxes delete-min by design — it trades the rank bound for
  // the rank-error metric, and its solo drain comes out sorted only when
  // the c-of-k sample covers every shard.
  c.quiescent_rank = spec.algo != Algorithm::kSkipList && spec.algo != Algorithm::kSharded;
  c.drain_sorted = c.quiescent_rank;
  if (spec.algo == Algorithm::kSharded) {
    // A concurrent mixed phase may leave a shard's stash above its
    // backend head (sharded_pq.hpp's stash-invariant note) and that
    // perturbation legally persists into the solo drain, so the sorted-
    // drain guarantee only exists for sequential exact-mode histories.
    c.drain_sorted = samples_every_shard(spec) && spec.nprocs == 1;
    c.rank_error = true;
  }
  c.linearizability = spec.check_lin;
  return c;
}

QueueFactory registry_factory(const StressSpec& spec) {
  const Algorithm algo = spec.algo;
  FunnelOptions opts;
  opts.protocol = spec.funnel;
  return [algo, opts](const PqParams& params) {
    return make_priority_queue<SimPlatform>(algo, params, opts);
  };
}

void dump_trace(std::ostream& os, const History& h) {
  for (const OpRecord& op : h) {
    os << "    p" << op.proc << " ";
    if (op.kind == OpRecord::Kind::kInsert)
      os << "ins(" << op.entry.prio << "," << op.entry.item << ")";
    else if (op.result_present)
      os << "del->(" << op.entry.prio << "," << op.entry.item << ")";
    else
      os << "del->empty";
    os << " [" << op.invoked << "," << op.responded << "]\n";
  }
}

} // namespace

sim::MachineParams StressSpec::machine() const {
  sim::MachineParams m;
  m.sched.policy = policy;
  m.sched.perturb_permille = perturb_permille;
  m.sched.max_delay = max_delay;
  m.sched.access_jitter = access_jitter;
  // The explorer owns the schedule outright; jitter would only desync the
  // recorded replay prefix from the engine's clocks.
  if (policy == sim::SchedulePolicy::kExhaustive) m.sched.access_jitter = 0;
  m.race_detect = race_detect;
  return m;
}

std::string to_line(const StressSpec& s) {
  std::ostringstream os;
  os << "algo=" << to_string(s.algo) << " policy=" << to_string(s.policy)
     << " seed=" << s.seed << " procs=" << s.nprocs << " ops=" << s.ops_per_proc
     << " nprio=" << s.npriorities << " ins=" << s.insert_percent
     << " permille=" << s.perturb_permille << " maxdelay=" << s.max_delay
     << " jitter=" << s.access_jitter << " batch=" << s.batch << " funnel=" << to_string(s.funnel);
  // Sharding keys only for the sharded composite, so every other
  // algorithm's replay lines stay byte-identical to what earlier versions
  // emitted.
  if (s.algo == Algorithm::kSharded)
    os << " shards=" << s.shards << " c=" << s.sample_c << " mode=" << to_string(s.shard_mode);
  os << " lin=" << (s.check_lin ? 1 : 0) << " race=" << (s.race_detect ? 1 : 0);
  // Fault keys only when non-default, so fault-free replay lines are
  // byte-identical to what earlier versions emitted.
  if (!s.faults.empty()) os << " faults=" << sim::to_string(s.faults);
  if (s.watchdog != 0) os << " watchdog=" << s.watchdog;
  // Exploration keys only for the exhaustive policy, so every randomized-
  // policy replay line stays byte-identical to what earlier versions
  // emitted.
  if (s.policy == sim::SchedulePolicy::kExhaustive) {
    os << " preempt_bound=" << s.preempt_bound << " max_execs=" << s.max_execs;
    if (s.trace != 0) os << " trace=" << s.trace;
  }
  return os.str();
}

sim::SchedulePolicy policy_from_string(std::string_view name) {
  for (auto p : {sim::SchedulePolicy::kSmallestClock, sim::SchedulePolicy::kRandomPreempt,
                 sim::SchedulePolicy::kDelayLeader, sim::SchedulePolicy::kExhaustive}) {
    if (to_string(p) == name) return p;
  }
  throw std::invalid_argument("unknown schedule policy: " + std::string(name));
}

void set_spec_key(StressSpec& s, std::string_view key, const std::string& val) {
  const auto u32_val = [&val] { return static_cast<u32>(parse_whole(val, UINT32_MAX)); };
  try {
    if (key == "algo") {
      s.algo = algorithm_from_string(val);
    } else if (key == "policy" || key == "schedule") {
      // "schedule" mirrors the fpq_stress --schedule= flag.
      s.policy = policy_from_string(val);
    } else if (key == "seed") {
      s.seed = parse_whole(val);
    } else if (key == "procs") {
      s.nprocs = u32_val();
    } else if (key == "ops") {
      s.ops_per_proc = u32_val();
    } else if (key == "nprio") {
      s.npriorities = u32_val();
    } else if (key == "ins") {
      s.insert_percent = u32_val();
    } else if (key == "permille") {
      s.perturb_permille = u32_val();
    } else if (key == "maxdelay") {
      s.max_delay = parse_whole(val);
    } else if (key == "jitter") {
      s.access_jitter = parse_whole(val);
    } else if (key == "batch") {
      s.batch = u32_val();
    } else if (key == "funnel") {
      if (!funnel_protocol_from_string(val, s.funnel))
        throw std::invalid_argument("unknown funnel protocol: " + val);
    } else if (key == "shards") {
      s.shards = u32_val();
    } else if (key == "c") {
      s.sample_c = u32_val();
    } else if (key == "mode") {
      if (!shard_policy_from_string(val, s.shard_mode))
        throw std::invalid_argument("unknown shard policy: " + val);
    } else if (key == "lin") {
      s.check_lin = val != "0";
    } else if (key == "race") {
      s.race_detect = val != "0";
    } else if (key == "faults") {
      s.faults = sim::fault_plan_from_string(val);
    } else if (key == "watchdog") {
      s.watchdog = parse_whole(val);
    } else if (key == "preempt_bound") {
      s.preempt_bound = u32_val();
    } else if (key == "max_execs") {
      s.max_execs = parse_whole(val);
    } else if (key == "trace") {
      s.trace = parse_whole(val);
    } else {
      throw std::invalid_argument("unknown stress spec key: " + std::string(key));
    }
  } catch (const std::logic_error& e) {
    // Name the offending token, not just what was wrong with it.
    throw std::invalid_argument("bad stress spec token '" + std::string(key) + "=" + val +
                                "': " + e.what());
  }
}

void validate(const StressSpec& s) {
  if (s.nprocs < 1 || s.ops_per_proc < 1 || s.npriorities < 1 || s.batch < 1 ||
      s.insert_percent > 100)
    throw std::invalid_argument(
        "stress spec needs procs, ops, nprio and batch >= 1 and ins <= 100");
}

StressSpec spec_from_line(const std::string& line) {
  StressSpec s;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("stress spec token without '=': " + tok);
    set_spec_key(s, std::string_view(tok).substr(0, eq), tok.substr(eq + 1));
  }
  validate(s);
  return s;
}

std::string format_failure(const StressFailure& f) {
  std::ostringstream os;
  const sim::MachineParams m = f.spec.machine();
  os << "stress: FAILED [" << f.kind << "] " << to_string(f.spec.algo) << " under "
     << to_string(f.spec.policy) << " (seed " << f.spec.seed << ")\n"
     << "  " << f.diagnostic << "\n"
     << "  replay: " << to_line(f.spec) << "\n"
     << "  machine: t_hit=" << m.t_hit << " t_mem=" << m.t_mem << " t_occ=" << m.t_occ
     << " t_net_base=" << m.t_net_base << " t_hop=" << m.t_hop
     << " t_dirty_fetch=" << m.t_dirty_fetch << " t_inv_base=" << m.t_inv_base
     << " t_inv_per_sharer=" << m.t_inv_per_sharer << " t_pause=" << m.t_pause << "\n"
     << "  trace (mixed phase, then quiescent drain by p0):\n";
  dump_trace(os, f.trace);
  return os.str();
}

namespace {

/// One deterministic execution of the scenario: fresh queue, fresh engine,
/// mixed phase + quiescent drain, full oracle stack. With `explorer` set
/// this is one execution of an exhaustive exploration (the engine hands it
/// every scheduling decision); the caller owns the begin/end bracketing.
std::optional<StressFailure> run_one_execution(const QueueFactory& make,
                                               const StressSpec& spec,
                                               const ScenarioChecks& checks,
                                               sim::Explorer* explorer) {
  PqParams params{.npriorities = spec.npriorities, .maxprocs = spec.nprocs,
                  .bin_capacity = 1u << 13};
  params.seed = spec.seed;
  params.max_batch = spec.batch;
  params.shard = shard_config(spec);
  auto pq = make(params);
  HistoryRecorder rec(spec.nprocs);
  std::vector<std::vector<Entry>> ins(spec.nprocs), del(spec.nprocs);
  // Inserts a crashed processor may have half-applied: recorded *before*
  // the call so the faulted-run no-fabrication check has the full universe
  // of entries that could legally surface.
  std::vector<std::vector<Entry>> attempted(spec.nprocs);
  bool insert_refused = false;
  // Under an alloc-failure plan a refused insert is the injected failure
  // doing its job (a recorded no-op), not a sizing bug.
  bool alloc_plan = false;
  for (const sim::FaultEvent& e : spec.faults.events)
    alloc_plan |= e.kind == sim::FaultKind::kAllocFail;

  sim::Engine eng(spec.nprocs, spec.machine(), spec.seed);
  if (explorer != nullptr) eng.set_explorer(explorer);
  if (spec.faulted()) {
    sim::FaultPlan plan = spec.faults;
    plan.watchdog_budget = spec.watchdog;
    eng.set_fault_plan(std::move(plan));
  }
  auto fail = [&](std::string kind, std::string diagnostic) {
    return StressFailure{spec, std::move(kind), std::move(diagnostic), rec.merged()};
  };
  // A deadlocked schedule leaves fibers parked mid-operation: the queue's
  // internal state (held locks, reclamation limbo) is arbitrary and its
  // destructor may legitimately assert. Leak the queue on purpose — the
  // counterexample is worth more than the few litmus-sized allocations.
  auto deadlock_fail = [&]() {
    (void)pq.release();
    return fail("deadlock", "schedule deadlocks: live fibers with nothing enabled");
  };
  // Mixed phase: each processor's ops_per_proc operations are issued in
  // groups of up to spec.batch; batch == 1 calls the point operations.
  // Each batched element is recorded as one operation spanning the whole
  // batch's [invoke, response] window — per pq.hpp a batch IS a set of
  // concurrent point operations, so the shared window is the element's
  // real span. Conservation and the quiescent phase checks are
  // span-independent; the linearizability checker sees batch elements as
  // mutually concurrent, which is exactly the semantics the interface
  // promises.
  const bool point = spec.batch == 1;
  eng.run([&](ProcId id) {
    std::vector<Entry> buf(spec.batch);
    for (u32 i = 0; i < spec.ops_per_proc;) {
      SimPlatform::heartbeat(); // op boundary: feeds the fault watchdog
      SimPlatform::delay(SimPlatform::rnd(64));
      const u32 n = std::min(spec.batch, spec.ops_per_proc - i);
      const std::span<Entry> ops(buf.data(), n);
      if (SimPlatform::rnd(100) < spec.insert_percent) {
        for (u32 j = 0; j < n; ++j)
          ops[j] = Entry{static_cast<Prio>(SimPlatform::rnd(spec.npriorities)),
                         (static_cast<u64>(id) << 20) | (i + j)};
        attempted[id].insert(attempted[id].end(), ops.begin(), ops.end());
        const Cycles t0 = SimPlatform::now();
        const u32 landed = point ? u32{pq->insert(ops[0].prio, ops[0].item)}
                                 : pq->insert_batch(ops);
        const Cycles t1 = SimPlatform::now();
        if (landed == n) {
          for (const Entry& e : ops) {
            rec.record(OpRecord::insert_op(id, t0, t1, e));
            ins[id].push_back(e);
          }
        } else {
          // A refused point insert applied nothing. Which elements of a
          // refused batch landed is unknown, so they stay in `attempted`
          // for the faulted-run no-fabrication check.
          if (point) attempted[id].pop_back();
          if (!alloc_plan) {
            insert_refused = true;
            return;
          }
        }
      } else {
        const Cycles t0 = SimPlatform::now();
        u32 got;
        if (point) {
          const std::optional<Entry> e = pq->delete_min();
          if (e) ops[0] = *e;
          got = e ? 1 : 0;
        } else {
          got = pq->delete_min_batch(ops);
        }
        const Cycles t1 = SimPlatform::now();
        for (u32 j = 0; j < n; ++j) {
          const std::optional<Entry> e = j < got ? std::optional(ops[j]) : std::nullopt;
          rec.record(OpRecord::delete_op(id, t0, t1, e));
          if (e) del[id].push_back(*e);
        }
      }
      i += n;
    }
  });

  if (explorer != nullptr && explorer->deadlocked()) return deadlock_fail();
  if (insert_refused)
    return fail("capacity", "insert refused: bin/heap capacity exhausted (sizing bug)");

  // Quiescent drain; normally by processor 0, but under a fault plan by
  // the lowest processor the plan left able to run (a permanently-downed
  // processor never restarts, and a drain on a blocked one just parks).
  ProcId drainer = 0;
  if (spec.faulted()) {
    const auto& oc = eng.fault_report().outcomes;
    while (drainer < spec.nprocs && oc[drainer] != sim::ProcOutcome::kCompleted &&
           oc[drainer] != sim::ProcOutcome::kBlocked)
      ++drainer;
    if (drainer == spec.nprocs) drainer = 0; // everyone down: drain no-ops
  }
  std::vector<Entry> drained;
  eng.run([&](ProcId id) {
    if (id != drainer) return;
    for (;;) {
      SimPlatform::heartbeat();
      const Cycles t0 = SimPlatform::now();
      auto e = pq->delete_min();
      rec.record(OpRecord::delete_op(drainer, t0, SimPlatform::now(), e));
      if (!e) break;
      drained.push_back(*e);
    }
  });
  if (explorer != nullptr && explorer->deadlocked()) return deadlock_fail();

  if (spec.faulted()) {
    // Sweep every other processor's reclamation state onto the drainer:
    // downed processors can never clear their own hazards, and
    // without adoption the queue's domain destructor would assert on the
    // limbo their stale protections pin.
    for (ProcId p = 0; p < spec.nprocs; ++p)
      if (p != drainer) pq->adopt_orphans(p, drainer);
  }

  // Detector findings outrank the semantic checks: an undeclared-ordering
  // bug can make any of them fail downstream on native hardware.
  if (sim::RaceDetector* det = eng.race_detector()) {
    if (det->race_count() > 0) {
      std::ostringstream os;
      os << det->race_count() << " undeclared-ordering race(s); first:\n";
      for (const sim::RaceReport& r : det->races()) os << "    " << to_string(r) << "\n";
      return fail("race", os.str());
    }
    if (det->inversion_count() > 0) {
      std::ostringstream os;
      os << det->inversion_count() << " lock-order inversion(s):\n";
      for (const sim::LockOrderReport& r : det->lock_inversions())
        os << "    " << to_string(r) << "\n";
      return fail("lock-order", os.str());
    }
  }

  std::vector<Entry> inserted, deleted;
  for (const auto& v : ins) inserted.insert(inserted.end(), v.begin(), v.end());
  for (const auto& v : del) deleted.insert(deleted.end(), v.begin(), v.end());

  std::vector<Entry> out(deleted);
  out.insert(out.end(), drained.begin(), drained.end());

  if (spec.faulted()) {
    // A downed processor's in-flight op may legally half-apply (an insert
    // that committed before the crash surfaces later; a claimed-but-
    // unreported delete vanishes), so strict conservation is unverifiable.
    // What must still hold is no-fabrication: every entry that comes out
    // was attempted, and no entry comes out more often than it went in.
    std::map<std::pair<Prio, u64>, i64> budgeted;
    for (const auto& v : attempted)
      for (const Entry& e : v) ++budgeted[{e.prio, e.item}];
    for (const Entry& e : out) {
      if (--budgeted[{e.prio, e.item}] < 0) {
        std::ostringstream os;
        os << "fault run fabricated or duplicated entry (" << e.prio << "," << e.item
           << "): returned more often than it was ever inserted";
        return fail("fault-conservation", os.str());
      }
    }
    if (checks.drain_sorted) {
      const PhaseCheckResult dr = check_drain_sorted(drained);
      if (!dr.ok) return fail("drain-order", dr.diagnostic);
    }
    return std::nullopt; // rank/lin checks assume crash-free histories
  }

  if (!same_entries(inserted, out)) {
    std::ostringstream os;
    os << "conservation violated: inserted " << inserted.size()
       << " entries, got back " << out.size() << " (mixed-phase deletes "
       << deleted.size() << " + drained " << drained.size() << ")";
    return fail("conservation", os.str());
  }

  if (checks.quiescent_rank) {
    const PhaseCheckResult qr = check_quiescent_phase({}, inserted, deleted);
    if (!qr.ok) return fail("quiescent", qr.diagnostic);
  }
  if (checks.drain_sorted) {
    const PhaseCheckResult dr = check_drain_sorted(drained);
    if (!dr.ok) return fail("drain-order", dr.diagnostic);
  }

  if (checks.rank_error) {
    const RankErrorReport rr = compute_rank_error(rec.merged());
    // unmatched means a delete returned an entry no insert produced —
    // conservation in another coat, never legal on a crash-free run.
    if (rr.unmatched > 0) {
      std::ostringstream os;
      os << rr.unmatched << " deleted entr(ies) match no insert in the history";
      return fail("rank-error", os.str());
    }
    // Exactness holds wherever relaxation has no room to act: a sequential
    // run sampling every shard, or a single-priority key space (no entry
    // can be strictly smaller than another). See ScenarioChecks.
    if ((spec.npriorities == 1 || (samples_every_shard(spec) && spec.nprocs == 1)) &&
        !rr.exact()) {
      std::ostringstream os;
      os << "rank error must be 0 here (npriorities=" << spec.npriorities
         << " nprocs=" << spec.nprocs << "): mean=" << rr.mean << " p99=" << rr.p99
         << " max=" << rr.max << " nonzero=" << rr.nonzero << "/" << rr.deletes;
      return fail("rank-error", os.str());
    }
  }

  if (checks.linearizability) {
    const History h = rec.merged();
    if (h.size() <= kMaxLinOps && !check_linearizable(h).linearizable) {
      std::ostringstream os;
      os << "no valid linearization of the " << h.size() << "-op history exists";
      return fail("linearizability", os.str());
    }
  }
  return std::nullopt;
}

} // namespace

std::optional<StressFailure> run_scenario_with(const QueueFactory& make,
                                               const StressSpec& spec,
                                               const ScenarioChecks& checks) {
  if (spec.policy == sim::SchedulePolicy::kExhaustive)
    return run_exhaustive_with(make, spec, checks).failure;
  return run_one_execution(make, spec, checks, nullptr);
}

ExhaustiveResult run_exhaustive_with(const QueueFactory& make, const StressSpec& spec,
                                     const ScenarioChecks& checks) {
  if (spec.faulted())
    throw std::invalid_argument(
        "exhaustive exploration is incompatible with fault plans: a fault's "
        "access-ordinal trigger is not stable across schedules");
  sim::ExploreParams ep;
  ep.preempt_bound = spec.preempt_bound;
  ep.max_execs = spec.max_execs;
  sim::Explorer ex(spec.nprocs, ep);
  ExhaustiveResult res;
  while (!ex.finished()) {
    ex.begin_execution();
    auto f = run_one_execution(make, spec, checks, &ex);
    const u64 index = ex.execution_index();
    ex.end_execution();
    if (f) {
      // Stamp which execution failed so the counterexample line documents
      // its position in the (deterministic) exploration order.
      f->spec.trace = index;
      res.failing_exec = index;
      res.failure = std::move(f);
      break;
    }
  }
  res.stats = ex.stats();
  return res;
}

ExhaustiveResult run_exhaustive(const StressSpec& spec) {
  return run_exhaustive_with(registry_factory(spec), spec, checks_for(spec));
}

std::optional<StressFailure> run_scenario(const StressSpec& spec) {
  return run_scenario_with(registry_factory(spec), spec, checks_for(spec));
}

StressFailure minimize_with(const QueueFactory& make, const StressFailure& f,
                            const ScenarioChecks& checks) {
  StressFailure best = f;
  for (bool improved = true; improved;) {
    improved = false;
    std::vector<StressSpec> candidates;
    const StressSpec& s = best.spec;
    if (s.nprocs > 2) {
      StressSpec half = s;
      half.nprocs = std::max(2u, s.nprocs / 2);
      candidates.push_back(half);
      StressSpec dec = s;
      dec.nprocs = s.nprocs - 1;
      candidates.push_back(dec);
    }
    if (s.ops_per_proc > 1) {
      StressSpec half = s;
      half.ops_per_proc = std::max(1u, s.ops_per_proc / 2);
      candidates.push_back(half);
      StressSpec dec = s;
      dec.ops_per_proc = s.ops_per_proc - 1;
      candidates.push_back(dec);
    }
    for (const StressSpec& c : candidates) {
      if (auto r = run_scenario_with(make, c, checks)) {
        best = *r;
        improved = true;
        break;
      }
    }
  }
  return best;
}

StressFailure minimize(const StressFailure& f) {
  return minimize_with(registry_factory(f.spec), f, checks_for(f.spec));
}

std::vector<StressFailure> run_sweep(const StressSweep& sweep, std::ostream* progress) {
  const std::vector<Algorithm>& algos =
      sweep.algorithms.empty() ? all_algorithms() : sweep.algorithms;
  const u64 first_seed = sweep.base.seed;
  std::vector<sim::SchedulePolicy> policies = sweep.policies;
  if (policies.empty()) {
    policies = {sim::SchedulePolicy::kSmallestClock, sim::SchedulePolicy::kRandomPreempt,
                sim::SchedulePolicy::kDelayLeader};
  }

  std::vector<StressFailure> failures;
  auto sweep_one = [&](StressSpec spec) {
    if (failures.size() >= sweep.max_failures) return;
    if (sweep.on_scenario) sweep.on_scenario(spec);
    if (spec.policy == sim::SchedulePolicy::kExhaustive) {
      // Exhaustive scenarios go through the exploring driver directly so
      // coverage is reported honestly even when the exploration is clean.
      ExhaustiveResult r = run_exhaustive_with(registry_factory(spec), spec, checks_for(spec));
      if (progress)
        *progress << "  " << to_string(spec.algo) << " seed " << spec.seed
                  << " exhaustive: " << sim::to_string(r.stats) << "\n";
      if (r.failure) {
        failures.push_back(sweep.minimize_failures ? minimize(*r.failure) : *r.failure);
        if (progress) *progress << format_failure(failures.back());
      }
      return;
    }
    if (auto r = run_scenario(spec)) {
      failures.push_back(sweep.minimize_failures ? minimize(*r) : *r);
      if (progress) *progress << format_failure(failures.back());
    }
  };

  for (Algorithm algo : algos) {
    for (sim::SchedulePolicy policy : policies) {
      StressSpec spec = sweep.base;
      spec.algo = algo;
      spec.policy = policy;
      // The baseline policy stays jitter-free: it is the paper's
      // measurement schedule, kept as the known-good reference point. The
      // exhaustive policy owns the schedule outright, so jitter is moot.
      if (policy == sim::SchedulePolicy::kSmallestClock ||
          policy == sim::SchedulePolicy::kExhaustive)
        spec.access_jitter = 0;
      // Under exhaustive exploration the strict-guarantee algorithms get
      // the Wing-Gong checker inline (the sub-sweep below is redundant
      // when every schedule is visited anyway).
      if (policy == sim::SchedulePolicy::kExhaustive &&
          (algo == Algorithm::kSingleLock || algo == Algorithm::kLockfreeSkipList))
        spec.check_lin = true;
      const std::size_t before = failures.size();
      for (u64 seed = first_seed; seed < first_seed + sweep.seeds; ++seed) {
        spec.seed = seed;
        sweep_one(spec);
        if (failures.size() >= sweep.max_failures) break;
      }
      // SingleLock holds one lock across whole operations (the paper's one
      // unconditional guarantee) and the lock-free skiplist's claiming CAS
      // is a per-op linearization point: both get the exhaustive checker on
      // small histories.
      if ((algo == Algorithm::kSingleLock || algo == Algorithm::kLockfreeSkipList) &&
          policy != sim::SchedulePolicy::kExhaustive &&
          failures.size() < sweep.max_failures) {
        StressSpec lin = spec;
        lin.nprocs = 3;
        lin.ops_per_proc = 4;
        lin.check_lin = true;
        for (u64 seed = first_seed; seed < first_seed + sweep.seeds; ++seed) {
          lin.seed = seed;
          sweep_one(lin);
          if (failures.size() >= sweep.max_failures) break;
        }
      }
      if (progress) {
        *progress << to_string(algo) << " x " << to_string(policy) << ": seeds "
                  << first_seed << ".." << (first_seed + sweep.seeds - 1) << " "
                  << (failures.size() == before ? "ok" : "FAILED") << "\n";
      }
      if (failures.size() >= sweep.max_failures) return failures;
    }
  }
  return failures;
}

} // namespace fpq::verify
