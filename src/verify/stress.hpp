// Schedule-exploration stress harness (the standing correctness gate).
//
// A StressSpec fully determines one deterministic scenario: an algorithm, a
// schedule policy (sim/params.hpp), a seed, the machine's scheduling knobs
// and the workload shape. The runner drives the queue through a mixed
// insert/delete phase followed by a quiescent drain, recording the op
// history, and applies the Appendix-B checkers:
//
//   * conservation   — every inserted entry comes back exactly once;
//   * quiescent      — phase rank bound (check_quiescent_phase) with the
//                      empty queue as the opening quiescent point;
//   * drain-order    — the solo drain yields nondecreasing priorities;
//   * linearizability— Wing-Gong check, gated per spec (exhaustive, so only
//                      small-history specs enable it).
//
// A sweep fans specs across algorithms x policies x seeds; the first
// failure is greedily minimized (fewer processors, fewer ops — reruns are
// free because scenarios are deterministic) and serialized as a one-line
// replay spec plus the op trace, so
//
//   fpq_stress --replay "algo=... policy=... seed=..."
//
// reproduces it exactly. See DESIGN.md §7 and tests/stress_main.cpp.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "funnel/params.hpp"
#include "reclaim/policy.hpp"
#include "platform/sim.hpp"
#include "sim/explore.hpp"
#include "sim/faults.hpp"
#include "verify/history.hpp"

namespace fpq::verify {

struct StressSpec {
  Algorithm algo = Algorithm::kSingleLock;
  sim::SchedulePolicy policy = sim::SchedulePolicy::kSmallestClock;
  u64 seed = 1;
  u32 nprocs = 4;
  u32 ops_per_proc = 12;
  u32 npriorities = 8;
  /// Percentage of operations that are inserts (rest are delete-mins).
  u32 insert_percent = 60;
  /// Scheduler knobs (sim::SchedParams); recorded so a replay reconstructs
  /// the exact machine.
  u32 perturb_permille = 250;
  Cycles max_delay = 256;
  Cycles access_jitter = 0;
  /// Batch width: 1 runs the classic point-op mixed phase; > 1 groups each
  /// processor's operations into insert_batch/delete_min_batch calls of up
  /// to this size (PqParams::max_batch is set to match). Every batched
  /// element is recorded as its own operation sharing the batch's
  /// [invoke, response] window, so the same checkers apply unchanged.
  u32 batch = 1;
  /// Memory-reclamation policy for the queues that reclaim through
  /// reclaim::Domain (PqParams::reclaim_policy); ignored by the rest.
  reclaim::Policy reclaim = reclaim::Policy::kHazardPointer;
  /// Funnel collision protocol (FunnelOptions::protocol) for the funnel
  /// queues — exchange (paper) or aggregate (Roh et al. '24); ignored by
  /// the rest.
  FunnelProtocol funnel = FunnelProtocol::kExchange;
  /// Sharded-composite knobs (PqParams::shard), ignored by every other
  /// algorithm. Serialized as `shards= c= mode=` — but only for kSharded
  /// specs, so pre-existing replay lines stay byte-identical. shards=0 is
  /// auto (shard_policy.hpp); sample_c=0 samples every shard (exact mode).
  u32 shards = 0;
  u32 sample_c = 0;
  ShardPolicyKind shard_mode = ShardPolicyKind::kAdaptive;
  /// Gate the exhaustive linearizability checker (keep histories small:
  /// nprocs * ops_per_proc + drain must stay around 20 ops).
  bool check_lin = false;
  /// Attach the happens-before race detector and the lock-order checker
  /// (sim/race_detector.hpp) to the scenario's engine; any report becomes a
  /// failure of kind "race" or "lock-order". Timing is unchanged, so a spec
  /// replays identically with the flag on or off.
  bool race_detect = false;
  /// Fault plan injected into the scenario's engine (sim/faults.hpp);
  /// empty = fault-free. Under a non-empty plan the strict conservation /
  /// quiescent checks are replaced by the weaker no-fabrication check (a
  /// crashed processor's in-flight op may legally half-apply), and an
  /// insert refusal under an alloc-failure plan is a recorded no-op rather
  /// than a capacity failure. Serialized in the replay line as faults= /
  /// watchdog=, so minimized fault counterexamples replay like any other.
  sim::FaultPlan faults;
  /// Watchdog budget (accesses between P::heartbeat() calls) forwarded to
  /// FaultPlan::watchdog_budget; 0 disables. Required for plans that stall
  /// a lock holder whose waiters spin without parking.
  u64 watchdog = 0;
  /// Exhaustive exploration only (policy == kExhaustive; the keys are
  /// serialized only then, so every other replay line stays byte-identical).
  /// preempt_bound / max_execs map onto sim::ExploreParams; 0 = unbounded.
  u32 preempt_bound = 0;
  u64 max_execs = u64{1} << 20;
  /// 0-based index of the failing execution within the exploration, stamped
  /// onto counterexample specs. Informational on replay: the exploration
  /// order is deterministic, so re-exploring reaches the same execution.
  u64 trace = 0;

  bool faulted() const { return !faults.empty() || watchdog != 0; }

  /// Machine for this scenario: default timing, spec's scheduling.
  sim::MachineParams machine() const;
};

/// One-line key=value serialization, parseable by spec_from_line.
std::string to_line(const StressSpec& s);
/// Parses to_line output (order-insensitive); throws std::invalid_argument.
StressSpec spec_from_line(const std::string& line);
/// Sets one replay-line key (`schedule` is an alias of `policy`); throws
/// std::invalid_argument for an unknown key or a malformed value. The one
/// parser behind spec_from_line and fpq_stress's workload flags.
void set_spec_key(StressSpec& s, std::string_view key, const std::string& val);
/// Throws std::invalid_argument unless procs, ops, nprio and batch are
/// >= 1 and ins <= 100. spec_from_line applies it; so does fpq_stress.
void validate(const StressSpec& s);
/// Parses a SchedulePolicy display name; throws std::invalid_argument.
sim::SchedulePolicy policy_from_string(std::string_view name);

struct StressFailure {
  StressSpec spec;
  std::string kind; // conservation | quiescent | drain-order | linearizability
                    // | capacity | race | lock-order | fault-conservation
                    // | rank-error | deadlock
  std::string diagnostic;
  /// Recorded op trace: the mixed phase (all procs) then the quiescent
  /// drain (proc 0), in invocation order.
  History trace;
};

/// Human-readable dump: kind, diagnostic, replay line, machine, op trace.
std::string format_failure(const StressFailure& f);

/// Factory injection point so the harness itself is testable against
/// deliberately broken queues (tests/test_stress.cpp).
using QueueFactory =
    std::function<std::unique_ptr<IPriorityQueue<SimPlatform>>(const PqParams&)>;

/// Which checks to apply; run_scenario derives this from the algorithm
/// (SkipList's stale delete-bin is exempt from the rank bound by design;
/// the sharded composite trades the rank bound for the rank-error metric,
/// and its solo drain is sorted only when the sample covers every shard).
struct ScenarioChecks {
  bool quiescent_rank = true;
  bool drain_sorted = true;
  bool linearizability = false;
  /// Score the history with verify/rank_error.hpp (kSharded). Exactness
  /// (rank error identically 0) is enforced where it must hold: sequential
  /// runs with c == K, and any npriorities == 1 history; a concurrent
  /// c == K run may transiently miss a mid-refill entry, which is the
  /// quiescent relaxation the composite documents. unmatched entries fail
  /// unconditionally.
  bool rank_error = false;
};

/// Runs one scenario; nullopt when every enabled check passes. A spec with
/// policy == kExhaustive is dispatched to run_exhaustive_with (the whole
/// exploration is "one scenario": it fails iff some schedule fails).
std::optional<StressFailure> run_scenario(const StressSpec& spec);
std::optional<StressFailure> run_scenario_with(const QueueFactory& make,
                                               const StressSpec& spec,
                                               const ScenarioChecks& checks);

/// Result of exhaustively exploring one scenario's schedule space: the
/// first failing execution (if any) plus honest coverage accounting — a
/// clean result with !stats.complete() is qualified, not a proof.
struct ExhaustiveResult {
  std::optional<StressFailure> failure;
  sim::ExploreStats stats;
  /// 0-based index of the failing execution (== failure->spec.trace).
  u64 failing_exec = 0;
};

/// Runs the scenario under every DPOR-non-redundant schedule (fresh queue
/// and engine per execution, same seed, full oracle stack each time).
/// Throws std::invalid_argument for faulted specs: fault injection and
/// systematic exploration are mutually exclusive.
ExhaustiveResult run_exhaustive(const StressSpec& spec);
ExhaustiveResult run_exhaustive_with(const QueueFactory& make, const StressSpec& spec,
                                     const ScenarioChecks& checks);

/// Greedy shrink (processors, then ops per processor) while the scenario
/// still fails any enabled check. Deterministic and cheap: a handful of
/// reruns of an already-small scenario.
StressFailure minimize(const StressFailure& f);
StressFailure minimize_with(const QueueFactory& make, const StressFailure& f,
                            const ScenarioChecks& checks);

/// A sweep: one base scenario fanned across algorithms x policies x seeds.
struct StressSweep {
  /// Every scenario starts from this spec; algo, policy and seed are set
  /// per scenario (seeds run from base.seed up). Its jitter applies to the
  /// perturbing policies only: the smallest-clock baseline and the
  /// exhaustive policy always run jitter-free.
  StressSpec base = [] {
    StressSpec s;
    s.access_jitter = 64;
    return s;
  }();
  std::vector<Algorithm> algorithms;         // empty = all nine
  std::vector<sim::SchedulePolicy> policies; // empty = the three randomized
  u32 seeds = 32;
  bool minimize_failures = true;
  /// Stop sweeping after this many failures (each is minimized).
  u32 max_failures = 1;
  /// Invoked with each spec just before it runs. The driver uses this to
  /// keep the current spec in a buffer its SIGABRT handler prints, so even
  /// an FPQ_ASSERT abort inside an algorithm leaves a replayable spec.
  std::function<void(const StressSpec&)> on_scenario;
};

/// Fans scenarios across algorithms x policies x seeds. For algorithms the
/// paper classifies as linearizable with a hard guarantee (SingleLock), an
/// additional small-history linearizability sweep runs per policy x seed.
/// Returns the (minimized) failures; empty means the gate is clean.
std::vector<StressFailure> run_sweep(const StressSweep& sweep,
                                     std::ostream* progress = nullptr);

} // namespace fpq::verify
